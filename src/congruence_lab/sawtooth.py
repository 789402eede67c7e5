"""Sawtooth function psi(x) = {x} - 1/2 and its trigonometric approximation.

V_H is the degree-H approximating polynomial whose error is majorized
pointwise by the Fejer kernel average

    |psi(x) - V_H(x)| <= (H+1)^{-1} sum_{|h| <= H} (1 - |h|/(H+1)) e(hx).

Its coefficients a_h = i J(h/(H+1)) / (2 pi h), J(x) = pi x (1 - |x|) cot(pi x)
+ |x| in (0, 1), are purely imaginary and conjugate-symmetric, so V_H(x) =
-sum_{h=1}^H w_h sin(2 pi h x) with sine weights w_h = 2 Im a_h in (0, 1/(pi h)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import block_rows

_TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 14  # x values per block of the majorant screen
MAX_SCREEN_H = 10**6  # largest H for which slack_error_bound is derived


def _row_sums(xs, hs: np.ndarray, f, w: np.ndarray) -> np.ndarray:
    # sum_h w_h f(2 pi h x) at each x, over blocks of block_rows(H) rows of
    # the x-by-h outer product; each row is summed alone, so the blocks change
    # no value
    xs = np.ravel(xs)
    out = np.empty(xs.size)
    rows = block_rows(hs.size)
    for i in range(0, xs.size, rows):
        out[i : i + rows] = (f(_TWO_PI * np.outer(xs[i : i + rows], hs)) * w).sum(axis=1)
    return out


def psi(x):
    """{x} - 1/2, periodic with period 1, values in [-1/2, 1/2); x may be a
    float or an array."""
    return x - np.floor(x) - 0.5


def _taper(t: float) -> float:
    # pi t (1 - t) cot(pi t) + t on (0, 1); values in (0, 1)
    return math.pi * t * (1.0 - t) / math.tan(math.pi * t) + t


@dataclass(frozen=True, eq=False)
class VaalerPolynomial:
    """Degree-H approximation to psi with Fejer-majorized error, held as its
    sine weights: sine_weights[h-1] = w_h for h = 1..H, a read-only float64
    array, so V_H(x) = -sum_h w_h sin(2 pi h x) and the record takes 8 H bytes."""

    H: int
    sine_weights: np.ndarray

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        hs = np.arange(1, self.H + 1, dtype=np.float64)
        return -_row_sums(xs, hs, np.sin, self.sine_weights)


def vaaler_polynomial(H: int) -> VaalerPolynomial:
    if H < 1:
        raise ValueError("H must be >= 1")
    w = np.fromiter((2.0 * (_taper(h / (H + 1)) / (_TWO_PI * h)) for h in range(1, H + 1)),
                    np.float64, H)
    w.flags.writeable = False
    return VaalerPolynomial(H, w)


def fejer_majorant_many(xs: np.ndarray, H: int) -> np.ndarray:
    """(H+1)^{-1} sum_{|h|<=H} (1 - |h|/(H+1)) e(hx) at each x; nonnegative,
    mean 1/(H+1)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    hs = np.arange(1, H + 1, dtype=np.float64)
    w = 2.0 * (1.0 - hs / (H + 1))
    return (1.0 + _row_sums(xs, hs, np.cos, w)) / (H + 1)


def slack_error_bound(H: int) -> float:
    """E(H) = (4 H^2 + 21 H + 90) 2^-47, a bound on |screen - row sums| for
    the slack |psi - V_H| - majorant at any float x in [0, 1) and
    1 <= H <= MAX_SCREEN_H; README "Conventions" derives it."""
    return (4 * H * H + 21 * H + 90) * 2.0**-47


def _screen_slack(xs: np.ndarray, poly: VaalerPolynomial) -> np.ndarray:
    # |psi - V_H| - majorant at each x of one block, from closed forms: V_H by
    # the Clenshaw recurrence for sum_h w_h sin(h theta) (one cos and one sin
    # per x, then H multiply-adds), the majorant as the squared Fejer ratio of
    # r = x - round(x), which is 1 at r = 0 (and below 2^-1000, where the
    # ratio's subnormal pieces lose precision but the majorant rounds to 1)
    H = poly.H
    r = xs - np.round(xs)
    num = np.sin((math.pi * (H + 1)) * r)
    den = (H + 1) * np.sin(math.pi * r)
    ratio = np.divide(num, den, out=np.ones(xs.size), where=np.abs(r) >= 2.0**-1000)
    del r, num, den
    theta = _TWO_PI * xs
    c2 = 2.0 * np.cos(theta)
    b1, b2, t = np.zeros(xs.size), np.zeros(xs.size), np.empty(xs.size)
    for wk in reversed(poly.sine_weights.tolist()):
        np.multiply(c2, b1, out=t)
        t -= b2
        t += wk
        b1, b2, t = t, b1, b2
    del c2, b2, t
    b1 *= np.sin(theta)  # sum_h w_h sin(h theta) = -V_H
    return np.abs(psi(xs) + b1) - ratio * ratio


def majorant_slack(xs, H: int) -> tuple[int, float]:
    """(violations, worst) of the slack |psi(x) - V_H(x)| - majorant(x) over
    xs in [0, 1): the number of x with slack > 0 and the largest slack, both
    equal to those of the row sums evaluate_many and fejer_majorant_many.

    A closed-form screen over blocks of 2^14 x is within E =
    slack_error_bound(H) of the row-sum slack.  Screened slacks above E are
    violations and those below -E are not; the x with |screen| <= E, and
    those within 2E of the largest screened slack (where the largest row-sum
    slack must lie), are recomputed by the row sums, which sum each x alone
    and so give the same bits as on the whole of xs."""
    if H > MAX_SCREEN_H:
        raise ValueError(f"majorant_slack needs H <= {MAX_SCREEN_H}, got H = {H}")
    poly = vaaler_polynomial(H)
    xs = np.ravel(np.asarray(xs, dtype=np.float64))
    if xs.size == 0:
        raise ValueError("majorant_slack needs at least one x")
    if not (xs.min() >= 0.0 and xs.max() < 1.0):
        raise ValueError("majorant_slack needs every x in [0, 1)")
    E = slack_error_bound(H)
    violations, top = 0, -math.inf
    picked, picked_f = [], []
    for i in range(0, xs.size, _BLOCK):
        f = _screen_slack(xs[i : i + _BLOCK], poly)
        violations += int(np.count_nonzero(f > E))
        top = max(top, float(f.max()))
        keep = np.flatnonzero((np.abs(f) <= E) | (f >= top - 2 * E))
        picked.append(i + keep)
        picked_f.append(f[keep])
    f = np.concatenate(picked_f)
    keep = (np.abs(f) <= E) | (f >= top - 2 * E)
    idx, near = np.concatenate(picked)[keep], np.abs(f[keep]) <= E
    xc = xs[idx]
    slack = np.abs(psi(xc) - poly.evaluate_many(xc)) - fejer_majorant_many(xc, H)
    return violations + int(np.count_nonzero(slack[near] > 0)), float(slack.max())
