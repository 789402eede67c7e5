"""Sawtooth function psi(x) = {x} - 1/2 and its trigonometric approximations.

Two truncations are provided: the plain Fourier partial sum, and the degree-H
approximating polynomial whose error is majorized pointwise by the Fejer
kernel average

    |psi(x) - V_H(x)| <= (H+1)^{-1} sum_{|h| <= H} (1 - |h|/(H+1)) e(hx).

The coefficients of V_H are a_h = i * J(h/(H+1)) / (2 pi h) with
J(x) = pi x (1 - |x|) cot(pi x) + |x|; they are purely imaginary,
conjugate-symmetric, and satisfy |a_h| <= 1/(pi |h|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TWO_PI = 2.0 * math.pi
_ROWS = 1 << 12  # x values per block of the N x H temporaries


def _row_sums(xs, hs: np.ndarray, f, w: np.ndarray) -> np.ndarray:
    # sum_h w_h f(2 pi h x) at each x, over blocks of _ROWS rows of the x-by-h
    # outer product; each row is summed alone, so the blocks change no value
    xs = np.ravel(xs)
    out = np.empty(xs.size)
    for i in range(0, xs.size, _ROWS):
        out[i : i + _ROWS] = (f(_TWO_PI * np.outer(xs[i : i + _ROWS], hs)) * w).sum(axis=1)
    return out


def psi(x):
    """{x} - 1/2, periodic with period 1, values in [-1/2, 1/2); x may be a
    float or an array."""
    return x - np.floor(x) - 0.5


def psi_fourier(x: float, H: int) -> float:
    """Partial Fourier sum -sum_{h<=H} sin(2 pi h x)/(pi h)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    return -sum(math.sin(_TWO_PI * h * x) / (math.pi * h) for h in range(1, H + 1))


def _taper(t: float) -> float:
    # pi t (1 - t) cot(pi t) + t on (0, 1); values in (0, 1)
    return math.pi * t * (1.0 - t) / math.tan(math.pi * t) + t


@dataclass(frozen=True)
class VaalerPolynomial:
    """Degree-H approximation to psi with Fejer-majorized error.

    coeffs[h-1] holds a_h for h = 1..H; a_{-h} is the conjugate and a_0 = 0.
    """

    H: int
    coeffs: tuple[complex, ...]

    def coefficient(self, h: int) -> complex:
        if h == 0 or abs(h) > self.H:
            return 0j
        a = self.coeffs[abs(h) - 1]
        return a if h > 0 else a.conjugate()

    def evaluate(self, x: float) -> float:
        return float(self.evaluate_many(np.array([x]))[0])

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        # real form of sum_{1<=|h|<=H} a_h e(hx) with a_h = i w_h/(2 pi h)
        hs = np.arange(1, self.H + 1, dtype=np.float64)
        w = np.array([2.0 * c.imag for c in self.coeffs])
        return -_row_sums(xs, hs, np.sin, w)


@lru_cache(maxsize=None)
def vaaler_polynomial(H: int) -> VaalerPolynomial:
    if H < 1:
        raise ValueError("H must be >= 1")
    coeffs = tuple(
        1j * _taper(h / (H + 1)) / (_TWO_PI * h) for h in range(1, H + 1)
    )
    return VaalerPolynomial(H, coeffs)


def fejer_majorant(x: float, H: int) -> float:
    return float(fejer_majorant_many(np.array([x]), H)[0])


def fejer_majorant_many(xs: np.ndarray, H: int) -> np.ndarray:
    """(H+1)^{-1} sum_{|h|<=H} (1 - |h|/(H+1)) e(hx) at each x; nonnegative,
    mean 1/(H+1)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    hs = np.arange(1, H + 1, dtype=np.float64)
    w = 2.0 * (1.0 - hs / (H + 1))
    return (1.0 + _row_sums(xs, hs, np.cos, w)) / (H + 1)


def vaaler_check(x: float, H: int, slack: float = 0.0) -> bool:
    """Does |psi(x) - V_H(x)| <= majorant(x) + slack hold at x?"""
    poly = vaaler_polynomial(H)
    return bool(abs(psi(x) - poly.evaluate(x)) <= fejer_majorant(x, H) + slack)
