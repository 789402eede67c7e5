"""Coefficient-weighted sums of congruence counts over dyadic cells.

The family ranges over u in (U, 2U], v in (V, 2V], w in (W, 2W] subject to
gcd(rsuv, tw) = 1, and sums weights d_{u,v} e_w times the exact count for

    r u^l x + s v^m y^2 = 0 (mod t w)

with y in J and x between boundary functions.  The predicted main term
replaces each count by (tw)^{-1} sum_y (f_hi - f_lo); the error budget is
the pair (UVWY/H, T_envelope) where T_envelope carries the Delta_H
distortion, a cell-structure term, and the large-modulus term Z.

Coefficient values are drawn deterministically from the closed unit disc by
a splitmix64 hash of (seed, role, indices): the same (seed, cell) always
yields the same weight, independent of iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .congruence import (
    AffineBoundary,
    BoundarySpec,
    Interval,
    RationalLike,
    affine_bounds,
    box_bounds,
    class_sums,
    linear_class,
)

SCHEMES = ("all-ones", "factorized", "joint")

_MASK = (1 << 64) - 1
_TAG_DU, _TAG_DV, _TAG_DJOINT, _TAG_E = 1, 2, 3, 4


def _sm(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix(seed: int, *keys: int) -> int:
    h = _sm(seed & _MASK)
    for k in keys:
        h = _sm(h ^ (k & _MASK))
    return h


def unit_disc_point(seed: int, tag: int, *indices: int) -> complex:
    """Deterministic point of the closed unit disc keyed by (seed, tag, indices)."""
    u1 = _mix(seed, tag, *indices, 101) / 2.0**64
    u2 = _mix(seed, tag, *indices, 202) / 2.0**64
    r = math.sqrt(u1)
    return complex(r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2))


@dataclass(frozen=True)
class FamilyBounds:
    """x-boundaries as affine functions of y, the same in every cell, with
    sensitivity metadata.

    rho_u, sigma_v, tau_y scale the u-, v-, y-sensitivity of the boundaries
    relative to the magnitude F (so e.g. |d f/d y| <= tau_y * F); they feed
    the Delta_H distortion factor only, never an exact count.
    """

    lower: AffineBoundary
    upper: AffineBoundary
    rho_u: float
    sigma_v: float
    tau_y: float
    F: float

    def __post_init__(self):
        if self.F <= 0:
            raise ValueError("magnitude F must be positive")
        if min(self.rho_u, self.sigma_v, self.tau_y) < 0:
            raise ValueError("sensitivity parameters must be nonnegative")


def constant_bounds(X: RationalLike) -> FamilyBounds:
    """The box (0, X] for every cell; F = X, all sensitivities zero."""
    box = box_bounds(X)
    return FamilyBounds(box.lower, box.upper, 0.0, 0.0, 0.0, float(box.upper.intercept))


def affine_in_y_bounds(
    lo_intercept: RationalLike,
    lo_slope: RationalLike,
    hi_intercept: RationalLike,
    hi_slope: RationalLike,
    F: float,
) -> FamilyBounds:
    """Cell-independent affine boundaries f(y) = intercept + slope y."""
    spec = affine_bounds(lo_intercept, lo_slope, hi_intercept, hi_slope)
    tau_y = float(spec.derivative_bound) / F
    return FamilyBounds(spec.lower, spec.upper, 0.0, 0.0, tau_y, F)


@dataclass(frozen=True)
class AveragedFamily:
    l: int
    m: int
    r: int
    s: int
    t: int
    U: Fraction
    V: Fraction
    W: Fraction
    J: Interval
    bounds: FamilyBounds
    scheme: str = "all-ones"
    seed: int = 0

    def __post_init__(self):
        for name in ("U", "V", "W"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.l < 1 or self.m < 1:
            raise ValueError("exponents l, m must be >= 1")
        if self.r == 0 or self.s == 0:
            raise ValueError("coefficients r, s must be nonzero")
        if self.t < 1:
            raise ValueError("t must be a positive integer")
        if math.gcd(self.r * self.s, self.t) != 1:
            raise ValueError("r*s must be coprime to t")
        if min(self.U, self.V, self.W) < Fraction(1, 2):
            raise ValueError("dyadic parameters U, V, W must be >= 1/2")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown coefficient scheme {self.scheme!r}")

    # ---- cells and coefficients ----

    def _range(self, P: Fraction) -> range:
        return range(int(P // 1) + 1, int((2 * P) // 1) + 1)

    def cells(self) -> list[tuple[int, int, int]]:
        """Admissible (u, v, w) in lexicographic order."""
        out = []
        for u in self._range(self.U):
            for v in self._range(self.V):
                if math.gcd(self.r * self.s * u * v, self.t) != 1:
                    continue
                for w in self._range(self.W):
                    if math.gcd(self.r * self.s * u * v, self.t * w) == 1:
                        out.append((u, v, w))
        return out

    def d_coeff(self, u: int, v: int) -> complex:
        if self.scheme == "all-ones":
            return 1 + 0j
        if self.scheme == "factorized":
            return unit_disc_point(self.seed, _TAG_DU, u) * unit_disc_point(
                self.seed, _TAG_DV, v
            )
        return unit_disc_point(self.seed, _TAG_DJOINT, u, v)

    def e_coeff(self, w: int) -> complex:
        if self.scheme == "all-ones":
            return 1 + 0j
        return unit_disc_point(self.seed, _TAG_E, w)


def _work_estimate(family: AveragedFamily) -> int:
    n = 1
    for P in (family.U, family.V, family.W):
        n *= max(len(family._range(P)), 1)
    return n * max(len(family.J.integers()), 1)


def cell_sums(family: AveragedFamily) -> list[tuple[int, int, int, int, Fraction]]:
    """(u, v, w, n, mt) for every cell, in cell order: n the exact count of
    r u^l x + s v^m y^2 = 0 (mod tw) over J between the boundaries, mt its
    main term.  Neither reads the seed or the scheme, so one table serves
    every seed of a family.  The cells of one w share the modulus tw and,
    the boundaries being the same in every cell, the main term: they are
    counted together, in one class_sums walk per w."""
    if _work_estimate(family) > 10**9:
        raise ValueError("family too large: estimated work exceeds 1e9 steps")
    fb = family.bounds
    bounds = BoundarySpec(fb.lower, fb.upper, Fraction(fb.tau_y * fb.F))
    cells = family.cells()
    by_w: dict[int, list[int]] = {}
    for i, (_, _, w) in enumerate(cells):
        by_w.setdefault(w, []).append(i)
    table = [None] * len(cells)
    for w, rows in by_w.items():
        q = family.t * w
        ks = [linear_class(family.r * cells[i][0] ** family.l,
                           family.s * cells[i][1] ** family.m, q) for i in rows]
        counts, mt = class_sums(ks, q, bounds, family.J)
        for i, n in zip(rows, counts):
            table[i] = (*cells[i], n, mt)
    return table


def _weighted_sums(family: AveragedFamily, cells: list) -> tuple[complex, complex]:
    """(S, M) over the cell_sums table, each accumulated in cell order and
    skipping its own zero terms.  d_coeff and e_coeff are taken once per
    distinct (u, v) and w of the call; the weights keep their bits."""
    S = M = 0j
    d: dict[tuple[int, int], complex] = {}
    e: dict[int, complex] = {}
    for u, v, w, n, mt in cells:
        if n or mt:
            if (u, v) not in d:
                d[u, v] = family.d_coeff(u, v)
            if w not in e:
                e[w] = family.e_coeff(w)
            weight = d[u, v] * e[w]
            if n:
                S += weight * n
            if mt:
                M += weight * float(mt)
    return S, M


# ---- error budget ----

def delta_H(family: AveragedFamily, H: float) -> float:
    """(1 + HF rho U/(tW)) (1 + HF sigma V/(tW)) (1 + HF tau Y/(tW))."""
    if H <= 0:
        raise ValueError("H must be positive")
    b = family.bounds
    tW = family.t * float(family.W)
    Y = float(family.J.length)
    return (
        (1.0 + H * b.F * b.rho_u * float(family.U) / tW)
        * (1.0 + H * b.F * b.sigma_v * float(family.V) / tW)
        * (1.0 + H * b.F * b.tau_y * Y / tW)
    )


def _structured_Z(family: AveragedFamily) -> bool:
    # weights that factor (all but the joint scheme) over cells with UV >= tW
    return family.scheme != "joint" and family.U * family.V >= family.t * family.W


def _frac_half(k: int) -> float:
    return 0.5 if k % 2 else 0.0


class ErrorBudget(NamedTuple):
    H: float
    epsilon: float
    delta_H: float
    Z: float
    T_envelope: float
    first_O: float
    hcond_ok: bool


def error_budget(family: AveragedFamily, H: float, epsilon: float) -> ErrorBudget:
    """The two-part budget (UVWY/H, T_envelope).

    T_envelope = Delta_H (Y/sqrt(tW) (U^{1-{l/2}} V^{1-{m/2}} W + U V sqrt(W))
                 + Z) (H t U V W)^eps, with Z depending on whether the
    weights factor and the cells outgrow the modulus.  hcond_ok records
    whether H >= tW/F.
    """
    if H <= 0:
        raise ValueError("H must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    U, V, W = float(family.U), float(family.V), float(family.W)
    Y = float(family.J.length)
    t = family.t
    tW = t * W
    delta = delta_H(family, H)
    if _structured_Z(family):
        Z = math.sqrt((tW + U) * (tW + V)) * math.sqrt(U * V) * W
    else:
        Z = math.sqrt(tW) * U * V * W
    cell_term = (
        U ** (1.0 - _frac_half(family.l)) * V ** (1.0 - _frac_half(family.m)) * W
        + U * V * math.sqrt(W)
    )
    T = delta * (Y / math.sqrt(tW) * cell_term + Z) * (H * t * U * V * W) ** epsilon
    return ErrorBudget(
        H,
        epsilon,
        delta,
        Z,
        T,
        U * V * W * Y / H,
        H >= tW / family.bounds.F,
    )


def char_length(family: AveragedFamily) -> float:
    """Characteristic x-interval length: max of 0 and (f_hi - f_lo) at the
    endpoints of J (the boundaries are the same in every cell)."""
    us = family._range(family.U)
    vs = family._range(family.V)
    ws = family._range(family.W)
    if not (us and vs and ws):
        raise ValueError("family has no cells")
    b = family.bounds
    ends = (family.J.y0, family.J.y0 + family.J.length)
    return max(0.0, *(float(b.upper(y) - b.lower(y)) for y in ends))


def suggest_H(family: AveragedFamily, epsilon: float, X: float | None = None) -> float:
    """(tW)^{1+eps} / X; requires 0 < X <= tW."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    tW = family.t * float(family.W)
    if X is None:
        X = char_length(family)
    if X <= 0:
        raise ValueError("characteristic length X must be positive")
    if X > tW:
        raise ValueError("suggest_H requires X <= tW")
    return tW ** (1.0 + epsilon) / X


class DominanceReport(NamedTuple):
    q0: float
    X: float
    Z_structured: float
    main_ok: bool
    t_ok: bool
    warnings: tuple[str, ...]


def dominance_report(
    family: AveragedFamily, epsilon: float, X: float | None = None
) -> DominanceReport:
    """Checks that the modulus scale q0 = tW is small enough for the budget
    to fall below the main term: q0^{1+eps} <= min(U^{2{l/2}} V^{2{m/2}} X^2, Z)
    and q0^eps sqrt(t) <= X, where Z is (UV)^{1/4} (XY)^{1/2} for factorizing
    weights with UV >= tW and (XY)^{2/3} otherwise.  Outside the regime
    U, V <= tW the verdicts still evaluate but carry warnings."""
    if X is None:
        X = char_length(family)
    if X <= 0:
        raise ValueError("characteristic length X must be positive")
    U, V = float(family.U), float(family.V)
    Y = float(family.J.length)
    q0 = family.t * float(family.W)
    warnings = []
    if U > q0:
        warnings.append("U exceeds tW; dominance conditions are outside their regime")
    if V > q0:
        warnings.append("V exceeds tW; dominance conditions are outside their regime")
    if _structured_Z(family):
        Z = (U * V) ** 0.25 * math.sqrt(X * Y)
    else:
        Z = (X * Y) ** (2.0 / 3.0)
    lhs_main = q0 ** (1.0 + epsilon)
    rhs_main = min(
        U ** (2.0 * _frac_half(family.l)) * V ** (2.0 * _frac_half(family.m)) * X * X,
        Z,
    )
    return DominanceReport(
        q0,
        X,
        Z,
        lhs_main <= rhs_main,
        q0**epsilon * math.sqrt(family.t) <= X,
        tuple(warnings),
    )


class AveragedReport(NamedTuple):
    family: AveragedFamily
    H: float
    epsilon: float
    S: complex
    M: complex
    first_O: float
    T_envelope: float
    ratio: float
    hcond_ok: bool


def avg_report(
    family: AveragedFamily, H: float, epsilon: float, cells: list | None = None
) -> AveragedReport:
    """Exact weighted sum vs predicted main term vs error budget.  cells is
    the cell_sums table of the family, built here when not given; families
    that differ only in seed or scheme share it."""
    S, M = _weighted_sums(family, cell_sums(family) if cells is None else cells)
    budget = error_budget(family, H, epsilon)
    denom = budget.first_O + budget.T_envelope
    return AveragedReport(
        family,
        H,
        epsilon,
        S,
        M,
        budget.first_O,
        budget.T_envelope,
        abs(S - M) / denom,
        budget.hcond_ok,
    )
