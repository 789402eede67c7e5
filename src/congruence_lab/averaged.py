"""Coefficient-weighted sums of congruence counts over dyadic cells.

The family ranges over u in (U, 2U], v in (V, 2V], w in (W, 2W] subject to
gcd(rsuv, tw) = 1, and sums weights d_{u,v} e_w times the exact count for

    r u^l x + s v^m y^2 = 0 (mod t w)

with y in J and x between boundary functions.  The predicted main term
replaces each count by (tw)^{-1} sum_y (f_hi - f_lo); the error budget is
the pair (UVWY/H, T_envelope) where T_envelope carries the Delta_H
distortion (delta_H: what the boundaries' slope costs at the modulus
scale tW), a cell-structure term, and the large-modulus term Z.

Coefficient values are drawn deterministically from the closed unit disc by
a splitmix64 hash of (seed, role, indices): the same (seed, cell) always
yields the same weight, independent of iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .congruence import BoundarySpec, Interval, class_sums, eps_power, linear_class

SCHEMES = ("all-ones", "factorized", "joint")
WORK_LIMIT = 10**9  # cell_sums: (U, 2U] x (V, 2V] x (W, 2W] cells times the integers of J
SEED_CELLS_LIMIT = 1 << 24  # avg_report: seeds times those cells, a few us each to weight

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
    bounds: BoundarySpec
    scheme: str = "all-ones"

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

    def cells(self) -> list[tuple[int, int, int]]:
        """Admissible (u, v, w) in lexicographic order."""
        # the integers of each (P, 2P]; none is empty, as P >= 1/2
        us, vs, ws = (Interval(P, P).integers() for P in (self.U, self.V, self.W))
        out = []
        for u in us:
            for v in vs:
                if math.gcd(self.r * self.s * u * v, self.t) != 1:
                    continue
                for w in ws:
                    if math.gcd(self.r * self.s * u * v, self.t * w) == 1:
                        out.append((u, v, w))
        return out

    def d_coeff(self, seed: int, u: int, v: int) -> complex:
        if self.scheme == "all-ones":
            return 1 + 0j
        if self.scheme == "factorized":
            return unit_disc_point(seed, _TAG_DU, u) * unit_disc_point(seed, _TAG_DV, v)
        return unit_disc_point(seed, _TAG_DJOINT, u, v)

    def e_coeff(self, seed: int, w: int) -> complex:
        if self.scheme == "all-ones":
            return 1 + 0j
        return unit_disc_point(seed, _TAG_E, w)


def _checked_cells(family: AveragedFamily) -> int:
    # the number of (u, v, w) in (U, 2U] x (V, 2V] x (W, 2W], before the gcd
    # conditions drop any, once that times the integers of J is within WORK_LIMIT
    cells = math.prod(len(Interval(P, P).integers()) for P in (family.U, family.V, family.W))
    if (work := cells * max(len(family.J.integers()), 1)) > WORK_LIMIT:
        raise ValueError(f"--U, --V, --W, --Y: the family's estimated work of {work} steps"
                         f" (cells times the integers of J) exceeds the cap of 1e9 steps")
    return cells


def cell_sums(family: AveragedFamily) -> list[tuple[int, int, int, int, Fraction]]:
    """(u, v, w, n, mt) for every cell, in cell order: n the exact count of
    r u^l x + s v^m y^2 = 0 (mod tw) over J between the boundaries, mt its
    main term.  The cells of one w share the modulus tw and, the boundaries
    being the same in every cell, the main term: they are counted together,
    in one class_sums walk per w.  Refused before any count: an estimated
    work above WORK_LIMIT steps."""
    _checked_cells(family)
    cells = family.cells()
    by_w: dict[int, list[int]] = {}
    for i, (_, _, w) in enumerate(cells):
        by_w.setdefault(w, []).append(i)
    table = [None] * len(cells)
    for w, rows in by_w.items():
        q = family.t * w
        ks = [linear_class(family.r * cells[i][0] ** family.l,
                           family.s * cells[i][1] ** family.m, q) for i in rows]
        counts, mt = class_sums(ks, q, family.bounds, family.J)
        for i, n in zip(rows, counts):
            table[i] = (*cells[i], n, mt)
    return table


# ---- error budget ----

def delta_H(family: AveragedFamily, H: float) -> float:
    """Delta_H = 1 + H T Y / (tW), what boundaries of slope up to T cost the
    H-truncated envelope at the modulus scale tW: T is the derivative bound
    of the family's boundaries, which are the same in every cell and so move
    with y only, and Y the length of J."""
    if H <= 0:
        raise ValueError("H must be positive")
    T = family.bounds.derivative_bound
    return 1.0 + H * float(T) * float(family.J.length) / (family.t * float(family.W))


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
    whether H >= tW/X, X = char_length(family).  Refused (ValueError): H <= 0,
    epsilon < 0, an epsilon whose power overflows a float, X <= 0, and an
    H t U V W or a budget part outside float range.
    """
    if H <= 0:
        raise ValueError("H must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    X = _length(family)
    U, V, W = float(family.U), float(family.V), float(family.W)
    Y = float(family.J.length)
    t = family.t
    tW = t * W
    delta = delta_H(family, H)
    # weights that factor (all but the joint scheme) over cells with UV >= tW
    if family.scheme != "joint" and family.U * family.V >= family.t * family.W:
        Z = math.sqrt((tW + U) * (tW + V)) * math.sqrt(U * V) * W
    else:
        Z = math.sqrt(tW) * U * V * W
    cell_term = (
        U ** (1.0 - _frac_half(family.l)) * V ** (1.0 - _frac_half(family.m)) * W
        + U * V * math.sqrt(W)
    )
    scale = H * t * U * V * W
    if not math.isfinite(scale):
        raise ValueError(f"H t U V W = {scale!r} is outside float range: lower H (--H)")
    T = delta * (Y / math.sqrt(tW) * cell_term + Z) * eps_power(scale, epsilon)
    first_O = U * V * W * Y / H
    if not (math.isfinite(T) and math.isfinite(first_O)):
        raise ValueError(f"budget UVWY/H = {first_O!r}, T_envelope = {T!r} is outside float"
                         f" range: change H (--H) or epsilon (--epsilon)")
    return ErrorBudget(H, epsilon, delta, Z, T, first_O, H >= tW / X)


def char_length(family: AveragedFamily) -> float:
    """Characteristic x-interval length: max of 0 and (f_hi - f_lo) at the
    endpoints of J (the boundaries are the same in every cell)."""
    b = family.bounds
    ends = (family.J.y0, family.J.y0 + family.J.length)
    return max(0.0, *(float(b.upper(y) - b.lower(y)) for y in ends))


def _length(family: AveragedFamily) -> float:
    # char_length(family), refused unless positive
    X = char_length(family)
    if X <= 0:
        raise ValueError("characteristic length X must be positive")
    return X


def suggest_H(family: AveragedFamily, epsilon: float) -> float:
    """(tW)^{1+eps} / X with X = char_length(family); refused (ValueError)
    unless epsilon >= 0 and 0 < X <= tW."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    tW = family.t * float(family.W)
    X = _length(family)
    if X > tW:
        raise ValueError("suggest_H requires X <= tW")
    return eps_power(tW, 1.0 + epsilon) / X


class AveragedReport(NamedTuple):
    family: AveragedFamily
    seed: int
    H: float
    epsilon: float
    S: complex
    M: complex
    first_O: float
    T_envelope: float
    ratio: float
    hcond_ok: bool


def avg_report(
    family: AveragedFamily, H: float, epsilon: float, seeds: Sequence[int] = (0,)
) -> list[AveragedReport]:
    """Exact weighted sum S vs predicted main term M vs error budget, one
    report per seed, in order.  The budget, which refuses H and epsilon,
    comes first, then cell_sums' WORK_LIMIT and the cap SEED_CELLS_LIMIT on
    the seeds times the cells of (U, 2U] x (V, 2V] x (W, 2W], which also
    holds a family of one seed to 2^24 cells; the cell_sums table is built
    once for every seed.  S and M are each accumulated in cell order,
    skipping their own zero terms, and d_coeff and e_coeff are taken once
    per distinct (u, v) and w of a seed."""
    budget = error_budget(family, H, epsilon)
    if len(seeds) * (estimate := _checked_cells(family)) > SEED_CELLS_LIMIT:
        raise ValueError(f"--seeds, --U, --V, --W: {len(seeds)} seeds times the family's"
                         f" estimated {estimate} cells exceeds the cap of 2^24 weighted cells")
    cells = cell_sums(family)
    denom = budget.first_O + budget.T_envelope
    out = []
    for seed in seeds:
        S = M = 0j
        d: dict[tuple[int, int], complex] = {}
        e: dict[int, complex] = {}
        for u, v, w, n, mt in cells:
            if n or mt:
                if (u, v) not in d:
                    d[u, v] = family.d_coeff(seed, u, v)
                if w not in e:
                    e[w] = family.e_coeff(seed, w)
                weight = d[u, v] * e[w]
                if n:
                    S += weight * n
                if mt:
                    M += weight * float(mt)
        out.append(AveragedReport(family, seed, H, epsilon, S, M, budget.first_O,
                                  budget.T_envelope, abs(S - M) / denom, budget.hcond_ok))
    return out
