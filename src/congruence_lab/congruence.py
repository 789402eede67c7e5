"""Exact counting for a x^e + b y^f = 0 (mod q) over boxes and sliced regions.

The box counter enumerates no lattice points.  Only floor(X) and floor(Y)
matter: with floor(X) = Qx q + rx and floor(Y) = Qy q + ry, a unit residue c
in [1, q] has Qx + [c <= rx] members in (0, X], so the count is

    Qx Qy T(q, q) + Qx T(q, ry) + Qy T(rx, q) + T(rx, ry),

where T(s, t) counts the unit pairs x <= s, y <= t with -a x^e = b y^f
(mod q).  count_exact evaluates the four T over ascending numpy blocks of
unit y residues, each block sieved by one strided write per prime of q
into a boolean mask.  For e = 1 each unit y fixes the one class x = c_y =
-a^{-1} b y^f mod q, so the blocks are all it holds, and T(q, t), the
number of unit y <= t, is phi(q) for t = q and sum mu(d) floor(t/d) over
d | rad(q) for t = ry: when rx = 0 no block is walked at all.  Otherwise
half a walk does: (q - y)^f = (-1)^f y^f, so the mirror q - y has the
class c_y for even f and q - c_y for odd f, and the floor(q/2) residues
y <= q/2 (their units only) decide T(rx, ry) and T(rx, q) for every unit
of [1, q).  A block's classes are one floor_mod of the exact int64 product
k y^f while max(k) max(y)^f < 2^62 (for f = 2 every q below about 2.6e6),
else y^f is reduced first and the product again.  For e >= 2 it also fills
one int32 table of y-counts per key (4 bytes per residue) and reads it at
the x-keys.  O(q) time at most, q < 2^31 so every residue product fits in
int64, and the T are combined in Python ints, so counts stay exact for any
rational box.  Every int64 reduction mod q is arith.floor_mod, x - x // q
* q: numpy divides by a scalar with a multiply and a shift, where % takes
one hardware divide per element.  Boxes get a main-term/error-envelope split
phi(q) X Y / q^2 + O(...).  box_report and scan_boxes check their inputs
once and share one body, which takes plain boxes (q, X, Y) and checks every
box's count bound, main term and envelope before the first count, in array
passes: each distinct q is factored once, with phi, tau and
sigma_{-1/2} read from that factorization; the forms and ratios of all
boxes are float64 expressions in the scalar order, of the same bits; a box
with rx = 0 is counted in closed form, and only the others walk.  A box's
seconds are its count and an equal share of the batch's checks and forms.

Regions whose x-range depends on y through slowly varying boundary functions
are counted through the floor identity

    #{x in (L, R] : x = c (mod q)} = floor((R - c)/q) - floor((L - c)/q),

c = k y^2 mod q with k = -a^{-1} b mod q, over ascending blocks of the y in
J prime to q.  The main term replaces each such count by (R - L)/q.
class_sums takes the counts of a whole vector of classes k and their one
shared main term from one walk of these blocks, in (classes x block) pieces
of at most 2^18 entries (2 MiB in int64); boundary_sums is its one-class
case.  The boundaries are the two lines of a BoundarySpec, so their values
are integer numerators over one common denominator D, and each block is one
integer floor division of (D f(y) - c D) by q D; a block is int64 when q <
2^31 and _BLOCK times the largest value formed stays below 2^62 (so
per-block sums cannot overflow either), and object dtype of Python ints
otherwise, with the same code.  Counts are Python ints, main terms exact
Fractions.  The Delta_H factor that the boundary slopes cost an
H-truncated envelope is taken in averaged.error_budget.

Bilinear sums of Jacobi symbols (n/m) read one int8 table of the symbols for
odd m <= M and n <= N, (M + 1)/2 * N bytes.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import MODULUS_LIMIT, block_rows, factorize, floor_mod, log1n, mod_inv

log = logging.getLogger("congruence_lab")

RationalLike = int | float | Fraction

_BLOCK = 1 << 14  # residues per block of count_exact and the boundary counts
_TABLE_Q_LIMIT = 1 << 28  # count_exact moduli for e >= 2: a 4q-byte int32 table, 1 GiB
_WIDE = 1 << 62  # int64 paths keep every value, and every block sum, below this


@dataclass(frozen=True)
class CongruenceInstance:
    """One counting problem: pairs 0 < x <= X, 0 < y <= Y, gcd(xy, q) = 1
    with a x^e + b y^f = 0 (mod q)."""

    a: int
    b: int
    q: int
    X: Fraction
    Y: Fraction
    e: int = 1
    f: int = 2

    def __post_init__(self):
        object.__setattr__(self, "X", Fraction(self.X))
        object.__setattr__(self, "Y", Fraction(self.Y))
        _check_coefficients(self.a, self.b, self.q)
        if self.e < 1 or self.f < 1:
            raise ValueError("exponents e, f must be >= 1")
        if self.X < 1 or self.Y < 1:
            raise ValueError("box sides X, Y must be >= 1")
        if self.e >= 2 and self.q > _TABLE_Q_LIMIT:
            raise ValueError(f"e >= 2 (--e) needs q (--q) <= 2^28 for count_exact's 4q-byte"
                             f" table, got q = {self.q}")


def _check_coefficients(a: int, b: int, q: int) -> None:
    if q < 1:
        raise ValueError("q must be a positive integer")
    if a == 0 or b == 0:
        raise ValueError("coefficients a, b must be nonzero")
    if math.gcd(a * b, q) != 1:
        raise ValueError("a*b must be coprime to q")


def _check_modulus(q: int) -> None:
    if not 1 <= q < MODULUS_LIMIT:
        raise ValueError(f"count_exact needs 1 <= q < 2^31, got q = {q}")


def _units(lo: int, hi: int, primes: list[int], dtype=np.int64) -> Iterator[np.ndarray]:
    # the integers in [lo, hi] prime to every p in primes, in ascending
    # blocks: each p strikes its multiples start + (-start % p) + j p from a
    # mask by one strided write; start is added in place after the cast, so
    # object blocks hold Python ints however far lo lies beyond int64
    for start in range(lo, hi + 1, _BLOCK):
        keep = np.ones(min(_BLOCK, hi + 1 - start), dtype=bool)
        for p in primes:
            keep[-start % p :: p] = False
        y = np.flatnonzero(keep).astype(dtype, copy=False)
        y += start
        yield y


def _unit_count(t: int, primes: list[int]) -> int:
    # #{1 <= y <= t : no p in primes divides y} = sum over d | prod(primes)
    # of mu(d) floor(t / d), over the d <= t only (a larger d adds 0)
    terms = [(1, 1)]  # (d, mu(d))
    for p in primes:
        if p > t:  # the primes ascend, so no later d p is <= t either
            break
        terms += [(d * p, -mu) for d, mu in terms if d * p <= t]
    return sum(mu * (t // d) for d, mu in terms)


def _powmod(r: np.ndarray, k: int, q: int) -> np.ndarray:
    # r^k mod q for k >= 1 and r in [0, q], by repeated squaring from the
    # lowest set bit of k, so r^2 costs one product; with q < 2^31 every
    # product is < 2^62.  r itself is not reduced: for k = 1 it comes back
    # as it is, which the callers' own reduction of k r^f absorbs
    base = r
    while not k & 1:
        base = floor_mod(base * base, q)
        k >>= 1
    out = base
    while k := k >> 1:
        base = floor_mod(base * base, q)
        if k & 1:
            out = floor_mod(out * base, q)
    return out


def _x_classes(y: np.ndarray, k, f: int, q: int) -> np.ndarray:
    # c_y = k y^f mod q, k = -a^{-1} b mod q, for y in [0, q]: the one class
    # of x in [0, q) with a x + b y^f = 0 (mod q), for every unit y of the
    # block; a column of k gives one row per k.  While max(k) max(y)^f <
    # 2^62 the product k y^f is exact in int64 and reduced once; otherwise
    # y^f is reduced first (_powmod), and the product again
    top = int(k.max()) if isinstance(k, np.ndarray) else k
    if top * int(y.max(initial=0)) ** f < _WIDE:
        return floor_mod(k * y**f, q)
    return floor_mod(k * _powmod(y, f, q), q)


def _class_hits(k: int, f: int, q: int, rx: int, ry: int, primes: list[int]) -> tuple[int, int]:
    """(G(ry), G(q)), G(m) = #{unit y <= m : c_y <= rx}, c_y = k y^f mod q,
    from one walk of the units y <= floor(q/2); q > 1 and 0 <= rx, ry < q.

    (q - y)^f = (-1)^f y^f, so the mirror q - y of a walked y has the class
    c_y for even f and q - c_y for odd f (c_y is a unit, never 0).  The units
    of [1, q) are the walked y <= floor((q-1)/2) and the mirrors of the
    walked y <= floor(q/2), so with low(m) and mirror(m) the walked y <= m
    whose own or mirrored class is <= rx,

        G(q) = low(floor((q-1)/2)) + mirror(floor(q/2)),
        G(ry) = low(ry) for ry <= floor(q/2), else G(q) - mirror(q - 1 - ry),

    the units above ry being the mirrors of the units y <= q - 1 - ry."""
    half = q // 2
    low = {(q - 1) // 2: 0}
    mirror = {half: 0}
    if ry <= half:
        low[ry] = 0
    else:
        mirror[q - 1 - ry] = 0
    for y in _units(1, half, primes):
        c = _x_classes(y, k, f, q)
        hit = c <= rx
        mirrored = hit if f % 2 == 0 else c >= q - rx
        del c  # the int64 classes would otherwise live on while the next block is built
        for cuts, mask in ((low, hit), (mirror, mirrored)):
            for m in cuts:
                cuts[m] += int(np.count_nonzero(mask[: np.searchsorted(y, m, side="right")]))
    whole = low[(q - 1) // 2] + mirror[half]
    return (low[ry] if ry <= half else whole - mirror[q - 1 - ry]), whole


def count_exact(inst: CongruenceInstance) -> int:
    """Exact solution count: Qx Qy T(q, q) + Qx T(q, ry) + Qy T(rx, q) + T(rx, ry).

    floor(X) = Qx q + rx and floor(Y) = Qy q + ry; T(s, t) counts unit pairs
    x <= s, y <= t with -a x^e = b y^f (mod q).  The residues 1..q (q stands
    for the class 0, a unit only when q = 1) are sieved for units by the
    primes of q in blocks of _BLOCK.

    For e = 1 each unit y fixes one unit x, the class c_y = -a^{-1} b y^f mod
    q, so T(q, t) is the number of unit y <= t (phi(q) for t = q, else by
    inclusion-exclusion over the primes of q), and T(rx, t) the number of
    those with c_y <= rx.  y and q - y share their class (even f) or mirror
    it to q - c_y (odd f), so the y walked are the units y <= floor(q/2)
    only, and only when rx > 0 (rx = 0 covers q = 1 and every X that is a
    multiple of q); see _class_hits.  For e >= 2, x -> -a x^e is not a
    bijection on the units, so an int32 table of length q counts the unit y
    per key b y^f mod q, y <= ry first and then the rest, and after each
    fill the x-keys -a x^e mod q are gathered from it (4 bytes per residue,
    q <= 2^28 by CongruenceInstance).  O(q) time at most, exact for any
    rational X and Y and any signs of a and b.  q must satisfy 1 <= q <
    2^31: ValueError naming q otherwise, before anything is allocated.
    """
    _check_modulus(inst.q)
    q = inst.q
    fac = factorize(q)
    primes = [p for p, _ in fac.factors]
    X, Y = inst.X.numerator // inst.X.denominator, inst.Y.numerator // inst.Y.denominator
    if inst.e == 1:
        return _linear_count(inst.a, inst.b, q, inst.f, X, Y, primes, fac.phi())
    Qx, rx = divmod(X, q)
    Qy, ry = divmod(Y, q)
    ka, kb = -inst.a % q, inst.b % q
    table = np.zeros(q, dtype=np.int32)
    sums = []  # (T(rx, t), T(q, t)) for t = ry, then t = q
    for y_lo, y_hi in ((1, ry), (ry + 1, q)):
        if y_lo > y_hi:  # ry = 0: no y, so no x walk
            sums.append((0, 0))
            continue
        for y in _units(y_lo, y_hi, primes):
            keys, counts = np.unique(floor_mod(kb * _powmod(y, inst.f, q), q),
                                     return_counts=True)
            table[keys] += counts
        below = whole = 0
        for x in _units(1, q, primes):
            hits = table[floor_mod(ka * _powmod(x, inst.e, q), q)]
            whole += int(hits.sum())
            below += int(hits[: np.searchsorted(x, rx, side="right")].sum())
        sums.append((below, whole))
    (t_rr, t_qr), (t_rq, t_qq) = sums
    return Qx * Qy * t_qq + Qx * t_qr + Qy * t_rq + t_rr


def _linear_count(a: int, b: int, q: int, f: int, X: int, Y: int, primes: list[int],
                  phi_q: int) -> int:
    # count_exact of a x + b y^f = 0 (mod q) on the box of floor sides X, Y, given
    # the primes of q and phi(q): closed form when rx = 0, else _class_hits
    Qx, rx = divmod(X, q)
    Qy, ry = divmod(Y, q)
    t_rr, t_rq = _class_hits(-mod_inv(a, q) * b % q, f, q, rx, ry, primes) if rx else (0, 0)
    return Qx * Qy * phi_q + Qx * _unit_count(ry, primes) + Qy * t_rq + t_rr


def _moduli(qs: Sequence[int]) -> tuple[dict[int, tuple[list[int], int]], np.ndarray]:
    # each distinct q factored once: q -> (its primes, phi(q)), and the
    # float64 columns q, q^2, phi(q), tau(q), sigma_{-1/2}(q), log1n(q) of
    # every q, each integer rounded once, as Python rounds an int that
    # meets a float
    counts, values, forms = {}, {}, []
    for q in qs:
        if q not in values:
            fac = factorize(q)
            counts[q] = ([p for p, _ in fac.factors], fac.phi())
            values[q] = (q, q * q, counts[q][1], fac.tau(), fac.sigma_half_inv(), log1n(q))
        forms += values[q]
    return counts, np.array(forms, dtype=np.float64).reshape(-1, 6).T


def _closed_forms(boxes: Sequence[tuple[int, Fraction, Fraction]], columns: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    # (main terms, envelopes) of e = 1, f = 2 boxes (q, X, Y) as float64
    # arrays, given the _moduli columns: each formed left to right as its
    # scalar expression, so of the same bits; each side a float once, as
    # numerator / denominator, the division float(Fraction) does.  An
    # overflow gives inf, for the caller to refuse
    q, q2, phi_q, tau_q, sigma_q, L_q = columns
    X = np.array([X.numerator / X.denominator for _, X, _ in boxes], dtype=np.float64)
    Y = np.array([Y.numerator / Y.denominator for _, _, Y in boxes], dtype=np.float64)
    root = np.sqrt(q)
    with np.errstate(over="ignore"):
        return (phi_q * X * Y / q2,
                X / q * tau_q + L_q * sigma_q * (Y / root * tau_q + root * L_q))


def _linear_box(inst: CongruenceInstance) -> tuple[int, Fraction, Fraction]:
    # the box (q, X, Y) of an instance that main terms and envelopes apply to
    if (inst.e, inst.f) != (1, 2):
        raise ValueError("main term and error envelope are for e = 1, f = 2")
    return inst.q, inst.X, inst.Y


def main_term(inst: CongruenceInstance) -> float:
    """phi(q) X Y / q^2 (linear-quadratic pairing only)."""
    return float(_closed_forms([_linear_box(inst)], _moduli([inst.q])[1])[0][0])


def error_envelope(inst: CongruenceInstance) -> float:
    """Envelope X/q tau(q) + L(q) sigma_{-1/2}(q) (Y/sqrt(q) tau(q) + sqrt(q) L(q))."""
    return float(_closed_forms([_linear_box(inst)], _moduli([inst.q])[1])[1][0])


class CountReport(NamedTuple):
    """A box of a x + b y^2 = 0 (mod q) and its report: one CSV row."""

    a: int
    b: int
    q: int
    e: int
    f: int
    X: Fraction
    Y: Fraction
    exact: int
    main_term: float
    envelope: float
    ratio: float
    seconds: float


_FLOAT_MAX = int(sys.float_info.max)


def _reports(a: int, b: int, boxes: list[tuple[int, Fraction, Fraction]]) -> list[CountReport]:
    # boxes (q, X, Y) with 1 <= q < 2^31 prime to a b and Fraction sides >= 1.
    # Every count bound (exact - main makes the count a float; each y <= Y has
    # one class of x mod q, so at most floor(X) // q + 1 of the x <= X), then
    # every main term and envelope, is checked before the first count.  The
    # forms are one array pass; a box's seconds are its count and an equal
    # share of all the work before the first count
    t0 = time.perf_counter()
    floors = [(X.numerator // X.denominator, Y.numerator // Y.denominator) for _, X, Y in boxes]
    for (q, _, _), (X, Y) in zip(boxes, floors):
        if Y * (X // q + 1) > _FLOAT_MAX:
            raise ValueError(f"box sides X, Y are too large at q = {q}: the count bound"
                             f" floor(Y) (floor(X) // q + 1) is outside float range")
    counts, columns = _moduli([q for q, _, _ in boxes])
    main, env = _closed_forms(boxes, columns)
    bad = np.flatnonzero(~(np.isfinite(main) & np.isfinite(env)))
    if len(bad):
        i = bad[0]
        raise ValueError(f"box sides X, Y are too large at q = {boxes[i][0]}: main term"
                         f" {float(main[i])!r}, envelope {float(env[i])!r}, outside float range")
    share = (time.perf_counter() - t0) / max(len(boxes), 1)
    exact, seconds = [], []
    for (q, _, _), (X, Y) in zip(boxes, floors):
        t0 = time.perf_counter()
        exact.append(_linear_count(a, b, q, 2, X, Y, *counts[q]))
        seconds.append(share + (time.perf_counter() - t0))
    ratio = np.abs(np.array(exact, dtype=np.float64) - main) / env
    return [CountReport(a, b, q, 1, 2, X, Y, n, m, v, r, s) for (q, X, Y), n, m, v, r, s
            in zip(boxes, exact, main.tolist(), env.tolist(), ratio.tolist(), seconds)]


def box_report(inst: CongruenceInstance) -> CountReport:
    """Exact count, main term, envelope and |exact - main|/envelope of an
    e = 1, f = 2 box: scan_boxes of one box, with the same refusals."""
    _check_modulus(inst.q)
    return _reports(inst.a, inst.b, [_linear_box(inst)])[0]


def scan_boxes(
    q_values: Sequence[int],
    a: int = 1,
    b: int = 1,
    X: RationalLike | None = None,
    Y: RationalLike | None = None,
) -> list[CountReport]:
    """Box reports of a x + b y^2 = 0 (mod q) on (0, X] x (0, Y] over a
    family of moduli, in input order; a side left None is the modulus q
    itself.  Refused (ValueError) before any count: a or b = 0, a fixed
    side below 1, a modulus below 1 or of 2^31 or more (naming q), and a
    box whose count bound floor(Y) (floor(X) // q + 1), main term or
    envelope is outside float range (naming q).  The moduli with gcd(ab, q)
    != 1 are skipped with a log line."""
    if a == 0 or b == 0:
        raise ValueError("coefficients a, b must be nonzero")
    if any(side is not None and side < 1 for side in (X, Y)):
        raise ValueError("box sides X, Y must be >= 1")
    for q in q_values:
        _check_modulus(q)
    X, Y = (None if side is None else Fraction(side) for side in (X, Y))
    boxes = []
    for q in q_values:
        if math.gcd(a * b, q) != 1:
            log.warning("skipping q=%d: a*b must be coprime to q", q)
            continue
        side = Fraction(q)
        boxes.append((q, side if X is None else X, side if Y is None else Y))
    return _reports(a, b, boxes)


# ---- regions sliced by boundary functions of y ----

@dataclass(frozen=True)
class Interval:
    """Half-open interval (y0, y0 + length]."""

    y0: Fraction
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "y0", Fraction(self.y0))
        object.__setattr__(self, "length", Fraction(self.length))
        if self.length <= 0:
            raise ValueError("interval length must be positive")

    def integers(self) -> range:
        return range(int(self.y0 // 1) + 1, int((self.y0 + self.length) // 1) + 1)


@dataclass(frozen=True)
class BoundarySpec:
    """The x-range f_lo(y) < x <= f_hi(y) of each y, between the lines
    f_lo(y) = lo_intercept + lo_slope y and f_hi(y) = hi_intercept +
    hi_slope y, exact rationals.  derivative_bound, the T of Delta_H, is
    max(|lo_slope|, |hi_slope|): it follows from the slopes, never given."""

    lo_intercept: Fraction
    lo_slope: Fraction
    hi_intercept: Fraction
    hi_slope: Fraction

    def __post_init__(self):
        for name in ("lo_intercept", "lo_slope", "hi_intercept", "hi_slope"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def lower(self, y: RationalLike) -> Fraction:
        return self.lo_intercept + self.lo_slope * Fraction(y)

    def upper(self, y: RationalLike) -> Fraction:
        return self.hi_intercept + self.hi_slope * Fraction(y)

    @property
    def derivative_bound(self) -> Fraction:
        return max(abs(self.lo_slope), abs(self.hi_slope))


def box_bounds(X: RationalLike) -> BoundarySpec:
    """The box (0, X]: constant boundaries, zero derivative bound."""
    if Fraction(X) <= 0:
        raise ValueError("X must be positive")
    return BoundarySpec(0, 0, X, 0)


def _numerators(q: int, bounds: BoundarySpec, J: Interval) -> tuple[int, Iterator[tuple]]:
    """(D, blocks): the integers y in J prime to q in ascending blocks
    (y, lo_n, hi_n) with f_lo(y) = lo_n/D and f_hi(y) = hi_n/D.

    The numerators are A + B y over the lcm D of the denominators of the
    four rationals, int64 when q < 2^31 and _BLOCK times the largest of
    |A| + max(|B|, 1) |y| + q D over J stays below 2^62, object dtype
    otherwise.  Boundaries that cross on J are refused."""
    if any(bounds.upper(y) < bounds.lower(y) for y in (J.y0, J.y0 + J.length)):
        raise ValueError("upper boundary below lower boundary on J")
    coeffs = (bounds.lo_intercept, bounds.lo_slope, bounds.hi_intercept, bounds.hi_slope)
    D = math.lcm(*(c.denominator for c in coeffs))
    A0, B0, A1, B1 = (int(c * D) for c in coeffs)
    ys = J.integers()
    Y = max(abs(ys.start), abs(ys.stop - 1))
    top = max(abs(A0), abs(A1)) + max(abs(B0), abs(B1), 1) * Y + q * D
    dtype = np.int64 if q < MODULUS_LIMIT and _BLOCK * top < _WIDE else object
    blocks = _units(ys.start, ys.stop - 1, [p for p, _ in factorize(q).factors], dtype)
    return D, ((y, A0 + B0 * y, A1 + B1 * y) for y in blocks)


def linear_class(a: int, b: int, q: int) -> int:
    """k = -a^{-1} b mod q, so that a x + b y^2 = 0 (mod q) holds exactly
    for x = k y^2 (mod q); (a, b, q) is checked first."""
    _check_coefficients(a, b, q)
    return -mod_inv(a, q) * b % q


def class_sums(
    ks: Sequence[int], q: int, bounds: BoundarySpec, J: Interval
) -> tuple[list[int], Fraction]:
    """(counts, main) from one walk of the y in J prime to q, for every
    class k of ks at once.

    counts[i] is the exact number of x, y with gcd(y, q) = 1, f_lo(y) < x
    <= f_hi(y) and x = ks[i] y^2 (mod q): each y adds the positive part of
    floor((hi_n - c D)/(q D)) - floor((lo_n - c D)/(q D)), c = ks[i] y^2 mod
    q, with lo_n/D, hi_n/D the boundary values in the int64 or object
    blocks of _numerators.  Each block is taken for up to
    arith.block_rows(len(block)) classes at a time, so no (classes x block)
    temporary exceeds arith.BLOCK_CELLS entries.  main = (1/q) sum_y (f_hi -
    f_lo)(y), the same for every k, is the sum of hi_n - lo_n over q D.
    Both are exact: block sums are combined in Python ints and Fractions."""
    ks = [k % q for k in ks]  # in [0, q), so int64 products stay below 2^62
    D, blocks = _numerators(q, bounds, J)
    qD = q * D
    counts = np.zeros(len(ks), dtype=object)
    width = Fraction(0)
    for y, lo_n, hi_n in blocks:
        kv = np.array(ks, dtype=y.dtype)[:, None]
        rows = block_rows(len(y))
        residues = floor_mod(y, q)  # J may lie anywhere; _x_classes needs [0, q]
        for i in range(0, len(ks), rows):
            cD = _x_classes(residues, kv[i : i + rows], 2, q) * D
            n = (hi_n - cD) // qD - (lo_n - cD) // qD
            counts[i : i + rows] += np.maximum(n, 0).sum(axis=1).astype(object)
        width += Fraction((hi_n - lo_n).sum())
    return counts.tolist(), width / qD


def boundary_sums(
    a: int, b: int, q: int, bounds: BoundarySpec, J: Interval
) -> tuple[int, Fraction]:
    """(count, main) of class_sums for the one class of a x + b y^2 = 0
    (mod q): the exact number of x, y with gcd(xy, q) = 1 and f_lo(y) < x
    <= f_hi(y), and (1/q) sum_{y in J, (y, q) = 1} (f_hi - f_lo)(y)."""
    (count,), main = class_sums([linear_class(a, b, q)], q, bounds, J)
    return count, main


def eps_power(x: float, p: float) -> float:
    """x ** p, for the exponents p that an envelope's epsilon sets; a power
    that overflows a float is refused by ValueError naming epsilon."""
    try:
        return x ** p
    except OverflowError:
        raise ValueError(f"epsilon is too large: {x!r} ** {p!r} overflows a float") from None


# ---- bilinear sums of Jacobi symbols ----

class BilinearResult(NamedTuple):
    value: complex
    bound: float
    M: int
    N: int


# bilinear runs every seed at one (M, N), so one table is cached, read-only:
# (M + 1)/2 N bytes held until a call at another (M, N).
@lru_cache(maxsize=1)
def _jacobi_table(M: int, N: int) -> np.ndarray:
    """int8 table of the Jacobi symbols (n/m), row (m - 1)/2 for odd m <= M,
    column n - 1 for n <= N.  Row 1 is all ones; a prime row is its Legendre
    table (the nonzero squares mod p marked 1, the other units -1) read at
    n mod p; a composite row is the product of the rows of p and m/p, p its
    least prime factor."""
    rows = (M + 1) // 2
    spf = np.zeros(M + 1, dtype=np.int64)  # least prime factor of odd composites
    for p in range(3, math.isqrt(M) + 1, 2):
        if not spf[p]:
            tail = spf[p * p :: 2 * p]
            tail[tail == 0] = p
    n = np.arange(1, N + 1, dtype=np.int64)
    table = np.empty((rows, N), dtype=np.int8)
    table[0] = 1
    for i in range(1, rows):
        m = 2 * i + 1
        p = int(spf[m])
        if p:
            table[i] = table[p // 2] * table[m // p // 2]
            continue
        legendre = np.full(m, -1, dtype=np.int8)
        legendre[0] = 0
        r = np.arange(1, m, dtype=np.int64)
        legendre[r * r % m] = 1
        table[i] = legendre[n % m]
    table.flags.writeable = False
    return table


def bilinear_jacobi(
    a_coeffs: Sequence[complex],
    b_coeffs: Sequence[complex],
    epsilon: float = 0.05,
) -> BilinearResult:
    """sum over odd m <= M, n <= N of a_m b_n (n/m), with the cancellation
    benchmark (MN)^eps (M sqrt(N) + sqrt(M) N).

    a_coeffs[i] weights m = 2i + 1; b_coeffs[j] weights n = j + 1.  The sum
    is a . (T b) with T the int8 table of (n/m) ((M + 1)/2 * N bytes, plus
    one temporary of that shape in the coefficients' dtype).  Integer
    coefficients are summed exactly, in int64 while max|a| max|b| M N stays
    below 2^62 and in Python ints otherwise; float and complex coefficients
    in float arithmetic.  An epsilon whose (MN)^eps overflows a float is
    refused before the table is built.
    """
    if not len(a_coeffs) or not len(b_coeffs):
        raise ValueError("coefficient sequences must be nonempty")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    a, b = np.asarray(a_coeffs), np.asarray(b_coeffs)
    M = 2 * len(a) - 1
    N = len(b)
    bound = eps_power(M * N, epsilon) * (M * math.sqrt(N) + math.sqrt(M) * N)
    if a.dtype.kind in "biu" and b.dtype.kind in "biu":
        top = max(abs(int(a.min())), int(a.max())) * max(abs(int(b.min())), int(b.max()))
        dtype = np.int64 if top * len(a) * N < _WIDE else object
        a, b = a.astype(dtype), b.astype(dtype)
    total = complex(a @ (_jacobi_table(M, N) @ b))
    return BilinearResult(total, bound, M, N)
