"""Exact counting for a x + b y^2 = 0 (mod q) over boxes and sliced regions.

The box counter enumerates no lattice points.  Only floor(X) and floor(Y)
matter: with floor(X) = Qx q + rx and floor(Y) = Qy q + ry, a unit residue c
in [1, q] has Qx + [c <= rx] members in (0, X], so the count is

    Qx Qy T(q, q) + Qx T(q, ry) + Qy T(rx, q) + T(rx, ry),

where T(s, t) counts the unit pairs x <= s, y <= t with -a x = b y^2
(mod q).  Each unit y fixes the one class x = c_y = -a^{-1} b y^2 mod q,
so T(q, t), the number of unit y <= t, is phi(q) for t = q and sum mu(d)
floor(t/d) over d | rad(q) for t = ry: when rx = 0 no residue is walked at
all.  Otherwise the units y are walked from 1 in ascending numpy blocks,
each sieved by one strided write per prime of q into a boolean mask: (q -
y)^2 = y^2 (mod q), so the mirror q - y has the class c_y, and the walk
stops at ry, or at its mirror cut q - 1 - ry when ry > q/2, unless T(rx, q)
is needed too (Qy > 0 or ry > q/2).  Then T(rx, q) comes from the walk
continued to q/2 or from the x side, the square roots of x / k mod q over
the units x <= rx, or phi(q) less those over the units x in (rx, q) (a
Hensel/CRT count with Legendre symbols from squares tables or Euler's
criterion), whichever is measured cheapest: O(min(ry, q - ry)) residues
plus O(min(min(rx, q - rx) omega(q) log q, q)).  A block's
classes are one floor_mod of the exact int64 product k y^2 while max(k)
max(y)^2 < 2^62 (every q below about 2.6e6), else y^2 is reduced first and
the product again.  q < 2^31 so every residue product fits in int64, and
the T are combined in Python ints, so counts stay exact for any rational
box.  Every int64 reduction mod q is arith.floor_mod, x - x // q * q: numpy
divides by a scalar with a multiply and a shift, where % takes one hardware
divide per element.  Boxes get a main-term/error-envelope split phi(q) X Y
/ q^2 + O(...).  scan_boxes, the one entry of the box count (count runs it
on one modulus), checks its inputs once and hands plain boxes (q, X, Y) to
one body, which checks every box's count bound, main term and envelope
before the first count, in array passes: the distinct moduli are factored
by one arith.factor_array, and phi, tau and sigma_{-1/2} read from it by
one arith.divisor_functions; the forms and ratios of all boxes are float64
expressions in the scalar order, of the same bits; a box with rx = 0 is
counted in closed form, and only the others count residues.  No report
reads the clock: the seconds column of a CountReport is always 0.0.

Regions whose x-range depends on y through slowly varying boundary functions
are counted through the floor identity

    #{x in (L, R] : x = c (mod q)} = floor((R - c)/q) - floor((L - c)/q),

c = k y^2 mod q with k = -a^{-1} b mod q, over ascending blocks of the y in
J prime to q.  The main term replaces each such count by (R - L)/q.
class_sums takes a family {q: ks} of moduli 1 <= q < 2^31, factored by one
arith.factor_array, and for each q the counts of its classes k and their
one shared main term from one walk of these blocks, in (classes x block)
pieces of at most 2^18 entries (2 MiB in int64).  The boundaries are the
two lines of a BoundarySpec, so their values are integer numerators over
one common denominator D, and each block is one integer floor division of
(D f(y) - c D) by q D.  A block is int64 when _BLOCK times the largest
value formed stays below 2^62 (so per-block sums cannot overflow either),
and object dtype of Python ints otherwise, with the same code.  Counts are
Python ints, main terms exact Fractions.  The Delta_H factor that the
boundary slopes cost an H-truncated envelope is taken in
averaged.error_budget.

Bilinear sums of Jacobi symbols (n/m) read one int8 table of the symbols for
odd m <= M and n <= N, (M + 1)/2 * N bytes, built per call and shared by
every column of sign coefficients the call is given.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .arith import (MODULUS_LIMIT, block_rows, divisor_functions, factor_array, floor_mod,
                    legendre_symbols, log1n, mod_inv, sieve_primes)

RationalLike = int | float | Fraction

_BLOCK = 1 << 14  # residues per block of the box and boundary counts
_WIDE = 1 << 62  # int64 paths keep every value, and every block sum, below this


def _check_modulus(q: int) -> None:
    if not 1 <= q < MODULUS_LIMIT:
        raise ValueError(f"the modulus must satisfy 1 <= q < 2^31, got q = {q}")


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


def _x_classes(y: np.ndarray, k, q: int) -> np.ndarray:
    # c_y = k y^2 mod q, k = -a^{-1} b mod q, for y in [0, q]: the one class
    # of x in [0, q) with a x + b y^2 = 0 (mod q), for every unit y of the
    # block; a column of k gives one row per k.  While max(k) max(y)^2 <
    # 2^62 the product k y^2 is exact in int64 and reduced once; otherwise
    # y^2 is reduced first, and the product again
    top = int(k.max()) if isinstance(k, np.ndarray) else k
    if top * int(y.max(initial=0)) ** 2 < _WIDE:
        return floor_mod(k * y**2, q)
    return floor_mod(k * floor_mod(y * y, q), q)


def _hits(k: int, q: int, rx: int, cuts: set[int], primes: list[int]) -> dict[int, int]:
    # hits(m) for every m of cuts: the units y <= m whose class c_y = k y^2
    # mod q is <= rx, from one walk of the units y <= max(cuts)
    hits = dict.fromkeys(cuts, 0)
    for y in _units(1, max(cuts), primes):
        hit = _x_classes(y, k, q) <= rx
        for m in hits:
            hits[m] += int(np.count_nonzero(hit[: np.searchsorted(y, m, side="right")]))
    return hits


def _squares(p: int) -> np.ndarray:
    # the table of p booleans, True at the nonzero squares mod p, for an odd
    # prime p: the x side's Legendre test and a prime row of _jacobi_table
    table = np.zeros(p, dtype=bool)
    r = np.arange(1, p // 2 + 1, dtype=np.int64)
    table[floor_mod(r * r, p)] = True
    return table


def _root_count(k: int, q: int, lo: int, hi: int, primes: list[int]) -> int:
    """#{unit y < q : lo <= c_y <= hi}, c_y = k y^2 mod q, from the x side:
    each unit x is c_y for the N(z) units y with y^2 = z = x / k (mod q),
    so this is the sum of N(z) over the units x in [lo, hi].  By the CRT and
    Hensel's lemma (Ireland and Rosen, A Classical Introduction to Modern
    Number Theory, ch. 5) N(z) is the product over the prime powers of q of
    1 + (z/p) for an odd p, and of 1 for 2^1, 2 [z = 1 mod 4] for 2^2 and 4
    [z = 1 mod 8] for 2^e, e >= 3.  So a z counts 2^omega_odd(q) times the
    2-adic factor when it passes every test, and none otherwise.  The tests
    of one block run on the z that passed the earlier ones: a Legendre
    symbol by a table of the squares mod p when p <= _BLOCK, so a table
    holds no more bytes than a block has residues, otherwise by Euler's
    criterion (arith.legendre_symbols).  Below that bound the table was the
    faster at every rx measured (README, Conventions)."""
    kinv = mod_inv(k, q)
    lift = min(q & -q, 8)  # 1 or 2: no test; 4 or 8: z = 1 mod lift
    odd = [p for p in primes if p > 2]
    tables = {p: _squares(p) for p in odd if p <= _BLOCK}
    found = 0
    for x in _units(lo, hi, primes):
        z = floor_mod(x * kinv, q)
        if lift > 2:
            z = z[floor_mod(z, lift) == 1]
        for p in odd:
            z = z[tables[p][floor_mod(z, p)] if p in tables else legendre_symbols(z, p) == 1]
        found += len(z)
    return found * max(lift // 2, 1) << len(odd)


# The x side's cost in walked residues (about 4-5 ns each on a 2.1 GHz
# Xeon): _X_STEP per residue x of its range, and _EULER_STEP per modular
# product of Euler's criterion, taken on the z that passed the tests before
# it (the 2-adic one keeps 1/2 or 1/4 of them, each odd prime's 1/2): an
# odd prime of q above _BLOCK, e = (p - 1)/2, takes bit_length(e) - 1
# squarings and popcount(e) products (measured; README, Conventions)
_X_STEP, _EULER_STEP = 2.0, 0.5


def _x_side_cost(q: int, width: int, primes: list[int]) -> float:
    share = 2 / min(q & -q, 8) if q % 4 == 0 else 1.0
    cost = _X_STEP
    for p in primes:
        if p > 2:
            if p > _BLOCK:
                e = (p - 1) // 2
                cost += _EULER_STEP * share * (e.bit_length() - 1 + bin(e).count("1"))
            share /= 2
    return width * cost


def _class_hits(k: int, q: int, rx: int, Qy: int, ry: int, primes: list[int],
                phi_q: int) -> int:
    """Qy G(q) + G(ry), G(m) = #{unit y <= m : c_y <= rx}, c_y = k y^2 mod
    q; q > 1, 0 < rx < q and 0 <= ry < q.

    (q - y)^2 = y^2 (mod q), so the mirror q - y of a unit y has the class
    c_y.  The units of [1, q) are the y <= floor((q-1)/2) and the mirrors of
    the y <= floor(q/2), and the units above ry are the mirrors of the units
    y <= q - 1 - ry.  So with hits(m) the units y <= m whose class is <= rx,

        G(q) = hits(floor((q-1)/2)) + hits(floor(q/2)),
        G(ry) = hits(ry) for ry <= floor(q/2), else G(q) - hits(q - 1 - ry),

    and the walk of the units y stops at the cut ry or q - 1 - ry when G(q)
    is not needed (Qy = 0 and ry <= q/2).  When it is, it comes from the
    walk continued to floor(q/2) or from the x side over the shorter of its
    two ranges, whichever _x_side_cost puts lower: _root_count over the
    units x <= rx, or phi(q) less _root_count over the q - 1 - rx residues
    above rx (every unit y has one unit class c_y)."""
    half = q // 2
    mirror = ry > half
    cut = q - 1 - ry if mirror else ry
    if not (Qy or mirror):
        return _hits(k, q, rx, {cut}, primes)[cut]
    if _x_side_cost(q, min(rx, q - 1 - rx), primes) < half - cut:
        whole = (_root_count(k, q, 1, rx, primes) if 2 * rx < q
                 else phi_q - _root_count(k, q, rx + 1, q - 1, primes))
        low = _hits(k, q, rx, {cut}, primes)[cut]
    else:
        hits = _hits(k, q, rx, {cut, (q - 1) // 2, half}, primes)
        whole, low = hits[(q - 1) // 2] + hits[half], hits[cut]
    return Qy * whole + (whole - low if mirror else low)


def _linear_count(a: int, b: int, q: int, X: int, Y: int, primes: list[int],
                  phi_q: int) -> int:
    # the exact count of a x + b y^2 = 0 (mod q) on the box of floor sides X,
    # Y, given the primes of q and phi(q): Qx Qy phi(q) + Qx T(q, ry) + Qy
    # T(rx, q) + T(rx, ry), T(q, ry) in closed form, the T(rx, .) from
    # _class_hits when rx > 0 (rx = 0 covers q = 1 and every X that is a
    # multiple of q)
    Qx, rx = divmod(X, q)
    Qy, ry = divmod(Y, q)
    hits = _class_hits(linear_class(a, b, q), q, rx, Qy, ry, primes, phi_q) if rx else 0
    return Qx * Qy * phi_q + Qx * _unit_count(ry, primes) + hits


def _moduli(qs: Sequence[int]) -> tuple[dict[int, tuple[list[int], int]], np.ndarray]:
    # q -> (its primes, phi(q)) for each distinct q, and the float64 columns
    # q, q^2, phi(q), tau(q), sigma_{-1/2}(q), log1n(q) of every q, each
    # integer rounded once, as Python rounds an int that meets a float: one
    # factor_array and one divisor_functions pass over the distinct q
    # (sorted(set(...)): np.unique would import numpy.ma, 18 ms, on its first
    # call); log1n stays math.log per q, numpy's log not being that function
    distinct = sorted(set(qs))
    n = np.array(distinct, dtype=np.int64)
    start, p, e = factor_array(n)
    phi, tau, sigma = divisor_functions(n, start, p, e)
    bounds, ps = start.tolist(), p.tolist()
    counts = {q: (ps[lo:hi], f) for q, lo, hi, f in zip(distinct, bounds, bounds[1:], phi.tolist())}
    values = np.array([n, n * n, phi, tau, sigma, [log1n(q) for q in distinct]], dtype=np.float64)
    index = {q: i for i, q in enumerate(distinct)}
    return counts, values[:, [index[q] for q in qs]]


def _closed_forms(boxes: Sequence[tuple[int, Fraction, Fraction]], columns: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    # (main terms, envelopes) of boxes (q, X, Y) as float64 arrays, given
    # the _moduli columns: each formed left to right as its scalar
    # expression, so of the same bits; each side a float once, as numerator
    # / denominator, the division float(Fraction) does.  An overflow gives
    # inf, for the caller to refuse
    q, q2, phi_q, tau_q, sigma_q, L_q = columns
    X = np.array([X.numerator / X.denominator for _, X, _ in boxes], dtype=np.float64)
    Y = np.array([Y.numerator / Y.denominator for _, _, Y in boxes], dtype=np.float64)
    root = np.sqrt(q)
    with np.errstate(over="ignore"):
        return (phi_q * X * Y / q2,
                X / q * tau_q + L_q * sigma_q * (Y / root * tau_q + root * L_q))


class CountReport(NamedTuple):
    """A box of a x + b y^2 = 0 (mod q) and its report: one CSV row.

    seconds is a retired column, always 0.0.  It is kept so that every CSV
    and JSON table and every recorded digest of these rows keeps its bytes."""

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
    seconds: float = 0.0


_FLOAT_MAX = int(sys.float_info.max)


def _reports(a: int, b: int, boxes: list[tuple[int, Fraction, Fraction]]) -> list[CountReport]:
    # boxes (q, X, Y) with 1 <= q < 2^31 prime to a b and Fraction sides >= 1.
    # Every count bound (exact - main makes the count a float; each y <= Y has
    # one class of x mod q, so at most floor(X) // q + 1 of the x <= X), then
    # every main term and envelope, is checked before the first count.  The
    # forms are one array pass
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
    exact = [_linear_count(a, b, q, X, Y, *counts[q])
             for (q, _, _), (X, Y) in zip(boxes, floors)]
    ratio = np.abs(np.array(exact, dtype=np.float64) - main) / env
    return [CountReport(a, b, q, 1, 2, X, Y, n, m, v, r) for (q, X, Y), n, m, v, r
            in zip(boxes, exact, main.tolist(), env.tolist(), ratio.tolist())]


def scan_boxes(
    q_values: Sequence[int], a: int, b: int, X: RationalLike | None, Y: RationalLike | None
) -> list[CountReport]:
    """Box reports of a x + b y^2 = 0 (mod q) on (0, X] x (0, Y] over a
    family of moduli, in input order; a side left None is the modulus q
    itself.  Refused (ValueError) before any count: a or b = 0, a fixed
    side below 1, a modulus below 1 or of 2^31 or more (naming q), and a
    box whose count bound floor(Y) (floor(X) // q + 1), main term or
    envelope is outside float range (naming q).  The moduli with gcd(ab, q)
    != 1 are skipped, with no output."""
    if a == 0 or b == 0:
        raise ValueError("coefficients a, b must be nonzero")
    if any(side is not None and side < 1 for side in (X, Y)):
        raise ValueError("box sides X, Y must be >= 1")
    for q in q_values:
        _check_modulus(q)
    X, Y = (None if side is None else Fraction(side) for side in (X, Y))
    boxes = []
    for q in q_values:
        if math.gcd(a * b, q) == 1:
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


def _numerators(q: int, primes: list[int], bounds: BoundarySpec, J: Interval
                ) -> tuple[int, Iterator[tuple]]:
    """(D, blocks): the integers y in J prime to q, of the given primes, in
    ascending blocks (y, lo_n, hi_n), f_lo(y) = lo_n/D and f_hi(y) = hi_n/D.

    The numerators are A + B y over the lcm D of the denominators of the
    four rationals, int64 when _BLOCK times the largest of |A| + max(|B|,
    1) |y| + q D over J stays below 2^62, object dtype otherwise (q < 2^31
    is checked by class_sums).  Boundaries that cross on J are refused."""
    if any(bounds.upper(y) < bounds.lower(y) for y in (J.y0, J.y0 + J.length)):
        raise ValueError("upper boundary below lower boundary on J")
    coeffs = (bounds.lo_intercept, bounds.lo_slope, bounds.hi_intercept, bounds.hi_slope)
    D = math.lcm(*(c.denominator for c in coeffs))
    A0, B0, A1, B1 = (int(c * D) for c in coeffs)
    ys = J.integers()
    Y = max(abs(ys.start), abs(ys.stop - 1))
    top = max(abs(A0), abs(A1)) + max(abs(B0), abs(B1), 1) * Y + q * D
    dtype = np.int64 if _BLOCK * top < _WIDE else object
    blocks = _units(ys.start, ys.stop - 1, primes, dtype)
    return D, ((y, A0 + B0 * y, A1 + B1 * y) for y in blocks)


def linear_class(a: int, b: int, q: int) -> int:
    """k = -a^{-1} b mod q, so that a x + b y^2 = 0 (mod q) holds exactly
    for x = k y^2 (mod q); (a, b, q) is checked first."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if a == 0 or b == 0:
        raise ValueError("coefficients a, b must be nonzero")
    if math.gcd(a * b, q) != 1:
        raise ValueError("a*b must be coprime to q")
    return -mod_inv(a, q) * b % q


def class_sums(family: Mapping[int, Sequence[int]], bounds: BoundarySpec, J: Interval
               ) -> dict[int, tuple[list[int], Fraction]]:
    """{q: (counts, main)} for a family {q: ks} of moduli and their classes:
    one walk of the y in J prime to q for every class k of ks at once.

    counts[i] is the exact number of x, y with gcd(y, q) = 1, f_lo(y) < x
    <= f_hi(y) and x = ks[i] y^2 (mod q): each y adds the positive part of
    floor((hi_n - c D)/(q D)) - floor((lo_n - c D)/(q D)), c = ks[i] y^2 mod
    q, with lo_n/D, hi_n/D the boundary values in the int64 or object
    blocks of _numerators.  Each block is taken for up to
    arith.block_rows(len(block)) classes at a time, so no (classes x block)
    temporary exceeds arith.BLOCK_CELLS entries.  main = (1/q) sum_y (f_hi -
    f_lo)(y), the same for every k, is the sum of hi_n - lo_n over q D.
    Both are exact: block sums are combined in Python ints and Fractions.
    One arith.factor_array gives the primes of every q, each 1 <= q < 2^31,
    else ValueError naming the first q outside, before any walk."""
    for q in family:
        _check_modulus(q)
    start, p, _ = factor_array(list(family))
    at, ps = start.tolist(), p.tolist()
    sums = {}
    for (q, ks), lo, hi in zip(family.items(), at, at[1:]):
        ks = [k % q for k in ks]  # in [0, q), so int64 products stay below 2^62
        D, blocks = _numerators(q, ps[lo:hi], bounds, J)
        qD = q * D
        counts = np.zeros(len(ks), dtype=object)
        width = Fraction(0)
        for y, lo_n, hi_n in blocks:
            kv = np.array(ks, dtype=y.dtype)[:, None]
            rows = block_rows(len(y))
            residues = floor_mod(y, q)  # J may lie anywhere; _x_classes needs [0, q]
            for i in range(0, len(ks), rows):
                cD = _x_classes(residues, kv[i : i + rows], q) * D
                n = (hi_n - cD) // qD - (lo_n - cD) // qD
                counts[i : i + rows] += np.maximum(n, 0).sum(axis=1).astype(object)
            width += Fraction((hi_n - lo_n).sum())
        sums[q] = (counts.tolist(), width / qD)
    return sums


def eps_power(x: float, p: float) -> float:
    """x ** p, for the exponents p that an envelope's epsilon sets; a power
    that overflows a float is refused by ValueError naming epsilon."""
    try:
        return x ** p
    except OverflowError:
        raise ValueError(f"epsilon is too large: {x!r} ** {p!r} overflows a float") from None


# ---- bilinear sums of Jacobi symbols ----

class BilinearResult(NamedTuple):
    values: np.ndarray
    bound: float
    M: int
    N: int


def _jacobi_table(M: int, N: int) -> np.ndarray:
    """int8 table of the Jacobi symbols (n/m), row (m - 1)/2 for odd m <= M,
    column n - 1 for n <= N.  Row 1 is all ones; a prime row is its Legendre
    table (the nonzero squares mod p marked 1, the other units -1) read at
    n mod p; a composite row is the product of the rows of p and m/p, p its
    least prime factor."""
    rows = (M + 1) // 2
    # least prime factor of odd composites, the least written last
    spf = np.zeros(M + 1, dtype=np.int64)
    for p in reversed(sieve_primes(math.isqrt(M))[1:]):
        spf[p * p :: 2 * p] = p
    n = np.arange(1, N + 1, dtype=np.int64)
    table = np.empty((rows, N), dtype=np.int8)
    table[0] = 1
    for i in range(1, rows):
        m = 2 * i + 1
        p = int(spf[m])
        if p:
            table[i] = table[p // 2] * table[m // p // 2]
            continue
        legendre = 2 * _squares(m).view(np.int8) - 1
        legendre[0] = 0
        table[i] = legendre[n % m]
    return table


def bilinear_jacobi(a: np.ndarray, b: np.ndarray, epsilon: float) -> BilinearResult:
    """For each column s, the sum over odd m <= M, n <= N of a[(m - 1)/2, s]
    b[n - 1, s] (n/m), with the cancellation benchmark (MN)^eps (M sqrt(N) +
    sqrt(M) N) that every column shares.

    a and b are int arrays of signs +1 and -1, of shapes ((M + 1)/2, S) and
    (N, S): column s holds the coefficients of one seed.  values is the
    int64 array ((T b) * a).sum(axis=0), T the int8 table of (n/m) ((M +
    1)/2 * N bytes, plus its int64 copy in the product), exact as each |sum|
    is at most (M + 1)/2 * N.  Refused by ValueError: an empty array, seed
    counts that differ, an entry other than +1 or -1, a negative epsilon and
    an epsilon whose (MN)^eps overflows a float, all before the table is
    built.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or not a.size or not b.size or a.shape[1] != b.shape[1]:
        raise ValueError(f"coefficients must be nonempty arrays of shapes ((M + 1)/2, S) and"
                         f" (N, S), got {a.shape} and {b.shape}")
    if not all(c.dtype.kind in "iu" and (np.abs(c) == 1).all() for c in (a, b)):
        raise ValueError("coefficients must be integers +1 or -1")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    M = 2 * len(a) - 1
    N = len(b)
    bound = eps_power(M * N, epsilon) * (M * math.sqrt(N) + math.sqrt(M) * N)
    values = ((_jacobi_table(M, N) @ b.astype(np.int64, copy=False)) * a).sum(axis=0)
    return BilinearResult(values, bound, M, N)
