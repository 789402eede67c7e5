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
number of unit y <= t, is sum mu(d) floor(t/d) over d | rad(q): when
rx = 0 no block is walked at all.  For e >= 2 it also fills one int32
table of y-counts per key (4 bytes per residue) and reads it at the
x-keys.  O(q) time at most, q < 2^31 so every residue product fits in
int64, and the T are combined in Python ints, so counts stay exact for any
rational box.  Every int64 reduction mod q is arith.floor_mod, x - x // q
* q: numpy divides by a scalar with a multiply and a shift, where % takes
one hardware divide per element.  Boxes get a main-term/error-envelope
split phi(q) X Y / q^2 + O(...).

Regions whose x-range depends on y through slowly varying boundary functions
are counted through the floor identity

    #{x in (L, R] : x = c (mod q)} = floor((R - c)/q) - floor((L - c)/q),

c = k y^2 mod q with k = -a^{-1} b mod q, over ascending blocks of the y in
J prime to q.  The main term replaces each such count by (R - L)/q.
class_sums takes the counts of a whole vector of classes k and their one
shared main term from one walk of these blocks, in (classes x block) pieces
of at most 2^18 entries (2 MiB in int64); boundary_sums is its one-class
case.  Affine boundaries are integer numerators over one common denominator
D, so each block is one integer floor division of (D f(y) - c D) by q D; a
block is int64 when q < 2^31 and _BLOCK times the largest value formed stays
below 2^62 (so per-block sums cannot overflow either), and object dtype of
Python ints otherwise, with the same code.  Any other boundary callable is
evaluated per y to a Fraction and goes through the same expression as an
object array.  Counts are Python ints, main terms exact Fractions.  These
regions get the H-truncated envelope with the Delta_H distortion factor.

Bilinear sums of Jacobi symbols (n/m) read one int8 table of the symbols for
odd m <= M and n <= N, (M + 1)/2 * N bytes.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .arith import factorize, floor_mod, log1n, mod_inv, phi, sigma_half_inv, tau

log = logging.getLogger("congruence_lab")

RationalLike = int | float | Fraction

_BLOCK = 1 << 14  # residues per block of count_exact and the boundary counts
_Q_LIMIT = 1 << 31  # count_exact moduli: products of residues fit in int64
_WIDE = 1 << 62  # int64 paths keep every value, and every block sum, below this
_CELLS = 1 << 18  # entries of one (classes x y-block) temporary of class_sums


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


def _check_coefficients(a: int, b: int, q: int) -> None:
    if q < 1:
        raise ValueError("q must be a positive integer")
    if a == 0 or b == 0:
        raise ValueError("coefficients a, b must be nonzero")
    if math.gcd(a * b, q) != 1:
        raise ValueError("a*b must be coprime to q")


def _check_modulus(q: int) -> None:
    if not 1 <= q < _Q_LIMIT:
        raise ValueError(f"count_exact needs 1 <= q < 2^31, got q = {q}")


def _units(lo: int, hi: int, primes: list[int], dtype=np.int64) -> Iterator[np.ndarray]:
    # the integers in [lo, hi] prime to every p in primes, in ascending
    # blocks: each p strikes its multiples start + (-start % p) + j p from a
    # mask by one strided write; start is added after the cast, so object
    # blocks hold Python ints however far lo lies beyond int64
    for start in range(lo, hi + 1, _BLOCK):
        keep = np.ones(min(_BLOCK, hi + 1 - start), dtype=bool)
        for p in primes:
            keep[-start % p :: p] = False
        yield np.flatnonzero(keep).astype(dtype) + start


def _unit_count(t: int, primes: list[int]) -> int:
    # #{1 <= y <= t : no p in primes divides y} = sum over d | prod(primes)
    # of mu(d) floor(t / d), 2^len(primes) terms (at most 2^9 for q < 2^31)
    terms = [(1, 1)]  # (d, mu(d))
    for p in primes:
        terms += [(d * p, -mu) for d, mu in terms]
    return sum(mu * (t // d) for d, mu in terms)


def _powmod(r: np.ndarray, k: int, q: int) -> np.ndarray:
    # r^k mod q for k >= 1 by repeated squaring from the lowest set bit of k,
    # so r^2 costs one product; with r, q < 2^31 every product is < 2^62
    base = floor_mod(r, q)
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
    # c_y = k y^f mod q, k = -a^{-1} b mod q: the one class of x in [0, q)
    # with a x + b y^f = 0 (mod q), for every unit y of the block; a column
    # of k gives one row per k
    return floor_mod(k * _powmod(y, f, q), q)


def count_exact(inst: CongruenceInstance) -> int:
    """Exact solution count: Qx Qy T(q, q) + Qx T(q, ry) + Qy T(rx, q) + T(rx, ry).

    floor(X) = Qx q + rx and floor(Y) = Qy q + ry; T(s, t) counts unit pairs
    x <= s, y <= t with -a x^e = b y^f (mod q).  The residues 1..q (q stands
    for the class 0, a unit only when q = 1) are sieved for units by the
    primes of q in blocks of _BLOCK, y <= ry first and then the rest.

    For e = 1 each unit y fixes one unit x, the class c_y = -a^{-1} b y^f mod
    q, so T(q, t) is the number of unit y <= t, taken in closed form by
    inclusion-exclusion over the primes of q, and T(rx, t) the number of
    those with c_y <= rx: the y are walked only when rx > 0 (rx = 0 covers
    q = 1 and every X that is a multiple of q).  For e >= 2, x -> -a x^e is
    not a bijection on the units, so an int32 table of length q counts the
    unit y per key b y^f mod q, and after each fill the x-keys -a x^e mod q
    are gathered from it (4 bytes per residue).  O(q) time at most, exact
    for any rational X and Y and any signs of a and b.  q must satisfy
    1 <= q < 2^31: ValueError naming q otherwise, before anything is
    allocated.
    """
    q = inst.q
    _check_modulus(q)
    Qx, rx = divmod(inst.X.numerator // inst.X.denominator, q)
    Qy, ry = divmod(inst.Y.numerator // inst.Y.denominator, q)
    primes = [p for p, _ in factorize(q).factors]
    y_ranges = ((1, ry), (ry + 1, q))
    sums = []  # (T(rx, t), T(q, t)) for t = ry, then t = q
    if inst.e == 1:
        k = -mod_inv(inst.a, q) * inst.b % q
        below = 0
        for y_lo, y_hi in y_ranges:
            if rx:
                for y in _units(y_lo, y_hi, primes):
                    below += int(np.count_nonzero(_x_classes(y, k, inst.f, q) <= rx))
            sums.append((below, _unit_count(y_hi, primes)))
    else:
        ka, kb = -inst.a % q, inst.b % q
        table = np.zeros(q, dtype=np.int32)
        for y_lo, y_hi in y_ranges:
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


def main_term(inst: CongruenceInstance) -> float:
    """phi(q) X Y / q^2 (linear-quadratic pairing only)."""
    if (inst.e, inst.f) != (1, 2):
        raise ValueError("main term is for e = 1, f = 2")
    return phi(inst.q) * float(inst.X) * float(inst.Y) / inst.q**2


def _completed_term(c: float, q: int, Y: float) -> float:
    # the completed Gauss sums of both envelopes, multiplied left to right
    return c * sigma_half_inv(q) * (Y / math.sqrt(q) * tau(q) + math.sqrt(q) * log1n(q))


def error_envelope(inst: CongruenceInstance) -> float:
    """Envelope X/q tau(q) + L(q) sigma_{-1/2}(q) (Y/sqrt(q) tau(q) + sqrt(q) L(q))."""
    if (inst.e, inst.f) != (1, 2):
        raise ValueError("error envelope is for e = 1, f = 2")
    q = inst.q
    return float(inst.X) / q * tau(q) + _completed_term(log1n(q), q, float(inst.Y))


class CountReport(NamedTuple):
    instance: CongruenceInstance
    exact: int
    main_term: float
    envelope: float
    ratio: float
    seconds: float


def box_report(inst: CongruenceInstance) -> CountReport:
    t0 = time.perf_counter()
    exact = count_exact(inst)
    main = main_term(inst)
    env = error_envelope(inst)
    seconds = time.perf_counter() - t0
    return CountReport(inst, exact, main, env, abs(exact - main) / env, seconds)


Rule = int | float | Fraction | Callable[[int], RationalLike]


def _apply(rule: Rule, q: int) -> RationalLike:
    return rule(q) if callable(rule) else rule


def scan_boxes(
    q_values: Sequence[int],
    a_rule: Rule = 1,
    b_rule: Rule = 1,
    X_rule: Rule = lambda q: q,
    Y_rule: Rule = lambda q: q,
) -> list[CountReport]:
    """Box reports over a family of moduli, in input order; instances
    violating gcd(ab, q) = 1 are skipped with a log line.  A modulus below 1
    or of 2^31 or more is refused (ValueError naming q) before any instance
    is counted."""
    for q in q_values:
        _check_modulus(q)
    instances = []
    for q in q_values:
        try:
            instances.append(
                CongruenceInstance(
                    int(_apply(a_rule, q)),
                    int(_apply(b_rule, q)),
                    q,
                    Fraction(_apply(X_rule, q)),
                    Fraction(_apply(Y_rule, q)),
                )
            )
        except ValueError as exc:
            log.warning("skipping q=%d: %s", q, exc)
    return [box_report(inst) for inst in instances]


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
class AffineBoundary:
    """y -> intercept + slope * y, exact rational."""

    intercept: Fraction
    slope: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "intercept", Fraction(self.intercept))
        object.__setattr__(self, "slope", Fraction(self.slope))

    def __call__(self, y: RationalLike) -> Fraction:
        return self.intercept + self.slope * Fraction(y)


Boundary = Callable[[RationalLike], RationalLike]


@dataclass(frozen=True)
class BoundarySpec:
    """Lower/upper x-boundaries as functions of y plus a bound on |d/dy|.

    Affine boundaries are walked as integer numerators over one common
    denominator.  Any other callable is evaluated per y and converted with
    Fraction(f(y)), which is exact for whatever int, float or Fraction it
    returns, so counts are exact for the values the callable gives.
    """

    lower: Boundary
    upper: Boundary
    derivative_bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "derivative_bound", Fraction(self.derivative_bound))
        if self.derivative_bound < 0:
            raise ValueError("derivative bound must be nonnegative")


def box_bounds(X: RationalLike) -> BoundarySpec:
    """The box (0, X]: constant boundaries, zero derivative bound."""
    if Fraction(X) <= 0:
        raise ValueError("X must be positive")
    return BoundarySpec(AffineBoundary(0), AffineBoundary(X), Fraction(0))


def affine_bounds(
    lo_intercept: RationalLike,
    lo_slope: RationalLike,
    hi_intercept: RationalLike,
    hi_slope: RationalLike,
) -> BoundarySpec:
    lo = AffineBoundary(Fraction(lo_intercept), Fraction(lo_slope))
    hi = AffineBoundary(Fraction(hi_intercept), Fraction(hi_slope))
    return BoundarySpec(lo, hi, max(abs(lo.slope), abs(hi.slope)))


def _numerators(q: int, bounds: BoundarySpec, J: Interval) -> tuple[int, Iterator[tuple]]:
    """(D, blocks): the integers y in J prime to q in ascending blocks
    (y, lo_n, hi_n) with f_lo(y) = lo_n/D and f_hi(y) = hi_n/D.

    Affine boundaries give integer numerators A + B y over the lcm D of their
    denominators, int64 when q < 2^31 and _BLOCK times the largest of
    |A| + max(|B|, 1) |y| + q D over J stays below 2^62, object dtype
    otherwise.  Any other callable is evaluated per y to a Fraction (D = 1)
    in an object array.  Affine boundaries that cross on J are refused."""
    lo, hi = bounds.lower, bounds.upper
    ys = J.integers()
    primes = [p for p, _ in factorize(q).factors]
    if not (isinstance(lo, AffineBoundary) and isinstance(hi, AffineBoundary)):
        def values(f, y):
            return np.array([Fraction(f(v)) for v in y.tolist()], dtype=object)

        blocks = _units(ys.start, ys.stop - 1, primes, object)
        return 1, ((y, values(lo, y), values(hi, y)) for y in blocks)
    if any(hi(y) < lo(y) for y in (J.y0, J.y0 + J.length)):
        raise ValueError("upper boundary below lower boundary on J")
    D = math.lcm(*(x.denominator for x in (lo.intercept, lo.slope, hi.intercept, hi.slope)))
    (A0, B0), (A1, B1) = ((int(f.intercept * D), int(f.slope * D)) for f in (lo, hi))
    Y = max(abs(ys.start), abs(ys.stop - 1))
    top = max(abs(A0), abs(A1)) + max(abs(B0), abs(B1), 1) * Y + q * D
    dtype = np.int64 if q < _Q_LIMIT and _BLOCK * top < _WIDE else object
    blocks = _units(ys.start, ys.stop - 1, primes, dtype)
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
    blocks of _numerators.  Each block is taken for up to _CELLS // len(block)
    classes at a time, so no (classes x block) temporary exceeds _CELLS
    entries.  main = (1/q) sum_y (f_hi - f_lo)(y), the same for every k, is
    the sum of hi_n - lo_n over q D.  Both are exact: block sums are
    combined in Python ints and Fractions."""
    ks = [k % q for k in ks]  # in [0, q), so int64 products stay below 2^62
    D, blocks = _numerators(q, bounds, J)
    qD = q * D
    counts = np.zeros(len(ks), dtype=object)
    width = Fraction(0)
    for y, lo_n, hi_n in blocks:
        kv = np.array(ks, dtype=y.dtype)[:, None]
        rows = max(1, _CELLS // max(len(y), 1))
        for i in range(0, len(ks), rows):
            cD = _x_classes(y, kv[i : i + rows], 2, q) * D
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


class BoundaryReport(NamedTuple):
    exact: int
    main_term: float
    envelope: float
    ratio: float
    H: int
    delta_H: float
    seconds: float


def boundary_report(
    a: int, b: int, q: int, bounds: BoundarySpec, J: Interval, H: int
) -> BoundaryReport:
    """Exact count against the truncation-H envelope

    Y/H + Delta_H L(H) sigma_{-1/2}(q) (Y/sqrt(q) tau(q) + sqrt(q) L(q)),
    Delta_H = 1 + H T Y / q with T the boundary derivative bound."""
    if H < 1:
        raise ValueError("H must be >= 1")
    t0 = time.perf_counter()
    exact, mt = boundary_sums(a, b, q, bounds, J)
    main = float(mt)
    Y = float(J.length)
    T = float(bounds.derivative_bound)
    delta = 1.0 + H * T * Y / q
    env = Y / H + _completed_term(delta * log1n(H), q, Y)
    seconds = time.perf_counter() - t0
    return BoundaryReport(exact, main, env, abs(exact - main) / env, H, delta, seconds)


# ---- bilinear sums of Jacobi symbols ----

class BilinearResult(NamedTuple):
    value: complex
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
    in float arithmetic.
    """
    if not len(a_coeffs) or not len(b_coeffs):
        raise ValueError("coefficient sequences must be nonempty")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    a, b = np.asarray(a_coeffs), np.asarray(b_coeffs)
    M = 2 * len(a) - 1
    N = len(b)
    if a.dtype.kind in "biu" and b.dtype.kind in "biu":
        top = max(abs(int(a.min())), int(a.max())) * max(abs(int(b.min())), int(b.max()))
        dtype = np.int64 if top * len(a) * N < _WIDE else object
        a, b = a.astype(dtype), b.astype(dtype)
    total = complex(a @ (_jacobi_table(M, N) @ b))
    bound = (M * N) ** epsilon * (M * math.sqrt(N) + math.sqrt(M) * N)
    return BilinearResult(total, bound, M, N)
