"""Almost-prime points on a singular sextic del Pezzo surface.

The surface lives in P^6 and carries the two quadric relations
x3 x4 = x0 x5 and x6^2 + x3 x5 + x4 x5 = 0.  Integral points come from a
torsor with variables (eta1..eta4, alpha1..alpha3) satisfying

    eta2 alpha1^2 + eta3 alpha2 + eta4 alpha3 = 0

and coprimality side conditions; the monomial map pi sends torsor points to
surface points, and both quadrics vanish identically on its image (the
second one is eta1^6 eta2^3 eta3^4 eta4^4 times the torsor equation).

The lower-bound family fixes eta = (1, 1, 1, q) with q prime in the window
(B^{1/3}/2, B^{1/3}]: every pair 0 < alpha1 <= B^{1/3}/2 coprime to q and
0 < alpha2 <= B^{2/3}/2 with alpha2 = alpha1^2 (mod q), alpha2 != alpha1^2,
lifts to a surface point of height at most B.  Points whose coordinate
product alpha1 alpha2 |alpha3| has at most t prime factors (with
multiplicity) are the almost-prime ones; densities of the divisibility
pattern are described by the multiplicative function rho below, and the
weighted sieve needs t above a threshold computed from the dimension-3
sieving limit beta_3.

One kernel, _family, enumerates the family of a prime q in int64 blocks; the
points and the sieve sequence read it, and the points look up Omega per
block through _omega.  point_blocks, the one point enumerator, turns the
family into checked int64 column blocks (q, alphas, surface coordinates,
Omega) that dp6-enumerate streams to its output without building a Python
object per point.  The counts L_t need no point: l_t_count reads each
alpha1 row of the family as two int8 slices of the Omega table, a column of
it for alpha2 and a contiguous run for alpha3.  rho is computed as its
Euler product.

All window and height comparisons are exact integer inequalities
(8 q^3 > B instead of q > B^{1/3} and so on); no floating-point cube roots.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import factorize, is_prime, mobius, phi

log = logging.getLogger("congruence_lab")

BETA_3 = 6.640859  # sieving limit for the dimension-3 weighted sieve
_BLOCK_PAIRS = 1 << 14  # (alpha1, alpha2) pairs per _family block, whole rows
_BLOCK_CELLS = 1 << 18  # int8 cells per l_t_count block, whole rows


def icbrt(n: int) -> int:
    """Exact integer cube root: the largest r with r**3 <= n."""
    if n < 0:
        raise ValueError("icbrt requires n >= 0")
    if n == 0:
        return 0
    # Newton from 2^ceil(bits/3) >= n^{1/3}: the iterates decrease strictly
    # until they reach the floor of the cube root, and never fall below it
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


def sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


# Callers work through one budget at a time, so one table is cached: 1 byte
# per entry, limit = B^{2/3}/2 entries for the budget B.
@lru_cache(maxsize=1)
def _omega_upto(limit: int) -> np.ndarray:
    # om[n] = number of prime factors of n with multiplicity; om[0] unused.
    # Only the primes p <= sqrt(limit) are sieved; what is left of n after
    # dividing out their powers is 1 or one prime above sqrt(limit).
    om = np.zeros(limit + 1, dtype=np.int8)
    rem = np.arange(limit + 1, dtype=np.int64)
    for p in sieve_primes(math.isqrt(limit)):
        pk = p
        while pk <= limit:
            om[pk::pk] += 1
            rem[pk::pk] //= p
            pk *= p
    om += rem > 1
    return om


def _monomials(eta, alpha) -> tuple:
    # the coordinates x0..x6 of the monomial map pi from the torsor to the
    # surface; the alphas may be int64 arrays
    e1, e2, e3, e4 = eta
    a1, a2, a3 = alpha
    return (
        a2 * a3,
        e1 * e2 * e3 * a1 * a2,
        e1 * e2 * e4 * a1 * a3,
        e1**2 * e2 * e3**2 * e4 * a2,
        e1**2 * e2 * e3 * e4**2 * a3,
        e1**4 * e2**2 * e3**3 * e4**3,
        e1**3 * e2**2 * e3**2 * e4**2 * a1,
    )


def prime_window(B: int) -> list[int]:
    """Primes q with B^{1/3}/2 < q <= B^{1/3}, by exact cube comparisons."""
    return [q for q in sieve_primes(icbrt(B)) if 8 * q**3 > B]


def _alpha_bounds(B: int) -> tuple[int, int]:
    return icbrt(B // 8), icbrt(B * B // 8)


def _family(B: int, q: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The family points of one prime q <= B^{1/3} as int64 blocks
    (alpha1, alpha2, alpha3) in (alpha1, alpha2) order.

    A block holds whole alpha1 rows, about _BLOCK_PAIRS pairs.  Row alpha1
    has alpha2 = s + k q for 0 <= k < n, s = alpha1^2 mod q, so alpha3 =
    (s - alpha1^2)/q + k = k - z with z = alpha1^2 // q.  Skipping alpha3 = 0
    splits the row into two runs, alpha3 < 0 and alpha3 > 0.
    """
    a1max, a2max = _alpha_bounds(B)
    rows = np.arange(1, a1max + 1, dtype=np.int64)
    rows = rows[rows % q != 0]
    step = max(1, _BLOCK_PAIRS // (a2max // q + 1))
    for i in range(0, rows.size, step):
        a1 = np.repeat(rows[i : i + step], 2)  # one entry per run
        sq = a1 * a1
        z = sq // q
        n = (a2max - sq % q) // q + 1
        neg = np.arange(a1.size) % 2 == 0
        lens = np.where(neg, np.minimum(z, n), np.maximum(n - z - 1, 0))
        ends = np.cumsum(lens)
        a3 = np.arange(ends[-1]) + np.repeat(np.where(neg, -z, 1) - ends + lens, lens)
        yield np.repeat(a1, lens), np.repeat(sq, lens) + q * a3, a3


def _omega(B: int, a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    # Omega(alpha1 alpha2 |alpha3|), prime factors with multiplicity, for a
    # block of _family(B, q); summed in the table's int8, each term < 42
    om = _omega_upto(max(_alpha_bounds(B)[1], 1))
    return om[a1] + om[a2] + om[np.abs(a3)]


# point_blocks refuses budgets at or above this, so that its checks are exact
# in int64 (see _check_block)
POINT_BUDGET_LIMIT = 2**31


def point_blocks(B: int, t: int) -> Iterator[np.ndarray]:
    """The lower-bound family points with at most t prime factors in
    alpha1 alpha2 |alpha3|, as int64 blocks of rows

        (q, alpha1, alpha2, alpha3, x0, ..., x6, Omega)

    in lexicographic order in (q, alpha1, alpha2), where x = pi(eta, alpha)
    at eta = (1, 1, 1, q), alpha = (alpha1, -alpha2, alpha3).  Every block is
    checked before it is yielded (see _check_block): q prime in its window,
    the alpha windows, coprimality to q, alpha3 nonzero, the torsor
    equation, both quadrics and height <= B.  B, t and the int64 limit
    B < 2^31 are checked before any work."""
    if B < 1:
        raise ValueError("budget B must be positive")
    if t < 0:
        raise ValueError("factor bound t must be nonnegative")
    if B >= POINT_BUDGET_LIMIT:
        raise ValueError(f"budget B = {B} too large: surface points are checked in"
                         f" int64, which needs B < 2^31")
    return _point_blocks(B, t)


def _point_blocks(B: int, t: int) -> Iterator[np.ndarray]:
    for q in prime_window(B):
        for a1, a2, a3 in _family(B, q):
            block = np.empty((a1.size, 12), dtype=np.int64)
            block[:, 0] = q
            block[:, 1], block[:, 2], block[:, 3] = a1, a2, a3
            for j, x in enumerate(_monomials((1, 1, 1, q), (a1, -a2, a3))):
                block[:, 4 + j] = x
            _check_block(B, q, block)
            block[:, 11] = _omega(B, a1, a2, a3)
            yield block[block[:, 11] <= t]


def _check_block(B: int, q: int, block: np.ndarray) -> None:
    """Raise ValueError naming q and the first row of block that breaks an
    invariant of the family.

    Exactness in int64 for B < 2^31: the window predicates are comparisons.
    On rows inside the windows alpha1^2 and alpha2 are below B^{2/3} < 2^21,
    and where alpha3 = (alpha2 - alpha1^2)/q also holds, every coordinate is
    below B^{4/3} < 2^42.  On rows that also pass the height check every |x_i| <= B,
    so x3 x4, x0 x5 and x6^2 stay below 2^62 and x5 (x3 + x4) below 2^63.
    Every other row fails one of those exact predicates, whatever the rest
    of its values wrapped to."""
    if not is_prime(q) or q**3 > B or 8 * q**3 <= B:
        raise ValueError(f"family prime q = {q} must be a prime in (B^{{1/3}}/2, B^{{1/3}}]")
    a1max, a2max = _alpha_bounds(B)
    a1, a2, a3 = block[:, 1], block[:, 2], block[:, 3]
    x0, _, _, x3, x4, x5, x6 = block[:, 4:11].T
    sq = a1 * a1
    checks = {
        "alpha1 must lie in (0, B^{1/3}/2]": (a1 >= 1) & (a1 <= a1max),
        "alpha1 must be coprime to q": a1 % q != 0,
        "alpha2 must lie in (0, B^{2/3}/2]": (a2 >= 1) & (a2 <= a2max),
        "alpha2 must be coprime to q": a2 % q != 0,
        "alpha2 must be alpha1^2 (mod q)": (a2 - sq) % q == 0,
        "alpha3 must be (alpha2 - alpha1^2)/q": a3 == (a2 - sq) // q,
        "alpha3 must be nonzero": a3 != 0,
        "torsor equation eta2 a1^2 + eta3 a2 + eta4 a3 = 0 fails": sq - a2 + q * a3 == 0,
        "height must be at most B": np.abs(block[:, 4:11]).max(axis=1) <= B,
        "zero vector is not a projective point": block[:, 4:11].any(axis=1),
        "quadric x3 x4 = x0 x5 fails": x3 * x4 == x0 * x5,
        "quadric x6^2 + x3 x5 + x4 x5 = 0 fails": x6 * x6 == -(x5 * (x3 + x4)),
    }
    ok = np.logical_and.reduce(list(checks.values()))
    if not ok.all():
        i = int(np.argmin(ok))
        failed = "; ".join(what for what, good in checks.items() if not good[i])
        raise ValueError(f"family point q = {q}, (alpha1, alpha2, alpha3) ="
                         f" ({a1[i]}, {a2[i]}, {a3[i]}): {failed}")


# l_t_count refuses budgets whose alpha2 bound reaches this, so that its int8
# sums cannot wrap (see _check_count_budget)
COUNT_ALPHA2_LIMIT = 2**32


def _check_count_budget(B: int) -> None:
    """Refuse a budget that l_t_count cannot count exactly in int8.

    Every 1 <= n <= a2max has Omega(n) <= L - 1 with L = a2max.bit_length(),
    so a real two-term sum is at most 2L - 2 and the pad 2L - 1 exceeds it.
    Two pads add to 4L - 2, which stays <= 127 while a2max < 2^32."""
    if B < 1:
        raise ValueError("budget B must be positive")
    if _alpha_bounds(B)[1] >= COUNT_ALPHA2_LIMIT:
        raise ValueError(f"budget B = {B} too large: almost-prime counts sum int8"
                         f" Omega entries, which needs B^{{2/3}}/2 < 2^32")


def l_t_count(B: int, q: int, t: int) -> int:
    """Count of almost-prime family points for one prime q (no lifting).

    q beyond B^{1/3} contributes nothing and returns 0 with a log line.

    Row alpha1 of the family has alpha2 = s + k q and alpha3 = k - z for
    0 <= k < K = a2max // q + 1, with s = alpha1^2 mod q and z = alpha1^2 // q
    (see _family), so its two Omega terms are int8 slices of two tables:
    column s of M, the Omega table read as a (K, q) matrix with
    M[k, s] = Omega(s + k q), and the window T[Z - z : Z - z + K] of
    T[j] = Omega(|j - Z|), Z the largest z.  A block of rows is a block of
    columns of M, to which the transposed windows are added.  A pad that
    exceeds every real two-term sum fills the cells beyond a2max and T[Z]
    (alpha3 = 0), and each row compares its sums against t - Omega(alpha1)
    clamped to the largest real sum, so pad cells never count.  No alpha2
    array is built.
    """
    _check_count_budget(B)
    if not is_prime(q):
        raise ValueError("q must be prime")
    if t < 0:
        raise ValueError("factor bound t must be nonnegative")
    if q**3 > B:
        log.info("l_t_count: q=%d exceeds B^{1/3}, count is 0", q)
        return 0
    a1max, a2max = _alpha_bounds(B)
    om = _omega_upto(a2max)
    L = a2max.bit_length()
    pad = 2 * L - 1
    K = a2max // q + 1
    mt = np.full(q * K, pad, dtype=np.int8)
    mt[: a2max + 1] = om
    mt = mt.reshape(K, q)
    rows = np.arange(1, a1max + 1, dtype=np.int64)
    rows = rows[rows % q != 0]
    s, z = rows * rows % q, rows * rows // q
    Z = int(z[-1])
    T = np.empty(Z + K, dtype=np.int8)
    T[:Z], T[Z], T[Z + 1 :] = om[Z:0:-1], pad, om[1:K]
    windows = np.lib.stride_tricks.sliding_window_view(T, K)
    # every real cell passes at t >= 3L, so the int8 subtraction is exact
    room = np.minimum(min(t, 3 * L) - om[rows], 2 * L - 2)
    step = max(1, _BLOCK_CELLS // K)
    total = 0
    for i in range(0, rows.size, step):
        cells = mt[:, s[i : i + step]]
        cells += windows[Z - z[i : i + step]].T
        total += int(np.count_nonzero(cells <= room[None, i : i + step]))
    return total


class GrowthRow(NamedTuple):
    B: int
    t: int
    count: int
    normalized: float  # count * log(B)^5 / B


def m_t_growth(B_values: Sequence[int], t: int) -> list[GrowthRow]:
    """Total almost-prime counts over the q-window for each budget."""
    for B in B_values:
        _check_count_budget(B)
    if t < 0:
        raise ValueError("factor bound t must be nonnegative")
    rows = []
    for B in B_values:
        total = sum(l_t_count(B, q, t) for q in prime_window(B))
        rows.append(GrowthRow(B, t, total, total * math.log(B) ** 5 / B))
    return rows


# ---- sieve sequence and local densities ----

class SieveSequence(NamedTuple):
    """Multiplicities a_n = #{family points with alpha1 alpha2 |alpha3| = n}
    for one prime q, with the normalization X = phi(q) B / (4 q^2)."""

    B: int
    q: int
    X: Fraction
    a: dict[int, int]

    def total(self) -> int:
        return sum(self.a.values())


def build_sieve_sequence(B: int, q: int) -> SieveSequence:
    """The sequence a_n for one window prime q; n = alpha1 alpha2 |alpha3| is
    formed in int64, so budgets where it could reach 2^63 are refused."""
    if not is_prime(q):
        raise ValueError("q must be prime")
    if q**3 > B or 8 * q**3 <= B:
        raise ValueError("q must lie in (B^{1/3}/2, B^{1/3}]")
    a1max, a2max = _alpha_bounds(B)
    if a1max * a2max * (a2max // q + 1) >= 2**63:
        raise ValueError(f"budget B = {B} too large: alpha1 alpha2 |alpha3| may overflow int64")
    products = [a1 * a2 * np.abs(a3) for a1, a2, a3 in _family(B, q)]
    ns, counts = np.unique(np.concatenate([np.zeros(0, np.int64), *products]),
                           return_counts=True)
    return SieveSequence(B, q, Fraction(phi(q) * B, 4 * q * q),
                         dict(zip(ns.tolist(), counts.tolist())))


def rho(d: int, q: int) -> Fraction:
    """Local divisibility density scale, defined as a sum over triples
    (e1, e2, e3) supported exactly on the primes of squarefree d, gcd(e1 e2, q) = 1,

      rho(d) = mu(d) d sum mu(e1) mu(e2) mu(e3) (e1,e2,e3)/(e1 e2 e3)
               * sum_{l | f3} (1/l) phi*(f3/l) / phi*((f3/l, q)),

    where f3 = e3 / ((e1,e2,e3) (e1',e3') (e2',e3')) strips the parts of e3
    shared with e1 and e2.  It is multiplicative in d, rho(p) = 3 - 2/p for
    p != q and rho(q) = 1 + 1/q, and is computed as that Euler product.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if mobius(d) == 0:
        raise ValueError("d must be squarefree")
    if not is_prime(q):
        raise ValueError("q must be prime")
    out = Fraction(1)
    for p, _ in factorize(d).factors:
        out *= 1 + Fraction(1, q) if p == q else 3 - Fraction(2, p)
    return out


def sum_over_d(seq: SieveSequence, d: int) -> tuple[int, float, float]:
    """(exact sum of a_n over d | n, predicted rho(d)/d X, remainder)."""
    if d < 1 or mobius(d) == 0:
        raise ValueError("d must be a positive squarefree integer")
    exact = sum(c for n, c in seq.a.items() if n % d == 0)
    predicted = float(rho(d, seq.q) / d * seq.X)
    return exact, predicted, exact - predicted


def sieve_threshold(kappa: int, mu: float, beta: float) -> float:
    """mu - 1 + (mu - kappa)(1 - 1/beta) + (kappa + 1) log beta."""
    if kappa < 1 or beta <= 1 or mu <= 0:
        raise ValueError("need kappa >= 1, beta > 1, mu > 0")
    return mu - 1 + (mu - kappa) * (1 - 1 / beta) + (kappa + 1) * math.log(beta)


def w2_sum(
    seq: SieveSequence, tau_level: float = 0.4, c2: float = 1.0
) -> dict[str, float]:
    """Remainder mass sum_{d <= X^tau / log^{c2} X} mu^2(d) 4^omega(d) |R_d|,
    with the comparison scale X / log^4 X."""
    X = float(seq.X)
    if X <= 1:
        raise ValueError("normalization X must exceed 1")
    d_max = X**tau_level / math.log(X) ** c2
    if d_max < 1:
        raise ValueError(f"d_max = X^tau / log^c2 X = {d_max!r} is below 1, so the"
                         f" remainder sum is empty: raise tau (--tau) or lower c2 (--c2)")
    total = 0.0
    d = 1
    while d <= d_max:
        if mobius(d) != 0:
            _, _, rem = sum_over_d(seq, d)
            total += 4 ** len(factorize(d).factors) * abs(rem)
        d += 1
    scale = X / math.log(X) ** 4
    return {
        "tau": tau_level,
        "c2": c2,
        "d_max": d_max,
        "sum": total,
        "comparison_scale": scale,
        "implied_c3": total / scale,
    }


def w1_min_c1(q: int, z_max: int = 1000) -> dict[str, float]:
    """Smallest admissible c1 on a prime grid for the dimension-3 density
    condition prod_{w <= p < z} (1 - rho(p)/p)^{-1} <= (log z/log w)^3
    (1 + c1/log w).  p = 2 is excluded: rho(2) = 2, matching the fact that
    every sequence element is even, so the product diverges at 2."""
    ps = [p for p in sieve_primes(z_max) if p > 2]
    if len(ps) < 2:
        raise ValueError("z_max too small for a grid")
    logs = [math.log(float(1 - rho(p, q) / p)) for p in ps]
    prefix = [0.0]
    for v in logs:
        prefix.append(prefix[-1] + v)
    log_p = [math.log(p) for p in ps]
    worst = 0.0
    for i, log_w in enumerate(log_p):
        for j in range(i + 1, len(ps)):
            lhs = math.exp(-(prefix[j] - prefix[i]))  # product over w <= p < z
            needed = (lhs / (log_p[j] / log_w) ** 3 - 1) * log_w
            worst = max(worst, needed)
    return {"z_max": z_max, "min_c1": worst}


def _ratio(x: Fraction) -> str:
    # always "num/den", also for integers (reports.fmt would print "1")
    return f"{x.numerator}/{x.denominator}"


def sieve_condition_report(
    B: int,
    q: int,
    tau_level: float = 0.4,
    c2: float = 1.0,
    z_max: int = 1000,
    rho_table_max: int = 30,
    t: int = 12,
    mu: float = 4.0,
) -> dict:
    """Everything the weighted sieve needs, JSON-ready: the rho table, the
    remainder sum, the density-grid constant, and the almost-prime threshold.
    A rho table bound below 1 (an empty table) and a level tau <= 0 are
    refused before any work."""
    if rho_table_max < 1:
        raise ValueError(f"rho_table_max (--rho-max) must be >= 1, got {rho_table_max}")
    if tau_level <= 0:
        raise ValueError(f"tau_level (--tau) must be > 0, got {tau_level}")
    seq = build_sieve_sequence(B, q)
    table = {
        str(d): _ratio(rho(d, q)) for d in range(1, rho_table_max + 1) if mobius(d) != 0
    }
    threshold = sieve_threshold(3, mu, BETA_3)
    return {
        "B": B,
        "q": q,
        "X": _ratio(seq.X),
        "X_float": float(seq.X),
        "points_total": seq.total(),
        "rho_table": table,
        "rho_at_q": _ratio(rho(q, q)),
        "w2": w2_sum(seq, tau_level, c2),
        "w1": {
            **w1_min_c1(q, z_max),
            "note": "p = 2 excluded: every sequence element is even",
        },
        "threshold": {
            "kappa": 3,
            "mu": mu,
            "beta": BETA_3,
            "value": threshold,
            "t": t,
            "t_exceeds": t > threshold,
        },
    }
