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
pattern are described by the multiplicative function rho (_rhos), and the
weighted sieve needs t above a threshold computed from the dimension-3
sieving limit beta_3.

One block loop, _cell_blocks, walks the family as int8 cells Omega(alpha2)
+ Omega(|alpha3|), padded where there is no point, and serves three readers:
the counts L_t of dp6-growth (_l_t_counts; m_t_growth sieves Omega once, for
its largest budget), point_blocks, the one point enumerator, which turns the
real cells into checked int64 column blocks (q, alphas, surface coordinates,
Omega) that dp6-enumerate streams out with no Python object per point, and
the sieve sequence of dp6-sieve (_sieve_sequence), which reads the real
cells of a zero table and so sieves no Omega; no table outlives its call.
_rhos is rho's Euler product; sieve_condition_report (dp6-sieve) checks
(B, q) once and factors every d in one factor_array, for its rho table, its
remainder sum W2 (_w2_sum) and its density-grid constant W1 (_w1_min_c1).

All window and height comparisons are exact integer inequalities
(8 q^3 > B instead of q > B^{1/3} and so on); no floating-point cube roots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import block_rows, factor_array, sieve_primes

BETA_3 = 6.640859  # sieving limit for the dimension-3 weighted sieve
_GRID_TOL = 1e-9  # _w1_min_c1 recomputes the cells this close to the grid maximum


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


def _padded(limit: int, head: np.ndarray | int) -> np.ndarray:
    # head (limit + 1 entries, or one value for all) and the pad tail of limit
    om = np.full(limit + 1 + math.isqrt(2 * limit) + 2, 2 * limit.bit_length() - 1,
                 dtype=np.int8)
    om[: limit + 1] = head
    return om


def _omega_upto(limit: int) -> np.ndarray:
    # om[n] = number of prime factors of n with multiplicity for n <= limit;
    # om[0] unused.  Only the primes p <= sqrt(limit) are sieved; what is
    # left of n after dividing out their powers is 1 or one prime above
    # sqrt(limit).  A tail of isqrt(2 limit) + 2 pads 2L - 1, L =
    # limit.bit_length(), follows: for limit = B^{2/3}/2 every window prime
    # q <= B^{1/3} has q <= isqrt(2 limit) + 1, so the table covers q K,
    # K = limit // q + 1, and _cell_blocks reads it as a (K, q) view.  The
    # table is read-only, as _cell_blocks hands out views; limit < 2^32 keeps rem in uint32.
    om = _padded(limit, 0)
    head = om[: limit + 1]
    rem = np.arange(limit + 1, dtype=np.uint32)
    for p in sieve_primes(math.isqrt(limit)):
        pk = p
        while pk <= limit:
            head[pk::pk] += 1
            rem[pk::pk] //= p
            pk *= p
    head += rem > 1
    om.flags.writeable = False
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


def _cell_blocks(B: int, qs: Sequence[int], om: np.ndarray,
                 entries: int = 1) -> Iterator[tuple]:
    """The family of each prime 2 <= q <= B^{1/3} in qs as blocks (q,
    alpha1, s, z, cells) of arith.block_rows(entries K) whole alpha1 rows,
    from om: _padded(a2max, head), e.g. the Omega table of B.

    Row alpha1 of the family of q has alpha2 = s + k q and alpha3 = k - z
    for 0 <= k < K = a2max // q + 1, s = alpha1^2 mod q, z = alpha1^2 // q,
    so cells[k, i] = om[alpha2] + om[|alpha3|] of row alpha1[i] sums two
    int8 slices: column s of om read as a (K, q) matrix, and the window
    G[Z - z : Z - z + K] of G[Z + j] = om[|j|], Z the largest z of any q in
    qs; G is formed once for all of qs.  The pad 2L - 1, L =
    a2max.bit_length(), fills the cells beyond a2max and G[Z] (alpha3 = 0),
    so the family points are the cells <= 2L - 2, the largest real sum.
    """
    if not qs:
        return
    a1max, a2max = _alpha_bounds(B)
    rows = np.arange(1, a1max + 1, dtype=np.int64)
    sq = rows * rows
    Z, Kmax = a1max * a1max // min(qs), a2max // min(qs) + 1
    G = np.empty(Z + Kmax, dtype=np.int8)
    G[:Z], G[Z], G[Z + 1 :] = om[Z:0:-1], 2 * a2max.bit_length() - 1, om[1:Kmax]
    wide = np.lib.stride_tricks.sliding_window_view(G, Kmax)
    for q in qs:
        K = a2max // q + 1
        mt = om[: q * K].reshape(K, q)  # a view: the pad tail of om covers q K
        a1, s, z = rows, sq % q, sq // q
        if a1max >= q:  # rows divisible by q are not in the family
            keep = s != 0
            a1, s, z = a1[keep], s[keep], z[keep]
        step = block_rows(entries * K)
        for i in range(0, a1.size, step):
            rs = slice(i, i + step)
            cells = mt[:, s[rs]]
            cells += wide[Z - z[rs], :K].T
            yield q, a1[rs], s[rs], z[rs], cells


def _real_cells(B: int, q: int, a1, s, z, cells) -> tuple[np.ndarray, ...]:
    # (alpha1, alpha2, alpha3, cell) of the real cells of a _cell_blocks block
    # in (alpha1, alpha2) order.  With f = i K + k the flat index of cell k of
    # row i in cells.T, alpha2 = (s - q i K) + q f and alpha3 = f - (z + i K).
    cells = cells.T.copy()
    f = np.flatnonzero(cells <= 2 * _alpha_bounds(B)[1].bit_length() - 2)
    head = np.arange(a1.size + 1, dtype=np.int64) * cells.shape[1]
    per_row = np.diff(np.searchsorted(f, head))  # f is sorted
    head = head[:-1]
    cell = cells.ravel()[f]
    a2 = q * f
    a2 += np.repeat(s - q * head, per_row)
    f -= np.repeat(z + head, per_row)
    return np.repeat(a1, per_row), a2, f, cell


# point_blocks refuses budgets at or above this, so that its checks are exact
# in int64 (see _check_block)
POINT_BUDGET_LIMIT = 2**31
# the columns of a point_blocks row, as its tables name them
POINT_FIELDS = ("q", "a1", "a2", "a3", "x0", "x1", "x2", "x3", "x4", "x5", "x6", "Omega")


def point_blocks(B: int, t: int) -> Iterator[np.ndarray]:
    """The lower-bound family points with at most t prime factors in
    alpha1 alpha2 |alpha3|, as int64 blocks of rows

        (q, alpha1, alpha2, alpha3, x0, ..., x6, Omega)

    in lexicographic order in (q, alpha1, alpha2), where x = pi(eta, alpha)
    at eta = (1, 1, 1, q), alpha = (alpha1, -alpha2, alpha3).  Every family
    row, Omega > t included, is checked before its block is yielded (see
    _check_block): q prime in its window, the alpha windows, coprimality to
    q, alpha3 nonzero, the torsor equation, both quadrics and height <= B.
    B, t and the int64 limit B < 2^31 are checked before any work."""
    if B < 1:
        raise ValueError("budget B must be positive")
    if t < 0:
        raise ValueError("factor bound t must be nonnegative")
    if B >= POINT_BUDGET_LIMIT:
        raise ValueError(f"budget B = {B} too large: surface points are checked in"
                         f" int64, which needs B < 2^31")
    return _point_blocks(B, t)


_WINDOW_PRIME = "family prime q = {} must be a prime in (B^{{1/3}}/2, B^{{1/3}}]"


def _point_blocks(B: int, t: int) -> Iterator[np.ndarray]:
    # One factor_array, apart from the sieve, checks every window prime.
    # Every real cell becomes a row and is checked; only then are the rows
    # with Omega > t dropped.  A row's 12 int64 columns and its temporaries
    # stay below 48 int64 values, so a block stays within 2^18 of them.
    qs = prime_window(B)
    start, p, _ = factor_array(qs)
    for q, lo, hi in zip(qs, start.tolist(), start[1:].tolist()):
        if p[lo:hi].tolist() != [q]:
            raise ValueError(_WINDOW_PRIME.format(q))
    om = _omega_upto(_alpha_bounds(B)[1])
    for q, *rows in _cell_blocks(B, qs, om, 48):
        a1, a2, a3, cell = _real_cells(B, q, *rows)
        block = np.empty((a1.size, 12), dtype=np.int64)
        block[:, 0] = q
        block[:, 1], block[:, 2], block[:, 3] = a1, a2, a3
        for j, x in enumerate(_monomials((1, 1, 1, q), (a1, -a2, a3))):
            block[:, 4 + j] = x
        _check_block(B, q, block)
        block[:, 11] = cell + om[a1]
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
    of its values wrapped to.  That q is prime, _point_blocks has checked."""
    if q**3 > B or 8 * q**3 <= B:
        raise ValueError(_WINDOW_PRIME.format(q))
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


# m_t_growth refuses budgets whose alpha2 bound reaches this, so that the int8
# sums of _l_t_counts cannot wrap (see _check_count_budget)
COUNT_ALPHA2_LIMIT = 2**32


def _check_count_budget(B: int) -> None:
    """Refuse a budget that _l_t_counts cannot count exactly in int8.

    Every 1 <= n <= a2max has Omega(n) <= L - 1 with L = a2max.bit_length(),
    so a real two-term sum is at most 2L - 2 and the pad 2L - 1 exceeds it.
    Two pads add to 4L - 2, which stays <= 127 while a2max < 2^32."""
    if B < 1:
        raise ValueError("budget B must be positive")
    if _alpha_bounds(B)[1] >= COUNT_ALPHA2_LIMIT:
        raise ValueError(f"budget B = {B} too large: almost-prime counts sum int8"
                         f" Omega entries, which needs B^{{2/3}}/2 < 2^32")


def _l_t_counts(B: int, qs: Sequence[int], t: int, om: np.ndarray) -> list[int]:
    """L_t of each prime 2 <= q <= B^{1/3} in qs (a repeated prime is walked
    once), from om, the Omega table of B (_omega_upto(a2max) or a byte-equal
    copy): each row compares its cells of _cell_blocks with t - Omega(alpha1)
    clamped to the largest real sum 2L - 2, so pad cells never count."""
    L = _alpha_bounds(B)[1].bit_length()
    counts = dict.fromkeys(qs, 0)
    for q, a1, _, _, cells in _cell_blocks(B, list(counts), om):
        # every real cell passes at t >= 3L, so the int8 subtraction is exact
        room = np.minimum(min(t, 3 * L) - om[a1], 2 * L - 2)
        counts[q] += int(np.count_nonzero(cells <= room))
    return [counts[q] for q in qs]


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
    # one sieve: a smaller budget counts from the head of the largest table
    top = max((_alpha_bounds(B)[1] for B in B_values), default=0)
    base = _omega_upto(top)
    rows = []
    for B in B_values:
        a2max = _alpha_bounds(B)[1]
        om = base if a2max == top else _padded(a2max, base[: a2max + 1])
        total = sum(_l_t_counts(B, prime_window(B), t, om))
        rows.append(GrowthRow(B, t, total, total * math.log(B) ** 5 / B))
    return rows


# ---- sieve sequence and local densities ----

def _window_ratio(B: int, q: int) -> Fraction:
    # (q - 1) B / (4 q^2) for q in the window and a budget B that keeps
    # alpha1 alpha2 |alpha3| below 2^63, else refused
    if q**3 > B or 8 * q**3 <= B:
        raise ValueError("q must lie in (B^{1/3}/2, B^{1/3}]")
    a1max, a2max = _alpha_bounds(B)
    if a1max * a2max * (a2max // q + 1) >= 2**63:
        raise ValueError(f"budget B = {B} too large: alpha1 alpha2 |alpha3| may overflow int64")
    return Fraction((q - 1) * B, 4 * q * q)


def _sieve_sequence(B: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # (n, a) for a (B, q) that sieve_condition_report passed: int64 arrays
    # of the distinct n = alpha1 alpha2 |alpha3| of the family points of q,
    # ascending, and their multiplicities a_n, formed in int64, which that
    # check ensures
    a2max = _alpha_bounds(B)[1]
    # the real cells of a zero head are the family points, with no Omega sieve;
    # a cell takes under 8 int64 values on its way to its product
    blocks = _cell_blocks(B, [q], _padded(a2max, 0), 8)
    products = [a1 * a2 * np.abs(a3) for a1, a2, a3, _ in
                (_real_cells(B, *block) for block in blocks)]
    return np.unique(np.concatenate([np.zeros(0, np.int64), *products]), return_counts=True)


def _rho_factor(p: int, q: int) -> Fraction:
    # rho(p) for prime p and q: the Euler factor of rho at p
    return 1 + Fraction(1, q) if p == q else 3 - Fraction(2, p)


def _rhos(ds: Sequence[int], q: int) -> dict[int, tuple[int, Fraction]]:
    # d -> (omega(d), rho(d)) for every squarefree d of ds (each 1 <= d <
    # 2^31), in the order of ds, and a prime q: rho(d) the product of
    # _rho_factor over the primes of d, from one factor_array of all the d.
    # The density rho, multiplicative in d, is defined over the triples
    # (e1, e2, e3) with lcm d and gcd(e1 e2, q) = 1 as
    #   rho(d) = mu(d) d sum mu(e1) mu(e2) mu(e3) (e1,e2,e3)/(e1 e2 e3)
    #            * sum_{l | f3} (1/l) phi*(f3/l) / phi*((f3/l, q)),
    # f3 = e3 / ((e1,e2,e3) (e1',e3') (e2',e3')) the part of e3 apart from e1, e2
    start, primes, e = factor_array(ds)
    bounds, ps, squarefree = start.tolist(), primes.tolist(), (e == 1).tolist()
    return {d: (hi - lo, math.prod((_rho_factor(p, q) for p in ps[lo:hi]), start=Fraction(1)))
            for d, lo, hi in zip(ds, bounds, bounds[1:]) if all(squarefree[lo:hi])}


def sieve_threshold(kappa: int, mu: float, beta: float) -> float:
    """mu - 1 + (mu - kappa)(1 - 1/beta) + (kappa + 1) log beta."""
    if kappa < 1 or beta <= 1 or mu <= 0:
        raise ValueError("need kappa >= 1, beta > 1, mu > 0")
    return mu - 1 + (mu - kappa) * (1 - 1 / beta) + (kappa + 1) * math.log(beta)


def _d_max(X: float, tau_level: float, c2: float) -> float:
    """d_max = X^tau / log^c2 X, refused unless X > 1 and d_max >= 1 (d_max < 1 needs log X > 1,
    where c2 lowers d_max); e^(log d_max), or inf, where X^tau or log^c2 X leaves float range."""
    if X <= 1:
        raise ValueError("normalization X must exceed 1")
    log_x = math.log(X)
    try:
        d_max = X**tau_level / log_x**c2
    except (OverflowError, ZeroDivisionError):
        scale = max(abs(tau_level), abs(c2))  # so log d_max overflows to +-inf, never nan
        log_d = scale * (tau_level / scale * log_x - c2 / scale * math.log(log_x))
        d_max = math.exp(log_d) if log_d < 709 else math.inf
    if d_max < 1:
        raise ValueError(f"d_max = X^tau / log^c2 X = {d_max!r} is below 1, so the"
                         f" remainder sum is empty: raise tau (--tau) or lower c2 (--c2)")
    if d_max == math.inf:  # a sum over every d
        raise ValueError("d_max = X^tau / log^c2 X is infinite: change tau (--tau) or c2 (--c2)")
    return d_max


def _w2_sum(n: np.ndarray, a: np.ndarray, X: Fraction, tau_level: float, c2: float,
            d_max: float, rhos: dict[int, tuple[int, Fraction]]) -> dict[str, float]:
    # Remainder mass sum_{d <= d_max} mu^2(d) 4^omega(d) |R_d|, R_d = sum of
    # a_n over d | n minus rho(d)/d X, with the comparison scale X / log^4 X,
    # given the sieve sequence (n, a), d_max = X^tau / log^c2 X and the
    # _rhos of the squarefree d <= d_max, ascending
    total = 0.0
    for d, (omega, rho_d) in rhos.items():
        if d <= d_max:
            exact = int(a[n % d == 0].sum())
            total += 4**omega * abs(exact - float(rho_d / d * X))
    scale = float(X) / math.log(float(X)) ** 4
    return {
        "tau": tau_level,
        "c2": c2,
        "d_max": d_max,
        "sum": total,
        "comparison_scale": scale,
        "implied_c3": total / scale,
    }


def _w1_min_c1(q: int, z_max: int) -> dict[str, float]:
    """Smallest admissible c1 on a prime grid for the dimension-3 density
    condition prod_{w <= p < z} (1 - rho(p)/p)^{-1} <= (log z/log w)^3
    (1 + c1/log w), for a prime q.  p = 2 is excluded: rho(2) = 2, matching
    the fact that every sequence element is even, so the product diverges
    at 2.

    min_c1 = max(0, max over primes w < z of c(w, z)), c(w, z) = (exp(-(S_z
    - S_w)) / (log z/log w)^3 - 1) log w, S the prefix sums of log(1 -
    rho(p)/p) in prime order.  numpy evaluates c on blocks of whole grid
    rows, and the cells within _GRID_TOL of the grid maximum are evaluated
    again by math, so min_c1 has the bits of the scalar double loop.  Why
    1e-9 is enough: numpy's and libm's exp and pow each differ from the
    exact value by a few ulp at most, and |c| stays near 1 (at most 0.76
    for q <= 101 and z_max <= 3000; c tends to a finite limit as z grows),
    so the two values of one cell differ by delta < 1e-14 (2.8e-15 seen).
    The cell largest by math is then within 2 delta of the numpy maximum,
    far inside the tolerance."""
    ps = [p for p in sieve_primes(z_max) if p > 2]
    if len(ps) < 2:
        raise ValueError("z_max too small for a grid")
    logs = [math.log(float(1 - _rho_factor(p, q) / p)) for p in ps]
    prefix = [0.0]
    for v in logs:
        prefix.append(prefix[-1] + v)
    log_p = [math.log(p) for p in ps]
    S, L = np.array(prefix), np.array(log_p)
    n = len(ps)
    rows = block_rows(n)
    near: list[tuple[float, int, int]] = []  # (c, w index, z index) near a block maximum
    for a in range(0, n - 1, rows):
        i, j = np.triu_indices(min(rows, n - 1 - a), 1, n - a)
        i += a
        j += a
        c = (np.exp(-(S[j] - S[i])) / (L[j] / L[i]) ** 3 - 1) * L[i]
        k = np.flatnonzero(c >= c.max() - _GRID_TOL)
        near += zip(c[k].tolist(), i[k].tolist(), j[k].tolist())
    top = max(near)[0]
    worst = 0.0
    for value, i, j in near:
        if value >= top - _GRID_TOL:
            log_w = log_p[i]
            lhs = math.exp(-(prefix[j] - prefix[i]))  # product over w <= p < z
            worst = max(worst, (lhs / (log_p[j] / log_w) ** 3 - 1) * log_w)
    return {"z_max": z_max, "min_c1": worst}


def _ratio(x: Fraction) -> str:
    # always "num/den", also for integers (reports.fmt would print "1")
    return f"{x.numerator}/{x.denominator}"


def sieve_condition_report(
    B: int, q: int, tau_level: float, c2: float, z_max: int, rho_table_max: int, t: int,
    mu: float
) -> dict:
    """Everything the weighted sieve needs, JSON-ready: the rho table, the
    remainder sum, the density-grid constant, and the almost-prime threshold.
    Refused before any work: a rho table bound below 1 (an empty table), a
    level tau <= 0, c2 < 0 (which would raise the level X^tau / log^c2 X
    above X^tau), mu <= 0, a grid bound z_max < 5 (fewer than two odd
    primes), t < 0, d_max < 1, a q outside (B^{1/3}/2, B^{1/3}] or not
    prime, and a budget B where alpha1 alpha2 |alpha3| could reach 2^63."""
    if rho_table_max < 1:
        raise ValueError(f"rho_table_max (--rho-max) must be >= 1, got {rho_table_max}")
    if tau_level <= 0:
        raise ValueError(f"tau_level (--tau) must be > 0, got {tau_level}")
    if c2 < 0:
        raise ValueError(f"c2 (--c2) must be >= 0, got {c2}")
    if mu <= 0:
        raise ValueError(f"mu (--mu) must be > 0, got {mu}")
    if z_max < 5:
        raise ValueError(f"z_max (--z-max) must be >= 5, got {z_max}")
    if t < 0:
        raise ValueError(f"t (--t) must be >= 0, got {t}")
    # X = phi(q) B / (4 q^2) for the prime q.  The window and the budget are
    # checked first, so the q tested against prime_window(B) is below 2^17,
    # and the level is refused before prime_window sieves to test q
    X = _window_ratio(B, q)
    d_max = _d_max(float(X), tau_level, c2)
    if q not in prime_window(B):  # the one check that q is prime; the bodies below trust it
        raise ValueError("q must be prime")
    n, a = _sieve_sequence(B, q)
    rhos = _rhos(range(1, max(rho_table_max, int(d_max)) + 1), q)
    table = {str(d): _ratio(rho_d) for d, (_, rho_d) in rhos.items() if d <= rho_table_max}
    threshold = sieve_threshold(3, mu, BETA_3)
    return {
        "B": B,
        "q": q,
        "X": _ratio(X),
        "X_float": float(X),
        "points_total": int(a.sum()),
        "rho_table": table,
        "rho_at_q": _ratio(_rho_factor(q, q)),
        "w2": _w2_sum(n, a, X, tau_level, c2, d_max, rhos),
        "w1": {
            **_w1_min_c1(q, z_max),
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
