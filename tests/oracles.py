"""Test-only reference code: table text built and parsed with the csv and
json modules, independently of the writer in congruence_lab.reports; Gauss
sum reciprocity, whole-grid evaluation, the assembled closed form and the
sum at 40 digits; the
Fourier partial sum of the sawtooth, the pointwise Fejer majorant, a
pointwise Vaaler majorant check, and the Vaaler sine weights from complex
coefficients and at 40 digits; the literal double-loop box count and
the full walk of every unit y that the box count halves; the
scalar double loop of the dp6 density-grid constant; the dp6 remainder
sums by a scan of the sieve sequence held as a dict; the averaged sums S
and M by the seed loop that tests every cell once per seed; the dp6 torsor,
surface and family points as checked dataclasses, the monomial map
between them, the family by direct loops and as the repeat-based int64
blocks that dp6 walked before its cell blocks, and the brute local density of
the family at a prime; a factorization tuple and its product, and the
divisor functions and arithmetic helpers by trial loops that never call
arith.factor_array (the prime factors, divisors, tau, phi, sigma_{-1/2},
mu, phi(n)/n, Omega and omega)."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from congruence_lab import dp6
from congruence_lab.averaged import AveragedFamily, cell_sums, error_budget
from congruence_lab.dp6 import icbrt, prime_window
from congruence_lab.gausssum import GaussSumValue, _branch, _e, gauss_brute
from congruence_lab.reports import fmt
from congruence_lab.sawtooth import _TWO_PI, _taper, fejer_majorant_many, psi, vaaler_polynomial


def point_row(rec: PointRecord) -> dict[str, str]:
    sp = rec.special
    row = {
        "q": fmt(sp.q),
        "a1": fmt(sp.alpha1),
        "a2": fmt(sp.alpha2),
        "a3": fmt(sp.alpha3),
    }
    for i, c in enumerate(rec.surface.x):
        row[f"x{i}"] = fmt(c)
    row["Omega"] = fmt(rec.omega)
    return row


def csv_text(
    description: str, fields: Iterable[str], rows: Iterable[Mapping[str, str]]
) -> str:
    fields = list(fields)
    buf = io.StringIO()
    buf.write(f"# {description}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([row[f] for f in fields] for row in rows)
    return buf.getvalue()


def json_text(
    description: str, fields: Iterable[str], rows: Iterable[Mapping[str, str]]
) -> str:
    fields = list(fields)
    doc = {"description": description, "fields": fields,
           "rows": [{f: row[f] for f in fields} for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def parse_csv_text(text: str) -> tuple[str, list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing description line")
    description = lines[0][2:]
    reader = csv.reader(lines[1:])
    fields = next(reader)
    rows = [dict(zip(fields, rec)) for rec in reader]
    return description, fields, rows


def parse_json_text(text: str) -> tuple[str, list[str], list[dict[str, str]]]:
    doc = json.loads(text)
    return doc["description"], list(doc["fields"]), [dict(r) for r in doc["rows"]]


def reciprocity_check(s: int, u: int) -> tuple[complex, complex, float]:
    """Both sides of G(s,0;u) G(u,0;s) = G(1,0;su) for odd positive s coprime
    to u, and the absolute defect between them (brute evaluation throughout)."""
    if s < 1 or s % 2 == 0:
        raise ValueError("reciprocity requires odd positive s")
    if u < 1:
        raise ValueError("modulus u must be positive")
    if math.gcd(s, u) != 1:
        raise ValueError("reciprocity requires gcd(s, u) = 1")
    lhs = gauss_brute(s, 0, u) * gauss_brute(u, 0, s)
    rhs = gauss_brute(1, 0, s * u)
    return lhs, rhs, abs(lhs - rhs)


def kahan_brute(s: int, t: int, u: int) -> complex:
    """G(s, t; u) by the per-n loop gauss_brute replaced: Python-int
    exponents, the same angle and Kahan order, so the two agree bit for
    bit."""
    re = im = 0.0
    cre = cim = 0.0
    for n in range(1, u + 1):
        k = (s * n * n + t * n) % u
        ang = 2.0 * math.pi * k / u
        x = math.cos(ang) - cre
        v = re + x
        cre = (v - re) - x
        re = v
        y = math.sin(ang) - cim
        w = im + y
        cim = (w - im) - y
        im = w
    return complex(re, im)


def gauss_sum_mp(s: int, t: int, u: int):
    """G(s, t; u) as an mpc at 40 significant digits: the exponents
    k = (s n^2 + t n) mod u as Python ints, and e(k / u) taken once for each
    residue k that some n in 1..u hits, times the number of such n."""
    import mpmath  # sympy's dependency, so installed with the test extra

    hits = Counter((s * n * n + t * n) % u for n in range(1, u + 1))
    with mpmath.workdps(40):
        return mpmath.fsum(m * mpmath.expjpi(mpmath.mpf(2 * k) / u) for k, m in hits.items())


# ---- whole-grid evaluation (all coprime s, all shifts t, fixed u) ----

def coprime_residues(u: int) -> list[int]:
    return [s for s in range(1, u + 1) if math.gcd(s, u) == 1] if u > 1 else [1]


def brute_grid(u: int) -> tuple[list[int], np.ndarray]:
    """G(s, t; u) for every coprime s and every t in [0, u).

    Row s of the result is the inverse DFT of the sequence e(s n^2 / u):
    sum_n e(s n^2/u) e(t n/u) over n = 0..u-1 equals the sum over n = 1..u
    term by term, so this is the same quantity gauss_brute computes.
    """
    ss = coprime_residues(u)
    n = np.arange(u, dtype=np.int64)
    n2 = (n * n) % u
    roots = np.exp(2j * np.pi * np.arange(u) / u)
    rows = np.empty((len(ss), u), dtype=np.complex128)
    for i, s in enumerate(ss):
        rows[i] = roots[(s * n2) % u]
    return ss, np.fft.ifft(rows, axis=1) * u


def assemble(g: GaussSumValue) -> complex:
    """coefficient * unit * jacobi * sqrt(radicand) * e(phase), the product
    the value of g must equal."""
    return g.coefficient * g.unit * g.jacobi * math.sqrt(g.radicand) * _e(g.phase)


def closed_grid(u: int) -> tuple[list[int], np.ndarray]:
    """Closed-form values on the same (s, t) grid as brute_grid."""
    ss = coprime_residues(u)
    out = np.ones((len(ss), u), dtype=np.complex128)
    if u == 1:
        return ss, out
    *_, parity, _, m = _branch(1, u)  # parity and m depend on u alone
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    tt = np.arange(u, dtype=np.int64)
    t2 = (tt * tt) % m
    alive = np.ones(u, dtype=bool) if parity is None else tt % 2 == parity
    for i, s in enumerate(ss):
        coeff, unit, j, rad, _, c, _ = _branch(s, u)
        out[i] = np.where(alive, coeff * unit * j * math.sqrt(rad) * roots[(c * t2) % m], 0)
    return ss, out


# ---- sawtooth ----

def psi_fourier(x: float, H: int) -> float:
    """Partial Fourier sum -sum_{h<=H} sin(2 pi h x)/(pi h)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    return -sum(math.sin(2.0 * math.pi * h * x) / (math.pi * h) for h in range(1, H + 1))


def fejer_majorant(x: float, H: int) -> float:
    """The Fejer majorant at one x."""
    return float(fejer_majorant_many(np.array([x]), H)[0])


def vaaler_check(x: float, H: int, slack: float = 0.0) -> bool:
    """Does |psi(x) - V_H(x)| <= majorant(x) + slack hold at x?"""
    poly = vaaler_polynomial(H)
    v = float(poly.evaluate_many(np.array([x]))[0])
    return bool(abs(psi(x) - v) <= fejer_majorant(x, H) + slack)


def complex_sine_weights(H: int) -> np.ndarray:
    """w_h = 2 Im a_h from the complex coefficients a_h = i J(h/(H+1)) / (2 pi h),
    formed as complex numbers, one at a time."""
    return np.array([2.0 * (1j * _taper(h / (H + 1)) / (_TWO_PI * h)).imag
                     for h in range(1, H + 1)])


def sine_weights_mp(H: int) -> list:
    """w_h = J(h/(H+1)) / (pi h), J(x) = pi x (1 - x) cot(pi x) + x, as mpf
    values at 40 significant digits, for h = 1..H."""
    import mpmath  # sympy's dependency, so installed with the test extra

    with mpmath.workdps(40):
        pi = mpmath.pi
        weights = []
        for h in range(1, H + 1):
            x = mpmath.mpf(h) / (H + 1)
            weights.append((pi * x * (1 - x) * mpmath.cot(pi * x) + x) / (pi * h))
        return weights


# ---- counts and densities by brute force ----

def count_exact_naive(a: int, b: int, q: int, X, Y) -> int:
    """Literal double loop over the box (0, X] x (0, Y]; cross-check only."""
    if X * Y > 2 * 10**7:
        raise ValueError("naive counter refused: box too large")
    total = 0
    for x in range(1, int(X // 1) + 1):
        ax = a * x
        for y in range(1, int(Y // 1) + 1):
            if (ax + b * y * y) % q == 0 and math.gcd(x * y, q) == 1:
                total += 1
    return total


def count_exact_full_walk(a: int, b: int, q: int, X, Y) -> int:
    """The box count by the walk it used before the mirror identity: every
    unit y in [1, q], each hit when its own class c_y = -a^{-1} b y^2 mod q,
    taken here by int64 %, is <= rx; the units and hits up to ry counted
    apart.  Twice the units of the half walk, with no mirror.  The units are
    the y with gcd(y, q) = 1, found as the y that no divisor d > 1 of q
    divides, the divisors by the trial loop of divisors: at q = 9,699,690
    their strided writes took 0.06 s where np.gcd over [1, q] took 1.2 s."""
    Qx, rx = divmod(int(X // 1), q)
    Qy, ry = divmod(int(Y // 1), q)
    k = -pow(a, -1, q) * b % q
    unit = np.ones(q + 1, dtype=bool)
    unit[0] = False
    for d in divisors(q)[1:]:
        unit[::d] = False
    y = np.flatnonzero(unit)
    hit = k * (y * y % q) % q <= rx if rx else np.zeros(len(y), dtype=bool)
    low = y <= ry
    t_rr, t_rq, t_qr = (int(np.count_nonzero(m)) for m in (hit & low, hit, low))
    return Qx * Qy * len(y) + Qx * t_qr + Qy * t_rq + t_rr


def rho_oracle_prime(p: int, q: int) -> tuple[Fraction, Fraction]:
    """(brute density, rho(p)/p) for a prime p not dividing 2q, rho(p) the
    Euler factor dp6._rho_factor: the brute side counts pairs (a1, a2) mod p
    with a1 a2 (a2 - a1^2) = 0 (mod p)."""
    if p < 2 or prime_factors(p) != {p: 1}:
        raise ValueError("p must be prime")
    if p == 2 or p == q:
        raise ValueError("oracle requires p coprime to 2q")
    a1 = np.arange(p, dtype=np.int64)
    A1 = a1[:, None]
    A2 = a1[None, :]
    mask = (A1 == 0) | (A2 == 0) | ((A2 - A1 * A1) % p == 0)
    return Fraction(int(mask.sum()), p * p), dp6._rho_factor(p, q) / p


def w1_min_c1_loop(q: int, z_max: int) -> float:
    """dp6._w1_min_c1's min_c1 by the scalar double loop over every prime
    pair w < z of the grid, in math's order of operations; the odd primes
    p <= z_max by trial division."""
    ps = [p for p in range(3, z_max + 1, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    logs = [math.log(float(1 - dp6._rho_factor(p, q) / p)) for p in ps]
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
    return worst


def w1_min_c1_mp(q: int, z_max: int):
    """dp6._w1_min_c1's min_c1 as an mpf at 40 significant digits: the same
    grid maximum of c(w, z), every log, exp and prefix sum taken in mpmath
    from the exact Euler factors 1 - rho(p)/p; the odd primes p <= z_max by
    trial division."""
    import mpmath  # sympy's dependency, so installed with the test extra

    ps = [p for p in range(3, z_max + 1, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    with mpmath.workdps(40):
        prefix = [mpmath.mpf(0)]
        for p in ps:
            x = 1 - dp6._rho_factor(p, q) / p
            prefix.append(prefix[-1] + mpmath.log(mpmath.mpf(x.numerator) / x.denominator))
        log_p = [mpmath.log(p) for p in ps]
        return max(mpmath.mpf(0), *((mpmath.exp(-(prefix[j] - prefix[i])) / (log_p[j] / log_p[i]) ** 3
                                     - 1) * log_p[i]
                                    for i in range(len(ps)) for j in range(i + 1, len(ps))))


def sum_over_d_scan(a: Mapping[int, int], q: int, X: Fraction, d: int
                    ) -> tuple[int, float, float]:
    """The term of one d in dp6-sieve's remainder sum, over the sequence
    given as a dict n -> a_n: (exact sum of a_n over d | n, predicted
    rho(d)/d X, remainder), for a squarefree d and rho(d) from dp6._rhos."""
    exact = sum(c for n, c in a.items() if n % d == 0)
    predicted = float(dp6._rhos([d], q)[d][1] / d * X)
    return exact, predicted, exact - predicted


def w2_sum_scan(a: Mapping[int, int], q: int, X: Fraction, tau_level: float, c2: float
                ) -> dict[str, float]:
    """dp6-sieve's remainder sum W2 over the sequence given as a dict n ->
    a_n, one sum_over_d_scan per d <= d_max with mobius(d) != 0, in
    ascending d; mu and omega by the trial loop."""
    Xf = float(X)
    d_max = Xf**tau_level / math.log(Xf) ** c2
    total = 0.0
    d = 1
    while d <= d_max:
        if mobius(d) != 0:
            _, _, rem = sum_over_d_scan(a, q, X, d)
            total += 4 ** little_omega(d) * abs(rem)
        d += 1
    scale = Xf / math.log(Xf) ** 4
    return {"tau": tau_level, "c2": c2, "d_max": d_max, "sum": total,
            "comparison_scale": scale, "implied_c3": total / scale}


# ---- averaged sums ----

def avg_sums_loop(family: AveragedFamily, H: float, epsilon: float, seeds: Iterable[int]
                  ) -> list[tuple[complex, complex, float]]:
    """(S, M, ratio) of each seed by the seed loop of avg_report before it
    took its live cells once: every cell tested and every main term
    converted to float once per seed, each coefficient kept on first use."""
    budget = error_budget(family, H, epsilon)
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
        out.append((S, M, abs(S - M) / denom))
    return out


# ---- dp6 torsor and surface points ----

@dataclass(frozen=True)
class TorsorPoint:
    eta: tuple[int, int, int, int]
    alpha: tuple[int, int, int]

    def __post_init__(self):
        e1, e2, e3, e4 = self.eta
        a1, a2, a3 = self.alpha
        if min(self.eta) < 1:
            raise ValueError("eta entries must be positive")
        if 0 in self.alpha:
            raise ValueError("alpha entries must be nonzero")
        if math.gcd(e2, e3) != 1 or math.gcd(e2, e4) != 1 or math.gcd(e3, e4) != 1:
            raise ValueError("eta2, eta3, eta4 must be pairwise coprime")
        if e2 * a1 * a1 + e3 * a2 + e4 * a3 != 0:
            raise ValueError("torsor equation eta2 a1^2 + eta3 a2 + eta4 a3 = 0 fails")
        if math.gcd(a1, e1 * e3 * e4) != 1:
            raise ValueError("gcd(alpha1, eta1 eta3 eta4) must be 1")
        if math.gcd(a2, e1 * e2 * e4) != 1:
            raise ValueError("gcd(alpha2, eta1 eta2 eta4) must be 1")
        if math.gcd(a3, e1 * e2 * e3) != 1:
            raise ValueError("gcd(alpha3, eta1 eta2 eta3) must be 1")


@dataclass(frozen=True)
class SurfacePoint:
    x: tuple[int, int, int, int, int, int, int]

    def __post_init__(self):
        x0, x1, x2, x3, x4, x5, x6 = self.x
        if all(c == 0 for c in self.x):
            raise ValueError("zero vector is not a projective point")
        if x3 * x4 != x0 * x5:
            raise ValueError("quadric x3 x4 = x0 x5 fails")
        if x6 * x6 + x3 * x5 + x4 * x5 != 0:
            raise ValueError("quadric x6^2 + x3 x5 + x4 x5 = 0 fails")

    def height(self) -> int:
        return max(abs(c) for c in self.x)


def pi_map(p: TorsorPoint) -> SurfacePoint:
    """Monomial parametrization of the surface by the torsor, written out
    apart from dp6._monomials."""
    e1, e2, e3, e4 = p.eta
    a1, a2, a3 = p.alpha
    return SurfacePoint((
        a2 * a3,
        e1 * e2 * e3 * a1 * a2,
        e1 * e2 * e4 * a1 * a3,
        e1**2 * e2 * e3**2 * e4 * a2,
        e1**2 * e2 * e3 * e4**2 * a3,
        e1**4 * e2**2 * e3**3 * e4**3,
        e1**3 * e2**2 * e3**2 * e4**2 * a1,
    ))


@dataclass(frozen=True)
class SpecialPoint:
    """A lower-bound family point: eta = (1, 1, 1, q), alpha2 = alpha1^2 (mod q).

    alpha3 is derived: (alpha2 - alpha1^2)/q, required nonzero.  Heights are
    window conditions on the budget B, checked exactly.
    """

    q: int
    alpha1: int
    alpha2: int
    budget: int
    alpha3: int = 0  # derived in __post_init__

    def __post_init__(self):
        B = self.budget
        if B < 1:
            raise ValueError("budget B must be positive")
        if self.q < 2 or prime_factors(self.q) != {self.q: 1}:
            raise ValueError("q must be prime")
        if self.q**3 > B or 8 * self.q**3 <= B:
            raise ValueError("q must lie in (B^{1/3}/2, B^{1/3}]")
        if self.alpha1 < 1 or 8 * self.alpha1**3 > B:
            raise ValueError("alpha1 must lie in (0, B^{1/3}/2]")
        if self.alpha1 % self.q == 0:
            raise ValueError("alpha1 must be coprime to q")
        if self.alpha2 < 1 or 8 * self.alpha2**3 > B * B:
            raise ValueError("alpha2 must lie in (0, B^{2/3}/2]")
        if (self.alpha2 - self.alpha1**2) % self.q != 0:
            raise ValueError("alpha2 must be alpha1^2 (mod q)")
        a3 = (self.alpha2 - self.alpha1**2) // self.q
        if a3 == 0:
            raise ValueError("alpha2 = alpha1^2 gives alpha3 = 0")
        object.__setattr__(self, "alpha3", a3)


def special_to_torsor(sp: SpecialPoint) -> TorsorPoint:
    """Lift with eta = (1, 1, 1, q) and alpha = (alpha1, -alpha2, alpha3)."""
    return TorsorPoint((1, 1, 1, sp.q), (sp.alpha1, -sp.alpha2, sp.alpha3))


@dataclass(frozen=True)
class PointRecord:
    special: SpecialPoint
    torsor: TorsorPoint
    surface: SurfacePoint
    omega: int


def points_oracle(B: int, t: int) -> Iterator[PointRecord]:
    """The almost-prime family points of dp6.point_blocks(B, t), in its
    order, by direct loops lifted through the dataclasses; Omega from
    big_omega."""
    a1max, a2max = icbrt(B // 8), icbrt(B * B // 8)
    for q in prime_window(B):
        for a1 in range(1, a1max + 1):
            if a1 % q == 0:
                continue
            for a2 in range(a1 * a1 % q, a2max + 1, q):
                if a2 == a1 * a1:
                    continue
                sp = SpecialPoint(q, a1, a2, B)
                omega = sum(big_omega(abs(a)) for a in (a1, a2, sp.alpha3))
                if omega <= t:
                    torsor = special_to_torsor(sp)
                    yield PointRecord(sp, torsor, pi_map(torsor), omega)


# the repeat-based enumerator that dp6 used before its cell blocks, kept as a
# second, independent walk of the family
_BLOCK_PAIRS = 1 << 14  # (alpha1, alpha2) pairs per family_blocks block, whole rows


def family_blocks(B: int, q: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The family points of one prime q <= B^{1/3} as int64 blocks
    (alpha1, alpha2, alpha3) in (alpha1, alpha2) order.

    A block holds whole alpha1 rows, about _BLOCK_PAIRS pairs.  Row alpha1
    has alpha2 = s + k q for 0 <= k < n, s = alpha1^2 mod q, so alpha3 =
    (s - alpha1^2)/q + k = k - z with z = alpha1^2 // q.  Skipping alpha3 = 0
    splits the row into two runs, alpha3 < 0 and alpha3 > 0.
    """
    a1max, a2max = dp6._alpha_bounds(B)  # read at call time, so a test may patch it
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


def family_omega(B: int, a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    # Omega(alpha1 alpha2 |alpha3|), prime factors with multiplicity, for a
    # block of family_blocks(B, q); summed in the table's int8, each term < 42
    om = dp6._omega_upto(max(dp6._alpha_bounds(B)[1], 1))
    return om[a1] + om[a2] + om[np.abs(a3)]


# ---- arithmetic helpers ----

class Factorization(NamedTuple):
    """A positive integer together with its sorted prime factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]


def reconstruct(f: Factorization) -> int:
    """The product of the prime powers of f."""
    out = 1
    for p, e in f.factors:
        out *= p**e
    return out


def prime_factors(n: int) -> dict[int, int]:
    """{p: e} for n >= 1 by dividing out each trial divisor d = 2, 3, 5, 7,
    ... while d^2 <= the cofactor: a composite d divides nothing, its primes
    being gone, and the cofactor left above 1 is a prime."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, by a trial loop over d <= sqrt(n)
    that takes both d and n // d."""
    small, large = [], []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def tau(n: int) -> int:
    """The number of divisors, as the length of divisors(n)."""
    return len(divisors(n))


_GCD_COUNT_LIMIT = 10**4  # phi counts gcds up to here, and asks sympy above


def phi(n: int) -> int:
    """Euler's totient: the k in [1, n] with gcd(k, n) = 1, counted for n <=
    10^4, and sympy.totient, which factors n by its own means, above."""
    if n <= _GCD_COUNT_LIMIT:
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    import sympy  # installed with the test extra

    return int(sympy.totient(n))


def sigma_half_inv(n: int) -> float:
    """The sum of 1/sqrt(d) over the divisors of n, added left to right in
    ascending d: the order, and so the bits, the sigma column of
    arith.divisor_functions must reproduce."""
    out = 0.0
    for d in divisors(n):
        out += 1.0 / math.sqrt(d)
    return out


def sigma_half_inv_mp(n: int):
    """sigma_{-1/2}(n) as an mpf at 40 significant digits, over divisors(n)."""
    import mpmath  # sympy's dependency, so installed with the test extra

    with mpmath.workdps(40):
        return mpmath.fsum(1 / mpmath.sqrt(d) for d in divisors(n))


def mobius(n: int) -> int:
    """The Moebius function, from prime_factors."""
    factors = prime_factors(n)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


def phi_star(n: int) -> Fraction:
    """phi(n)/n as an exact fraction; multiplicative with value 1 - 1/p at prime powers."""
    out = Fraction(1)
    for p in prime_factors(n):
        out *= Fraction(p - 1, p)
    return out


def big_omega(n: int) -> int:
    """Number of prime factors with multiplicity."""
    return sum(prime_factors(n).values())


def little_omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(prime_factors(n))
