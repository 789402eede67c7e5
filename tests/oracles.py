"""Test-only reference code: table text built and parsed with the csv and
json modules, independently of the writer in congruence_lab.reports; Gauss
sum reciprocity, whole-grid evaluation and the assembled closed form; the
Fourier partial sum of the sawtooth, the pointwise Fejer majorant and a
pointwise Vaaler majorant check; the literal double-loop box count; the dp6
torsor, surface and family points as checked dataclasses, the monomial map
between them, the family by direct loops, and the brute local density of
the family at a prime; small arithmetic helpers (product of a
factorization, radical, phi(n)/n, Omega and omega, dispatch by name)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from congruence_lab.arith import (
    Factorization,
    factorize,
    is_prime,
    log1n,
    mobius,
    phi,
    sigma_half_inv,
    tau,
)
from congruence_lab.congruence import CongruenceInstance
from congruence_lab.dp6 import icbrt, prime_window, rho
from congruence_lab.gausssum import GaussSumValue, _branch, _e, gauss_brute
from congruence_lab.reports import fmt
from congruence_lab.sawtooth import fejer_majorant_many, psi, vaaler_polynomial


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
    return bool(abs(psi(x) - poly.evaluate(x)) <= fejer_majorant(x, H) + slack)


# ---- counts and densities by brute force ----

def count_exact_naive(inst: CongruenceInstance) -> int:
    """Literal double loop over the box; cross-check only."""
    if inst.X * inst.Y > 2 * 10**7:
        raise ValueError("naive counter refused: box too large")
    a, b, q = inst.a, inst.b, inst.q
    total = 0
    for x in range(1, int(inst.X // 1) + 1):
        axe = a * x**inst.e
        for y in range(1, int(inst.Y // 1) + 1):
            if (axe + b * y**inst.f) % q == 0 and math.gcd(x * y, q) == 1:
                total += 1
    return total


def rho_oracle_prime(p: int, q: int) -> tuple[Fraction, Fraction]:
    """(brute density, rho(p)/p) for a prime p not dividing 2q: the brute
    side counts pairs (a1, a2) mod p with a1 a2 (a2 - a1^2) = 0 (mod p)."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p == 2 or p == q:
        raise ValueError("oracle requires p coprime to 2q")
    a1 = np.arange(p, dtype=np.int64)
    A1 = a1[:, None]
    A2 = a1[None, :]
    mask = (A1 == 0) | (A2 == 0) | ((A2 - A1 * A1) % p == 0)
    return Fraction(int(mask.sum()), p * p), rho(p, q) / p


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
        if not is_prime(self.q):
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


# ---- arithmetic helpers ----

def reconstruct(f: Factorization) -> int:
    """The product of the prime powers of f."""
    out = 1
    for p, e in f.factors:
        out *= p**e
    return out


def phi_star(n: int) -> Fraction:
    """phi(n)/n as an exact fraction; multiplicative with value 1 - 1/p at prime powers."""
    out = Fraction(1)
    for p, _ in factorize(n).factors:
        out *= Fraction(p - 1, p)
    return out


def big_omega(n: int) -> int:
    """Number of prime factors with multiplicity."""
    return sum(e for _, e in factorize(n).factors)


def little_omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n).factors)


def radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    out = 1
    for p, _ in factorize(n).factors:
        out *= p
    return out


_KINDS = {
    "tau": tau,
    "sigma_half_inv": sigma_half_inv,
    "phi": phi,
    "phi_star": phi_star,
    "mobius": mobius,
    "big_omega": big_omega,
    "little_omega": little_omega,
    "L": log1n,
}


def arith_function(kind: str, n: int):
    """Dispatch by name; kinds: tau, sigma_half_inv, phi, phi_star, mobius,
    big_omega, little_omega, L."""
    if kind not in _KINDS:
        raise ValueError(f"unknown arithmetic function kind {kind!r}")
    return _KINDS[kind](n)
