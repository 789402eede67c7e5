"""The benchmark's workloads: seed-generated lists of congruence-lab commands.

A workload maps a seed to a fixed-size list of CLI invocations.  The seed
picks the inputs (moduli, coefficients, rational box sides, coefficient
family seeds, Gauss sum parameters, the sieve prime), never the sizes, so a
pass does the same amount of work whatever the seed.  Inputs come in
VARIANTS variants: seed s selects variant s % VARIANTS, which is what lets
bench/digests.json hold a recorded output digest for every seed.

No command passes --threads; the pass environment unsets
CONGRUENCE_LAB_THREADS, so every command runs single-threaded.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

VARIANTS = 32
SIZES = ("full", "small")
WORK_DIR = ".bench_work"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the files it writes, relative to the checkout."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


def _is_prime(n: int) -> bool:
    # trial division; the generator only tests n below a few hundred thousand
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def _primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if _is_prime(n)]


def _rational(num: int, den: int) -> str:
    return str(Fraction(num, den))


def _out(name: str) -> str:
    return f"{WORK_DIR}/{name}"


# box-scan: congruence.count_exact does about 90% of the work, over moduli up
# to ~3e5, so this is the workload a count_exact change must speed up.
# Composite moduli send error_envelope through arith (tau, sigma_half_inv,
# factorize).  dp6, averaged and sawtooth are never called.
_BOX_SIZES = {
    # (prime scan limit, composite modulus targets, single-count modulus)
    "full": (2500, (30_000, 45_000, 65_000, 90_000, 120_000, 155_000, 200_000), 300_000),
    "small": (200, (3_000, 5_000), 10_000),
}
# count_exact does heavy work only for the phi(q) residues prime to q, so the
# composite moduli are m * p with a fixed squarefree cofactor m per slot and a
# seeded prime p: phi(q)/q then depends on the slot, not on the seed
_COFACTORS = (6, 10, 15, 21, 35, 77, 143)
_COFACTOR_PRIMES = 2 * 3 * 5 * 7 * 11 * 13


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def box_scan(rng: random.Random, size: str) -> list[Command]:
    limit, targets, q_single = _BOX_SIZES[size]
    # primes above the scan limit are units modulo every scanned prime, so no
    # instance is skipped and the instance count is the same for every seed
    a, b = rng.sample(_primes_between(limit, 4 * limit), 2)
    scan = Command(
        ("count-scan", "--primes-up-to", str(limit), "--a", str(a), "--b", str(b),
         "--out", _out("box-primes.csv")),
        (_out("box-primes.csv"),),
    )
    # non-unit coefficients prime to every cofactor; p moves q by under 1%
    a2, b2 = (rng.choice([n for n in range(2, 1000) if math.gcd(n, _COFACTOR_PRIMES) == 1])
              for _ in range(2))
    qs = []
    for target, m in zip(targets, _COFACTORS):
        p = _next_prime(target // m + rng.randrange(max(2, 1000 // m)))
        while math.gcd(a2 * b2, p) != 1:
            p = _next_prime(p + 1)
        qs.append(m * p)
    x = _rational(rng.randrange(10_000, 100_000), rng.randrange(2, 10))
    composite = Command(
        ("count-scan", "--q-list", ",".join(map(str, qs)), "--a", str(a2), "--b", str(b2),
         "--x", x, "--out", _out("box-composite.csv")),
        (_out("box-composite.csv"),),
    )
    # a prime modulus: every coefficient below it is a unit
    q = _next_prime(q_single + rng.randrange(1000))
    a3, b3 = rng.randrange(2, 10_000), rng.randrange(2, 10_000)
    X = str(rng.randrange(q // 2, 2 * q))
    Y = _rational(rng.randrange(q, 4 * q), rng.randrange(2, 10))
    single = Command(
        ("count", "--a", str(a3), "--b", str(b3), "--q", str(q), "--X", X, "--Y", Y),
    )
    return [scan, composite, single]


# dp6-family: dp6, arith and reports do all the work and the congruence layer
# is never called.  dp6 is used two ways: object-building enumeration written
# as a 33,689-row CSV, and Fraction-heavy densities (rho, w2_sum, w1_min_c1)
# in dp6-sieve.  dp6-growth at the enumeration budget cross-checks the count.
_DP6_SIZES = {
    # (budget B, growth budgets, rho table limit, z_max)
    "full": (10**6, (10**6, 10**8, 10**9), 210, 1000),
    "small": (10**4, (10**4, 10**5), 30, 100),
}
DP6_T = 12


def _prime_window(B: int) -> list[int]:
    r = round(B ** (1 / 3))
    while r**3 > B:
        r -= 1
    while (r + 1) ** 3 <= B:
        r += 1
    return [q for q in _primes_between(2, r + 1) if 8 * q**3 > B]


def dp6_family(rng: random.Random, size: str) -> list[Command]:
    B, growth, rho_max, z_max = _DP6_SIZES[size]
    q = rng.choice(_prime_window(B))
    return [
        Command(
            ("dp6-enumerate", "--B", str(B), "--t", str(DP6_T), "--out", _out("dp6-points.csv")),
            (_out("dp6-points.csv"),),
        ),
        Command(("dp6-growth", "--B-list", ",".join(map(str, growth)), "--t", str(DP6_T))),
        Command(
            ("dp6-sieve", "--B", str(B), "--q", str(q), "--rho-max", str(rho_max),
             "--z-max", str(z_max), "--out", _out("dp6-sieve.json")),
            (_out("dp6-sieve.json"),),
        ),
    ]


# analytic: reaches the congruence layer only through count_boundaries (one
# Fraction per y over many small moduli) and bilinear_jacobi, never through
# count_exact, so a count_exact change should move nothing here.  It is the
# memory-heavy workload: vaaler builds N x H float64 temporaries.
_ANALYTIC_SIZES = {
    # (avg-scan U=V=W, Y, seeds per scheme; gauss modulus; vaaler H, samples;
    #  bilinear M=N, seeds)
    "full": (8, 200, 3, 10**6, 64, 200_000, 512, 3),
    "small": (2, 30, 1, 10**4, 16, 5_000, 64, 1),
}
AVG_T = 5


def analytic(rng: random.Random, size: str) -> list[Command]:
    uvw, Y, n_seeds, u0, H, samples, mn, bil_seeds = _ANALYTIC_SIZES[size]
    # the cell count depends on t only, so t is fixed; X stays below t W so
    # suggest_H applies
    X = _rational(rng.randrange(2 * AVG_T, 4 * AVG_T * uvw), 4)
    cmds = []
    for scheme in ("joint", "factorized"):
        name = _out(f"avg-{scheme}.csv")
        cmds.append(Command(
            ("avg-scan", "--t", str(AVG_T), "--U", str(uvw), "--V", str(uvw), "--W", str(uvw),
             "--Y", str(Y), "--X", X, "--scheme", scheme,
             "--seed", str(rng.randrange(10**6)), "--seeds", str(n_seeds), "--out", name),
            (name,),
        ))
    u = u0 + rng.randrange(1000)
    s = rng.randrange(1, u)
    while math.gcd(s, u) != 1:
        s += 1
    cmds.append(Command(("gauss", "--s", str(s), "--t", str(rng.randrange(u)), "--u", str(u))))
    cmds.append(Command(
        ("vaaler", "--H", str(H), "--samples", str(samples), "--seed", str(rng.randrange(10**6))),
    ))
    name = _out("bilinear.csv")
    cmds.append(Command(
        ("bilinear", "--M", str(mn), "--N", str(mn), "--seed", str(rng.randrange(10**6)),
         "--seeds", str(bil_seeds), "--out", name),
        (name,),
    ))
    return cmds


WORKLOADS = {"box-scan": box_scan, "dp6-family": dp6_family, "analytic": analytic}


def commands(workload: str, seed: int, size: str = "full") -> list[Command]:
    """The command list of one pass; the same (workload, seed, size) always
    gives the same list."""
    rng = random.Random(f"{workload}/{size}/{seed % VARIANTS}")
    return WORKLOADS[workload](rng, size)


_ENUM_COUNT = re.compile(r"^B = (\d+), t = (\d+): (\d+) points$", re.M)
_GROWTH_COUNT = re.compile(r"^B = +(\d+) +count = +(\d+) ", re.M)
_VAALER = re.compile(r": (\d+) violations in \d+ samples; worst slack = (\S+)$", re.M)
# vaaler compares |psi - V_H| with the majorant in float64 and no slack.  At
# x = k/(H+1) both sides are 0, and rounding can put the error ~1e-16 above
# the majorant (e.g. H = 64, x ~ 0.4).  A violation is therefore counted
# only when its slack exceeds float64 rounding of an H-term sum.
VAALER_ROUNDING = 1e-12


def output_errors(cmds: list[Command], stdouts: list[str]) -> dict[int, str]:
    """Content checks on one pass's stdout, keyed by command index: gauss
    must match its brute sum, vaaler must find no majorant violation beyond
    float rounding, and dp6-enumerate must count what dp6-growth counts at
    the same B and t."""
    errors = {}
    growth = {}
    for cmd, out in zip(cmds, stdouts):
        if cmd.argv[0] == "dp6-growth":
            t = int(cmd.argv[cmd.argv.index("--t") + 1])
            growth.update({(int(B), t): int(n) for B, n in _GROWTH_COUNT.findall(out)})
    for i, (cmd, out) in enumerate(zip(cmds, stdouts)):
        name = cmd.argv[0]
        if name == "gauss" and "match = True" not in out:
            errors[i] = "gauss: closed form does not match the brute sum"
        elif name == "vaaler":
            m = _VAALER.search(out)
            if not m or (m.group(1) != "0" and float(m.group(2)) > VAALER_ROUNDING):
                errors[i] = "vaaler: majorant violated beyond float rounding"
        elif name == "dp6-enumerate":
            m = _ENUM_COUNT.search(out)
            key = (int(m.group(1)), int(m.group(2))) if m else None
            if key not in growth:
                errors[i] = "dp6-enumerate: no dp6-growth count at the same B and t"
            elif int(m.group(3)) != growth[key]:
                errors[i] = f"dp6-enumerate: {m.group(3)} points, dp6-growth {growth[key]}"
    return errors
