import math
import random
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import arith

import oracles


def test_factorize_examples():
    assert arith.factorize(1).factors == ()
    assert arith.factorize(12).factors == ((2, 2), (3, 1))
    assert arith.factorize(97).factors == ((97, 1),)
    assert arith.factorize(600851475143).factors == (
        (71, 1), (839, 1), (1471, 1), (6857, 1),
    )


def test_factorize_reconstructs():
    for n in range(1, 20001):
        f = arith.factorize(n)
        assert oracles.reconstruct(f) == n
        assert all(arith.is_prime(p) for p, _ in f.factors)


def test_factorize_cache_matches_uncached():
    # 1000003 * 1000033 leaves a composite cofactor at the trial bound
    big = 1000003 * 1000033
    ns = [1, 12, 12, 97, 1, big, 12, big, big, 2**61 - 1, 97, 97, 1, 600851475143, 12]
    for n in ns:
        assert arith.factorize(n) == arith.factorize.__wrapped__(n), n
    # the cache is typed: a numpy integer does not hand its result to an int
    assert type(arith.factorize(np.int64(12)).n) is np.int64
    assert type(arith.factorize(12).n) is int
    # a refused n leaves the cache in use
    with pytest.raises(ValueError):
        arith.factorize(0)
    assert arith.factorize(97) == arith.factorize.__wrapped__(97)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.factorize(0)
    with pytest.raises(ValueError):
        arith.factorize(-6)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert arith.factorize(p * q).factors == ((p, 1), (q, 1))


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

    for n in range(5000):
        assert arith.is_prime(n) == trial(n), n


def test_is_prime_large():
    assert arith.is_prime(2**61 - 1)
    assert not arith.is_prime(2**61 + 1)
    assert not arith.is_prime(3825123056546413051)  # strong pseudoprime to small bases


def test_divisors():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(49) == [1, 7, 49]


def test_multiplicative_values():
    assert arith.tau(12) == 6
    assert arith.phi(1) == 1
    assert arith.phi(10) == 4
    assert oracles.phi_star(6) == Fraction(1, 3)
    assert arith.mobius(1) == 1
    assert arith.mobius(30) == -1
    assert arith.mobius(12) == 0
    assert oracles.big_omega(12) == 3
    assert oracles.little_omega(12) == 2
    assert arith.sigma_half_inv(4) == pytest.approx(1 + 2**-0.5 + 0.5)
    assert oracles.radical(12) == 6


def test_phi_star_matches_phi():
    for n in range(1, 2000):
        assert oracles.phi_star(n) == Fraction(arith.phi(n), n)


def test_log1n():
    assert arith.log1n(0) == 0.0
    assert arith.log1n(1) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        arith.log1n(-1)


def test_arith_function_dispatch():
    assert oracles.arith_function("tau", 12) == 6
    assert oracles.arith_function("phi_star", 6) == Fraction(1, 3)
    assert oracles.arith_function("L", 4) == pytest.approx(math.log(5))
    with pytest.raises(ValueError):
        oracles.arith_function("nope", 3)


def test_jacobi_against_euler_criterion():
    # for prime m the symbol is a^((m-1)/2) mod m; extend multiplicatively
    rng = random.Random(4101)
    primes = [p for p in range(3, 200, 2) if arith.is_prime(p)]
    for _ in range(1000):
        m = 1
        for _ in range(rng.randint(1, 3)):
            m *= rng.choice(primes)
        if m > 10**4:
            continue
        a = rng.randint(-500, 500)
        expected = 1
        for p, e in arith.factorize(m).factors:
            r = pow(a % p, (p - 1) // 2, p)
            leg = 0 if r == 0 else (1 if r == 1 else -1)
            expected *= leg**e
        assert arith.jacobi(a, m) == expected, (a, m)


def test_jacobi_edges():
    assert arith.jacobi(0, 1) == 1
    assert arith.jacobi(7, 1) == 1
    assert arith.jacobi(2, 15) == 1
    with pytest.raises(ValueError):
        arith.jacobi(3, 4)
    with pytest.raises(ValueError):
        arith.jacobi(3, -5)


def test_mod_inv_round_trip():
    for q in range(1, 101):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                inv = arith.mod_inv(a, q)
                assert (a * inv - 1) % q == 0
    assert arith.mod_inv(17, 1) == 0
    with pytest.raises(ValueError):
        arith.mod_inv(6, 9)
    with pytest.raises(ValueError):
        arith.mod_inv(2, 0)


def test_floor_mod_matches_percent():
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(14)
    x = rng.integers(-(2**62), 2**62, size=5000, dtype=np.int64)
    for q in (1, 2, 3, 30030, 2**31 - 1):
        got = arith.floor_mod(x, q)
        assert got.dtype == np.int64
        assert np.array_equal(got, x % q)
        assert got.min() >= 0 and got.max() < q
    # a column of classes k times a row of residues, as in class_sums
    k = np.array([[0], [1], [-5], [2**31 - 2]], dtype=np.int64)
    y = np.arange(-40, 41, dtype=np.int64)
    assert np.array_equal(arith.floor_mod(k * y, 997), k * y % 997)
    # object arrays of Python ints beyond int64, and plain ints
    big = np.array([-(3**90), -1, 0, 5, 2**70 + 3, 7**40], dtype=object)
    for q in (1, 7, 2**64 + 13):
        assert arith.floor_mod(big, q).tolist() == [v % q for v in big.tolist()]
        assert arith.floor_mod(-(3**90), q) == -(3**90) % q


def test_unit_symbols():
    assert arith.unit_symbols(1) == (1, 1 + 0j)
    assert arith.unit_symbols(5) == (1, 1 + 0j)
    assert arith.unit_symbols(3) == (1, 1j)
    assert arith.unit_symbols(7) == (1, 1j)
    with pytest.raises(ValueError):
        arith.unit_symbols(4)


# ---- sympy as an independent oracle ----

def _sympy_and_moduli():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1414)
    ns = list(range(1, 3000)) + [rng.randrange(1, 2**32) for _ in range(100)]
    ns += [p * q for p, q in ((1000003, 1000033), (2**31 - 1, 65537), (99991, 99991))]
    return sympy, rng, ns


def test_factorize_against_sympy():
    sympy, _, ns = _sympy_and_moduli()
    for n in ns:
        assert dict(arith.factorize(n).factors) == sympy.factorint(n), n


def test_factorize_trial_bound_edges_against_sympy():
    # the wheel stops either past sqrt of the cofactor (the cofactor is then
    # 1 or a prime, recorded untested) or at the trial bound 10^6 (the
    # cofactor goes to Miller-Rabin and rho); these n sit on both sides
    sympy = pytest.importorskip("sympy")
    p, r = 1000003, 999983  # the primes next to 10^6
    ns = [p * p, r * r, r * p, r * 1000000000039, 2 * 3 * r * p,
          1000000000039, 999999999989, 7 * 1000000000039]
    for n in ns:
        assert dict(arith.factorize(n).factors) == sympy.factorint(n), n


def test_is_prime_against_sympy():
    sympy, rng, ns = _sympy_and_moduli()
    for n in ns + [rng.randrange(1, 2**64) | 1 for _ in range(2000)]:
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_jacobi_against_sympy():
    sympy, rng, _ = _sympy_and_moduli()
    for _ in range(3000):
        m = rng.randrange(1, 10**12) | 1
        a = rng.randrange(-10**12, 10**12)
        assert arith.jacobi(a, m) == sympy.jacobi_symbol(a, m), (a, m)
