import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import arith

import oracles


def _rows(start, p, e):
    # {p: e} of each modulus of a factor_array
    bounds = start.tolist()
    pairs = list(zip(p.tolist(), e.tolist()))
    return [dict(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _factors(n):
    # the (p, e) pairs of n, primes ascending, from a one-element factor_array
    _, p, e = arith.factor_array([n])
    return tuple(zip(p.tolist(), e.tolist()))


def test_factorize_examples():
    assert _factors(1) == ()
    assert _factors(12) == ((2, 2), (3, 1))
    assert _factors(97) == ((97, 1),)
    # 71 * 839 * 1471 * 6857 lies beyond 2^31, where trial division is not run
    with pytest.raises(ValueError, match=r"n < 2\^31, got n = 600851475143"):
        arith.factor_array([600851475143])


def test_factorize_reconstructs():
    ns = range(1, 20001)
    rows = _rows(*arith.factor_array(ns))
    for n, row in zip(ns, rows):
        assert oracles.reconstruct(oracles.Factorization(n, tuple(row.items()))) == n
    assert all(oracles.prime_factors(p) == {p: 1} for p in set().union(*rows))


def test_factorize_cache_matches_uncached():
    # factor_array keeps no result, so repeated and interleaved calls give
    # the factorization of their own n, and the n at or beyond 2^31 among
    # them are refused each time
    big = 1000003 * 1000033
    want = {1: (), 12: ((2, 2), (3, 1)), 97: ((97, 1),)}
    ns = [1, 12, 12, 97, 1, big, 12, big, big, 2**61 - 1, 97, 97, 1, 600851475143, 12]
    for n in ns:
        if n in want:
            assert _factors(n) == want[n], n
        else:
            with pytest.raises(ValueError, match=rf"n < 2\^31, got n = {n}"):
                arith.factor_array([n])
    # a numpy integer factors as the int of its value
    assert _factors(np.int64(12)) == _factors(12)
    # a refused n leaves the next call unaffected
    with pytest.raises(ValueError):
        arith.factor_array([0])
    assert _factors(97) == want[97]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.factor_array([0])
    with pytest.raises(ValueError):
        arith.factor_array([-6])


def test_factorize_large_semiprime():
    # both primes of each product lie past sqrt(2^31), so it is refused.
    # psi_12 passes Miller-Rabin to the first twelve prime bases (Jiang and
    # Deng 2014), so a factorizer that trusts that test beyond 2^64 returns
    # it as a prime cofactor of 2 psi_12
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    for n in (1000003 * 1000033, 2 * psi12):
        with pytest.raises(ValueError, match=rf"n < 2\^31, got n = {n}"):
            arith.factor_array([n])


def _prime_rows(ns):
    # whether each n of ns is prime, read from one factor_array: its row is {n: 1}
    return [row == {n: 1} for n, row in zip(ns, _rows(*arith.factor_array(ns)))]


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

    ns = range(1, 5000)
    assert _prime_rows(ns) == [trial(n) for n in ns]


def test_is_prime_large():
    # a prime, a composite and a strong pseudoprime to small bases, all
    # beyond 2^31
    for n in (2**61 - 1, 2**61 + 1, 3825123056546413051):
        with pytest.raises(ValueError, match=rf"n < 2\^31, got n = {n}"):
            arith.factor_array([5, n])


def _columns(ns):
    # (phi, tau, sigma_{-1/2}) of ns from one factor_array, as Python lists
    n = np.array(ns, dtype=np.int64)
    return [column.tolist() for column in arith.divisor_functions(n, *arith.factor_array(n))]


def test_divisors():
    # the divisor lists of the oracle, and the tau and sigma columns read
    # from the divisors of the same n
    assert oracles.divisors(1) == [1]
    assert oracles.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert oracles.divisors(49) == [1, 7, 49]
    _, tau, sigma = _columns([1, 12, 49])
    assert tau == [1, 6, 3]
    assert sigma == [1.0, oracles.sigma_half_inv(12), 1.0 + 1 / math.sqrt(7) + 1 / 7]


def test_multiplicative_values():
    phis, taus, _ = _columns([1, 10, 12])
    for n, tau, phi, got_tau, got_phi in zip((1, 10, 12), (1, 4, 6), (1, 4, 4), taus, phis):
        assert got_tau == oracles.tau(n) == tau
        assert got_phi == oracles.phi(n) == phi
    assert oracles.phi(10**4 + 1) == 72 * 136  # 10001 = 73 * 137, past the gcd count
    assert oracles.phi_star(6) == Fraction(1, 3)
    assert oracles.mobius(1) == 1
    assert oracles.mobius(30) == -1
    assert oracles.mobius(12) == 0
    assert oracles.prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert oracles.big_omega(12) == 3
    assert oracles.little_omega(12) == 2
    assert _columns([4])[2] == [pytest.approx(1 + 2**-0.5 + 0.5)]
    assert oracles.sigma_half_inv(4) == 1 + 2**-0.5 + 0.5


def test_phi_star_matches_phi():
    for n, phi in enumerate(_columns(range(1, 2000))[0], start=1):
        assert oracles.phi_star(n) == Fraction(phi, n)


# the largest n with 1600 divisors, a squarefree primorial, a prime, the
# square of the prime next below sqrt(2^31), and a power of two
_EDGES = (2095133040, 223092870, 2**31 - 1, 46337**2, 2**30)


def test_factorization_matches_trial_loops_property():
    # the factors, the phi, tau and sigma_{-1/2} columns, and mu read from
    # the factors, against the trial loops of tests/oracles, which never
    # call factor_array; sigma_{-1/2} bit for bit, the two adding the same
    # terms in the same order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # n with many small prime powers: products of primes up to 13
    smooth = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=24).map(math.prod)
    n_below = st.integers(1, 2**31 - 1) | smooth.filter(lambda n: n < 2**31)

    def check(n):
        factors = _factors(n)
        assert dict(factors) == oracles.prime_factors(n)
        [phi], [tau], [sigma] = _columns([n])
        assert tau == oracles.tau(n)
        assert phi == oracles.phi(n)
        assert sigma.hex() == oracles.sigma_half_inv(n).hex()
        squarefree = all(e == 1 for _, e in factors)
        assert (-1) ** len(factors) * squarefree == oracles.mobius(n)

    for n in _EDGES:
        check = hypothesis.example(n=n)(check)
    hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)(
        hypothesis.given(n=n_below)(check))()


def test_sigma_half_inv_against_40_digits():
    # tau(n) positive terms, each 1/sqrt(d) within two roundings, added left
    # to right: the float sum is within (tau(n) + 2) 2^-53 sigma_{-1/2}(n)
    # of the exact one (README, Conventions); 14.1 units of 2^-53 sigma the
    # largest error seen, at n = 2095133040 with tau(n) = 1600
    ns = (*_EDGES, 720720, 735134400, 1396755360, 2**31 - 3, 1)
    _, taus, sigmas = _columns(ns)
    for n, tau, sigma in zip(ns, taus, sigmas):
        want = oracles.sigma_half_inv_mp(n)
        err = float(abs(want - sigma) / want) * 2.0**53
        assert err <= tau + 2, n


def test_sieve_primes():
    assert arith.sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.sieve_primes(1) == []
    assert len(arith.sieve_primes(10**4)) == 1229


def _trial_primes(limit):
    # the n <= limit that no smaller prime up to sqrt(n) divides
    primes = []
    for n in range(2, limit + 1):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    return primes


def test_sieve_primes_against_trial_division():
    for limit in (0, 1, 2, 3, 4, 25, 46340, 10**5):
        got = arith.sieve_primes(limit)
        assert got == _trial_primes(limit), limit
        assert all(type(p) is int for p in got)
    assert len(arith.sieve_primes(2**20)) == 82025


def test_log1n():
    assert arith.log1n(0) == 0.0
    assert arith.log1n(1) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        arith.log1n(-1)


def test_jacobi_against_euler_criterion():
    # for prime m the symbol is a^((m-1)/2) mod m; extend multiplicatively
    rng = random.Random(4101)
    primes = arith.sieve_primes(199)[1:]
    for _ in range(1000):
        m = 1
        for _ in range(rng.randint(1, 3)):
            m *= rng.choice(primes)
        if m > 10**4:
            continue
        a = rng.randint(-500, 500)
        expected = 1
        for p, e in oracles.prime_factors(m).items():
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
    assert arith.unit_symbols(1) == 1 + 0j
    assert arith.unit_symbols(5) == 1 + 0j
    assert arith.unit_symbols(3) == 1j
    assert arith.unit_symbols(7) == 1j
    with pytest.raises(ValueError):
        arith.unit_symbols(4)


# ---- sympy as an independent oracle ----

def _sympy_and_moduli():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1414)
    ns = list(range(1, 3000)) + [rng.randrange(1, 2**31) for _ in range(100)]
    ns += [32749 * 65537, 46309 * 46327, 2**31 - 1]
    return sympy, rng, ns


def test_factorize_against_sympy():
    sympy, _, ns = _sympy_and_moduli()
    assert _rows(*arith.factor_array(ns)) == [sympy.factorint(n) for n in ns]


def test_trial_table_is_the_primes_up_to_sqrt_2_31():
    # factor_array divides by this table alone, so it must hold every prime p
    # with p^2 < 2^31 and no other number
    sympy = pytest.importorskip("sympy")
    table = arith._TRIAL_PRIMES
    assert table.dtype == np.int64
    assert table.tolist() == list(sympy.primerange(2, 46341))
    assert len(table) == 4792 and table[-1] == 46337
    assert sympy.nextprime(table[-1]) ** 2 > arith.MODULUS_LIMIT


def test_factorize_trial_bound_edges_against_sympy():
    # 46327, 46337 and 46349 are the primes next to sqrt(2^31): 46327 and
    # 46337, the last two primes of the trial table, decide 46327^2, 46337^2
    # and 46327 * 46337, 2^31 - 3 = 5 * 19 * 22605091 leaves a prime
    # cofactor, 2^31 - 1 is prime; 46337 * 46349 and 2^31 itself are refused
    sympy = pytest.importorskip("sympy")
    ns = (46327**2, 46337**2, 46327 * 46337, 2**31 - 3, 2**31 - 1)
    assert _rows(*arith.factor_array(ns)) == [sympy.factorint(n) for n in ns]
    assert _factors(2**31 - 3) == ((5, 1), (19, 1), (22605091, 1))
    for n in (46337 * 46349, 2**31):
        with pytest.raises(ValueError, match=rf"n < 2\^31, got n = {n}"):
            arith.factor_array([n])


def test_is_prime_against_sympy():
    sympy, rng, ns = _sympy_and_moduli()
    ns = [*ns, *range(1, 5000), *(rng.randrange(1, 2**31) | 1 for _ in range(2000))]
    assert _prime_rows(ns) == [sympy.isprime(n) for n in ns]


def test_jacobi_against_sympy():
    sympy, rng, _ = _sympy_and_moduli()
    for _ in range(3000):
        m = rng.randrange(1, 10**12) | 1
        a = rng.randrange(-10**12, 10**12)
        assert arith.jacobi(a, m) == sympy.jacobi_symbol(a, m), (a, m)


# ---- the vector factorizer and the columns read from it ----

def test_factor_array_matches_trial_loops_and_sympy_property():
    # arrays of moduli, the edges among them, against the trial loop of
    # tests/oracles and sympy; a one-element call gives the same row, and the
    # phi, tau and sigma_{-1/2} columns match the oracles' loops, sigma bit
    # for bit and within the README bound of its 40-digit value
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    edges = st.sampled_from([1, 2, 2**31 - 1, 46337**2, 46327 * 46337, 2**30, 2**16, 2**31 - 3,
                             2095133040, 223092870])
    smooth = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=24).map(math.prod)
    modulus = edges | st.integers(1, 2**31 - 1) | smooth.filter(lambda n: n < 2**31)

    def check(ns):
        n = np.array(ns, dtype=np.int64)
        start, p, e = arith.factor_array(n)
        assert [a.dtype for a in (start, p, e)] == [np.int64] * 3
        assert len(start) == len(ns) + 1 and start[0] == 0 and start[-1] == len(p) == len(e)
        rows = _rows(start, p, e)
        assert rows == [oracles.prime_factors(v) for v in ns]
        assert rows == [sympy.factorint(v) for v in ns]
        assert all(list(row) == sorted(row) for row in rows)
        assert [_factors(v) for v in ns] == [tuple(row.items()) for row in rows]
        phi, tau, sigma = arith.divisor_functions(n, start, p, e)
        assert phi.tolist() == [oracles.phi(v) for v in ns]
        assert tau.tolist() == [oracles.tau(v) for v in ns]
        assert [s.hex() for s in sigma.tolist()] == [oracles.sigma_half_inv(v).hex() for v in ns]
        for v, t, s in zip(ns, tau.tolist(), sigma.tolist()):
            want = oracles.sigma_half_inv_mp(v)
            assert float(abs(want - s) / want) * 2.0**53 <= t + 2, v

    for ns in ([], [1], [2**31 - 1], [46337**2, 2**30, 1], [2095133040, 2095133040, 12]):
        check = hypothesis.example(ns=ns)(check)
    hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)(
        hypothesis.given(ns=st.lists(modulus, max_size=12))(check))()


def test_factor_array_in_blocks_matches_one_block(monkeypatch):
    # the cells per block change nothing: every modulus up to 3000 and the
    # primes near 2^31, in blocks of a few moduli, a single modulus, or all
    ns = np.array([*range(1, 3001), 2**31 - 1, 2**31 - 3, 46337**2], dtype=np.int64)
    want = _rows(*arith.factor_array(ns))
    want_columns = [c.tolist() for c in arith.divisor_functions(ns, *arith.factor_array(ns))]
    for cells in (1, 5000, 2**16):
        monkeypatch.setattr(arith, "BLOCK_CELLS", cells)
        found = arith.factor_array(ns)
        assert _rows(*found) == want, cells
        assert [c.tolist() for c in arith.divisor_functions(ns, *found)] == want_columns, cells


def test_factor_array_refuses_what_factorize_refuses():
    for bad in ([0], [5, -6, 7], [12, 2**31], [2**61 - 1], [1, 600851475143]):
        first = next(v for v in bad if not 1 <= v < 2**31)
        with pytest.raises(ValueError, match=rf"n < 2\^31, got n = {first}$"):
            arith.factor_array(bad)
    assert arith.factor_array(range(1, 4))[0].tolist() == [0, 0, 1, 2]


def test_factor_array_blocks_stay_within_the_cell_budget(monkeypatch):
    # at the count-scan cap, 82,025 primes by the 172 primes up to 1024: no
    # outer-product block exceeds BLOCK_CELLS cells (2 MiB of int64)
    shapes = []
    floor_mod = arith.floor_mod

    def spy(x, q):
        shapes.append(np.broadcast_shapes(np.shape(x), np.shape(q)))
        return floor_mod(x, q)

    monkeypatch.setattr(arith, "floor_mod", spy)
    primes = np.array(arith.sieve_primes(2**20), dtype=np.int64)
    start, p, e = arith.factor_array(primes)
    assert p.tolist() == primes.tolist() and e.tolist() == [1] * len(primes)
    outer = [shape for shape in shapes if len(shape) == 2]
    assert sum(rows for rows, _ in outer) == len(primes)
    assert max(rows * cols for rows, cols in outer) <= arith.BLOCK_CELLS


def test_divisor_blocks_are_as_wide_as_their_own_tau(monkeypatch):
    # 2,000 primes and one modulus of tau 1,600: the primes take a block of
    # width 2 and the large-tau modulus one row of its own, so the divisor
    # matrices hold sum(tau) cells, not 2,001 rows of width 1,600
    shapes = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sqrt(self, d):
            shapes.append(d.shape)
            return np.sqrt(d)

    ns = np.array([*arith.sieve_primes(17389), 2095133040], dtype=np.int64)  # 17,389: the 2,000th prime
    want = [c.tolist() for c in arith.divisor_functions(ns, *arith.factor_array(ns))]
    monkeypatch.setattr(arith, "np", Spy())
    phi, tau, sigma = arith.divisor_functions(ns, *arith.factor_array(ns))
    assert [phi.tolist(), tau.tolist(), sigma.tolist()] == want
    assert sorted(shapes) == [(1, 1600), (2000, 2)]
    assert sum(rows * width for rows, width in shapes) == sum(want[1])
    for cells in (1, 3000, 2**16):
        shapes.clear()
        monkeypatch.setattr(arith, "BLOCK_CELLS", cells)
        assert [c.tolist() for c in arith.divisor_functions(ns, *arith.factor_array(ns))] == want
        assert sum(rows for rows, _ in shapes) == len(ns)
        assert all(rows * width <= cells or rows == 1 for rows, width in shapes), cells


def test_legendre_symbols_match_jacobi():
    # Euler's criterion in int64 against the reciprocity loop of
    # arith.jacobi, at small primes and the primes below 2^31, where the
    # products of two residues come nearest to 2^62
    rng = random.Random(2718)
    for p in (3, 5, 7, 11, 97, 46337, 65537, 1000003, 2**31 - 1, 2147483629):
        z = [0, 1, 2, p - 1, p - 2, *(rng.randrange(p) for _ in range(200))]
        got = arith.legendre_symbols(np.array(z, dtype=np.int64), p)
        assert got.dtype == np.int64
        assert got.tolist() == [arith.jacobi(v, p) for v in z], p
    # every residue of a small prime
    z = np.arange(0, 3 * 101, dtype=np.int64)
    assert arith.legendre_symbols(z, 101).tolist() == [arith.jacobi(v, 101) for v in z.tolist()]
