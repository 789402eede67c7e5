import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from congruence_lab import arith, cli, reports
from congruence_lab import averaged as av
from congruence_lab import congruence as cg

import oracles


def _one_box(a, b, q, X, Y):
    # the report of one box, as count runs it: a scan of the one modulus q
    return cg.scan_boxes([q], a, b, X, Y)[0]


def _count(a, b, q, X, Y):
    return _one_box(a, b, q, X, Y).exact


def _huge_count(a, b, q, X, Y):
    # the box count of a box whose main term scan_boxes refuses as beyond float
    # range, summed as the count pass of _reports sums it: Qx Qy phi(q) + Qx
    # T(q, ry) + the T(rx, .) of _class_hits, on a box with rx, ry > 0
    primes, phi = _primes(q), oracles.phi(q)
    (Qx, rx), (Qy, ry) = divmod(int(X // 1), q), divmod(int(Y // 1), q)
    assert rx and ry
    return (Qx * Qy * phi + Qx * cg._unit_count(ry, primes)
            + cg._class_hits(cg.linear_class(a, b, q), q, rx, Qy, ry, primes, phi))


def test_box_fixtures():
    assert _count(1, 1, 5, 10, 10) == 16
    assert _count(2, -1, 7, 7, 7) == 6
    # q = 1: every pair counts
    assert _count(1, 1, 1, 7, 9) == 63


def test_instance_validation():
    # the one-box scan refuses what count refuses, and skips a q not prime to ab
    for a, b, q, X, Y in [(1, 1, 0, 5, 5), (0, 1, 5, 5, 5), (1, 1, 5, Fraction(1, 2), 5)]:
        with pytest.raises(ValueError):
            cg.scan_boxes([q], a, b, X, Y)
    assert cg.scan_boxes([5], 5, 1, 5, 5) == []  # gcd(ab, q) > 1


def test_count_matches_naive_seeded():
    rng = random.Random(20240)
    done = 0
    while done < 60:
        q = rng.randint(1, 50)
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        if a == 0 or b == 0 or math.gcd(a * b, q) != 1:
            continue
        X = rng.randint(1, 120)
        Y = rng.randint(1, 120)
        box = (a, b, q, X, Y)
        assert _count(*box) == oracles.count_exact_naive(*box), box
        done += 1


def test_count_with_fractional_box_sides():
    naive = oracles.count_exact_naive(1, 1, 5, 10, 9)  # only integer parts matter
    assert _count(1, 1, 5, Fraction(21, 2), Fraction(19, 2)) == naive


# ---- the per-residue loop as an oracle for the block kernel ----

def count_exact_loop(a, b, q, X, Y):
    """The per-residue loop the box count used to be: one gcd, one pow and
    one Fraction floor-division per residue."""
    if q == 1:
        return int(X // 1) * int(Y // 1)

    def class_count(c, bound):  # #{0 < x <= bound : x = c (mod q)}, c in [0, q)
        return (bound - c) // q - (0 - c) // q

    acc = [0] * q
    for y0 in range(1, q):
        if math.gcd(y0, q) == 1:
            acc[b * pow(y0, 2, q) % q] += class_count(y0, Y)
    total = 0
    for x0 in range(1, q):
        if math.gcd(x0, q) == 1:
            total += class_count(x0, X) * acc[-a * x0 % q]
    return total


# moduli spanning several blocks
MULTI_BLOCK = [2**14 - 1, 2**14 + 1, 30030, 60060, 90090, 3 * 2**14 + 7]
# remainders floor(side) mod q just below, at and just above block edges
EDGES = [cg._BLOCK - 1, cg._BLOCK, cg._BLOCK + 1, 2 * cg._BLOCK, 2 * cg._BLOCK + 1, 1, 0]


def _multi_block_cases():
    # three (rx, ry) pairs of edges per modulus, each pair a different one
    for i, q in enumerate(MULTI_BLOCK):
        for j in range(3):
            yield q, EDGES[(i + j) % len(EDGES)], EDGES[(i + 2 * j + 1) % len(EDGES)]
    yield 100_003, 3 * cg._BLOCK, 3 * cg._BLOCK + 1  # a prime near 1e5


@pytest.mark.parametrize("q, rx, ry", list(_multi_block_cases()))
def test_count_exact_matches_loop_across_blocks(q, rx, ry):
    a, b = -1231, -19  # prime to every q above
    # floor(X) = 2q + rx and floor(Y) = 5q + ry (remainders reduced mod q)
    X = 2 * q + rx % q + Fraction(2, 3)
    Y = 5 * q + ry % q + Fraction(6, 7)
    exact = _count(a, b, q, X, Y)
    assert type(exact) is int
    assert exact == count_exact_loop(a, b, q, X, Y)


def test_count_exact_huge_box_is_exact():
    # sides far beyond float range, where scan_boxes refuses the main term
    box = (3, -5, 97, Fraction(10**400 + 1, 3), 10**330 + 7)
    assert _huge_count(*box) == count_exact_loop(*box)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q", [1_000_003, 4_000_037])
def test_box_count_peak_is_one_block(q):
    # README "Conventions": the box count holds no table, only the
    # temporaries of one block of _BLOCK residues, under 40 bytes each, on
    # both sides of the int64 guard (q about 2.6e6)
    primes, phi, k = _primes(q), oracles.phi(q), cg.linear_class(3, 5, q)
    # the walk of the box q + q // 3 by q + q // 5
    peak = _traced_peak(lambda: cg._class_hits(k, q, q // 3, 1, q // 5, primes, phi))
    assert peak <= 40 * cg._BLOCK, peak


@pytest.mark.parametrize("classes, q", [(4, 1_000_003), (100, 1_000_003), (100, 30030)])
def test_class_sums_peak_matches_the_readme_formula(classes, q):
    # README "Conventions": blocks of at most n units y, each taken for r =
    # min(classes, block_rows(n)) classes at a time; at most four (r x n)
    # int64 temporaries, six int64 vectors of _BLOCK entries and 100 bytes a
    # class, and at least three of those temporaries at once
    J = cg.Interval(0, 3 * cg._BLOCK)
    n = max(len(y) for y in cg._units(1, 3 * cg._BLOCK, _primes(q)))
    r = min(classes, arith.block_rows(n))
    bounds = cg.BoundarySpec(0, 1, 10**6, 2)
    peak = _traced_peak(lambda: cg.class_sums({q: range(1, classes + 1)}, bounds, J))
    assert 3 * 8 * r * n <= peak <= 8 * (4 * r * n + 6 * cg._BLOCK) + 100 * classes, peak


# ---- the unit sieve and the closed-form unit count ----

def _primes(q):
    return list(oracles.prime_factors(q))


@pytest.mark.parametrize("q, lo, hi", [
    (1, -5, 9),
    (30030, -3 * cg._BLOCK - 17, -cg._BLOCK + 3),
    (30030, -40, 40),
    (510510, cg._BLOCK - 2, 3 * cg._BLOCK + 2),
    (2 * 3**4 * 7**2, 1, 5 * cg._BLOCK),
    (9973, 9973, 9973),
    (15, 7, 6),
])
def test_units_match_gcd_filter(q, lo, hi):
    blocks = list(cg._units(lo, hi, _primes(q)))
    assert all(y.dtype == np.int64 for y in blocks)
    got = [int(v) for y in blocks for v in y]
    assert got == [y for y in range(lo, hi + 1) if math.gcd(y, q) == 1]
    # one block per _BLOCK span of [lo, hi], the last possibly empty of units
    assert len(blocks) == len(range(lo, hi + 1, cg._BLOCK))


def test_units_object_blocks_beyond_int64():
    q = 2 * 3 * 5 * 7 * 11 * 13
    lo = 2**63 + 2**40 - 9
    hi = lo + cg._BLOCK + 30
    blocks = list(cg._units(lo, hi, _primes(q), object))
    assert all(y.dtype == object for y in blocks)
    got = [v for y in blocks for v in y.tolist()]
    assert all(type(v) is int for v in got)
    assert got == [y for y in range(lo, hi + 1) if math.gcd(y, q) == 1]


@pytest.mark.parametrize("q", [1, 2, 12, 30030, 2**14 + 1, 510510, 223092870])
def test_unit_count_matches_direct_count(q):
    primes = _primes(q)
    if q == 223092870:
        assert len(primes) == 9  # 2 * 3 * ... * 23, the most primes of any q < 2^31
    for t in sorted({0, 1, 2, 29, 30, 31, 1000, 30029, 30030, 30031, 10**5} | {min(q, 10**5)}):
        direct = sum(1 for y in range(1, t + 1) if math.gcd(y, q) == 1)
        assert cg._unit_count(t, primes) == direct, (q, t)
    assert cg._unit_count(q, primes) == oracles.phi(q)
    assert type(cg._unit_count(q, primes)) is int


@pytest.mark.parametrize("q", [30030, 2 * 30030, 7 * 30030, 510510])
def test_count_exact_zero_remainders_match_loop(q):
    # floor(X) or floor(Y) a multiple of q: when rx = 0 no y is walked
    for X, Y in ((3 * q, 2 * q + 12345),  # rx = 0
                 (q + 12345, 4 * q),  # ry = 0
                 (2 * q, q)):  # rx = ry = 0
        exact = _count(-1, 19, q, X, Y)
        assert type(exact) is int
        assert exact == count_exact_loop(-1, 19, q, X, Y), (X, Y)


# ---- x = c_y solved per unit y: the cases of the box split ----

LINEAR_CASES = {
    "Qx = Qy = 0": (3, 5, 101, Fraction(57, 2), Fraction(88, 3)),
    "Qx = 0": (3, 5, 101, Fraction(57, 2), 3 * 101 + 40),
    "Qy = 0": (3, 5, 101, 4 * 101 + 7, Fraction(99, 4)),
    "rx = 0, Qy = 0": (3, 5, 101, 101, Fraction(99, 4)),
    "ry = 0": (-7, 11, 2**14 + 1, 2 * (2**14 + 1) + 5, 3 * (2**14 + 1)),
    "rx = ry = 0": (-7, 11, 2**14 + 1, 2**14 + 1, 2 * (2**14 + 1)),
    "q = 1": (4, -9, 1, Fraction(7, 2), Fraction(29, 4)),
    "q = 1, X = 1": (-4, 9, 1, 1, 13),
    "q = 2": (1, 1, 2, Fraction(15, 2), 9),
    "q = 2, negative": (-3, -5, 2, 1, Fraction(11, 3)),
    "negative a": (-1231, 19, 30031, 2 * 30031 + 17, 30031 + 2**14 + 1),
    "negative b": (1231, -19, 30031, 30031 - 1, 4 * 30031 + 2**14),
    "negative a and b": (-1231, -19, 9973, Fraction(3 * 9973 + 1, 2), Fraction(50001, 7)),
    "rx = 2^14, ry = 2^14 - 1": (-5, 7, 30031, 2 * 30031 + 2**14, 30031 + 2**14 - 1),
    "q = 12": (5, -7, 12, 30, Fraction(47, 2)),
    "Y = 7q/3": (5, -7, 9973, 9973 + 2**13, Fraction(7 * 9973, 3)),
    "rx = q - 1, q = 2^14 + 1": (-3, -7, 2**14 + 1, 2**14, 2**15 + 7),
    "rx = q - 1, q = 30030": (17, -19, 30030, 30030 + 29999, 2 * 30030 + 1),
}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_count_exact_linear_matches_loop(case):
    box = LINEAR_CASES[case]
    exact = _count(*box)
    assert type(exact) is int
    assert exact == count_exact_loop(*box)
    if box[3] * box[4] <= 10**5:
        assert exact == oracles.count_exact_naive(*box)


def test_count_exact_linear_huge_box_is_exact():
    box = (-3, 5, 9973, Fraction(10**40 + 1, 3), Fraction(10**39 + 7, 11))
    assert _count(*box) == count_exact_loop(*box)


def _one_class(a, b, q, bounds, J):
    # (count, main) of class_sums for the one class of a x + b y^2 = 0 (mod q)
    (count,), main = cg.class_sums({q: [cg.linear_class(a, b, q)]}, bounds, J)[q]
    return count, main


@pytest.mark.parametrize("q", [300007, 300300, 299999])
def test_count_exact_linear_matches_boundary_walk(q):
    # class_sums counts per y by floor division at its class c_y, with
    # no split of the box into T(s, t); it shares only _units and _x_classes
    a, b = -1231, 23
    X = Fraction(10**12 + 1, 3)
    for Y in (q, Fraction(2 * q, 3), q - Fraction(1, 2), Fraction(q, 2**14)):
        walk = _one_class(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))[0]
        assert _count(a, b, q, X, Y) == walk, Y


# ---- the half walk: units y <= q/2 and their mirrors q - y ----

def _mirror_cuts(q):
    # ry at the cuts of the half walk: none, the last low y, the last walked
    # y, the first mirror and the last unit
    return sorted({0, (q - 1) // 2, q // 2, (q // 2 + 1) % q, q - 1})


def _unit_near(n, q):
    # the first n, n + 1, ... prime to q, kept nonzero
    while n == 0 or math.gcd(n, q) != 1:
        n += 1
    return n


# q = 1, q = 2, even composites (2 * 3 * 5 * 7 and beyond), prime powers
HALF_WALK_Q = [1, 2, 3, 4, 6, 8, 9, 12, 16, 25, 27, 30, 49, 64, 81, 121, 125, 128, 210, 243,
               256, 343, 360, 361, 384, 390, 397, 400]


def test_count_exact_half_walk_matches_naive_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    frac = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(5, 6)])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(data=st.data(), a=st.integers(-999, 999), b=st.integers(-999, 999),
                      Qx=st.integers(0, 3), Qy=st.integers(0, 3), fx=frac, fy=frac)
    def check(data, a, b, Qx, Qy, fx, fy):
        q = data.draw(st.one_of(st.sampled_from(HALF_WALK_Q), st.integers(1, 400)), "q")
        ry = data.draw(st.one_of(st.sampled_from(_mirror_cuts(q)), st.integers(0, q - 1)), "ry")
        rx = data.draw(st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1)), "rx")
        # a box side below one period needs a remainder >= 1
        Qx, Qy = max(Qx, rx == 0), max(Qy, ry == 0)
        box = (_unit_near(a, q), _unit_near(b, q), q, Qx * q + rx + fx, Qy * q + ry + fy)
        exact = _count(*box)
        assert type(exact) is int
        assert exact == oracles.count_exact_naive(*box)

    check()


@pytest.mark.parametrize("q", [510510, 9699690, 299993])
def test_count_exact_half_walk_matches_full_walk(q):
    # two primorials (7 and 8 primes, the even composites with most units
    # struck) and a prime near 3e5, at every mirror cut of ry
    assert oracles.prime_factors(299993) == {299993: 1}
    a, b = -1231, 29
    for ry in _mirror_cuts(q):
        for rx in (q - 1, q // 3):
            box = (a, b, q, 2 * q + rx + Fraction(1, 2), 3 * q + ry)
            assert _count(*box) == oracles.count_exact_full_walk(*box), (ry, rx)


# ---- the box count by its short side: the y walk to the cut, or the x side ----

def _walked(monkeypatch):
    # the length of every block of units that _units yields
    lengths = []
    units = cg._units

    def spy(*args):
        for block in units(*args):
            lengths.append(len(block))
            yield block

    monkeypatch.setattr(cg, "_units", spy)
    return lengths


@pytest.mark.parametrize("X, Y, exact", [(1000, 2**31 - 2, 982), (2**30 - 1, 1000, 0)])
def test_short_side_walks_at_most_its_length(X, Y, exact, monkeypatch):
    # q = 2^31 - 1: X = 1000 counts the x <= 1000 (the y side stops at its
    # cut 0, the mirror of ry = q - 1), Y = 1000 walks the y <= 1000; the
    # half walk would take 2^30 residues
    lengths = _walked(monkeypatch)
    assert _count(1, 1, 2**31 - 1, X, Y) == exact
    assert sum(lengths) <= 1000
    # 982 by Euler's criterion, one pow per x: each -x has 1 + (-x/q) roots y
    q = 2**31 - 1
    assert exact == (sum(1 + (1 if pow(-x % q, (q - 1) // 2, q) == 1 else -1)
                         for x in range(1, 1001)) if Y > q // 2 else 0)


# odd parts: 1, primes, prime powers and products of up to three primes, so
# that q = 2^j m has 2-adic part 1, 2, 4, 8 or 16 on top of each
_ODD_PARTS = [1, 3, 5, 7, 9, 11, 13, 25, 27, 49, 97, 105, 121, 125, 143, 221, 243, 343, 1001,
              1009, 2021, 3003, 4999]


def test_complement_side_counts_the_residues_above_rx(monkeypatch):
    # q = 2^31 - 1, rx = q - 1000: G(q) is phi(q) less the roots over the
    # 999 units x in (rx, q), and the y side stops at its cut 0, the mirror
    # of ry = q - 1; the x side over [1, rx] or the half walk would take
    # 2^30 residues or more.  k = -1 and q = 3 (mod 4), so each x = -j has
    # 1 + (j/q) roots y: 999 + 509 - 490 over the j < 1000, 509 of them
    # quadratic residues by Euler's criterion
    q = 2**31 - 1
    lengths = _walked(monkeypatch)
    assert _count(1, 1, q, q - 1000, q - 1) == 2147482628 == q - 1 - 2 * 509
    assert sum(lengths) <= 1000
    assert sum(pow(j, (q - 1) // 2, q) == 1 for j in range(1, 1000)) == 509


def test_box_count_on_both_sides_of_each_switch_property():
    # every switch of _class_hits on the same box: ry against q/2 (the
    # mirror), Qy = 0 or not (whether G(q) is needed), and the x side
    # against the walk, each forced both ways and left to _x_side_cost, the
    # x side over its shorter range: the units x <= rx, or those above rx
    # when rx > q/2; against the double loop on small boxes and the full
    # walk otherwise
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    frac = st.sampled_from([Fraction(0), Fraction(2, 5)])

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data(), twos=st.integers(0, 4), odd=st.sampled_from(_ODD_PARTS),
                      a=st.integers(-999, 999), b=st.integers(-999, 999),
                      Qx=st.integers(0, 2), Qy=st.integers(0, 2), fx=frac, fy=frac,
                      side=st.sampled_from(["x", "walk", "cost"]))
    def check(data, twos, odd, a, b, Qx, Qy, fx, fy, side):
        q = odd << twos
        hypothesis.assume(q > 2)
        rx = data.draw(st.integers(1, min(q - 1, 60)) | st.integers(1, q - 1), "rx")
        ry = data.draw(st.sampled_from(_mirror_cuts(q)) | st.integers(0, q - 1), "ry")
        Qy = max(Qy, ry == 0)
        box = (_unit_near(a, q), _unit_near(b, q), q, Qx * q + rx + fx, Qy * q + ry + fy)
        cost = {"x": lambda *args: -1, "walk": lambda *args: math.inf,
                "cost": cg._x_side_cost}[side]
        ranges = []
        root_count = cg._root_count

        def spy(k, q, lo, hi, primes):
            ranges.append((lo, hi))
            return root_count(k, q, lo, hi, primes)

        with mock.patch.object(cg, "_x_side_cost", cost), \
                mock.patch.object(cg, "_root_count", spy):
            exact = _count(*box)
        if side == "x" and (Qy or 2 * ry > q):
            assert ranges == [(1, rx) if 2 * rx < q else (rx + 1, q - 1)], box
        small = box[3] * box[4] <= 20000
        assert exact == (oracles.count_exact_naive(*box) if small
                         else oracles.count_exact_full_walk(*box)), box

    check()


@pytest.mark.parametrize("q", [2**31 - 1, 1_000_003, 4 * 1_000_003, 8 * 3 * 5 * 7 * 11 * 13 * 17,
                               2 * 999_983, 9_699_690])
def test_x_side_matches_the_walk_at_large_moduli(q, monkeypatch):
    # G(q) from the x side against the half walk, for rx from 1 to past one
    # block, at moduli of each 2-adic shape whose odd primes take squares
    # tables (p <= 2^14), Euler's criterion, or both
    a, b = -1231, 31  # prime to every q here
    for rx in (1, 97, cg._BLOCK + 5, 40_000):
        box = (a, b, q, 3 * q + rx, 2 * q + 7)
        monkeypatch.setattr(cg, "_x_side_cost", lambda *args: -1)
        x_side = _count(*box)
        if q < 10**7:
            monkeypatch.setattr(cg, "_x_side_cost", lambda *args: math.inf)
            assert x_side == _count(*box), (q, rx)
        else:  # a prime whose half walk takes seconds: the roots by pow
            k = cg.linear_class(a, b, q)
            roots = _roots_by_pow(k, q, rx)
            assert x_side == 3 * 2 * oracles.phi(q) + 3 * _unit_count_oracle(7, q) + 2 * roots + (
                sum(1 for y in range(1, 8) if math.gcd(y, q) == 1 and k * y * y % q <= rx))


def _unit_count_oracle(t, q):
    return sum(1 for y in range(1, t + 1) if math.gcd(y, q) == 1)


def _roots_by_pow(k, q, rx):
    # #{unit y < q : k y^2 mod q <= rx} for a prime q, from the unit x <= rx:
    # 1 + (x/k | q) roots each, the symbol by one pow
    kinv = pow(k, -1, q)
    return sum(1 + (1 if pow(x * kinv % q, (q - 1) // 2, q) == 1 else -1)
               for x in range(1, rx + 1))


def test_x_side_peak_is_one_block():
    # README "Conventions": the x side holds the squares tables of the odd
    # primes p <= 2^14 of q (p bytes each) and one block's
    # temporaries, under 48 bytes a residue (Euler's criterion keeps five
    # int64 vectors of a block alive at once)
    q = 3 * 5 * 16381 * 8  # 16381 is prime, below 2^14, and tabled
    primes = _primes(q)
    k = cg.linear_class(11, 13, q)
    peak = _traced_peak(lambda: cg._root_count(k, q, 1, 3 * cg._BLOCK, primes))
    assert peak <= 48 * cg._BLOCK + sum(p for p in primes if p > 2), peak
    peak = _traced_peak(lambda: cg._root_count(3, 2**31 - 1, 1, 3 * cg._BLOCK, [2**31 - 1]))
    assert peak <= 48 * cg._BLOCK, peak


def test_scan_boxes_refuses_nonpositive_modulus():
    for q in (0, -7):
        with pytest.raises(ValueError, match=f"got q = {q}"):
            cg.scan_boxes([5, q], 1, 1, None, None)


def test_count_exact_refuses_modulus_beyond_int32():
    with pytest.raises(ValueError, match="2147483648"):
        _one_box(1, 1, 2**31, 5, 5)
    with pytest.raises(ValueError, match="2147483659"):
        cg.scan_boxes([15, 2**31 + 11], 1, 1, None, None)


def test_count_exact_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    side = st.fractions(min_value=1, max_value=60, max_denominator=6)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(q=st.integers(1, 40), a=st.integers(-60, 60), b=st.integers(-60, 60),
                      X=side, Y=side)
    def check(q, a, b, X, Y):
        hypothesis.assume(a * b != 0 and math.gcd(a * b, q) == 1)
        exact = _count(a, b, q, X, Y)
        assert exact == oracles.count_exact_naive(a, b, q, X, Y)
        assert _one_class(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))[0] == exact

    check()


def test_naive_guard():
    with pytest.raises(ValueError):
        oracles.count_exact_naive(1, 1, 5, 10**5, 10**4)


# q = 1, the primes 2, 65521 and 2^31 - 1, and composites of many divisors (tau up to 1600)
_FORM_Q = [1, 2, 2**31 - 1, 2095133040, 735134400, 1396755360, 720720, 65521]


def _closed_form_errors(boxes):
    # (main term, envelope) relative errors of the box reports' float forms,
    # in units of 2^-53, against the exact Fraction phi(q) X Y / q^2 and a
    # 40-digit mpmath envelope X/q tau + L sigma (Y/sqrt(q) tau + sqrt(q) L),
    # L = log(q + 1), with phi, tau and sigma_{-1/2} from the oracles
    import mpmath  # sympy's dependency, so installed with the test extra

    columns = cg._moduli([q for q, _, _ in boxes])[2]
    main, env = cg._closed_forms(boxes, columns)
    out = []
    with mpmath.workdps(40):
        for (q, X, Y), m, v in zip(boxes, main.tolist(), env.tolist()):
            exact = Fraction(oracles.phi(q)) * X * Y / q**2
            tau, sigma = oracles.tau(q), oracles.sigma_half_inv_mp(q)
            x, y = (mpmath.mpf(s.numerator) / s.denominator for s in (X, Y))
            root, L = mpmath.sqrt(q), mpmath.log(q + 1)
            want = x / q * tau + L * sigma * (y / root * tau + root * L)
            out.append((float(abs(Fraction(m) - exact) / exact) * 2.0**53,
                        float(abs(v - want) / want) * 2.0**53, tau))
    return out


def test_main_term_and_envelope_within_stated_bounds_of_exact_values():
    # README, Conventions: the main term within 6.001 2^-53 of phi(q) X Y / q^2
    # and the envelope within (tau(q) + 13) 2^-53 of its exact value, both
    # relative, for q < 2^31 and sides in [1, 10^140]
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    q = st.one_of(st.sampled_from(_FORM_Q), st.integers(1, 2**31 - 1),
                  st.integers(1, 2**31 - 2).map(sympy.nextprime))
    side = st.one_of(st.fractions(min_value=1, max_value=10**6, max_denominator=10**6),
                     st.fractions(min_value=1, max_value=10**140, max_denominator=10**20))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(boxes=st.lists(st.tuples(q, side, side), min_size=1, max_size=4))
    def check(boxes):
        for (main_err, env_err, tau), box in zip(_closed_form_errors(boxes), boxes):
            assert main_err <= 6.001, box
            assert env_err <= tau + 13, box

    check()


def test_main_term_and_envelope_frozen():
    rep = _one_box(1, 1, 5, 10, 10)
    assert rep.main_term == pytest.approx(16.0)
    assert rep.envelope == pytest.approx(37.58210085976404, rel=1e-12)
    rep4 = _one_box(1, 1, 4, 4, 4)
    assert rep4.envelope == pytest.approx(35.74730297018444, rel=1e-12)


def test_box_report_exact_prime_square():
    # X = Y = q prime, a = b = 1: exact count equals the main term
    rep = _one_box(1, 1, 13, 13, 13)
    assert rep.exact == 12
    assert rep.main_term == pytest.approx(12.0)
    assert rep.ratio == pytest.approx(0.0)


def test_scan_boxes_skips_bad_instances(capsys):
    # scan_boxes skips a modulus not prime to a b and writes nothing;
    # count-scan names each skipped modulus on stderr, in input order
    reps = cg.scan_boxes([5, 6, 9], 3, 1, None, None)
    assert [r.q for r in reps] == [5]
    assert capsys.readouterr() == ("", "")
    assert cli.main(["count-scan", "--q-list", "5,6,9", "--a", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("instances = 1 ")
    assert err == ("skipping q=6: a*b must be coprime to q\n"
                   "skipping q=9: a*b must be coprime to q\n")


@pytest.mark.parametrize("kwargs, message", [
    (dict(a=0), "coefficients a, b must be nonzero"),
    (dict(b=0), "coefficients a, b must be nonzero"),
    (dict(X=Fraction(1, 2)), "box sides X, Y must be >= 1"),
    (dict(Y=0), "box sides X, Y must be >= 1"),
])
def test_scan_boxes_refuses_bad_values_before_any_count(kwargs, message, monkeypatch):
    def no_work(*args):
        raise AssertionError("a box was counted before the values were checked")

    monkeypatch.setattr(cg, "_unit_count", no_work)
    monkeypatch.setattr(cg, "_class_hits", no_work)
    with pytest.raises(ValueError, match=message):
        cg.scan_boxes([5, 7], **{"a": 1, "b": 1, "X": None, "Y": None, **kwargs})


def test_scan_boxes_takes_plain_values():
    # None is the modulus itself; a fixed side is the same for every q
    reps = cg.scan_boxes([5, 7], 2, -3, None, Fraction(7, 2))
    assert [(r.X, r.Y) for r in reps] == [(5, Fraction(7, 2)), (7, Fraction(7, 2))]
    assert [r.exact for r in reps] == [
        oracles.count_exact_naive(2, -3, q, q, Fraction(7, 2))
        for q in (5, 7)]


def test_unit_count_of_q_is_phi():
    # the box count takes T(q, q) as phi(q): the inclusion-exclusion it replaced agrees
    qs = np.arange(1, 5000)
    start, p, e = arith.factor_array(qs)
    phis = arith.divisor_functions(qs, start, p, e)[0].tolist()
    bounds, ps = start.tolist(), p.tolist()
    for q, lo, hi, phi in zip(qs.tolist(), bounds, bounds[1:], phis):
        assert cg._unit_count(q, ps[lo:hi]) == phi, q


def test_scan_boxes_matches_one_box_scans_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    side = st.none() | st.fractions(min_value=1, max_value=10**6, max_denominator=50)
    coefficient = st.integers(-10**4, 10**4).filter(bool)
    tau, sigma, L, sqrt = oracles.tau, oracles.sigma_half_inv, arith.log1n, math.sqrt

    # primes, squarefree and square-heavy moduli alike (tau 2, 64 and 81 below)
    modulus = st.integers(1, 10**5 - 1) | st.sampled_from([99991, 30030, 44100])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(qs=st.lists(modulus, min_size=1, max_size=3),
                      a=coefficient, b=coefficient, X=side, Y=side)
    def check(qs, a, b, X, Y):
        reps = cg.scan_boxes(qs, a, b, X, Y)
        kept = [q for q in qs if math.gcd(a * b, q) == 1]
        assert [r.q for r in reps] == kept
        for q, rep in zip(kept, reps):
            box = (a, b, q, Fraction(q if X is None else X), Fraction(q if Y is None else Y))
            one = _one_box(*box)
            assert rep[:7] == one[:7] == (a, b, q, 1, 2, *box[3:])
            assert rep.exact == one.exact == oracles.count_exact_full_walk(*box)
            # the forms as literal expressions of the trial-loop values, left to right
            x, y = float(box[3]), float(box[4])
            main = oracles.phi(q) * x * y / q**2
            env = x / q * tau(q) + L(q) * sigma(q) * (y / sqrt(q) * tau(q) + sqrt(q) * L(q))
            for got in (rep, one):
                assert [v.hex() for v in got[8:11]] == [
                    main.hex(), env.hex(), (abs(rep.exact - main) / env).hex()]

    check()


def _literal_forms(q, X, Y):
    # main term, envelope: the scalar expressions, left to right, of the
    # divisor functions by the trial loops of tests/oracles
    x, y = float(X), float(Y)
    sigma = oracles.sigma_half_inv(q)
    L, tau, root = arith.log1n(q), oracles.tau(q), math.sqrt(q)
    main = oracles.phi(q) * x * y / q**2
    return main, x / q * tau + L * sigma * (y / root * tau + root * L)


# a box (q, X, Y) that passes the count bound but whose main term overflows a float
_OVERFLOWING = (1000000007, Fraction(10**150), Fraction(10**150))


def test_batch_reports_match_oracles_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # q = 1, primes, squarefree and square-heavy moduli, small and large
    modulus = (st.integers(1, 200) | st.integers(1, 10**5)
               | st.sampled_from([1, 2, 97, 99991, 30030, 44100, 2**10, 3**7 * 5**2]))
    side = st.none() | st.fractions(min_value=1, max_value=400, max_denominator=7)
    coefficient = st.integers(-10**4, 10**4).filter(bool)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(base=st.lists(modulus, min_size=1, max_size=20),
                      repeats=st.lists(st.integers(0, 19), max_size=20),
                      a=coefficient, b=coefficient, X=side, Y=side)
    def check(base, repeats, a, b, X, Y):
        qs = base + [base[i % len(base)] for i in repeats]  # up to 40, with repeats
        boxes = [(q, Fraction(q if X is None else X), Fraction(q if Y is None else Y))
                 for q in qs if math.gcd(a * b, q) == 1]
        hypothesis.assume(boxes)
        reps = cg._reports(a, b, boxes)
        assert [r[:7] for r in reps] == [(a, b, q, 1, 2, X, Y) for q, X, Y in boxes]
        for box, rep in zip(boxes, reps):
            small = box[0] <= 200 and box[1] * box[2] <= 4000
            assert rep.exact == (oracles.count_exact_naive(a, b, *box) if small
                                 else oracles.count_exact_full_walk(a, b, *box)), box
            main, env = _literal_forms(*box)
            assert [v.hex() for v in rep[8:11]] == [
                main.hex(), env.hex(), (abs(rep.exact - main) / env).hex()]
        # a non-finite middle box is named before any box is counted
        middle = len(boxes) // 2
        counted = AssertionError("counted")
        with mock.patch.object(cg, "_unit_count", side_effect=counted), \
                mock.patch.object(cg, "_class_hits", side_effect=counted):
            with pytest.raises(ValueError, match="at q = 1000000007: main term inf"):
                cg._reports(a, b, boxes[:middle] + [_OVERFLOWING] + boxes[middle:])

    check()


def test_batch_reports_walk_only_boxes_with_a_remainder(monkeypatch):
    # X = q and X = 2q leave rx = 0: closed form; X = 10 leaves rx = 10
    walked = []
    hits = cg._class_hits
    monkeypatch.setattr(cg, "_class_hits", lambda *args: walked.append(args[1]) or hits(*args))
    reps = cg.scan_boxes([11, 13, 17], 1, 1, None, 30)
    reps += [_one_box(1, 1, 19, 38, 30)]
    assert walked == []
    reps += cg.scan_boxes([23, 29], 1, 1, 10, 30)
    assert walked == [23, 29]
    for rep in reps:
        assert rep.exact == oracles.count_exact_naive(rep.a, rep.b, rep.q, rep.X, rep.Y)


def test_q_sided_boxes_are_the_fixed_boxes_of_side_q_property():
    # a side left None is held as the int q, a fixed side as a Fraction; the
    # reports agree field by field and write the same cells
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    modulus = (st.sampled_from([1, 2, 3, 4, 97, 30030, 44100, 99991, 2**10, 3**7 * 5**2])
               | st.integers(1, 10**5))
    coefficient = st.integers(-10**4, 10**4).filter(bool)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(qs=st.lists(modulus, min_size=1, max_size=8), a=coefficient, b=coefficient)
    def check(qs, a, b):
        reps = cg.scan_boxes(qs, a, b, None, None)
        kept = [q for q in qs if math.gcd(a * b, q) == 1]
        assert [r.q for r in reps] == kept
        for q, rep in zip(kept, reps):
            assert type(rep.X) is type(rep.Y) is int
            for side in (q, Fraction(q)):
                (fixed,) = cg.scan_boxes([q], a, b, side, side)
                assert type(fixed.X) is type(fixed.Y) is Fraction
                assert tuple(rep) == tuple(fixed)
                assert list(map(reports.fmt, rep)) == list(map(reports.fmt, fixed))

    check()


def test_closed_form_boxes_make_no_call(monkeypatch):
    # every box below has rx = ry = 0: its count is Qx Qy phi(q), with no
    # unit count, no class walk and no unit sieve
    def no_call(*args):
        raise AssertionError("a closed-form box made a call")

    for name in ("_unit_count", "_class_hits", "_units"):
        monkeypatch.setattr(cg, name, no_call)
    reps = cg.scan_boxes([1, 2, 3, 5, 6, 10, 15, 30], 7, -11, None, None)
    reps += cg.scan_boxes([1, 2, 3, 5, 6, 10, 15, 30], 7, -11, 60, Fraction(90))
    assert len(reps) == 16
    for rep in reps:
        assert rep.exact == oracles.count_exact_naive(rep.a, rep.b, rep.q, rep.X, rep.Y)


def test_count_pass_calls_only_for_its_remainders(monkeypatch):
    # ry > 0 alone takes T(q, ry) from _unit_count, rx > 0 alone the T(rx, .)
    # from _class_hits; either count is the naive one
    calls = []
    for name in ("_unit_count", "_class_hits"):
        real = getattr(cg, name)
        monkeypatch.setattr(cg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    rng = random.Random(4801)
    for _ in range(60):
        q = rng.choice([2, 3, 4, 9, 12, 25, 30, 49, 97])
        a, b = (rng.choice([n for n in range(-40, 41) if n and math.gcd(n, q) == 1])
                for _ in range(2))
        whole, part = q * rng.randint(1, 4), q * rng.randint(0, 3) + rng.randint(1, q - 1)
        for X, Y, called in ((whole, part, "_unit_count"), (part, whole, "_class_hits")):
            calls.clear()
            (rep,) = cg.scan_boxes([q], a, b, X, Y)
            assert calls == [called], (q, X, Y)
            assert rep.exact == oracles.count_exact_naive(a, b, q, X, Y), (a, b, q, X, Y)


def test_moduli_keep_input_order():
    # duplicate and unsorted moduli: each q's phi, primes and columns are
    # those of q alone
    qs = [97, 12, 1, 97, 30030, 2, 12, 44100, 1]
    primes, counts, columns = cg._moduli(qs)
    assert len(counts) == columns.shape[1] == len(qs)
    for q, (phi, lo, hi), column in zip(qs, counts, columns.T.tolist()):
        assert (phi, primes[lo:hi]) == (oracles.phi(q), _primes(q))
        assert column == cg._moduli([q])[2][:, 0].tolist()
        assert column[:3] == [q, q * q, phi]


def _classes_oracle(y, ks, q):
    return [[k * int(v) ** 2 % q for v in y] for k in ks]


def _count_reductions(monkeypatch):
    # the moduli of every floor_mod call congruence makes from here on
    reductions = []
    reduce = cg.floor_mod
    monkeypatch.setattr(cg, "floor_mod", lambda x, q: reductions.append(q) or reduce(x, q))
    return reductions


def test_x_classes_on_both_sides_of_the_int64_guard(monkeypatch):
    reductions = _count_reductions(monkeypatch)
    q = 2**31 - 1
    k = q - 2
    # the largest y with k y^2 < 2^62 takes one reduction, the next one two
    top = math.isqrt((2**62 - 1) // k)
    assert k * top**2 < 2**62 <= k * (top + 1) ** 2
    for y_max, wide in [(top, False), (top + 1, True)]:
        y = np.array([1, 2, y_max // 3, y_max - 1, y_max], dtype=np.int64)
        for kv, ks in [(k, [k]), (np.array([[3], [k]], dtype=np.int64), [3, k])]:
            reductions.clear()
            got = cg._x_classes(y, kv, q)
            assert np.atleast_2d(got).tolist() == _classes_oracle(y, ks, q), y_max
            assert reductions == [q] * (1 + wide), y_max
    # object blocks: Python ints, on both sides of the guard
    big = 2**61 - 1
    for y_max in (7, 2**20, big - 1):
        y = np.array([1, 5, y_max], dtype=object)
        for kv, ks in [(big - 2, [big - 2]), (np.array([[1], [9]], dtype=object), [1, 9])]:
            reductions.clear()
            got = cg._x_classes(y, kv, big)
            assert np.atleast_2d(got).tolist() == _classes_oracle(y, ks, big)
            wide = max(ks) * y_max**2 >= 2**62
            assert reductions == [big] * (1 + wide), (y_max, ks)


def test_class_sums_straddle_the_int64_guard(monkeypatch):
    # q^3 > 2^62 > q (q - 1)^2 / 4: blocks of small residues take one
    # reduction, the blocks past isqrt(2^62 / (q - 1)) take two
    q = 2_000_003
    assert oracles.prime_factors(q) == {q: 1}
    threshold = math.isqrt((2**62 - 1) // (q - 1))
    J = cg.Interval(threshold - 20_000, 40_000)
    bounds = cg.BoundarySpec(Fraction(-7, 3), Fraction(1, 5), 3 * q + Fraction(1, 7), 2)
    assert _block_dtype(q, bounds, J) == np.int64
    reductions = _count_reductions(monkeypatch)
    ks = [q - 1, 5]
    counts, main = cg.class_sums({q: ks}, bounds, J)[q]
    # every block reduces its y once, then its classes once, or twice past the guard
    blocks = len(range(J.integers().start, J.integers().stop, cg._BLOCK))
    assert 2 * blocks < len(reductions) < 3 * blocks
    # the loop oracle's class -a^{-1} b y^2 is k y^2 for a = -1, b = k
    assert counts == [count_boundaries_loop(-1, k, q, bounds, J) for k in ks]
    assert main == main_term_boundaries_loop(-1, 1, q, bounds, J)


# ---- boundary counting ----

def test_interval():
    assert list(cg.Interval(0, 6).integers()) == [1, 2, 3, 4, 5, 6]
    assert list(cg.Interval(Fraction(1, 2), Fraction(3, 2)).integers()) == [1, 2]
    with pytest.raises(ValueError):
        cg.Interval(3, 0)


def test_box_bounds_reduce_to_box_count():
    rng = random.Random(99)
    done = 0
    while done < 20:
        q = rng.randint(1, 40)
        a = rng.randint(-10, 10)
        b = rng.randint(-10, 10)
        if a == 0 or b == 0 or math.gcd(a * b, q) != 1:
            continue
        X = rng.randint(1, 60)
        Y = rng.randint(1, 60)
        n = _one_class(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))[0]
        assert n == _count(a, b, q, X, Y)
        done += 1


def test_triangle_region():
    # x + y^2 = 0 (mod 3), 0 < x <= y, y <= 6: solutions counted by hand
    bounds = cg.BoundarySpec(0, 0, 0, 1)
    assert _one_class(1, 1, 3, bounds, cg.Interval(0, 6)) == (4, Fraction(4))


def test_empty_and_invalid_boundaries():
    flat = cg.BoundarySpec(5, 0, 5, 0)
    assert _one_class(1, 1, 5, flat, cg.Interval(0, 10))[0] == 0
    with pytest.raises(ValueError):
        _one_class(1, 1, 5, cg.BoundarySpec(3, 0, 1, 0), cg.Interval(0, 10))
    with pytest.raises(ValueError):
        _one_class(2, 1, 4, cg.box_bounds(5), cg.Interval(0, 5))


@pytest.mark.parametrize("args, message", [
    ((0, 1, 1, cg.box_bounds(5), cg.Interval(0, 10)), "coefficients a, b must be nonzero"),
    ((1, 1, 5, cg.BoundarySpec(3, 0, 1, 0), cg.Interval(0, 10)), "upper boundary below"),
    ((1, 1, 0, cg.box_bounds(5), cg.Interval(0, 10)), "q must be a positive integer"),
], ids=["a = 0", "crossed boundaries", "q = 0"])
def test_main_term_boundaries_refuses_what_count_refuses(args, message):
    with pytest.raises(ValueError, match=message):
        _one_class(*args)


def test_boundary_spec_is_four_rationals_with_a_derived_slope_bound():
    # the constant spec (0, 0, 12, 0) is the box (0, 12]
    spec = cg.BoundarySpec(0, 0, 12, 0)
    assert spec == cg.box_bounds(12) and spec.derivative_bound == 0
    exact = _one_class(1, 1, 7, cg.box_bounds(12), cg.Interval(0, 9))[0]
    assert _one_class(1, 1, 7, spec, cg.Interval(0, 9))[0] == exact
    sloped = cg.BoundarySpec(Fraction(-3), Fraction(-7, 2), 0.5, 2)
    assert sloped.derivative_bound == Fraction(7, 2)
    assert (sloped.lower(2), sloped.upper(2)) == (-10, Fraction(9, 2))
    assert all(type(x) is Fraction for x in (sloped.lo_intercept, sloped.hi_intercept,
                                              sloped.lo_slope, sloped.hi_slope))
    with pytest.raises(AttributeError):
        sloped.derivative_bound = 0
    with pytest.raises(TypeError):
        cg.BoundarySpec(0, 0, 12, 0, Fraction(0))


def _delta_H(H, bounds, J, q):
    # Delta_H of boundaries bounds over J at the modulus scale q = tW
    fam = av.AveragedFamily(l=1, m=1, r=1, s=1, t=q, U=1, V=1, W=1, J=J, bounds=bounds,
                            scheme="all-ones")
    return av.delta_H(fam, H)


def test_boundary_report_distortion_reads_the_slopes():
    # equal slopes of 5 on J = (0, 1000]: T = 5, not 0, so Delta_H = 1 + H T Y / q
    bounds = cg.BoundarySpec(0, 5, 100, 5)
    assert _delta_H(8, bounds, cg.Interval(0, 1000), 101) == 1 + 8 * 5 * 1000 / 101


# ---- the per-y loop as an oracle for the boundary block kernels ----

def count_boundaries_loop(a, b, q, bounds, J):
    """The per-y loop the boundary count used to be: one gcd and two Fraction
    floor divisions per y."""
    ainv = pow(a, -1, q) if q > 1 else 0
    total = 0
    for y in J.integers():
        if math.gcd(y, q) != 1:
            continue
        c = (-ainv * b * y * y) % q
        lo = Fraction(bounds.lower(y))
        hi = Fraction(bounds.upper(y))
        n = (hi - c) // q - (lo - c) // q
        if n > 0:
            total += n
    return total


def main_term_boundaries_loop(a, b, q, bounds, J):
    acc = Fraction(0)
    for y in J.integers():
        if math.gcd(y, q) == 1:
            acc += Fraction(bounds.upper(y)) - Fraction(bounds.lower(y))
    return acc / q


def _check_boundary_kernels(a, b, q, bounds, J):
    n, mt = _one_class(a, b, q, bounds, J)
    assert type(n) is int
    assert n == count_boundaries_loop(a, b, q, bounds, J)
    assert type(mt) is Fraction
    assert mt == main_term_boundaries_loop(a, b, q, bounds, J)


def test_class_sums_of_a_family_match_one_modulus_calls(monkeypatch):
    # a family of moduli (1, a prime, a prime power, composites, a power of
    # two, one with no class) against one call per modulus and the per-y
    # loop, with a class repeated within a modulus and a modulus given
    # again in a second family: one factor_array for the whole family, and
    # every q checked before any walk
    bounds = cg.BoundarySpec(Fraction(-7, 3), Fraction(1, 5), 40, Fraction(2, 3))
    J = cg.Interval(Fraction(-5, 2), 300)
    family = {35: [1, 2, 3, 2], 1: [0, 5], 97: [5, 96], 64: [3, 5, 7], 2 * 3**4 * 7: [11],
              30030: [], 9: [2, 4, 2]}
    singles = {q: cg.class_sums({q: ks}, bounds, J)[q] for q, ks in family.items()}
    calls = []
    factor_array = cg.factor_array
    monkeypatch.setattr(cg, "factor_array", lambda n: calls.append(list(n)) or factor_array(n))
    sums = cg.class_sums(family, bounds, J)
    assert list(sums) == list(family) and sums == singles
    assert calls == [list(family)]
    # the loop's class -a^{-1} b y^2 is k y^2 for a = -1, b = k
    assert sums == {q: ([count_boundaries_loop(-1, k, q, bounds, J) for k in ks],
                        main_term_boundaries_loop(-1, 1, q, bounds, J))
                    for q, ks in family.items()}
    again = {97: family[97], 35: family[35]}
    assert cg.class_sums(again, bounds, J) == {q: singles[q] for q in again}
    walks = []
    monkeypatch.setattr(cg, "_numerators", lambda *args: walks.append(args))
    with pytest.raises(ValueError, match=r"1 <= q < 2\^31, got q = 0"):
        cg.class_sums({35: [1], 97: [2], 0: [1]}, bounds, J)
    assert walks == []


def _block_dtype(q, bounds, J):
    _, blocks = cg._numerators(q, _primes(q), bounds, J)
    return next(blocks)[0].dtype


def test_boundary_kernels_match_loop_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.fractions(min_value=-80, max_value=80, max_denominator=12)
    slope = st.fractions(min_value=-6, max_value=6, max_denominator=9)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(q=st.integers(1, 60), a=st.integers(-60, 60), b=st.integers(-60, 60),
                      lo=st.tuples(value, slope), width=st.tuples(value, slope),
                      y0=value, length=st.fractions(min_value=Fraction(1, 5), max_value=90,
                                                    max_denominator=7))
    def check(q, a, b, lo, width, y0, length):
        hypothesis.assume(a * b != 0 and math.gcd(a * b, q) == 1)
        J = cg.Interval(y0, length)
        # hi = lo + width, shifted up so that hi >= lo at both ends of J
        gap = min(width[0] + width[1] * y for y in (J.y0, J.y0 + J.length))
        bounds = cg.BoundarySpec(lo[0], lo[1], lo[0] + width[0] - min(gap, 0),
                                 lo[1] + width[1])
        _check_boundary_kernels(a, b, q, bounds, J)

    check()


@pytest.mark.parametrize("q", [7, 9973, 2**14 + 1, 30030])
def test_boundary_kernels_across_blocks(q):
    # J holds about 3.3 blocks of y, starting just below a block edge
    J = cg.Interval(cg._BLOCK - 3 + Fraction(1, 2), Fraction(3 * cg._BLOCK + 5000, 1))
    bounds = cg.BoundarySpec(Fraction(-7, 3), Fraction(-1, 5), 4 * q + Fraction(1, 7),
                             Fraction(2, 11))
    assert _block_dtype(q, bounds, J) == np.int64
    _check_boundary_kernels(-1231, 19, q, bounds, J)


def test_boundary_kernels_object_path():
    J = cg.Interval(-40, 120)
    # a modulus beyond 2^31 is refused before the walk, as factor_array
    # gives the primes of q only below 2^31
    bounds = cg.BoundarySpec(Fraction(-10**19, 7), Fraction(3, 2), Fraction(10**20, 3), 5)
    for q in (2**61 - 1, 2**31, 0):
        with pytest.raises(ValueError, match=rf"1 <= q < 2\^31, got q = {q}"):
            cg.class_sums({q: [3]}, bounds, J)
    # a small modulus with numerators near 2^62
    bounds = cg.BoundarySpec(-(2**62), Fraction(-(10**17), 3), 2**62 + 5, 10**17)
    assert _block_dtype(97, bounds, J) == object
    _check_boundary_kernels(3, -5, 97, bounds, J)
    # y itself beyond int64, constant boundaries
    J = cg.Interval(2**70, 300)
    bounds = cg.box_bounds(Fraction(10**6, 7))
    assert _block_dtype(101, bounds, J) == object
    _check_boundary_kernels(2, 7, 101, bounds, J)


def test_boundary_kernels_int64_near_limit():
    # |A| + |B| max|y| + q D at the int64 limit, and one past it
    J = cg.Interval(0, 100)
    top = (1 << 62) // cg._BLOCK - 1
    for A, dtype in [(top - 100 * 50 - 97, np.int64), (top - 100 * 50 - 96, object)]:
        bounds = cg.BoundarySpec(-A, 50, A, -50)
        assert _block_dtype(97, bounds, J) == dtype
        _check_boundary_kernels(3, -5, 97, bounds, J)


def test_boundaries_on_a_half_integer_interval_match_loop():
    J = cg.Interval(Fraction(-5, 2), 70)
    _check_boundary_kernels(1, 1, 7, cg.BoundarySpec(0, 0, 12, 0), J)
    sloped = cg.BoundarySpec(-3, Fraction(-1, 4), 25.5, Fraction(1, 3))
    _check_boundary_kernels(5, -3, 11, sloped, J)
    _check_boundary_kernels(5, -3, 1, sloped, J)


def test_boundary_kernels_empty_interval():
    J = cg.Interval(Fraction(1, 3), Fraction(1, 3))  # no integer in (1/3, 2/3]
    bounds = cg.BoundarySpec(0, 1, 5, 1)
    assert _one_class(1, 1, 5, bounds, J) == (0, 0)


@pytest.mark.parametrize("q", [30030, 59838])
def test_envelopes_keep_their_float_bits(q):
    # the envelopes as literal expressions, multiplied left to right
    tau, sigma, L, sqrt = oracles.tau, oracles.sigma_half_inv, arith.log1n, math.sqrt
    X, Y = float(Fraction(q, 3)), 500.0
    env = X / q * tau(q) + L(q) * sigma(q) * (Y / sqrt(q) * tau(q) + sqrt(q) * L(q))
    assert _one_box(1, 1, q, Fraction(q, 3), 500).envelope == env


def test_boundary_report_box_has_no_distortion():
    assert _delta_H(5, cg.box_bounds(10), cg.Interval(0, 10), 5) == 1.0


# ---- bilinear sums ----

def _signs(*columns):
    # int64 sign columns, one per seed, from lists of +1 and -1
    return np.array(columns, dtype=np.int64).T


def test_bilinear_all_ones_small():
    # m in {1, 3}: inner sums are 3 and (1/3)+(2/3)+(3/3) = 1 - 1 + 0 = 0
    values = cg.bilinear_jacobi(_signs([1, 1]), _signs([1, 1, 1]))
    assert values.tolist() == [3]
    # two rows of a are m = 1, 3, so M = 3; three rows of b, N = 3
    assert cg.bilinear_bound(3, 3, 0.05) == pytest.approx(
        9**0.05 * (3 * math.sqrt(3) + math.sqrt(3) * 3))


def test_bilinear_trivial_m():
    values = cg.bilinear_jacobi(_signs([1]), _signs([1, 1, 1, 1]))
    assert values.tolist() == [4]  # (n/1) = 1 for all n


def test_bilinear_validation(monkeypatch):
    # each refused before the table is built
    def no_work(*args):
        raise AssertionError("the Jacobi table was built before the arguments were checked")

    monkeypatch.setattr(cg, "_jacobi_table", no_work)
    one = _signs([1])
    for a, b, message in [
        (np.ones((0, 1), dtype=np.int64), one, "nonempty arrays"),  # no m
        (one, np.ones((3, 0), dtype=np.int64), "nonempty arrays"),  # no seed
        ([1, 1], one, r"got \(2,\) and \(1, 1\)"),  # one-dimensional
        (_signs([1, 1], [1, -1]), _signs([1, 1]), r"got \(2, 2\) and \(2, 1\)"),
        (_signs([1, 2]), one, r"\+1 or -1"),
        (_signs([1, 0]), one, r"\+1 or -1"),
        (one, np.full((1, 1), -128, dtype=np.int8), r"\+1 or -1"),  # |-128| wraps
        (one, np.ones((1, 1)), r"\+1 or -1"),  # float entries
        (one, np.ones((1, 1), dtype=bool), r"\+1 or -1"),
    ]:
        with pytest.raises(ValueError, match=message):
            cg.bilinear_jacobi(a, b)
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        cg.bilinear_bound(1, 1, -0.1)


def test_bilinear_refuses_an_overflowing_epsilon_before_the_table(monkeypatch):
    def no_work(*args):
        raise AssertionError("the Jacobi table was built before epsilon was checked")

    monkeypatch.setattr(cg, "_jacobi_table", no_work)
    with pytest.raises(ValueError, match=r"epsilon is too large: 25 \*\* 1e\+300"):
        cg.bilinear_bound(5, 5, 1e300)
    # one cell: (MN)^eps = 1 for any epsilon, so nothing overflows
    assert cg.bilinear_bound(1, 1, 1e300) == 2.0
    # a negative epsilon is named first, an overflowing one only then
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        cg.bilinear_bound(5, 5, -1e300)


def test_distortion_of_box_and_sloped_bounds():
    J = cg.Interval(0, 12)
    assert _delta_H(50, cg.box_bounds(7), J, 5) == 1.0
    assert _delta_H(3, cg.BoundarySpec(0, Fraction(-1, 2), 9, Fraction(1, 4)), J, 8) == 3.25


def bilinear_loop(a_coeffs, b_coeffs):
    """The double loop bilinear_jacobi used to be, for one seed: one
    arith.jacobi call per (m, n), in Python ints."""
    total = 0
    for i, am in enumerate(a_coeffs):
        inner = 0
        for j, bn in enumerate(b_coeffs):
            inner += bn * arith.jacobi(j + 1, 2 * i + 1)
        total += am * inner
    return total


def test_jacobi_table_matches_jacobi():
    table = cg._jacobi_table(299, 300)
    assert table.dtype == np.int8 and table.shape == (150, 300)
    expected = [[arith.jacobi(n, m) for n in range(1, 301)] for m in range(1, 300, 2)]
    assert table.tolist() == expected
    for M, N in [(1, 1), (3, 1), (9, 4), (101, 300), (299, 7)]:
        assert (cg._jacobi_table(M, N) == table[: (M + 1) // 2, :N]).all()


def test_bilinear_matches_loop_for_signs():
    # several seeds in one call: column s is the loop over seed s's signs
    rng = random.Random(5)
    for rows, N, seeds in [(1, 1, 1), (2, 3, 4), (37, 41, 3), (150, 300, 5)]:
        a = [[rng.choice((-1, 1)) for _ in range(rows)] for _ in range(seeds)]
        b = [[rng.choice((-1, 1)) for _ in range(N)] for _ in range(seeds)]
        b[0] = [1] * N  # row m = 1 of T b is then N, past int8 at N = 300
        values = cg.bilinear_jacobi(_signs(*a), _signs(*b))
        assert values.dtype == np.int64 and values.shape == (seeds,)
        assert values.tolist() == [bilinear_loop(a_s, b_s) for a_s, b_s in zip(a, b)]
        # int8 signs are summed in int64, not in their own width
        narrow = cg.bilinear_jacobi(_signs(*a).astype(np.int8), _signs(*b).astype(np.int8))
        assert narrow.tolist() == values.tolist()


@pytest.mark.parametrize("M, N", [(511, 512), (2047, 1024)])
def test_bilinear_peak_matches_the_readme_formula(M, N):
    # README "Conventions": the int8 table of (M + 1)/2 N Jacobi symbols and
    # its int64 copy in the product, 9 bytes an entry, plus vectors of
    # length M or N (the least-prime-factor sieve, n, the coefficients)
    rows = (M + 1) // 2
    a, b = _signs([1] * rows), _signs([(-1) ** n for n in range(N)])
    peak = _traced_peak(lambda: cg.bilinear_jacobi(a, b))
    assert 9 * rows * N <= peak <= 9 * rows * N + 32 * (M + N), peak
