import logging
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from congruence_lab import arith
from congruence_lab import averaged as av
from congruence_lab import congruence as cg

import oracles


def test_box_fixtures():
    assert cg.count_exact(cg.CongruenceInstance(1, 1, 5, 10, 10)) == 16
    assert cg.count_exact(cg.CongruenceInstance(2, -1, 7, 7, 7)) == 6
    # q = 1: every pair counts
    assert cg.count_exact(cg.CongruenceInstance(1, 1, 1, 7, 9)) == 63


def test_instance_validation():
    with pytest.raises(ValueError):
        cg.CongruenceInstance(1, 1, 0, 5, 5)
    with pytest.raises(ValueError):
        cg.CongruenceInstance(0, 1, 5, 5, 5)
    with pytest.raises(ValueError):
        cg.CongruenceInstance(5, 1, 5, 5, 5)  # gcd(ab, q) > 1
    with pytest.raises(ValueError):
        cg.CongruenceInstance(1, 1, 5, Fraction(1, 2), 5)  # X < 1
    with pytest.raises(ValueError):
        cg.CongruenceInstance(1, 1, 5, 5, 5, e=0)


def test_count_matches_naive_seeded():
    rng = random.Random(20240)
    done = 0
    while done < 60:
        q = rng.randint(1, 50)
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        if a == 0 or b == 0 or math.gcd(a * b, q) != 1:
            continue
        e = rng.randint(1, 3)
        f = rng.randint(1, 3)
        X = rng.randint(1, 120)
        Y = rng.randint(1, 120)
        inst = cg.CongruenceInstance(a, b, q, X, Y, e, f)
        assert cg.count_exact(inst) == oracles.count_exact_naive(inst), inst
        done += 1


def test_count_with_fractional_box_sides():
    inst = cg.CongruenceInstance(1, 1, 5, Fraction(21, 2), Fraction(19, 2))
    naive = oracles.count_exact_naive(
        cg.CongruenceInstance(1, 1, 5, 10, 9)
    )  # only integer parts matter
    assert cg.count_exact(inst) == naive


# ---- the per-residue loop as an oracle for the block kernel ----

def count_exact_loop(inst):
    """The per-residue loop count_exact used to be: one gcd, one pow and one
    Fraction floor-division per residue."""
    a, b, q = inst.a, inst.b, inst.q
    if q == 1:
        return int(inst.X // 1) * int(inst.Y // 1)

    def class_count(c, bound):  # #{0 < x <= bound : x = c (mod q)}, c in [0, q)
        return (bound - c) // q - (0 - c) // q

    acc = [0] * q
    for y0 in range(1, q):
        if math.gcd(y0, q) == 1:
            acc[b * pow(y0, inst.f, q) % q] += class_count(y0, inst.Y)
    total = 0
    for x0 in range(1, q):
        if math.gcd(x0, q) == 1:
            total += class_count(x0, inst.X) * acc[-a * pow(x0, inst.e, q) % q]
    return total


EXPONENT_PAIRS = [(e, f) for e in range(1, 5) for f in range(1, 5)]
# moduli spanning several blocks; the first six share out all 16 exponent pairs
MULTI_BLOCK = [2**14 - 1, 2**14 + 1, 30030, 60060, 90090, 3 * 2**14 + 7]
# remainders floor(side) mod q just below, at and just above block edges
EDGES = [cg._BLOCK - 1, cg._BLOCK, cg._BLOCK + 1, 2 * cg._BLOCK, 2 * cg._BLOCK + 1, 1, 0]


def _multi_block_cases():
    for i, q in enumerate(MULTI_BLOCK):
        for j, (e, f) in enumerate(EXPONENT_PAIRS[i :: len(MULTI_BLOCK)]):
            yield q, e, f, EDGES[(i + j) % len(EDGES)], EDGES[(i + 2 * j + 1) % len(EDGES)]
    yield 100_003, 1, 2, 3 * cg._BLOCK, 3 * cg._BLOCK + 1  # a prime near 1e5


@pytest.mark.parametrize("q, e, f, rx, ry", list(_multi_block_cases()))
def test_count_exact_matches_loop_across_blocks(q, e, f, rx, ry):
    a, b = -1231, -19  # prime to every q above
    # floor(X) = 2q + rx and floor(Y) = 5q + ry (remainders reduced mod q)
    X = 2 * q + rx % q + Fraction(2, 3)
    Y = 5 * q + ry % q + Fraction(6, 7)
    inst = cg.CongruenceInstance(a, b, q, X, Y, e, f)
    exact = cg.count_exact(inst)
    assert type(exact) is int
    assert exact == count_exact_loop(inst)


def test_count_exact_huge_box_is_exact():
    inst = cg.CongruenceInstance(3, -5, 97, Fraction(10**40 + 1, 3), 10**30 + 7, 2, 3)
    assert cg.count_exact(inst) == count_exact_loop(inst)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q", [1_000_003, 4_000_037])
def test_general_count_peak_matches_the_readme_formula(q):
    # README "Conventions": e >= 2 holds one int32 table of q keys, 4 bytes
    # per residue, plus the temporaries of one block of _BLOCK residues,
    # under 80 bytes each
    inst = cg.CongruenceInstance(3, 5, q, q, q, 2, 2)
    peak = _traced_peak(lambda: cg.count_exact(inst))
    assert 4 * q <= peak <= 4 * q + 80 * cg._BLOCK, peak


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
    peak = _traced_peak(lambda: cg.class_sums(range(1, classes + 1), q, bounds, J))
    assert 3 * 8 * r * n <= peak <= 8 * (4 * r * n + 6 * cg._BLOCK) + 100 * classes, peak


# ---- the unit sieve and the closed-form unit count ----

def _primes(q):
    return [p for p, _ in arith.factorize(q).factors]


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
    assert cg._unit_count(q, primes) == arith.phi(q)
    assert type(cg._unit_count(q, primes)) is int


@pytest.mark.parametrize("q", [30030, 2 * 30030, 7 * 30030, 510510])
def test_count_exact_zero_remainders_match_loop(q):
    # floor(X) or floor(Y) a multiple of q: for e = 1 and rx = 0 no y is walked
    for e, X, Y in ((1, 3 * q, 2 * q + 12345),  # rx = 0
                    (1, q + 12345, 4 * q),  # ry = 0
                    (1, 2 * q, q),  # rx = ry = 0
                    (2, 3 * q, 2 * q + 17)):  # rx = 0 on the key-table path
        inst = cg.CongruenceInstance(-1, 19, q, X, Y, e, 2)
        exact = cg.count_exact(inst)
        assert type(exact) is int
        assert exact == count_exact_loop(inst), (e, X, Y)


# ---- the e = 1 path: x = c_y solved per unit y, no key table ----

def _lin(a, b, q, X, Y, f):
    return cg.CongruenceInstance(a, b, q, Fraction(X), Fraction(Y), 1, f)


LINEAR_CASES = {
    "Qx = Qy = 0": _lin(3, 5, 101, Fraction(57, 2), Fraction(88, 3), 2),
    "Qx = 0": _lin(3, 5, 101, Fraction(57, 2), 3 * 101 + 40, 2),
    "Qy = 0": _lin(3, 5, 101, 4 * 101 + 7, Fraction(99, 4), 2),
    "rx = 0, Qy = 0": _lin(3, 5, 101, 101, Fraction(99, 4), 2),
    "ry = 0": _lin(-7, 11, 2**14 + 1, 2 * (2**14 + 1) + 5, 3 * (2**14 + 1), 2),
    "rx = ry = 0": _lin(-7, 11, 2**14 + 1, 2**14 + 1, 2 * (2**14 + 1), 3),
    "q = 1": _lin(4, -9, 1, Fraction(7, 2), Fraction(29, 4), 2),
    "q = 1, f = 3": _lin(-4, 9, 1, 1, 13, 3),
    "q = 2": _lin(1, 1, 2, Fraction(15, 2), 9, 2),
    "q = 2, negative": _lin(-3, -5, 2, 1, Fraction(11, 3), 3),
    "negative a": _lin(-1231, 19, 30031, 2 * 30031 + 17, 30031 + 2**14 + 1, 2),
    "negative b": _lin(1231, -19, 30031, 30031 - 1, 4 * 30031 + 2**14, 2),
    "negative a and b": _lin(-1231, -19, 9973, Fraction(3 * 9973 + 1, 2), Fraction(50001, 7), 2),
    "f = 1": _lin(-5, 7, 30031, 2 * 30031 + 2**14, 30031 + 2**14 - 1, 1),
    "f = 1, small": _lin(5, -7, 12, 30, Fraction(47, 2), 1),
    "f = 3": _lin(5, -7, 9973, 9973 + 2**13, Fraction(7 * 9973, 3), 3),
    "f = 3, composite": _lin(-3, -7, 2**14 + 1, 2**14, 2**15 + 7, 3),
    "f = 4": _lin(17, -19, 30030, 30030 + 29999, 2 * 30030 + 1, 4),
}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_count_exact_linear_matches_loop(case):
    inst = LINEAR_CASES[case]
    exact = cg.count_exact(inst)
    assert type(exact) is int
    assert exact == count_exact_loop(inst)
    if inst.X * inst.Y <= 10**5:
        assert exact == oracles.count_exact_naive(inst)


def test_count_exact_linear_huge_box_is_exact():
    for f in (1, 2, 3):
        inst = cg.CongruenceInstance(-3, 5, 9973, Fraction(10**40 + 1, 3),
                                     Fraction(10**39 + 7, 11), 1, f)
        assert cg.count_exact(inst) == count_exact_loop(inst)


@pytest.mark.parametrize("q", [300007, 300300, 299999])
def test_count_exact_linear_matches_boundary_walk(q):
    # boundary_sums counts per y by floor division at its class c_y, with
    # no split of the box into T(s, t); it shares only _units and _x_classes
    a, b = -1231, 23
    X = Fraction(10**12 + 1, 3)
    for Y in (q, Fraction(2 * q, 3), q - Fraction(1, 2), Fraction(q, 2**14)):
        inst = cg.CongruenceInstance(a, b, q, X, Y)
        walk = cg.boundary_sums(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))[0]
        assert cg.count_exact(inst) == walk, Y


# ---- the e = 1 half walk: units y <= q/2 and their mirrors q - y ----

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
    @hypothesis.given(data=st.data(), f=st.integers(1, 4), a=st.integers(-999, 999),
                      b=st.integers(-999, 999), Qx=st.integers(0, 3), Qy=st.integers(0, 3),
                      fx=frac, fy=frac)
    def check(data, f, a, b, Qx, Qy, fx, fy):
        q = data.draw(st.one_of(st.sampled_from(HALF_WALK_Q), st.integers(1, 400)), "q")
        ry = data.draw(st.one_of(st.sampled_from(_mirror_cuts(q)), st.integers(0, q - 1)), "ry")
        rx = data.draw(st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1)), "rx")
        # a box side below one period needs a remainder >= 1
        Qx, Qy = max(Qx, rx == 0), max(Qy, ry == 0)
        inst = cg.CongruenceInstance(_unit_near(a, q), _unit_near(b, q), q,
                                     Qx * q + rx + fx, Qy * q + ry + fy, 1, f)
        exact = cg.count_exact(inst)
        assert type(exact) is int
        assert exact == oracles.count_exact_naive(inst)

    check()


@pytest.mark.parametrize("q", [510510, 9699690, 299993])
def test_count_exact_half_walk_matches_full_walk(q):
    # two primorials (7 and 8 primes, the even composites with most units
    # struck) and a prime near 3e5, at every mirror cut of ry
    assert arith.is_prime(299993)
    a, b = -1231, 29
    for f in (1, 2, 3, 4):
        for ry in _mirror_cuts(q):
            for rx in (q - 1, q // 3):
                inst = cg.CongruenceInstance(a, b, q, 2 * q + rx + Fraction(1, 2),
                                             3 * q + ry, 1, f)
                exact = cg.count_exact(inst)
                assert exact == oracles.count_exact_full_walk(inst), (f, ry, rx)


def test_scan_boxes_refuses_nonpositive_modulus():
    for q in (0, -7):
        with pytest.raises(ValueError, match=f"got q = {q}"):
            cg.scan_boxes([5, q])


def test_count_exact_refuses_modulus_beyond_int32():
    inst = cg.CongruenceInstance(1, 1, 2**31, 5, 5)
    with pytest.raises(ValueError, match="2147483648"):
        cg.count_exact(inst)
    with pytest.raises(ValueError, match="2147483659"):
        cg.scan_boxes([15, 2**31 + 11])


def test_count_exact_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    side = st.fractions(min_value=1, max_value=60, max_denominator=6)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(q=st.integers(1, 40), a=st.integers(-60, 60), b=st.integers(-60, 60),
                      X=side, Y=side, e=st.integers(1, 4), f=st.integers(1, 4))
    def check(q, a, b, X, Y, e, f):
        hypothesis.assume(a * b != 0 and math.gcd(a * b, q) == 1)
        inst = cg.CongruenceInstance(a, b, q, X, Y, e, f)
        assert cg.count_exact(inst) == oracles.count_exact_naive(inst)
        box = cg.CongruenceInstance(a, b, q, X, Y)  # e = 1, f = 2
        assert cg.boundary_sums(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))[0] == (
            cg.count_exact(box))

    check()


def test_naive_guard():
    with pytest.raises(ValueError):
        oracles.count_exact_naive(cg.CongruenceInstance(1, 1, 5, 10**5, 10**4))


def test_main_term_and_envelope_frozen():
    inst = cg.CongruenceInstance(1, 1, 5, 10, 10)
    assert cg.main_term(inst) == pytest.approx(16.0)
    assert cg.error_envelope(inst) == pytest.approx(37.58210085976404, rel=1e-12)
    inst4 = cg.CongruenceInstance(1, 1, 4, 4, 4)
    assert cg.error_envelope(inst4) == pytest.approx(35.74730297018444, rel=1e-12)
    with pytest.raises(ValueError):
        cg.main_term(cg.CongruenceInstance(1, 1, 5, 5, 5, e=2, f=2))


def test_box_report_exact_prime_square():
    # X = Y = q prime, a = b = 1: exact count equals the main term
    rep = cg.box_report(cg.CongruenceInstance(1, 1, 13, 13, 13))
    assert rep.exact == 12
    assert rep.main_term == pytest.approx(12.0)
    assert rep.ratio == pytest.approx(0.0)


def test_scan_boxes_skips_bad_instances(caplog):
    with caplog.at_level(logging.WARNING, logger="congruence_lab"):
        reps = cg.scan_boxes([5, 6, 9], a=3, b=1)
    assert [r.q for r in reps] == [5]
    assert "skipping" in caplog.text


@pytest.mark.parametrize("kwargs, message", [
    (dict(a=0), "coefficients a, b must be nonzero"),
    (dict(b=0), "coefficients a, b must be nonzero"),
    (dict(X=Fraction(1, 2)), "box sides X, Y must be >= 1"),
    (dict(Y=0), "box sides X, Y must be >= 1"),
])
def test_scan_boxes_refuses_bad_values_before_any_count(kwargs, message, monkeypatch):
    def no_work(*args):
        raise AssertionError("a box was counted before the values were checked")

    monkeypatch.setattr(cg, "count_exact", no_work)
    monkeypatch.setattr(cg, "_linear_count", no_work)
    with pytest.raises(ValueError, match=message):
        cg.scan_boxes([5, 7], **kwargs)


def test_scan_boxes_takes_plain_values():
    # None is the modulus itself; a fixed side is the same for every q
    reps = cg.scan_boxes([5, 7], 2, -3, None, Fraction(7, 2))
    assert [(r.X, r.Y) for r in reps] == [(5, Fraction(7, 2)), (7, Fraction(7, 2))]
    assert [r.exact for r in reps] == [
        cg.count_exact(cg.CongruenceInstance(2, -3, q, q, Fraction(7, 2))) for q in (5, 7)]


def test_scan_boxes_builds_no_instance(monkeypatch):
    # the scan checks a, b, the sides and the moduli once and hands on plain boxes
    def no_instance(self):
        raise AssertionError("scan_boxes built a CongruenceInstance")

    want = [tuple(r) for r in cg.scan_boxes([5, 7, 30031], 2, 3, Fraction(21, 2), None)]
    monkeypatch.setattr(cg.CongruenceInstance, "__post_init__", no_instance)
    reps = cg.scan_boxes([5, 7, 30031], 2, 3, Fraction(21, 2), None)
    assert [r[:10] for r in reps] == [r[:10] for r in want]
    assert [r[:7] for r in reps] == [(2, 3, q, 1, 2, Fraction(21, 2), q) for q in (5, 7, 30031)]


def test_unit_count_of_q_is_phi():
    # count_exact takes T(q, q) as phi(q): the inclusion-exclusion it replaced agrees
    for q in range(1, 5000):
        assert cg._unit_count(q, [p for p, _ in arith.factorize(q).factors]) == arith.phi(q), q


def test_scan_boxes_matches_box_report_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    side = st.none() | st.fractions(min_value=1, max_value=10**6, max_denominator=50)
    coefficient = st.integers(-10**4, 10**4).filter(bool)
    tau, sigma, L, sqrt = arith.tau, arith.sigma_half_inv, arith.log1n, math.sqrt

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
            inst = cg.CongruenceInstance(a, b, q, q if X is None else X, q if Y is None else Y)
            one = cg.box_report(inst)
            box = (inst.a, inst.b, inst.q, inst.e, inst.f, inst.X, inst.Y)
            assert rep[:7] == one[:7] == box
            assert rep.exact == one.exact == cg.count_exact(inst)
            # the forms as literal expressions of arith's values, left to right
            x, y = float(inst.X), float(inst.Y)
            main = arith.phi(q) * x * y / q**2
            env = x / q * tau(q) + L(q) * sigma(q) * (y / sqrt(q) * tau(q) + sqrt(q) * L(q))
            for got in (rep, one):
                assert [v.hex() for v in got[8:11]] == [
                    main.hex(), env.hex(), (abs(rep.exact - main) / env).hex()]

    check()


def _literal_forms(inst):
    # main term, envelope: the scalar expressions, left to right, with
    # sigma_{-1/2} added over the ascending divisors here
    q, x, y = inst.q, float(inst.X), float(inst.Y)
    sigma = 0.0
    for d in arith.divisors(q):
        sigma += 1.0 / math.sqrt(d)
    L, tau, root = arith.log1n(q), arith.tau(q), math.sqrt(q)
    main = arith.phi(q) * x * y / q**2
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
        insts = [cg.CongruenceInstance(a, b, q, q if X is None else X, q if Y is None else Y)
                 for q in qs if math.gcd(a * b, q) == 1]
        hypothesis.assume(insts)
        boxes = [(inst.q, inst.X, inst.Y) for inst in insts]
        reps = cg._reports(a, b, boxes)
        assert [r[:7] for r in reps] == [(a, b, q, 1, 2, X, Y) for q, X, Y in boxes]
        for inst, rep in zip(insts, reps):
            small = inst.q <= 200 and inst.X * inst.Y <= 4000
            assert rep.exact == (oracles.count_exact_naive(inst) if small
                                 else cg.count_exact(inst)), inst
            main, env = _literal_forms(inst)
            assert [v.hex() for v in rep[8:11]] == [
                main.hex(), env.hex(), (abs(rep.exact - main) / env).hex()]
        # a non-finite middle box is named before any box is counted
        middle = len(insts) // 2
        with mock.patch.object(cg, "_linear_count", side_effect=AssertionError("counted")):
            with pytest.raises(ValueError, match="at q = 1000000007: main term inf"):
                cg._reports(a, b, boxes[:middle] + [_OVERFLOWING] + boxes[middle:])

    check()


def test_batch_reports_walk_only_boxes_with_a_remainder(monkeypatch):
    # X = q and X = 2q leave rx = 0: closed form; X = 10 leaves rx = 10
    walked = []
    hits = cg._class_hits
    monkeypatch.setattr(cg, "_class_hits", lambda *args: walked.append(args[2]) or hits(*args))
    reps = cg.scan_boxes([11, 13, 17], 1, 1, None, 30)
    reps += [cg.box_report(cg.CongruenceInstance(1, 1, 19, 38, 30))]
    assert walked == []
    reps += cg.scan_boxes([23, 29], 1, 1, 10, 30)
    assert walked == [23, 29]
    for rep in reps:
        inst = cg.CongruenceInstance(rep.a, rep.b, rep.q, rep.X, rep.Y)
        assert rep.exact == oracles.count_exact_naive(inst)


def test_batch_seconds_add_up_to_no_more_than_the_scan():
    # each box: its own count plus an equal share of the checks and forms
    t0 = time.perf_counter()
    reps = cg.scan_boxes([11, 13, 17, 30031], 1, 1, 10, None)
    elapsed = time.perf_counter() - t0
    assert all(rep.seconds > 0 for rep in reps)
    assert sum(rep.seconds for rep in reps) <= elapsed


def _classes_oracle(y, ks, f, q):
    return [[k * int(v) ** f % q for v in y] for k in ks]


@pytest.mark.parametrize("f", [1, 2, 3])
def test_x_classes_on_both_sides_of_the_int64_guard(f, monkeypatch):
    reduced = []
    powmod = cg._powmod
    monkeypatch.setattr(cg, "_powmod", lambda r, k, q: reduced.append(q) or powmod(r, k, q))
    q = 2**31 - 1
    k = q - 2
    # the largest y with k y^f < 2^62 takes one reduction, the next one two;
    # for f = 1 every int64 y <= q is below the guard
    top = next(t for t in range(q, 0, -1) if k * t**f < 2**62) if f == 1 else (
        int(((2**62 - 1) // k) ** (1 / f)) + 2)
    while k * top**f >= 2**62:
        top -= 1
    for y_max, wide in [(top, False), (top + 1, True)]:
        if y_max > q:
            continue
        y = np.array([1, 2, y_max // 3, y_max - 1, y_max], dtype=np.int64)
        for kv, ks in [(k, [k]), (np.array([[3], [k]], dtype=np.int64), [3, k])]:
            reduced.clear()
            got = cg._x_classes(y, kv, f, q)
            assert np.atleast_2d(got).tolist() == _classes_oracle(y, ks, f, q), (f, y_max)
            assert bool(reduced) == wide, (f, y_max)
    # object blocks: Python ints, on both sides of the guard
    big = 2**61 - 1
    for y_max in (7, 2**20, big - 1):
        y = np.array([1, 5, y_max], dtype=object)
        for kv, ks in [(big - 2, [big - 2]), (np.array([[1], [9]], dtype=object), [1, 9])]:
            reduced.clear()
            got = cg._x_classes(y, kv, f, big)
            assert np.atleast_2d(got).tolist() == _classes_oracle(y, ks, f, big)
            assert bool(reduced) == (max(ks) * y_max**f >= 2**62), (f, y_max, ks)


def test_class_sums_straddle_the_int64_guard(monkeypatch):
    # q^3 > 2^62 > q (q - 1)^2 / 4: blocks of small residues take one
    # reduction, the blocks past isqrt(2^62 / (q - 1)) take two
    q = 2_000_003
    assert arith.is_prime(q)
    threshold = math.isqrt((2**62 - 1) // (q - 1))
    J = cg.Interval(threshold - 20_000, 40_000)
    bounds = cg.BoundarySpec(Fraction(-7, 3), Fraction(1, 5), 3 * q + Fraction(1, 7), 2)
    assert _block_dtype(q, bounds, J) == np.int64
    reduced = []
    powmod = cg._powmod
    monkeypatch.setattr(cg, "_powmod", lambda r, k, q: reduced.append(q) or powmod(r, k, q))
    ks = [q - 1, 5]
    counts, main = cg.class_sums(ks, q, bounds, J)
    assert 0 < len(reduced) < len(range(J.integers().start, J.integers().stop, cg._BLOCK))
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
        inst = cg.CongruenceInstance(a, b, q, X, Y)
        n = cg.boundary_sums(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))[0]
        assert n == cg.count_exact(inst)
        done += 1


def test_triangle_region():
    # x + y^2 = 0 (mod 3), 0 < x <= y, y <= 6: solutions counted by hand
    bounds = cg.BoundarySpec(0, 0, 0, 1)
    assert cg.boundary_sums(1, 1, 3, bounds, cg.Interval(0, 6)) == (4, Fraction(4))


def test_empty_and_invalid_boundaries():
    flat = cg.BoundarySpec(5, 0, 5, 0)
    assert cg.boundary_sums(1, 1, 5, flat, cg.Interval(0, 10))[0] == 0
    with pytest.raises(ValueError):
        cg.boundary_sums(1, 1, 5, cg.BoundarySpec(3, 0, 1, 0), cg.Interval(0, 10))
    with pytest.raises(ValueError):
        cg.boundary_sums(2, 1, 4, cg.box_bounds(5), cg.Interval(0, 5))


@pytest.mark.parametrize("args, message", [
    ((0, 1, 1, cg.box_bounds(5), cg.Interval(0, 10)), "coefficients a, b must be nonzero"),
    ((1, 1, 5, cg.BoundarySpec(3, 0, 1, 0), cg.Interval(0, 10)), "upper boundary below"),
    ((1, 1, 0, cg.box_bounds(5), cg.Interval(0, 10)), "q must be a positive integer"),
], ids=["a = 0", "crossed boundaries", "q = 0"])
def test_main_term_boundaries_refuses_what_count_refuses(args, message):
    with pytest.raises(ValueError, match=message):
        cg.boundary_sums(*args)


def test_boundary_spec_is_four_rationals_with_a_derived_slope_bound():
    # the constant spec (0, 0, 12, 0) is the box (0, 12]
    spec = cg.BoundarySpec(0, 0, 12, 0)
    assert spec == cg.box_bounds(12) and spec.derivative_bound == 0
    exact = cg.boundary_sums(1, 1, 7, cg.box_bounds(12), cg.Interval(0, 9))[0]
    assert cg.boundary_sums(1, 1, 7, spec, cg.Interval(0, 9))[0] == exact
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
    fam = av.AveragedFamily(l=1, m=1, r=1, s=1, t=q, U=1, V=1, W=1, J=J, bounds=bounds)
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
    n, mt = cg.boundary_sums(a, b, q, bounds, J)
    assert type(n) is int
    assert n == count_boundaries_loop(a, b, q, bounds, J)
    assert type(mt) is Fraction
    assert mt == main_term_boundaries_loop(a, b, q, bounds, J)


def _block_dtype(q, bounds, J):
    _, blocks = cg._numerators(q, bounds, J)
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
    # a modulus beyond 2^31: c = k y^2 mod q no longer fits int64 products
    q = 2**61 - 1
    bounds = cg.BoundarySpec(Fraction(-10**19, 7), Fraction(3, 2), Fraction(10**20, 3), 5)
    assert _block_dtype(q, bounds, J) == object
    _check_boundary_kernels(3, -5, q, bounds, J)
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
    assert cg.boundary_sums(1, 1, 5, bounds, J) == (0, 0)


@pytest.mark.parametrize("q", [30030, 59838])
def test_envelopes_keep_their_float_bits(q):
    # the envelopes as literal expressions, multiplied left to right
    tau, sigma, L, sqrt = arith.tau, arith.sigma_half_inv, arith.log1n, math.sqrt
    inst = cg.CongruenceInstance(1, 1, q, Fraction(q, 3), 500)
    X, Y = float(inst.X), float(inst.Y)
    env = X / q * tau(q) + L(q) * sigma(q) * (Y / sqrt(q) * tau(q) + sqrt(q) * L(q))
    assert cg.error_envelope(inst) == env


def test_boundary_report_box_has_no_distortion():
    assert _delta_H(5, cg.box_bounds(10), cg.Interval(0, 10), 5) == 1.0


# ---- bilinear sums ----

def test_bilinear_all_ones_small():
    # m in {1, 3}: inner sums are 3 and (1/3)+(2/3)+(3/3) = 1 - 1 + 0 = 0
    res = cg.bilinear_jacobi([1, 1], [1, 1, 1])
    assert res.value == 3
    assert res.M == 3 and res.N == 3
    assert res.bound == pytest.approx(9**0.05 * (3 * math.sqrt(3) + math.sqrt(3) * 3))


def test_bilinear_trivial_m():
    res = cg.bilinear_jacobi([1], [1, 1, 1, 1])
    assert res.value == 4  # (n/1) = 1 for all n


def test_bilinear_validation():
    with pytest.raises(ValueError):
        cg.bilinear_jacobi([], [1])
    with pytest.raises(ValueError):
        cg.bilinear_jacobi([1], [1], epsilon=-0.1)


def test_bilinear_refuses_an_overflowing_epsilon_before_the_table(monkeypatch):
    def no_work(*args):
        raise AssertionError("the Jacobi table was built before epsilon was checked")

    monkeypatch.setattr(cg, "_jacobi_table", no_work)
    with pytest.raises(ValueError, match=r"epsilon is too large: 25 \*\* 1e\+300"):
        cg.bilinear_jacobi([1, -1, 1], [1] * 5, epsilon=1e300)
    # one cell: (MN)^eps = 1 for any epsilon, so nothing overflows
    monkeypatch.undo()
    assert cg.bilinear_jacobi([1], [1], epsilon=1e300).bound == 2.0


def test_distortion_of_box_and_sloped_bounds():
    J = cg.Interval(0, 12)
    assert _delta_H(50, cg.box_bounds(7), J, 5) == 1.0
    assert _delta_H(3, cg.BoundarySpec(0, Fraction(-1, 2), 9, Fraction(1, 4)), J, 8) == 3.25


def bilinear_loop(a_coeffs, b_coeffs):
    """The double loop bilinear_jacobi used to be: one arith.jacobi call per
    (m, n)."""
    total = 0j
    for i, am in enumerate(a_coeffs):
        if am == 0:
            continue
        inner = 0j
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
    rng = random.Random(5)
    for rows, N in [(1, 1), (2, 3), (37, 41), (150, 300)]:
        a = [rng.choice((-1, 1)) for _ in range(rows)]
        b = [rng.choice((-1, 1)) for _ in range(N)]
        value = cg.bilinear_jacobi(a, b).value
        loop = bilinear_loop(a, b)
        assert value == loop
        assert (math.copysign(1, value.imag), abs(value)) == (
            math.copysign(1, loop.imag), abs(loop))


def test_bilinear_large_integer_coefficients_are_exact():
    a = [3**40, -(2**62), 7, 0, 5]
    b = [2**61 + 1, -3, 2**63 + 9, 11]
    assert cg.bilinear_jacobi(a, b).value == bilinear_loop(a, b)
    # int64 inputs whose sum could overflow int64 take Python ints
    big = [2**40] * 40
    assert cg.bilinear_jacobi(big, big).value == bilinear_loop(big, big)
    # narrow integer dtypes are summed in int64, not in their own width
    signs = np.ones(200, dtype=np.int8)
    assert cg.bilinear_jacobi(signs, signs).value == bilinear_loop(signs.tolist(), signs.tolist())


def test_bilinear_complex_coefficients_match_loop():
    rng = random.Random(8)
    for rows, N in [(3, 5), (64, 128), (150, 300)]:
        a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rows)]
        b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(N)]
        loop = bilinear_loop(a, b)
        assert abs(cg.bilinear_jacobi(a, b).value - loop) <= 1e-12 * abs(loop)
        reals = [z.real for z in b]
        loop = bilinear_loop(a, reals)
        assert abs(cg.bilinear_jacobi(a, reals).value - loop) <= 1e-12 * abs(loop)


@pytest.mark.parametrize("M, N", [(511, 512), (2047, 1024)])
def test_bilinear_peak_matches_the_readme_formula(M, N):
    # README "Conventions": the int8 table of (M + 1)/2 N Jacobi symbols and
    # one int64 temporary of its shape, 9 bytes an entry, plus vectors of
    # length M or N (the least-prime-factor sieve, n, the coefficients)
    rows = (M + 1) // 2
    a, b = [1] * rows, [(-1) ** n for n in range(N)]
    cg._jacobi_table.cache_clear()
    peak = _traced_peak(lambda: cg.bilinear_jacobi(a, b))
    assert 9 * rows * N <= peak <= 9 * rows * N + 32 * (M + N), peak
