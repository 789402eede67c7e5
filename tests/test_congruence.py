import functools
import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import arith
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
        reps = cg.scan_boxes([5, 6, 9], a_rule=3, b_rule=1)
    assert [r.instance.q for r in reps] == [5]
    assert "skipping" in caplog.text


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
    bounds = cg.affine_bounds(0, 0, 0, 1)
    assert cg.boundary_sums(1, 1, 3, bounds, cg.Interval(0, 6)) == (4, Fraction(4))


def test_empty_and_invalid_boundaries():
    flat = cg.affine_bounds(5, 0, 5, 0)
    assert cg.boundary_sums(1, 1, 5, flat, cg.Interval(0, 10))[0] == 0
    with pytest.raises(ValueError):
        cg.boundary_sums(1, 1, 5, cg.affine_bounds(3, 0, 1, 0), cg.Interval(0, 10))
    with pytest.raises(ValueError):
        cg.boundary_sums(2, 1, 4, cg.box_bounds(5), cg.Interval(0, 5))


@pytest.mark.parametrize("args, message", [
    ((0, 1, 1, cg.box_bounds(5), cg.Interval(0, 10)), "coefficients a, b must be nonzero"),
    ((1, 1, 5, cg.affine_bounds(3, 0, 1, 0), cg.Interval(0, 10)), "upper boundary below"),
    ((1, 1, 0, cg.box_bounds(5), cg.Interval(0, 10)), "q must be a positive integer"),
], ids=["a = 0", "crossed boundaries", "q = 0"])
def test_main_term_boundaries_refuses_what_count_refuses(args, message):
    for kernel in (cg.boundary_sums, functools.partial(cg.boundary_report, H=4)):
        with pytest.raises(ValueError, match=message):
            kernel(*args)


def test_callable_boundary_extension_point():
    # arbitrary callables are accepted; here they agree with an exact box
    spec = cg.BoundarySpec(lambda y: 0.0, lambda y: 12.0, Fraction(0))
    exact = cg.boundary_sums(1, 1, 7, cg.box_bounds(12), cg.Interval(0, 9))[0]
    assert cg.boundary_sums(1, 1, 7, spec, cg.Interval(0, 9))[0] == exact


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
        bounds = cg.affine_bounds(lo[0], lo[1], lo[0] + width[0] - min(gap, 0),
                                  lo[1] + width[1])
        _check_boundary_kernels(a, b, q, bounds, J)

    check()


@pytest.mark.parametrize("q", [7, 9973, 2**14 + 1, 30030])
def test_boundary_kernels_across_blocks(q):
    # J holds about 3.3 blocks of y, starting just below a block edge
    J = cg.Interval(cg._BLOCK - 3 + Fraction(1, 2), Fraction(3 * cg._BLOCK + 5000, 1))
    bounds = cg.affine_bounds(Fraction(-7, 3), Fraction(-1, 5), 4 * q + Fraction(1, 7),
                              Fraction(2, 11))
    assert _block_dtype(q, bounds, J) == np.int64
    _check_boundary_kernels(-1231, 19, q, bounds, J)


def test_boundary_kernels_object_path():
    J = cg.Interval(-40, 120)
    # a modulus beyond 2^31: c = k y^2 mod q no longer fits int64 products
    q = 2**61 - 1
    bounds = cg.affine_bounds(Fraction(-10**19, 7), Fraction(3, 2), Fraction(10**20, 3), 5)
    assert _block_dtype(q, bounds, J) == object
    _check_boundary_kernels(3, -5, q, bounds, J)
    # a small modulus with numerators near 2^62
    bounds = cg.affine_bounds(-(2**62), Fraction(-(10**17), 3), 2**62 + 5, 10**17)
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
        bounds = cg.affine_bounds(-A, 50, A, -50)
        assert _block_dtype(97, bounds, J) == dtype
        _check_boundary_kernels(3, -5, 97, bounds, J)


def test_callable_boundaries_match_loop():
    J = cg.Interval(Fraction(-5, 2), 70)
    spec = cg.BoundarySpec(lambda y: 0.0, lambda y: 12.0, Fraction(0))
    _check_boundary_kernels(1, 1, 7, spec, J)
    curve = cg.BoundarySpec(lambda y: Fraction(y * y, 40) - 3, lambda y: y / 3 + 25.5,
                            Fraction(4))
    _check_boundary_kernels(5, -3, 11, curve, J)
    _check_boundary_kernels(5, -3, 1, curve, J)


def test_boundary_kernels_empty_interval():
    J = cg.Interval(Fraction(1, 3), Fraction(1, 3))  # no integer in (1/3, 2/3]
    bounds = cg.affine_bounds(0, 1, 5, 1)
    assert cg.boundary_sums(1, 1, 5, bounds, J) == (0, 0)


def test_boundary_report():
    bounds = cg.affine_bounds(0, 0, 0, 1)
    rep = cg.boundary_report(1, 1, 3, bounds, cg.Interval(0, 6), H=3)
    assert rep.exact == 4
    assert rep.main_term == pytest.approx(4.0)
    assert rep.delta_H == pytest.approx(1 + 3 * 1 * 6 / 3)
    assert rep.envelope > 0
    assert rep.ratio == pytest.approx(0.0)
    with pytest.raises(ValueError):
        cg.boundary_report(1, 1, 3, bounds, cg.Interval(0, 6), H=0)


@pytest.mark.parametrize("q", [30030, 59838])
def test_envelopes_keep_their_float_bits(q):
    # the envelopes as literal expressions, multiplied left to right
    tau, sigma, L, sqrt = arith.tau, arith.sigma_half_inv, arith.log1n, math.sqrt
    J = cg.Interval(0, 500)
    bounds = cg.affine_bounds(0, Fraction(1, 3), 100, Fraction(1, 2))
    Y, T = float(J.length), float(bounds.derivative_bound)
    for H in (1, 7, 64):
        delta = 1.0 + H * T * Y / q
        env = Y / H + delta * L(H) * sigma(q) * (Y / sqrt(q) * tau(q) + sqrt(q) * L(q))
        assert cg.boundary_report(1, 1, q, bounds, J, H).envelope == env
    inst = cg.CongruenceInstance(1, 1, q, Fraction(q, 3), 500)
    X = float(inst.X)
    env = X / q * tau(q) + L(q) * sigma(q) * (Y / sqrt(q) * tau(q) + sqrt(q) * L(q))
    assert cg.error_envelope(inst) == env


def test_boundary_report_box_has_no_distortion():
    rep = cg.boundary_report(1, 1, 5, cg.box_bounds(10), cg.Interval(0, 10), H=5)
    assert rep.delta_H == 1.0


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
