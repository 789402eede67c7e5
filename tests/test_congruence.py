import logging
import math
import random
from fractions import Fraction

import pytest

from congruence_lab import congruence as cg


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
        assert cg.count_exact(inst) == cg.count_exact_naive(inst), inst
        done += 1


def test_count_with_fractional_box_sides():
    inst = cg.CongruenceInstance(1, 1, 5, Fraction(21, 2), Fraction(19, 2))
    naive = cg.count_exact_naive(
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
        assert cg.count_exact(inst) == cg.count_exact_naive(inst)
        box = cg.CongruenceInstance(a, b, q, X, Y)  # e = 1, f = 2
        assert cg.count_boundaries(a, b, q, cg.box_bounds(X), cg.Interval(0, Y)) == (
            cg.count_exact(box))

    check()


def test_naive_guard():
    with pytest.raises(ValueError):
        cg.count_exact_naive(cg.CongruenceInstance(1, 1, 5, 10**5, 10**4))


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
        n = cg.count_boundaries(a, b, q, cg.box_bounds(X), cg.Interval(0, Y))
        assert n == cg.count_exact(inst)
        done += 1


def test_triangle_region():
    # x + y^2 = 0 (mod 3), 0 < x <= y, y <= 6: solutions counted by hand
    bounds = cg.affine_bounds(0, 0, 0, 1)
    assert cg.count_boundaries(1, 1, 3, bounds, cg.Interval(0, 6)) == 4
    assert cg.main_term_boundaries(1, 1, 3, bounds, cg.Interval(0, 6)) == Fraction(4)


def test_empty_and_invalid_boundaries():
    flat = cg.affine_bounds(5, 0, 5, 0)
    assert cg.count_boundaries(1, 1, 5, flat, cg.Interval(0, 10)) == 0
    with pytest.raises(ValueError):
        cg.count_boundaries(1, 1, 5, cg.affine_bounds(3, 0, 1, 0), cg.Interval(0, 10))
    with pytest.raises(ValueError):
        cg.count_boundaries(2, 1, 4, cg.box_bounds(5), cg.Interval(0, 5))


def test_callable_boundary_extension_point():
    # arbitrary callables are accepted; here they agree with an exact box
    spec = cg.BoundarySpec(lambda y: 0.0, lambda y: 12.0, Fraction(0))
    exact = cg.count_boundaries(1, 1, 7, cg.box_bounds(12), cg.Interval(0, 9))
    assert cg.count_boundaries(1, 1, 7, spec, cg.Interval(0, 9)) == exact


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
