import math
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import arith
from congruence_lab import averaged as av
from congruence_lab import congruence as cg

import oracles


def test_unit_disc_point_deterministic():
    z1 = av.unit_disc_point(7, 1, 2, 3)
    z2 = av.unit_disc_point(7, 1, 2, 3)
    assert z1 == z2
    assert abs(z1) <= 1.0
    # different tags and indices decorrelate
    assert av.unit_disc_point(7, 2, 2, 3) != z1
    assert av.unit_disc_point(7, 1, 3, 2) != z1
    assert av.unit_disc_point(8, 1, 2, 3) != z1


def test_unit_disc_points_fill_disc():
    pts = [av.unit_disc_point(0, 1, k) for k in range(500)]
    assert all(abs(z) <= 1.0 for z in pts)
    assert max(abs(z) for z in pts) > 0.9
    assert min(abs(z) for z in pts) < 0.1


def _family(**kw):
    base = dict(
        l=1, m=1, r=1, s=1, t=3, U=1, V=1, W=Fraction(1, 2),
        J=cg.Interval(0, 10), bounds=cg.box_bounds(5),
        scheme="all-ones",
    )
    base.update(kw)
    return av.AveragedFamily(**base)


def _sums(fam):
    # (S, M) of avg_report, which neither H nor epsilon changes
    (rep,) = av.avg_report(fam, 1.0, 0.0, (0,))
    return rep.S, rep.M


def _cell_loop(fam, seed):
    # (S, M) by a per-cell, per-y recomputation of both sums in the
    # accumulation order of avg_report
    S = M = 0j
    bounds = fam.bounds
    for u, v, w in fam.cells():
        a, b, q = fam.r * u**fam.l, fam.s * v**fam.m, fam.t * w
        n, mt = 0, Fraction(0)
        for y in fam.J.integers():
            if math.gcd(y, q) == 1:
                c = -pow(a, -1, q) * b * y * y % q
                n += max(0, (bounds.upper(y) - c) // q - (bounds.lower(y) - c) // q)
                mt += bounds.upper(y) - bounds.lower(y)
        if n:
            S += fam.d_coeff(seed, u, v) * fam.e_coeff(seed, w) * n
        if mt:
            M += fam.d_coeff(seed, u, v) * fam.e_coeff(seed, w) * float(mt / q)
    return S, M


def test_cells_respects_coprimality():
    fam = _family()
    assert fam.cells() == [(2, 2, 1)]
    # t = 1, W = 1 puts w = 2 in every cell and gcd(rsuv, tw) = 2 kills them all
    fam2 = _family(t=1, W=1)
    assert fam2.cells() == []
    assert _sums(fam2) == (0, 0)


def test_family_validation():
    with pytest.raises(ValueError):
        _family(l=0)
    with pytest.raises(ValueError):
        _family(r=0)
    with pytest.raises(ValueError):
        _family(t=0)
    with pytest.raises(ValueError):
        _family(t=2, r=2)  # gcd(rs, t) > 1
    with pytest.raises(ValueError):
        _family(U=Fraction(1, 4))
    with pytest.raises(ValueError):
        _family(scheme="mystery")


def test_family_moduli_stay_below_2_31():
    # the largest modulus is t floor(2W): 2^31 - 1 and 2^31 - 2 are made and
    # counted, 2^31 is refused, as is 3 psi_12 (psi_12 a strong pseudoprime
    # to twelve bases)
    for t, W in [(2**31 - 1, Fraction(1, 2)), (2**30 - 1, 1)]:
        fam = _family(t=t, U=Fraction(1, 2), V=Fraction(1, 2), W=W)
        assert [t * w for *_, w in fam.cells()] == [2**31 - 1 - (W == 1)]
        _check_cell_sums(fam)
    for t, W in [(2**30, 1), (2**31, Fraction(1, 2)), (318665857834031151167461, 1.5)]:
        q = t * math.floor(2 * Fraction(W))
        with pytest.raises(ValueError, match=rf"\(--t\) .* \(--W\), .* below 2\^31, got {q}"):
            _family(t=t, W=W)


def test_all_ones_coefficients_are_one():
    fam = _family()
    assert fam.d_coeff(0, 2, 2) == 1
    assert fam.e_coeff(0, 1) == 1


def test_factorized_coefficients_split():
    fam = _family(scheme="factorized", U=2, V=2)
    du = {u: av.unit_disc_point(5, 1, u) for u in (3, 4)}
    dv = {v: av.unit_disc_point(5, 2, v) for v in (3, 4)}
    for u in (3, 4):
        for v in (3, 4):
            assert fam.d_coeff(5, u, v) == du[u] * dv[v]


def test_joint_coefficients_do_not_split():
    fam = _family(scheme="joint", U=2, V=2)
    vals = {(u, v): fam.d_coeff(5, u, v) for u in (3, 4) for v in (3, 4)}
    prod_form = vals[(3, 3)] * vals[(4, 4)]
    cross = vals[(3, 4)] * vals[(4, 3)]
    assert prod_form != cross  # a rank-one table would make these equal


def test_exact_sum_matches_direct_count():
    fam = _family()
    # single cell (2,2,1): a = 2, b = 2, q = 3, box 0 < x <= 5, 0 < y <= 10
    assert _sums(fam)[0] == complex(cg.scan_boxes([3], 2, 2, 5, 10)[0].exact)


def test_exact_sum_oracle_mini_grid():
    for (l, m) in [(1, 1), (2, 1), (1, 2)]:
        for t in (1, 3, 5):
            for (r, s) in [(1, 1), (-1, -2)]:
                fam = _family(l=l, m=m, r=r, s=s, t=t,
                              U=Fraction(3, 2), V=Fraction(1, 2), W=Fraction(1, 2),
                              J=cg.Interval(0, 8), bounds=cg.box_bounds(4))
                cells = fam.cells()
                assert cells, (l, m, t, r, s)
                total = 0
                for (u, v, w) in cells:
                    total += cg.scan_boxes([t * w], r * u**l, s * v**m, 4, 8)[0].exact
                assert _sums(fam)[0] == complex(total), (l, m, t, r, s)


def test_main_term_hand_value():
    fam = _family()
    # cell (2,2,1): q = 3, phi over y in (0,10] coprime to 3 gives 7 values,
    # each contributing X/q = 5/3
    assert _sums(fam)[1] == complex(Fraction(5, 3) * 7)


def test_delta_h_box_bounds():
    fam = _family()
    assert av.delta_H(fam, 10) == pytest.approx(1.0)


def test_delta_h_affine_frozen():
    bounds = cg.BoundarySpec(0, 0, 0, 1)
    fam = _family(W=1, J=cg.Interval(0, 4), bounds=bounds)
    # 1 + H T Y / (t W) with H = 6, T = 1: 1 + 6*1*4/3 = 9
    assert av.delta_H(fam, 6) == pytest.approx(9.0)


def test_delta_h_is_the_boundary_report_distortion():
    # sloped boundaries, modulus tW = 14 and an integer H: 1 + H T Y / (tW)
    # bit for bit, T the larger slope and Y the length of J
    bounds = cg.BoundarySpec(Fraction(-3, 2), Fraction(1, 3), 60, Fraction(5, 4))
    J = cg.Interval(Fraction(-7, 2), 40)
    fam = _family(t=7, W=2, J=J, bounds=bounds)
    for H in (1, 4, 9):
        assert av.delta_H(fam, H) == 1.0 + H * 1.25 * 40 / 14
    with pytest.raises(ValueError, match="H must be positive"):
        av.delta_H(fam, 0)


def test_error_budget_refuses_a_zero_width_family():
    fam = _family(bounds=cg.BoundarySpec(3, Fraction(1, 2), 3, Fraction(1, 2)))
    assert av.char_length(fam) == 0.0
    with pytest.raises(ValueError, match="characteristic length X must be positive"):
        av.error_budget(fam, 10.0, 0.05)


def test_epsilon_powers_that_overflow_are_refused():
    fam = _family(bounds=cg.box_bounds(1))
    for call in (lambda: av.error_budget(fam, 10.0, 1e300),
                 lambda: av.suggest_H(fam, 1e300)):
        with pytest.raises(ValueError, match="epsilon is too large"):
            call()
    assert av.error_budget(fam, 10.0, 50.0).T_envelope > 1e50


def test_error_budget_frozen():
    fam = _family()
    budget = av.error_budget(fam, H=10, epsilon=0.05)
    assert budget.delta_H == pytest.approx(1.0)
    assert budget.Z == pytest.approx(0.6123724356957945)
    assert budget.T_envelope == pytest.approx(11.986244452721285)
    assert budget.first_O == pytest.approx(0.5)


def test_error_budget_structured_z_branch():
    # factorized scheme with UV >= tW takes the structured Z
    fam = _family(scheme="factorized", U=2, V=2, t=1, W=1)
    budget = av.error_budget(fam, H=4, epsilon=0.0)
    tW = 1.0
    expect = math.sqrt((tW + 2) * (tW + 2)) * math.sqrt(2 * 2) * 1.0
    assert budget.Z == pytest.approx(expect)


def test_suggest_h_values():
    def fam(X):
        return _family(t=25, W=4, J=cg.Interval(0, 10), bounds=cg.BoundarySpec(0, 0, X, 0))

    assert av.suggest_H(fam(10), 0.1) == pytest.approx(15.848931924611143)
    assert av.suggest_H(fam(100), 0.0) == pytest.approx(1.0)
    assert av.suggest_H(fam(1), 0.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        av.suggest_H(fam(200), 0.05)
    with pytest.raises(ValueError):
        av.suggest_H(fam(0), 0.05)


def test_char_length_uses_cell_corners():
    fam = _family(bounds=cg.BoundarySpec(0, 0, 0, 1))
    # widest upper boundary over corner y = 10 is 10
    assert av.char_length(fam) == pytest.approx(10.0)


def test_avg_report_consistency():
    fam = _family(scheme="joint", t=5, U=2, V=2, W=2,
                  J=cg.Interval(0, 30), bounds=cg.box_bounds(5))
    H = av.suggest_H(fam, 0.05)
    (rep,) = av.avg_report(fam, H, 0.05, seeds=(3,))
    assert rep.seed == 3
    assert (rep.S, rep.M) == _cell_loop(fam, 3)
    denom = rep.first_O + rep.T_envelope
    assert rep.ratio == pytest.approx(abs(rep.S - rep.M) / denom)


def test_avg_report_affine_bounds_match_cell_loop():
    # sloped boundaries through the shared cell walk, against a per-cell,
    # per-y recomputation of both sums in the old accumulation order
    bounds = cg.BoundarySpec(Fraction(-3, 2), Fraction(1, 3), 20, Fraction(-1, 4))
    fam = _family(scheme="joint", t=5, U=2, V=2, W=2, l=2, m=1, r=3, s=-2,
                  J=cg.Interval(Fraction(-7, 2), 40), bounds=bounds)
    S, M = _cell_loop(fam, 11)
    (rep,) = av.avg_report(fam, 10.0, 0.05, seeds=(11,))
    assert (rep.S, rep.M) == (S, M)
    assert av.char_length(fam) == float(bounds.upper(Fraction(-7, 2))
                                        - bounds.lower(Fraction(-7, 2)))


def test_one_boundary_walk_per_cell(monkeypatch):
    # one _numerators walk per distinct modulus tw and one error_budget per
    # call, however many seeds it reports
    calls, budgets = [], []
    numerators, error_budget = cg._numerators, av.error_budget
    monkeypatch.setattr(cg, "_numerators", lambda *args: calls.append(args) or numerators(*args))
    monkeypatch.setattr(av, "error_budget",
                        lambda *args: budgets.append(args) or error_budget(*args))
    fam = _family(scheme="factorized", t=7, U=3, V=3, W=2,
                  J=cg.Interval(0, 30), bounds=cg.box_bounds(5))
    cells = fam.cells()
    moduli = {7 * w for _, _, w in cells}
    reps = av.avg_report(fam, 10.0, 0.05, seeds=(3, 4))
    assert sorted(args[0] for args in calls) == sorted(moduli)
    assert len(cells) > len(moduli) > 1
    assert budgets == [(fam, 10.0, 0.05)]
    assert reps == [*av.avg_report(fam, 10.0, 0.05, seeds=(3,)),
                    *av.avg_report(fam, 10.0, 0.05, seeds=(4,))]
    assert [rep.seed for rep in reps] == [3, 4] and reps[0].S != reps[1].S
    calls.clear()
    _one_class(1, 1, 7, cg.BoundarySpec(0, 1, 3, 2), cg.Interval(0, 20))
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", av.SCHEMES)
def test_weights_taken_once_per_distinct_key(scheme, monkeypatch):
    # the report keeps the bits of the per-cell weight loop, while d_coeff
    # and e_coeff run once per distinct (u, v) and w of the nonzero cells
    bounds = cg.BoundarySpec(-2, Fraction(1, 3), 20, Fraction(-1, 4))
    fam = _family(scheme=scheme, t=7, U=3, V=3, W=2, J=cg.Interval(-4, 30), bounds=bounds)
    table = av.cell_sums(fam)
    S = M = 0j
    for u, v, w, n, mt in table:
        if n or mt:
            weight = fam.d_coeff(3, u, v) * fam.e_coeff(3, w)
            if n:
                S += weight * n
            if mt:
                M += weight * float(mt)
    budget = av.error_budget(fam, 10.0, 0.05)
    want = av.AveragedReport(fam, 3, 10.0, 0.05, S, M, budget.first_O, budget.T_envelope,
                             abs(S - M) / (budget.first_O + budget.T_envelope))
    d_keys, e_keys = [], []
    d_coeff, e_coeff = av.AveragedFamily.d_coeff, av.AveragedFamily.e_coeff
    monkeypatch.setattr(av.AveragedFamily, "d_coeff", lambda self, seed, u, v:
                        d_keys.append((seed, u, v)) or d_coeff(self, seed, u, v))
    monkeypatch.setattr(av.AveragedFamily, "e_coeff", lambda self, seed, w:
                        e_keys.append((seed, w)) or e_coeff(self, seed, w))
    assert av.avg_report(fam, 10.0, 0.05, seeds=(3,)) == [want]
    live = [(u, v, w) for u, v, w, n, mt in table if n or mt]
    assert sorted(d_keys) == sorted({(3, u, v) for u, v, _ in live})
    assert sorted(e_keys) == sorted({(3, w) for *_, w in live})
    assert len(live) > len(d_keys) > len(e_keys) > 1


def test_avg_report_matches_the_seed_loop_oracle():
    # S and M under ==, and the ratio's repr, against the seed loop that
    # tests every cell once per seed: over cells of count zero, seeds whose
    # & _MASK wraps, and boxes so thin at the integer y that a nonzero exact
    # main term rounds to 0.0, where the skip follows the exact mt
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    thin = Fraction(1, 10**400)
    dyadic = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2)
    half = st.fractions(min_value=Fraction(1, 2), max_value=20, max_denominator=2)
    seed = st.one_of(st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                     st.integers(2**64, 2**70))

    def family(scheme, t, U, V, W, X, slope, y0, length):
        # f_hi = X at the right end of J = (y0, y0 + length], rising by slope
        # towards its left end, and f_lo = 0
        bounds = cg.BoundarySpec(0, 0, X + slope * (y0 + length), -slope)
        return _family(scheme=scheme, t=t, U=U, V=V, W=W, J=cg.Interval(y0, length),
                       bounds=bounds)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(scheme=st.sampled_from(av.SCHEMES), t=st.integers(1, 9),
                      U=dyadic, V=dyadic, W=dyadic,
                      X=st.one_of(st.just(thin), st.fractions(min_value=Fraction(1, 7),
                                                              max_value=40, max_denominator=7)),
                      slope=st.fractions(min_value=Fraction(1, 4), max_value=3,
                                         max_denominator=4),
                      y0=st.fractions(min_value=-3, max_value=3, max_denominator=2),
                      length=half, seeds=st.lists(seed, min_size=1, max_size=4))
    @hypothesis.example(scheme="joint", t=5, U=2, V=2, W=2, X=thin, slope=Fraction(1, 2),
                        y0=Fraction(1, 2), length=Fraction(1, 2), seeds=[-1, 2**64 + 3])
    def check(scheme, t, U, V, W, X, slope, y0, length, seeds):
        fam = family(scheme, t, U, V, W, X, slope, y0, length)
        reps = av.avg_report(fam, 10.0, 0.05, seeds)
        assert [(rep.S, rep.M, repr(rep.ratio)) for rep in reps] == \
            [(S, M, repr(ratio)) for S, M, ratio in oracles.avg_sums_loop(fam, 10.0, 0.05, seeds)]

    # the explicit example: one y, 1, whose main term 10^-400/(tw) is not 0
    # but rounds to 0.0, and whose count is 0, in every cell
    table = av.cell_sums(family("joint", 5, 2, 2, 2, thin, Fraction(1, 2), Fraction(1, 2),
                                Fraction(1, 2)))
    assert table and all(n == 0 and mt != 0 and float(mt) == 0.0 for *_, n, mt in table)
    check()


# ---- cell_sums against per-cell class_sums ----

def _one_class(a, b, q, bounds, J):
    # (count, main) of class_sums for the one class of a x + b y^2 = 0 (mod q)
    (count,), main = cg.class_sums({q: [cg.linear_class(a, b, q)]}, bounds, J)[q]
    return count, main


def _per_cell(fam):
    return [(u, v, w, *_one_class(fam.r * u**fam.l, fam.s * v**fam.m, fam.t * w,
                                  fam.bounds, fam.J))
            for u, v, w in fam.cells()]


def _check_cell_sums(fam):
    table = av.cell_sums(fam)
    assert table == _per_cell(fam)
    assert all(type(n) is int and type(mt) is Fraction for *_, n, mt in table)


def test_cell_sums_match_per_cell_properties(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.fractions(min_value=-60, max_value=60, max_denominator=8)
    slope = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    dyadic = st.fractions(min_value=Fraction(1, 2), max_value=5, max_denominator=3)
    nonzero = st.integers(-20, 20).filter(bool)

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(l=st.integers(1, 3), m=st.integers(1, 3), r=nonzero, s=nonzero,
                      t=st.integers(1, 12), U=dyadic, V=dyadic, W=dyadic,
                      lo=st.tuples(value, slope), width=st.tuples(value, slope),
                      y0=value, length=st.fractions(min_value=Fraction(1, 5), max_value=70,
                                                    max_denominator=5),
                      cap=st.sampled_from([1, 37, arith.BLOCK_CELLS]))
    def check(l, m, r, s, t, U, V, W, lo, width, y0, length, cap):
        hypothesis.assume(math.gcd(r * s, t) == 1)
        monkeypatch.setattr(arith, "BLOCK_CELLS", cap)
        J = cg.Interval(y0, length)
        # hi = lo + width, shifted up so that hi >= lo at both ends of J
        gap = min(width[0] + width[1] * y for y in (J.y0, J.y0 + J.length))
        bounds = cg.BoundarySpec(lo[0], lo[1], lo[0] + width[0] - min(gap, 0),
                                 lo[1] + width[1])
        _check_cell_sums(_family(l=l, m=m, r=r, s=s, t=t, U=U, V=V, W=W, J=J,
                                 bounds=bounds))

    check()


def test_cell_sums_across_blocks_and_row_cap():
    # 49 cells share q = 11, more than the 16 classes a full 2^14 block takes
    # at once, and J runs past the first block of y
    J = cg.Interval(Fraction(-13, 2), cg._BLOCK + 40)
    bounds = cg.BoundarySpec(Fraction(-5, 3), Fraction(1, 7), 90, Fraction(2, 5))
    fam = _family(t=11, U=8, V=8, W=Fraction(1, 2), r=3, s=-2, l=2, J=J, bounds=bounds)
    assert len(fam.cells()) == 49 > arith.block_rows(cg._BLOCK)
    assert next(cg._numerators(11, [11], bounds, J)[1])[0].dtype == np.int64
    _check_cell_sums(fam)


def test_cell_sums_object_path():
    # intercepts near 2^62 put every block on the object path
    J = cg.Interval(-30, 90)
    bounds = cg.BoundarySpec(-(2**62), Fraction(-3, 2), 2**62 + 5, 7)
    fam = _family(t=7, U=3, V=2, W=2, r=1, s=-1, m=2, J=J, bounds=bounds)
    assert next(cg._numerators(21, [3, 7], bounds, J)[1])[0].dtype == object
    assert len(fam.cells()) > len({w for *_, w in fam.cells()})
    _check_cell_sums(fam)


def test_class_sums_of_no_class_and_unreduced_classes():
    bounds = cg.BoundarySpec(0, 1, 5, 1)
    J = cg.Interval(0, 12)
    n, mt = _one_class(1, 1, 7, bounds, J)
    assert cg.class_sums({7: []}, bounds, J) == {7: ([], mt)}
    # k = 6 is the class of (a, b) = (1, 1); classes are taken mod q
    assert cg.class_sums({7: [6, 6 + 7 * 2**40, -1, -7 * 2**70 + 6]}, bounds, J) == {
        7: ([n] * 4, mt)}

