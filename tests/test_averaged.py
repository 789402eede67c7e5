import math
from fractions import Fraction

import pytest

from congruence_lab import averaged as av
from congruence_lab import congruence as cg


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
        J=cg.Interval(0, 10), bounds=av.constant_bounds(5),
        scheme="all-ones", seed=0,
    )
    base.update(kw)
    return av.AveragedFamily(**base)


def test_cells_respects_coprimality():
    fam = _family()
    assert fam.cells() == [(2, 2, 1)]
    # t = 1, W = 1 puts w = 2 in every cell and gcd(rsuv, tw) = 2 kills them all
    fam2 = _family(t=1, W=1)
    assert fam2.cells() == []
    assert av.s_exact(fam2) == 0
    assert av.main_term(fam2) == 0


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


def test_all_ones_coefficients_are_one():
    fam = _family()
    assert fam.d_coeff(2, 2) == 1
    assert fam.e_coeff(1) == 1


def test_factorized_coefficients_split():
    fam = _family(scheme="factorized", U=2, V=2, seed=5)
    du = {u: av.unit_disc_point(5, 1, u) for u in (3, 4)}
    dv = {v: av.unit_disc_point(5, 2, v) for v in (3, 4)}
    for u in (3, 4):
        for v in (3, 4):
            assert fam.d_coeff(u, v) == du[u] * dv[v]


def test_joint_coefficients_do_not_split():
    fam = _family(scheme="joint", U=2, V=2, seed=5)
    vals = {(u, v): fam.d_coeff(u, v) for u in (3, 4) for v in (3, 4)}
    prod_form = vals[(3, 3)] * vals[(4, 4)]
    cross = vals[(3, 4)] * vals[(4, 3)]
    assert prod_form != cross  # a rank-one table would make these equal


def test_exact_sum_matches_direct_count():
    fam = _family()
    # single cell (2,2,1): a = 2, b = 2, q = 3, box 0 < x <= 5, 0 < y <= 10
    inst = cg.CongruenceInstance(2, 2, 3, 5, 10)
    assert av.s_exact(fam) == complex(cg.count_exact(inst))


def test_exact_sum_oracle_mini_grid():
    for (l, m) in [(1, 1), (2, 1), (1, 2)]:
        for t in (1, 3, 5):
            for (r, s) in [(1, 1), (-1, -2)]:
                fam = _family(l=l, m=m, r=r, s=s, t=t,
                              U=Fraction(3, 2), V=Fraction(1, 2), W=Fraction(1, 2),
                              J=cg.Interval(0, 8), bounds=av.constant_bounds(4))
                cells = fam.cells()
                assert cells, (l, m, t, r, s)
                total = 0
                for (u, v, w) in cells:
                    inst = cg.CongruenceInstance(
                        r * u**l, s * v**m, t * w, 4, 8
                    )
                    total += cg.count_exact(inst)
                assert av.s_exact(fam) == complex(total), (l, m, t, r, s)


def test_main_term_hand_value():
    fam = _family()
    # cell (2,2,1): q = 3, phi over y in (0,10] coprime to 3 gives 7 values,
    # each contributing X/q = 5/3
    assert av.main_term(fam) == complex(Fraction(5, 3) * 7)


def test_delta_h_constant_bounds():
    fam = _family()
    assert av.delta_H(fam, 10) == pytest.approx(1.0)


def test_delta_h_affine_frozen():
    bounds = av.affine_in_y_bounds(0, 0, 0, 1, F=10)
    assert bounds.tau_y == pytest.approx(0.1)
    fam = _family(W=1, J=cg.Interval(0, 4), bounds=bounds)
    # (1 + 0)(1 + 0)(1 + H F tau_y Y / (t W)) with H = 6: 1 + 6*10*0.1*4/3 = 9
    assert av.delta_H(fam, 6) == pytest.approx(9.0)


def test_error_budget_frozen():
    fam = _family()
    budget = av.error_budget(fam, H=10, epsilon=0.05)
    assert budget.delta_H == pytest.approx(1.0)
    assert budget.Z == pytest.approx(0.6123724356957945)
    assert budget.T_envelope == pytest.approx(11.986244452721285)
    assert budget.first_O == pytest.approx(0.5)
    assert budget.hcond_ok is True


def test_error_budget_structured_z_branch():
    # factorized scheme with UV >= tW takes the structured Z
    fam = _family(scheme="factorized", U=2, V=2, t=1, W=1)
    budget = av.error_budget(fam, H=4, epsilon=0.0)
    tW = 1.0
    expect = math.sqrt((tW + 2) * (tW + 2)) * math.sqrt(2 * 2) * 1.0
    assert budget.Z == pytest.approx(expect)


def test_error_budget_hcond_false():
    fam = _family(t=100, W=2, bounds=av.constant_bounds(5))
    budget = av.error_budget(fam, H=1, epsilon=0.05)
    assert budget.hcond_ok is False


def test_suggest_h_values():
    fam = _family(t=25, W=4, J=cg.Interval(0, 10), bounds=av.constant_bounds(10))
    assert av.suggest_H(fam, 0.1, X=10) == pytest.approx(15.848931924611143)
    assert av.suggest_H(fam, 0.0, X=100) == pytest.approx(1.0)
    assert av.suggest_H(fam, 0.0, X=1) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        av.suggest_H(fam, 0.05, X=200)
    with pytest.raises(ValueError):
        av.suggest_H(fam, 0.05, X=0)


def test_char_length_uses_cell_corners():
    fam = _family(bounds=av.affine_in_y_bounds(0, 0, 0, 1, F=1))
    # widest upper boundary over corner y = 10 is 10
    assert av.char_length(fam) == pytest.approx(10.0)


def test_dominance_report_clean():
    fam = av.AveragedFamily(
        l=1, m=1, r=1, s=1, t=1, U=25, V=25, W=100,
        J=cg.Interval(0, 10**6), bounds=av.constant_bounds(100),
    )
    rep = av.dominance_report(fam, epsilon=0.01, X=100)
    assert rep.main_ok is True
    assert rep.t_ok is True
    assert rep.warnings == ()


def test_dominance_report_warns_on_large_cells():
    fam = _family(U=4, t=1, W=Fraction(1, 2))
    rep = av.dominance_report(fam, epsilon=0.05, X=Fraction(1, 2))
    assert any("exceeds" in w for w in rep.warnings)


def test_work_estimate_guard():
    fam = _family(U=3000, V=3000, W=3000, t=1,
                  J=cg.Interval(0, 10**6), bounds=av.constant_bounds(10**6))
    with pytest.raises(ValueError):
        av.s_exact(fam)


def test_avg_report_consistency():
    fam = _family(scheme="joint", t=5, U=2, V=2, W=2,
                  J=cg.Interval(0, 30), bounds=av.constant_bounds(5), seed=3)
    H = av.suggest_H(fam, 0.05)
    rep = av.avg_report(fam, H, 0.05)
    assert rep.S == av.s_exact(fam)
    assert rep.M == av.main_term(fam)
    denom = rep.first_O + rep.T_envelope
    assert rep.ratio == pytest.approx(abs(rep.S - rep.M) / denom)


def test_avg_report_affine_bounds_match_cell_loop():
    # sloped boundaries through the shared cell walk, against a per-cell,
    # per-y recomputation of both sums in the old accumulation order
    bounds = av.affine_in_y_bounds(Fraction(-3, 2), Fraction(1, 3), 20, Fraction(-1, 4), F=20)
    fam = _family(scheme="joint", t=5, U=2, V=2, W=2, l=2, m=1, r=3, s=-2,
                  J=cg.Interval(Fraction(-7, 2), 40), bounds=bounds, seed=11)
    S = M = 0j
    for u, v, w in fam.cells():
        a, b, q = 3 * u**2, -2 * v, 5 * w
        n, mt = 0, Fraction(0)
        for y in fam.J.integers():
            if math.gcd(y, q) == 1:
                c = -pow(a, -1, q) * b * y * y % q
                n += max(0, (bounds.upper(y) - c) // q - (bounds.lower(y) - c) // q)
                mt += bounds.upper(y) - bounds.lower(y)
        if n:
            S += fam.d_coeff(u, v) * fam.e_coeff(w) * n
        if mt:
            M += fam.d_coeff(u, v) * fam.e_coeff(w) * float(mt / q)
    rep = av.avg_report(fam, 10.0, 0.05)
    assert (rep.S, rep.M) == (S, M)
    assert (av.s_exact(fam), av.main_term(fam)) == (S, M)
    assert av.char_length(fam) == float(bounds.upper(Fraction(-7, 2))
                                        - bounds.lower(Fraction(-7, 2)))


def test_one_boundary_walk_per_cell(monkeypatch):
    calls = []
    numerators = cg._numerators

    def counted(*args):
        calls.append(args)
        return numerators(*args)

    monkeypatch.setattr(cg, "_numerators", counted)
    fam = _family(scheme="factorized", t=5, U=2, V=2, W=2,
                  J=cg.Interval(0, 30), bounds=av.constant_bounds(5), seed=3)
    av.avg_report(fam, 10.0, 0.05)
    assert len(calls) == len(fam.cells()) > 1
    calls.clear()
    cg.boundary_report(1, 1, 7, cg.affine_bounds(0, 1, 3, 2), cg.Interval(0, 20), H=4)
    assert len(calls) == 1
