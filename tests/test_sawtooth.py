import math
import random

import numpy as np
import pytest

from congruence_lab import sawtooth

import oracles


def test_psi_values():
    assert sawtooth.psi(0.25) == -0.25
    assert sawtooth.psi(0.0) == -0.5
    assert sawtooth.psi(1.0) == -0.5
    assert sawtooth.psi(-0.25) == 0.25
    assert sawtooth.psi(3.75) == 0.25


def test_psi_periodic_on_rational_grid():
    for k in range(64):
        x = k / 64
        assert sawtooth.psi(x + 3) == pytest.approx(sawtooth.psi(x), abs=1e-12)


def test_fourier_partial_sum_converges():
    x = 0.3
    assert abs(sawtooth.psi(x) - oracles.psi_fourier(x, 4000)) < 1e-3
    with pytest.raises(ValueError):
        oracles.psi_fourier(0.3, 0)


def test_coefficients_structure():
    poly = sawtooth.vaaler_polynomial(16)
    assert poly.coefficient(0) == 0
    assert poly.coefficient(17) == 0
    for h in range(1, 17):
        a = poly.coefficient(h)
        assert a.real == 0.0  # purely imaginary
        assert poly.coefficient(-h) == a.conjugate()
        assert abs(a) <= 1 / (math.pi * h) + 1e-15


def test_evaluate_many_matches_scalar():
    poly = sawtooth.vaaler_polynomial(8)
    xs = np.linspace(-1.3, 2.7, 101)
    many = poly.evaluate_many(xs)
    for x, v in zip(xs, many):
        assert v == pytest.approx(poly.evaluate(float(x)), abs=1e-12)


def test_fejer_majorant_values():
    assert oracles.fejer_majorant(0.0, 4) == pytest.approx(1.0)
    # nonnegative everywhere
    rng = random.Random(7)
    for H in (1, 4, 16):
        for _ in range(500):
            assert oracles.fejer_majorant(rng.random(), H) >= -1e-12


def test_fejer_majorant_mean():
    # trig polynomial of degree H: averaging over 4H+4 equispaced points is exact
    for H in (1, 3, 8, 16):
        n = 4 * H + 4
        mean = sum(oracles.fejer_majorant(k / n, H) for k in range(n)) / n
        assert mean == pytest.approx(1 / (H + 1), abs=1e-9)


def test_majorant_bounds_approximation_error():
    rng = random.Random(5501)
    for H in (1, 4, 16):
        poly = sawtooth.vaaler_polynomial(H)
        for _ in range(2000):
            x = rng.uniform(-2, 2)
            err = abs(sawtooth.psi(x) - poly.evaluate(x))
            assert err <= oracles.fejer_majorant(x, H) + 1e-9


def test_vaaler_check():
    assert oracles.vaaler_check(0.37, 16, slack=1e-9)
    with pytest.raises(ValueError):
        sawtooth.vaaler_polynomial(0)
    with pytest.raises(ValueError):
        oracles.fejer_majorant(0.1, 0)


def test_vector_paths_match_term_by_term_sums():
    # the defining sums, one term at a time, as an independent reference
    xs = np.linspace(-1.3, 2.7, 41)
    for H in (1, 5, 16):
        poly = sawtooth.vaaler_polynomial(H)
        for x, v, f in zip(xs, poly.evaluate_many(xs), sawtooth.fejer_majorant_many(xs, H)):
            ref_v = sum(2.0 * poly.coeffs[h - 1].imag * -math.sin(2 * math.pi * h * x)
                        for h in range(1, H + 1))
            ref_f = (1.0 + sum(2.0 * (1.0 - h / (H + 1)) * math.cos(2 * math.pi * h * x)
                               for h in range(1, H + 1))) / (H + 1)
            assert v == pytest.approx(ref_v, abs=1e-12)
            assert f == pytest.approx(ref_f, abs=1e-12)
    assert list(sawtooth.psi(xs)) == [x - math.floor(x) - 0.5 for x in xs]


def test_row_blocks_match_one_piece_outer_products():
    # the vector paths evaluate the x-by-h outer product in blocks of rows;
    # each row sums alone, so they equal the one-piece products bit for bit
    xs = np.random.default_rng(3).random(3 * sawtooth._ROWS + 17)
    H = 64
    hs = np.arange(1, H + 1, dtype=np.float64)
    poly = sawtooth.vaaler_polynomial(H)
    w = np.array([2.0 * c.imag for c in poly.coeffs])
    one_piece = -(np.sin(2.0 * math.pi * np.outer(xs, hs)) * w).sum(axis=1)
    assert np.array_equal(poly.evaluate_many(xs), one_piece)
    w = 2.0 * (1.0 - hs / (H + 1))
    one_piece = (1.0 + (np.cos(2.0 * math.pi * np.outer(xs, hs)) * w).sum(axis=1)) / (H + 1)
    assert np.array_equal(sawtooth.fejer_majorant_many(xs, H), one_piece)


def _inline_slack(xs, H):
    # the row-sum definition of the majorant check, over all of xs at once
    poly = sawtooth.vaaler_polynomial(H)
    return np.abs(sawtooth.psi(xs) - poly.evaluate_many(xs)) - sawtooth.fejer_majorant_many(xs, H)


def _inline_check(xs, H):
    slack = _inline_slack(xs, H)
    return int((slack > 0).sum()), float(slack.max())


def test_majorant_slack_matches_row_sums(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(H=st.integers(1, 128), seed=st.integers(0, 2**64 - 1),
                      n=st.integers(1, 3000), zeros=st.booleans(),
                      block=st.sampled_from([7, 64, 1 << 14]))
    def check(H, seed, n, zeros, block):
        # zeros adds the majorant's zeros k/(H+1), where the slack is ~0 and
        # the screen must defer to the row sums; small blocks make the
        # largest slack turn up in a later block than the first candidates
        monkeypatch.setattr(sawtooth, "_BLOCK", block)
        xs = np.random.default_rng(seed).random(n)
        if zeros:
            xs = np.concatenate([xs, np.arange(1, H + 1) / (H + 1)])
        assert sawtooth.majorant_slack(xs, H) == _inline_check(xs, H)

    check()


def test_majorant_slack_rounding_case():
    # H = 64, seed 645583 of vaaler: one x ~0.4 where the row sums put the
    # error 1.1e-16 above a majorant zero
    rng = random.Random(645583)
    xs = np.array([rng.random() for _ in range(200_000)])
    assert sawtooth.majorant_slack(xs, 64) == (1, 1.13584355596266e-16)


def _adversarial_points(H, seed):
    # k/(H+1) +- 2^-j, the points next to 0, 1/2 and 1, and random x
    pts = [k / (H + 1) + sign * 2.0**-j
           for k in range(H + 2) for j in range(8, 60, 3) for sign in (-1, 1)]
    pts += [k / (H + 1) for k in range(H + 1)]
    pts += [c + sign * 2.0**-j for c in (0.0, 0.5, 1.0) for j in range(1, 1075, 7)
            for sign in (-1, 1)]
    pts += [5e-324, 2.0**-1000, 2.0**-1000 - 2.0**-1060, 1.0 - 2.0**-53, 0.5 - 2.0**-54]
    xs = np.concatenate([np.array(pts), np.random.default_rng(seed).random(5000)])
    return xs[(xs >= 0.0) & (xs < 1.0)]


@pytest.mark.parametrize("H", [1, 2, 3, 8, 31, 64, 128, 500])
def test_screen_within_hundredth_of_its_bound(H):
    xs = _adversarial_points(H, H)
    screen = sawtooth._screen_slack(xs, sawtooth.vaaler_polynomial(H))
    assert np.max(np.abs(screen - _inline_slack(xs, H))) <= sawtooth.slack_error_bound(H) / 100


def test_majorant_slack_refusals():
    with pytest.raises(ValueError, match="at least one x"):
        sawtooth.majorant_slack(np.array([]), 4)
    for bad in ([0.5, 1.0], [-1e-300, 0.5], [0.5, float("nan")], [2.5]):
        with pytest.raises(ValueError, match=r"in \[0, 1\)"):
            sawtooth.majorant_slack(np.array(bad), 4)
    with pytest.raises(ValueError, match="H must be >= 1"):
        sawtooth.majorant_slack(np.array([0.5]), 0)
    with pytest.raises(ValueError, match="H <= 1000000, got H = 1000001"):
        sawtooth.majorant_slack(np.array([0.5]), 10**6 + 1)
