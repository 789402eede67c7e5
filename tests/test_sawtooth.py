import math
import random
import tracemalloc

import numpy as np
import pytest

from congruence_lab import arith, cli, sawtooth

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
    # w_h = J(h/(H+1)) / (pi h) with J in (0, 1), held as a read-only array
    poly = sawtooth.vaaler_polynomial(16)
    w = poly.sine_weights
    assert w.dtype == np.float64 and w.shape == (16,)
    for h, wh in enumerate(w.tolist(), 1):
        assert 0.0 < wh <= 1 / (math.pi * h) + 2e-15
    assert not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0


@pytest.mark.parametrize("H", [1, 8, 64, 1000, 20_000, 200_000])
def test_sine_weights_match_complex_coefficients(H):
    # 2 Im(i T / D) = 2 (T / D) bit for bit: the real weights equal those
    # taken from the complex coefficients a_h
    got = sawtooth.vaaler_polynomial(H).sine_weights
    assert np.array_equal(got.view(np.uint64), oracles.complex_sine_weights(H).view(np.uint64))


@pytest.mark.parametrize("H", [1, 2, 7, 16, 64, 1000, 4096, 20_000])
def test_sine_weights_within_bound_of_40_digit_reference(H):
    # fl(pi x) near pi makes cot ill-conditioned, so J(h/(H+1)) carries an
    # absolute error up to about (H + 1) u near h = H; the weight w_h carries
    # it divided by pi h (measured: at most 0.67 (H + 1) u / (pi h))
    mpmath = pytest.importorskip("mpmath")
    got = sawtooth.vaaler_polynomial(H).sine_weights.tolist()
    ref = oracles.sine_weights_mp(H)
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpf(w) - r) * mpmath.pi * h
                    for h, (w, r) in enumerate(zip(got, ref), 1))
    assert worst <= (H + 1) * mpmath.mpf(2) ** -53


def test_evaluate_many_matches_scalar():
    # each x evaluated alone has the bits it has among the others
    poly = sawtooth.vaaler_polynomial(8)
    xs = np.linspace(-1.3, 2.7, 101)
    many = poly.evaluate_many(xs)
    for x, v in zip(xs, many):
        assert v == poly.evaluate_many(np.array([x]))[0]


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
        xs = np.array([rng.uniform(-2, 2) for _ in range(2000)])
        for x, v in zip(xs, poly.evaluate_many(xs)):
            err = abs(sawtooth.psi(x) - v)
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
            ref_v = sum(poly.sine_weights[h - 1] * -math.sin(2 * math.pi * h * x)
                        for h in range(1, H + 1))
            ref_f = (1.0 + sum(2.0 * (1.0 - h / (H + 1)) * math.cos(2 * math.pi * h * x)
                               for h in range(1, H + 1))) / (H + 1)
            assert v == pytest.approx(ref_v, abs=1e-12)
            assert f == pytest.approx(ref_f, abs=1e-12)
    assert list(sawtooth.psi(xs)) == [x - math.floor(x) - 0.5 for x in xs]


def test_row_blocks_match_one_piece_outer_products():
    # the vector paths evaluate the x-by-h outer product in blocks of rows;
    # each row sums alone, so they equal the one-piece products bit for bit
    H = 64
    xs = np.random.default_rng(3).random(3 * arith.block_rows(H) + 17)
    hs = np.arange(1, H + 1, dtype=np.float64)
    poly = sawtooth.vaaler_polynomial(H)
    w = poly.sine_weights
    one_piece = -(np.sin(2.0 * math.pi * np.outer(xs, hs)) * w).sum(axis=1)
    assert np.array_equal(poly.evaluate_many(xs), one_piece)
    w = 2.0 * (1.0 - hs / (H + 1))
    one_piece = (1.0 + (np.cos(2.0 * math.pi * np.outer(xs, hs)) * w).sum(axis=1)) / (H + 1)
    assert np.array_equal(sawtooth.fejer_majorant_many(xs, H), one_piece)


def test_row_sums_hold_one_block_budget_at_large_H(monkeypatch):
    # at H = 20,000 a block is block_rows(H) = 13 rows, so each x-by-h
    # temporary stays near 2 MiB however many x a call holds (512 x at once
    # would take 80 MB); one row per block gives the same bits
    H = 20_000
    xs = np.random.default_rng(5).random(512)
    poly = sawtooth.vaaler_polynomial(H)
    tracemalloc.start()
    try:
        values = poly.evaluate_many(xs), sawtooth.fejer_majorant_many(xs, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    monkeypatch.setattr(arith, "BLOCK_CELLS", 1)
    assert np.array_equal(values[0], poly.evaluate_many(xs))
    assert np.array_equal(values[1], sawtooth.fejer_majorant_many(xs, H))


@pytest.mark.parametrize("H, n", [(20_000, 512), (200_000, 16)])
def test_majorant_slack_traced_peak_within_stated_figure(H, n):
    # README "Conventions": the weights (8 H bytes) and the screen's list of
    # them (32 H), or the weights, the row sums' hs and Fejer weights (16 H)
    # and two x-by-h blocks, plus 80 bytes per x and 2^17 bytes
    xs = cli.random_floats(1, n)
    tracemalloc.start()
    try:
        sawtooth.majorant_slack(xs, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(40 * H, 24 * H + 16 * H * arith.block_rows(H)) + 80 * n + 2**17


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
