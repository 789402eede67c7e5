import functools
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import arith, cli, dp6

import oracles


def test_icbrt_values():
    assert dp6.icbrt(0) == 0
    assert dp6.icbrt(7) == 1
    assert dp6.icbrt(8) == 2
    assert dp6.icbrt(26) == 2
    assert dp6.icbrt(27) == 3
    assert dp6.icbrt(10**18) == 10**6
    with pytest.raises(ValueError):
        dp6.icbrt(-1)


def test_icbrt_property_seeded():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(0, 10**15)
        r = dp6.icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_icbrt_beyond_float_range():
    for n in (10**400, 10**399 - 1):
        r = dp6.icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_omega_table_matches_scalar():
    om = dp6._omega_upto(2000)
    for n in range(1, 2001):
        assert int(om[n]) == oracles.big_omega(n), n


def test_omega_table_matches_big_omega_to_1e5():
    top = 47**3  # 103823
    ref = np.array([0] + [oracles.big_omega(n) for n in range(1, top + 1)])
    # 10^5, and limits that end the table at or next to the square of a prime
    # near sqrt(limit) (313^2 = 97969, 317^2 = 100489) or the cube of a prime
    limits = (10**5, 313**2 - 1, 313**2, 313**2 + 1, 317**2 - 1, 317**2, 317**2 + 1,
              43**3, 47**3 - 1, 47**3)
    for limit in limits:
        om = dp6._omega_upto(limit)
        assert om.dtype == np.int8 and not om.flags.writeable
        assert np.array_equal(om[: limit + 1], ref[: limit + 1]), limit
        # the pad tail: isqrt(2 limit) + 2 entries of 2L - 1, L = limit.bit_length()
        tail = om[limit + 1 :]
        assert tail.size == math.isqrt(2 * limit) + 2, limit
        assert (tail == 2 * limit.bit_length() - 1).all(), limit
    assert ref[313**2] == 2 and ref[317**2] == 2 and ref[47**3] == 3


# ---- torsor and surface geometry ----

def test_torsor_point_example():
    p = oracles.TorsorPoint((1, 1, 1, 2), (1, -3, 1))
    assert p.eta == (1, 1, 1, 2)


def test_torsor_point_violations():
    with pytest.raises(ValueError):
        oracles.TorsorPoint((1, 1, 1, 2), (1, -3, 2))  # equation fails
    with pytest.raises(ValueError):
        oracles.TorsorPoint((1, 2, 2, 1), (1, -1, -1))  # eta2, eta3 not coprime
    with pytest.raises(ValueError):
        oracles.TorsorPoint((1, 1, 1, 2), (1, 0, -1))  # zero alpha
    with pytest.raises(ValueError):
        oracles.TorsorPoint((0, 1, 1, 2), (1, -3, 1))  # nonpositive eta
    with pytest.raises(ValueError):
        oracles.TorsorPoint((1, 1, 1, 3), (3, -12, 1))  # gcd(alpha1, eta4) > 1


def test_surface_point_validation():
    oracles.SurfacePoint((-3, -3, 2, -6, 4, 8, 4))
    with pytest.raises(ValueError):
        oracles.SurfacePoint((0, 0, 0, 1, 1, 0, 0))  # x3 x4 != x0 x5
    with pytest.raises(ValueError):
        oracles.SurfacePoint((1, 0, 0, 1, 1, 1, 0))  # second quadric fails
    with pytest.raises(ValueError):
        oracles.SurfacePoint((0, 0, 0, 0, 0, 0, 0))


def test_pi_map_frozen_example():
    p = oracles.TorsorPoint((1, 1, 1, 2), (1, -3, 1))
    surf = oracles.pi_map(p)
    assert surf.x == (-3, -3, 2, -6, 4, 8, 4)
    assert surf.height() == 8
    assert math.prod(surf.x) == -13824


def test_special_point_validation():
    sp = oracles.SpecialPoint(7, 1, 8, 1000)
    assert sp.alpha3 == 1
    with pytest.raises(ValueError):
        oracles.SpecialPoint(6, 1, 7, 1000)  # composite q
    with pytest.raises(ValueError):
        oracles.SpecialPoint(11, 1, 12, 1000)  # q^3 > B
    with pytest.raises(ValueError):
        oracles.SpecialPoint(3, 1, 4, 1000)  # 8 q^3 <= B
    with pytest.raises(ValueError):
        oracles.SpecialPoint(7, 6, 43, 1000)  # 8 alpha1^3 > B
    with pytest.raises(ValueError):
        oracles.SpecialPoint(7, 1, 9, 1000)  # alpha2 != alpha1^2 (mod q)
    with pytest.raises(ValueError):
        oracles.SpecialPoint(7, 1, 1, 1000)  # alpha3 = 0
    with pytest.raises(ValueError):
        oracles.SpecialPoint(7, 1, 400, 1000)  # 8 alpha2^3 > B^2


def test_prime_window():
    assert dp6.prime_window(1000) == [7]
    assert dp6.prime_window(10**4) == [11, 13, 17, 19]
    assert dp6.prime_window(8) == [2]


def _point_rows(B, t):
    # the rows of point_blocks(B, t) as lists of Python ints
    return [row for block in dp6.point_blocks(B, t) for row in block.tolist()]


def test_enumeration_frozen_counts():
    rows = _point_rows(1000, 12)
    assert len(rows) == 31
    assert rows[0] == [7, 1, 8, 1, -8, -8, 7, -56, 49, 343, 49, 3]
    head = [tuple(row[:4]) for row in rows[:5]]
    assert head == [(7, 1, 8, 1), (7, 1, 15, 2), (7, 1, 22, 3), (7, 1, 29, 4),
                    (7, 1, 36, 5)]

    assert len(_point_rows(8, 20)) == 0
    assert len(_point_rows(1000, 0)) == 0
    assert len(_point_rows(1000, 3)) == 10


def test_record_invariants():
    for q, a1, a2, a3, *x, omega in _point_rows(1000, 12):
        sp = oracles.SpecialPoint(q, a1, a2, 1000)
        assert sp.alpha3 == a3
        tp = oracles.special_to_torsor(sp)
        assert tp.eta == (1, 1, 1, q)
        assert tp.alpha == (a1, -a2, a3)
        surf = oracles.SurfacePoint(tuple(x))
        assert surf == oracles.pi_map(tp)
        assert surf.height() <= 1000
        # product of coordinates collapses to a perfect-cube pattern
        assert math.prod(surf.x) == q**9 * a1**3 * (-a2) ** 3 * a3**3
        assert omega == (
            oracles.big_omega(a1) + oracles.big_omega(a2) + oracles.big_omega(abs(a3))
        )
        assert omega <= 12


_POINTS_DESCRIPTION = "almost-prime surface points from the q-window torsor family"


@pytest.mark.parametrize("t", [0, 9, 12])
def test_point_blocks_match_dataclass_path(t, tmp_path, capsys):
    B = 10**5
    records = list(oracles.points_oracle(B, t))
    assert _point_rows(B, t) == [[r.special.q, r.special.alpha1, r.special.alpha2,
                                  r.special.alpha3, *r.surface.x, r.omega] for r in records]
    point_rows = [oracles.point_row(r) for r in records]
    for fmt_name, to_text in (("csv", oracles.csv_text), ("json", oracles.json_text)):
        out = tmp_path / f"points.{fmt_name}"
        argv = ["dp6-enumerate", "--B", str(B), "--t", str(t), "--out", str(out),
                "--format", fmt_name]
        assert cli.main(argv) == 0
        assert out.read_text() == to_text(_POINTS_DESCRIPTION, dp6.POINT_FIELDS,
                                          point_rows)
    assert f"B = {B}, t = {t}: {len(records)} points\n" in capsys.readouterr().out


def test_point_blocks_match_points_oracle_and_counts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(B=st.integers(1, 10**5), t=st.integers(0, 70))
    def check(B, t):
        rows = _point_rows(B, t)
        assert rows == [[r.special.q, r.special.alpha1, r.special.alpha2, r.special.alpha3,
                         *r.surface.x, r.omega] for r in oracles.points_oracle(B, t)]
        assert len(rows) == dp6.m_t_growth([B], t)[0].count

    check()


@pytest.mark.parametrize("B", [10**6, 10**7])
def test_point_blocks_stream_within_one_block_budget(B):
    # README "dp6 points": while point_blocks streams, it holds the Omega
    # table (and the table's uint32 sieve temporary) and one block of under
    # arith.BLOCK_CELLS int64 values; at 1e7 the blocks are cut by that budget
    a2max = dp6._alpha_bounds(B)[1]
    tracemalloc.start()
    try:
        count = sum(len(block) for block in dp6.point_blocks(B, 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == dp6.m_t_growth([B], 12)[0].count
    table = a2max + 1 + math.isqrt(2 * a2max) + 2
    assert peak <= table + 4 * (a2max + 1) + 8 * arith.BLOCK_CELLS, peak


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dp6_enumerate_streams_within_the_point_bound(tmp_path, capsys):
    # README "dp6 points": the streaming bound of point_blocks plus one
    # block's CSV text and digit-kernel temporaries, under 5 (w + 2) + 16
    # bytes for each of at most 12 BLOCK_CELLS // 48 cells, w the digits of
    # the widest cell (every |x_i| <= B); all the blocks at once would take
    # 96 bytes a point
    B = 10**7
    out = tmp_path / "points.csv"
    peak = _traced_peak(lambda: cli.main(["dp6-enumerate", "--B", str(B), "--out", str(out)]))
    count = dp6.m_t_growth([B], 12)[0].count
    assert capsys.readouterr().out == (f"B = {B}, t = 12: {count} points\n"
                                       f"wrote {count} rows to {out}\n")
    a2max = dp6._alpha_bounds(B)[1]
    table = a2max + 1 + math.isqrt(2 * a2max) + 2
    text = 12 * (arith.BLOCK_CELLS // 48) * (5 * (len(str(B)) + 2) + 16)
    bound = table + 4 * (a2max + 1) + 8 * arith.BLOCK_CELLS + text
    assert peak <= bound < 96 * count, (peak, bound)


@pytest.mark.parametrize("B", [10**6, 10**7])
def test_dp6_enumerate_json_streams_within_one_block_and_its_text(B, tmp_path, capsys):
    # README "dp6 points": the streaming bound of point_blocks plus, for each
    # of at most 12 BLOCK_CELLS // 48 cells, 2 w + 111 bytes (w the digits of
    # B): its str cell and two pointers (w + 66), the row template (23) and
    # its JSON text (w + 22), the previous block's text being dropped before
    # the next is made; every point held as a dict of str cells, as the
    # whole-table JSON would hold it, takes more
    out = tmp_path / "points.json"
    argv = ["dp6-enumerate", "--B", str(B), "--format", "json", "--out", str(out)]
    peak = _traced_peak(lambda: cli.main(argv))
    count = dp6.m_t_growth([B], 12)[0].count
    assert capsys.readouterr().out == (f"B = {B}, t = 12: {count} points\n"
                                       f"wrote {count} rows to {out}\n")
    a2max = dp6._alpha_bounds(B)[1]
    table = a2max + 1 + math.isqrt(2 * a2max) + 2
    text = 12 * (arith.BLOCK_CELLS // 48) * (2 * len(str(B)) + 111)
    bound = table + 4 * (a2max + 1) + 8 * arith.BLOCK_CELLS + text
    row = dict(zip(dp6.POINT_FIELDS, map(str, next(dp6.point_blocks(B, 12))[0].tolist())))
    held = count * (sys.getsizeof(row) + sum(map(sys.getsizeof, row.values())))
    assert peak <= bound < held, (peak, bound, held)


@pytest.mark.parametrize("budgets", [[10**6, 10**8, 10**9], [10**5, 10**7, 10**4]])
def test_m_t_growth_peak_matches_the_readme_formula(budgets):
    # README "dp6 counts": the largest budget's table, 5 bytes per entry of
    # sieve temporaries (uint32 cofactors and a bool mask), the padded heads
    # of two smaller budgets, G and three int8 or bool blocks
    peak = _traced_peak(lambda: dp6.m_t_growth(budgets, 12))
    bounds = {B: dp6._alpha_bounds(B) for B in budgets}
    top = max(a2max for _, a2max in bounds.values())
    table = top + 1 + math.isqrt(2 * top) + 2
    heads = sorted(a2max + 1 + math.isqrt(2 * a2max) + 2 for _, a2max in bounds.values())
    G = max(a1max**2 // min(dp6.prime_window(B)) + a2max // min(dp6.prime_window(B)) + 1
            for B, (a1max, a2max) in bounds.items())
    assert peak >= table + 5 * (top + 1)  # the sieve is the peak
    assert peak <= table + 5 * (top + 1) + 2 * heads[-2] + G + 3 * arith.BLOCK_CELLS, peak


def _corrupt_first_block(monkeypatch, corrupt):
    # _cell_blocks as it is, except that corrupt edits row alpha1 = 2 (index
    # 1) of the first block of the first window prime
    blocks = dp6._cell_blocks

    def corrupted(B, qs, om, *args):
        for q, a1, s, z, cells in blocks(B, qs, om, *args):
            if q == dp6.prime_window(B)[0] and a1[0] == 1:
                a1, s, z, cells = a1.copy(), s.copy(), z.copy(), cells.copy()
                corrupt(B, a1, s, z, cells, 1)
            yield q, a1, s, z, cells

    monkeypatch.setattr(dp6, "_cell_blocks", corrupted)


def _bump_alpha2(B, a1, s, z, cells, i):
    s[i] += 1


def _alpha1_out_of_window(B, a1, s, z, cells, i):
    a1[i] = dp6.icbrt(B // 8) + 1


def _real_alpha3_zero(B, a1, s, z, cells, i):
    # the alpha3 = 0 cell of the row as a real one with the largest real
    # sum: its point has Omega > 12, so point_blocks(B, 12) drops it
    cells[z[i], i] = 2 * dp6._alpha_bounds(B)[1].bit_length() - 2


@pytest.mark.parametrize("corrupt, failure", [
    (_bump_alpha2, "alpha2 must be alpha1^2 (mod q)"),
    (_alpha1_out_of_window, "alpha1 must lie in (0, B^{1/3}/2]"),
    (_real_alpha3_zero, "alpha3 must be nonzero"),
])
def test_point_blocks_refuse_a_corrupted_row(corrupt, failure, monkeypatch, capsys, tmp_path):
    B = 10**4
    q = dp6.prime_window(B)[0]
    _corrupt_first_block(monkeypatch, corrupt)
    om = dp6._omega_upto(dp6._alpha_bounds(B)[1])
    _, a1, s, z, cells = next(dp6._cell_blocks(B, [q], om))
    # the first real cell of the corrupted row, as point_blocks reads it
    largest = 2 * dp6._alpha_bounds(B)[1].bit_length() - 2
    k = next(k for k in range(len(cells)) if cells[k, 1] <= largest)
    row = f"q = {q}, (alpha1, alpha2, alpha3) = ({a1[1]}, {s[1] + k * q}, {k - z[1]})"
    if corrupt is _real_alpha3_zero:
        assert k == z[1] and cells[k, 1] + om[a1[1]] > 12  # a row that is dropped
    with pytest.raises(ValueError) as err:
        list(dp6.point_blocks(B, 12))
    assert row in str(err.value) and failure in str(err.value)
    assert cli.main(["dp6-enumerate", "--B", str(B)]) == 2
    assert row in capsys.readouterr().err
    # streaming to a file, the failing block stops the command before it prints
    assert cli.main(["dp6-enumerate", "--B", str(B), "--out", str(tmp_path / "p.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and row in err


@pytest.mark.parametrize("call, message", [
    (lambda: dp6._check_block(1000, 11, np.zeros((1, 12), dtype=np.int64)),
     r"family prime q = 11 must be a prime in \(B\^\{1/3\}/2, B\^\{1/3\}\]"),
], ids=["block prime outside the window"])
def test_kernels_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_point_blocks_refuse_a_composite_window_prime(monkeypatch, capsys, tmp_path):
    # a composite in the window (91 = 7 * 13, inside (50, 100] at B = 1e6)
    # is refused by the one factor_array of the window primes, apart from
    # the sieve that lists them, before the Omega sieve and the first block
    window, factor_array = dp6.prime_window, dp6.factor_array
    calls = []
    monkeypatch.setattr(dp6, "prime_window", lambda B: sorted([*window(B), 91]))
    monkeypatch.setattr(dp6, "factor_array", lambda n: calls.append(list(n)) or factor_array(n))

    def no_work(*args):
        raise AssertionError("the Omega table was sieved before the window was checked")

    monkeypatch.setattr(dp6, "_omega_upto", no_work)
    message = r"family prime q = 91 must be a prime in \(B\^\{1/3\}/2, B\^\{1/3\}\]"
    with pytest.raises(ValueError, match=message):
        next(dp6.point_blocks(10**6, 12))
    assert calls == [sorted([*window(10**6), 91])]
    out_file = tmp_path / "p.csv"
    assert cli.main(["dp6-enumerate", "--B", "1000000", "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "family prime q = 91 must be a prime in (B^{1/3}/2, B^{1/3}]" in err


def test_point_blocks_int64_budget_limit():
    limit = dp6.POINT_BUDGET_LIMIT
    assert limit == 2**31
    dp6.point_blocks(limit - 1, 12)  # accepted; the generator does no work yet
    for B in (limit, 10**10):
        with pytest.raises(ValueError, match=f"B = {B} too large"):
            dp6.point_blocks(B, 12)


def _l_t(B, q, t):
    # L_t of one prime q <= B^{1/3}, from the Omega table of B alone
    return dp6._l_t_counts(B, [q], t, dp6._omega_upto(dp6._alpha_bounds(B)[1]))[0]


def test_l_t_count_matches_enumeration():
    assert _l_t(1000, 7, 12) == 31
    B = 10**4
    per_q = {q: _l_t(B, q, 12) for q in dp6.prime_window(B)}
    rows = _point_rows(B, 12)
    assert per_q == Counter(row[0] for row in rows)
    assert sum(per_q.values()) == len(rows)


def test_m_t_growth():
    rows = dp6.m_t_growth([1000, 10**4], 12)
    assert [r.count for r in rows] == [31, len(_point_rows(10**4, 12))]
    assert rows[0].count < rows[1].count
    for r in rows:
        assert r.normalized == pytest.approx(r.count * math.log(r.B) ** 5 / r.B)


def _l_t_brute(B, q, t):
    # direct scan of the window pairs with exact cube comparisons
    if q**3 > B:
        return 0
    count = 0
    a1 = 1
    while 8 * a1**3 <= B:
        a2 = 1
        while 8 * a2**3 <= B * B:
            a3, r = divmod(a2 - a1 * a1, q)
            if a1 % q and r == 0 and a3 != 0:
                count += oracles.big_omega(a1 * a2 * abs(a3)) <= t
            a2 += 1
        a1 += 1
    return count


def test_l_t_count_matches_brute_scan():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(data=st.data(), B=st.integers(8, 12_000), t=st.integers(0, 14))
    def check(data, B, t):
        # every prime up to B^{1/3}, the window and below it
        q = data.draw(st.sampled_from(arith.sieve_primes(dp6.icbrt(B))))
        assert _l_t(B, q, t) == _l_t_brute(B, q, t)

    check()


def _l_t_family(B, q, t):
    # the masked count over the blocks of the second enumerator, the
    # repeat-based one of tests/oracles
    if q**3 > B:
        return 0
    return sum(int(np.count_nonzero(oracles.family_omega(B, *block) <= t))
               for block in oracles.family_blocks(B, q))


def _family_size(B, q):
    return sum(block[0].size for block in oracles.family_blocks(B, q))


def test_l_t_count_matches_family_count():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(data=st.data(), B=st.integers(1, 10**8), t=st.integers(0, 70))
    def check(data, B, t):
        # every prime up to B^{1/3}, the window and below it (2 for B < 8)
        q = data.draw(st.sampled_from(arith.sieve_primes(max(dp6.icbrt(B), 2))))
        assert _l_t(B, q, t) == _l_t_family(B, q, t)

    check()


def test_l_t_count_every_window_prime_and_t():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(B=st.integers(1, 300_000))
    def check(B):
        for q in dp6.prime_window(B):
            om = np.concatenate([np.zeros(0, np.int8),
                                 *(oracles.family_omega(B, *block)
                                   for block in oracles.family_blocks(B, q))])
            for t in range(16):
                assert _l_t(B, q, t) == int(np.count_nonzero(om <= t)), (q, t)

    check()


def test_omega_tail_covers_every_count_view():
    # _cell_blocks reads om[:q K] as a (K, q) view, K = a2max // q + 1, for
    # every prime q <= icbrt(B); q K <= a2max + q, so the largest q decides
    budgets = set(range(1, 20_000)) | {2**49, 2**50 // 3}
    budgets |= {r**3 + d for r in range(2, 3000) for d in (-1, 0, 1)}
    budgets |= {r**3 + d for r in range(2**16 - 50, 2**16) for d in (-1, 0, 1)}
    for B in sorted(budgets):
        a2max = dp6._alpha_bounds(B)[1]
        size = a2max + 1 + math.isqrt(2 * a2max) + 2  # len(dp6._omega_upto(a2max))
        assert a2max + dp6.icbrt(B) <= size, B


@pytest.mark.parametrize("B, q", [(1000, 7), (10**6, 2), (10**6, 59), (10**6, 97),
                                  (10**8, 409)])
def test_l_t_count_fixed_cases(B, q):
    assert _l_t(B, q, 12) == _l_t_family(B, q, 12)
    assert _l_t(B, q, 10**6) == _family_size(B, q)


def test_l_t_count_alpha3_zero_beyond_the_row(monkeypatch):
    # In the family alpha1^2 <= a2max, so the alpha3 = 0 cell k = z of a row
    # always lies before its last alpha2.  Widening the alpha1 window to
    # 9 > sqrt(50) at B = 1000 (a2max = 50) puts it at k >= n for alpha1 = 8
    # and 9 (and beyond the K columns of q = 7); both counts must still agree.
    monkeypatch.setattr(dp6, "_alpha_bounds", lambda B: (9, 50))
    q = 7
    a1 = np.arange(1, 10)
    a1 = a1[a1 % q != 0]
    z, n = a1 * a1 // q, (50 - a1 * a1 % q) // q + 1
    assert (z >= n).any()
    for t in (0, 3, 6, 12, 10**6):
        assert _l_t(1000, q, t) == _l_t_family(1000, q, t)
    assert _l_t(1000, q, 10**6) == _family_size(1000, q)


def test_l_t_counts_match_l_t_count_and_family():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(data=st.data(),
                      Bs=st.lists(st.one_of(st.integers(1, 7), st.integers(8, 10**7)),
                                  min_size=1, max_size=3),
                      t=st.integers(0, 70))
    def check(data, Bs, t):
        Bs += data.draw(st.lists(st.sampled_from(Bs), max_size=2))  # repeated budgets
        top = max(dp6._alpha_bounds(B)[1] for B in Bs)
        base = dp6._omega_upto(top)
        for B in Bs:
            # the table of B as a padded head of the largest budget's table
            a2max = dp6._alpha_bounds(B)[1]
            om = np.concatenate([base[: a2max + 1], np.full(
                math.isqrt(2 * a2max) + 2, 2 * a2max.bit_length() - 1, dtype=np.int8)])
            # every prime up to B^{1/3}, the window and below it; none for B < 8
            primes = arith.sieve_primes(dp6.icbrt(B))
            qs = data.draw(st.lists(st.sampled_from(primes), max_size=4)) if primes else []
            expected = [_l_t(B, q, t) for q in qs]
            assert dp6._l_t_counts(B, qs, t, om) == expected
            assert expected == [_l_t_family(B, q, t) for q in qs]
        rows = dp6.m_t_growth(Bs, t)
        assert [r.count for r in rows] == [
            sum(_l_t_family(B, q, t) for q in dp6.prime_window(B)) for B in Bs]

    check()


def test_l_t_counts_repeated_prime():
    B = 10**6
    om = dp6._omega_upto(dp6._alpha_bounds(B)[1])
    qs = [59, 97, 59, 2, 97, 97]
    assert dp6._l_t_counts(B, qs, 12, om) == [_l_t_family(B, q, 12) for q in qs]
    assert dp6._l_t_counts(B, [97, 97], 10**6, om) == [_family_size(B, 97)] * 2


def test_m_t_growth_counts_from_padded_heads_of_one_table(monkeypatch):
    tables = {}
    count = dp6._l_t_counts

    def recording(B, qs, t, om):
        tables[B] = np.array(om)
        return count(B, qs, t, om)

    monkeypatch.setattr(dp6, "_l_t_counts", recording)
    sieve = dp6._omega_upto
    sieved = []
    monkeypatch.setattr(dp6, "_omega_upto", lambda limit: sieved.append(limit) or sieve(limit))
    rows = dp6.m_t_growth([10**6, 10**8, 7, 10**5, 10**6], 12)
    assert sieved == [dp6._alpha_bounds(10**8)[1]]
    assert [r.count for r in rows[:3]] == [33689, 2723055, 0]
    assert sorted(tables) == [7, 10**5, 10**6, 10**8]
    for B, om in tables.items():
        table = sieve(dp6._alpha_bounds(B)[1])
        assert om.dtype == table.dtype and om.tobytes() == table.tobytes(), B


def test_l_t_count_int8_budget_limit(monkeypatch):
    B = 2**50  # a2max = icbrt(2^97) >= 2^32
    assert dp6._alpha_bounds(B)[1] >= dp6.COUNT_ALPHA2_LIMIT
    with pytest.raises(ValueError, match=f"B = {B} too large"):
        dp6._check_count_budget(B)

    def no_work(*args):
        raise AssertionError("m_t_growth sieved or counted before the arguments were checked")

    monkeypatch.setattr(dp6, "_l_t_counts", no_work)
    monkeypatch.setattr(dp6, "_omega_upto", no_work)
    with pytest.raises(ValueError, match=f"B = {B} too large"):
        dp6.m_t_growth([1000, B], 12)
    with pytest.raises(ValueError, match="factor bound t must be nonnegative"):
        dp6.m_t_growth([1000], -1)


# ---- sieve sequence and densities ----

def _sequence(B, q):
    # the sieve sequence (n, a) of dp6-sieve and its X, for a q of the window primes
    X = dp6._window_ratio(B, q)
    return (*dp6._sieve_sequence(B, q), X)


def test_build_sieve_sequence():
    n, a, X = _sequence(1000, 7)
    assert X == Fraction(1500, 49)
    assert a.sum() == 31
    assert (n > 0).all() and (n % 2 == 0).all() and (a > 0).all()
    assert (np.diff(n) > 0).all() and n.dtype == a.dtype == np.int64
    with pytest.raises(ValueError, match=r"q must lie in \(B\^\{1/3\}/2, B\^\{1/3\}\]"):
        dp6._window_ratio(1000, 11)
    with pytest.raises(ValueError, match="q must be prime"):
        dp6.sieve_condition_report(1000, 6, 0.4, 1.0, 1000, 30, 12, 4.0)


def _sieve_counter(B, q):
    a1max, a2max = dp6.icbrt(B // 8), dp6.icbrt(B * B // 8)
    return dict(Counter(
        a1 * a2 * abs((a2 - a1 * a1) // q)
        for a1 in range(1, a1max + 1) if a1 % q
        for a2 in range(a1 * a1 % q, a2max + 1, q) if a2 != a1 * a1
    ))


def _as_dict(seq):
    n, a, _ = seq
    return dict(zip(n.tolist(), a.tolist()))


@pytest.mark.parametrize("B", [10**4, 10**5])
def test_sieve_sequence_matches_counter(B):
    for q in dp6.prime_window(B):
        assert _as_dict(_sequence(B, q)) == _sieve_counter(B, q), q


def test_sieve_sequence_matches_counter_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(B=st.integers(8, 2 * 10**5))
    def check(B):
        for q in dp6.prime_window(B):
            assert _as_dict(_sequence(B, q)) == _sieve_counter(B, q), q

    check()


def test_sieve_sequence_refuses_int64_overflow():
    B = 10**15
    with pytest.raises(ValueError, match=f"B = {B}"):
        dp6._window_ratio(B, dp6.prime_window(B)[0])


def _remainder_term(seq, q, d):
    # 4^omega(d) |R_d| of one squarefree d, as the remainder sum takes it
    return dp6._w2_sum(*seq, 0.4, 1.0, d, dp6._rhos([d], q))["sum"]


def test_sum_over_d():
    seq = n, a, X = _sequence(1000, 7)
    # d = 1: the a_n sum to 31, against the prediction X = 1500/49
    assert a.sum() == 31
    assert float(X) == pytest.approx(30.612244897959183)
    assert _remainder_term(seq, 7, 1) == pytest.approx(0.387755102040817)
    # d = 2: every element is even, so the sum is 31 again, against rho(2)/2 X = X
    assert (n % 2 == 0).all()
    assert _remainder_term(seq, 7, 2) == pytest.approx(4 * 0.387755102040817)


def _check_sieve_report(B, q, tau_level, c2, rho_max):
    # sieve_condition_report and single remainder terms against the dict
    # scans of tests/oracles over the sequence by direct loops, floats by
    # float.hex
    a = _sieve_counter(B, q)
    X = Fraction((q - 1) * B, 4 * q * q)
    kwargs = dict(tau_level=tau_level, c2=c2, z_max=5, rho_table_max=rho_max, t=12, mu=4.0)
    Xf = float(X)
    if Xf <= 1 or Xf**tau_level / math.log(Xf) ** c2 < 1:
        with pytest.raises(ValueError):
            dp6.sieve_condition_report(B, q, **kwargs)
        return
    want = oracles.w2_sum_scan(a, q, X, tau_level, c2)
    rep = dp6.sieve_condition_report(B, q, **kwargs)
    seq = _sequence(B, q)
    assert seq[2] == X
    assert rep["points_total"] == seq[1].sum() == sum(a.values())
    assert rep["rho_table"] == {str(d): f"{_rho(d, q).numerator}/{_rho(d, q).denominator}"
                                for d in range(1, rho_max + 1) if oracles.mobius(d)}
    assert rep["w2"].keys() == want.keys()
    assert [float(v).hex() for v in rep["w2"].values()] == [float(v).hex() for v in want.values()]
    for d in (1, 2, 3, 6, 30, q, 210):
        _, _, rem = oracles.sum_over_d_scan(a, q, X, d)
        term = 4 ** len(oracles.prime_factors(d)) * abs(rem)
        assert _remainder_term(seq, q, d).hex() == term.hex(), d


def test_sieve_report_matches_dict_scan_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(B=st.integers(8, 2 * 10**5), tau_level=st.floats(0.05, 1.2),
                      c2=st.floats(0.0, 2.0), rho_max=st.integers(1, 300))
    def check(B, tau_level, c2, rho_max):
        for q in dp6.prime_window(B):
            _check_sieve_report(B, q, tau_level, c2, rho_max)

    check()


@pytest.mark.parametrize("tau_level, c2", [(0.4, 1.0), (0.9, 0.0), (0.05, 0.0), (0.7, 2.5)])
def test_sieve_report_matches_dict_scan_at_bench_budget(tau_level, c2):
    _check_sieve_report(10**6, 97, tau_level, c2, 210)


def _rho(d, q):
    # rho(d) of a squarefree d, as the rho table of dp6-sieve takes it
    return dp6._rhos([d], q)[d][1]


_mobius, _divisors, _phi_star = (
    functools.lru_cache(maxsize=None)(f)
    for f in (oracles.mobius, oracles.divisors, oracles.phi_star)
)


def _rho_triple_sum(d, q):
    # the defining sum of rho, term by term (see the comment of dp6._rhos),
    # over the trial loops of tests/oracles
    divs = _divisors(d)
    total = Fraction(0)
    for e1 in divs:
        for e2 in divs:
            if math.gcd(e1 * e2, q) != 1:
                continue
            for e3 in divs:
                if math.lcm(e1, e2, e3) != d:  # supported on every prime of d
                    continue
                k = math.gcd(math.gcd(e1, e2), e3)
                k13 = math.gcd(e1 // k, e3 // k)
                k23 = math.gcd(e2 // k, e3 // k)
                f3 = e3 // (k * k13 * k23)
                inner = sum(
                    Fraction(1, length) * _phi_star(f3 // length)
                    / _phi_star(math.gcd(f3 // length, q))
                    for length in _divisors(f3)
                )
                total += Fraction(
                    _mobius(e1) * _mobius(e2) * _mobius(e3) * k, e1 * e2 * e3
                ) * inner
    return _mobius(d) * d * total


def test_rho_euler_product_matches_triple_sum():
    pairs = [(d, q) for d in range(1, 400) if oracles.mobius(d)
             for q in (2, 3, 5, 7, 11, 13, 53, 73, 97)]
    assert len(pairs) == 2187
    for d, q in pairs:
        assert _rho(d, q) == _rho_triple_sum(d, q), (d, q)


def test_euler_matches_triple_sum_property():
    # _rhos([d], q) for d < 2^31: no entry exactly when the trial loop finds a
    # square factor, and otherwise omega(d) and the defining triple sum,
    # which takes 8^omega(d) terms and so is run for omega(d) <= 4
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 97]), max_size=12).map(math.prod)
    d_below = st.integers(1, 2**31 - 1) | small.filter(lambda d: d < 2**31)
    q_prime = st.sampled_from([2, 3, 5, 7, 11, 13, 97, 46337, 2**31 - 1])

    def check(d, q):
        factors = oracles.prime_factors(d)
        found = dp6._rhos([d], q).get(d)
        if oracles.mobius(d) == 0:
            assert found is None
            return
        assert found[0] == len(factors)
        if len(factors) <= 4:
            assert found[1] == _rho_triple_sum(d, q)

    for d, q in ((1, 7), (4, 7), (97 * 46337, 46337), (2 * 3 * 5 * 7, 7), (2**31 - 1, 2**31 - 1)):
        check = hypothesis.example(d=d, q=q)(check)
    hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)(
        hypothesis.given(d=d_below, q=q_prime)(check))()


def test_rho_frozen_values():
    q = 7
    assert _rho(1, q) == 1
    assert _rho(2, q) == 2
    assert _rho(3, q) == Fraction(7, 3)
    assert _rho(5, q) == Fraction(13, 5)
    assert _rho(7, q) == Fraction(8, 7)
    assert _rho(15, q) == Fraction(91, 15)
    assert _rho(6, q) == Fraction(14, 3)


def test_rho_prime_formula_and_multiplicativity():
    q = 7
    for p in [3, 5, 11, 13, 199]:
        assert _rho(p, q) == 3 - Fraction(2, p)
    assert _rho(q, q) == 1 + Fraction(1, q)
    pairs = [(2, 3), (3, 5), (5, 6), (7, 10), (2, 21)]
    for d1, d2 in pairs:
        assert math.gcd(d1, d2) == 1
        assert _rho(d1 * d2, q) == _rho(d1, q) * _rho(d2, q)


def test_rho_validation():
    # rho is taken only on squarefree d: _rhos has no entry for any other
    # d (q is checked once, by sieve_condition_report, before it factors a d)
    for d in (4, 12, 49, 2**30, 46337**2):
        assert dp6._rhos([d], 7) == {}, d


def test_rho_oracle_prime():
    brute, formula = oracles.rho_oracle_prime(5, 7)
    assert brute == formula
    with pytest.raises(ValueError):
        oracles.rho_oracle_prime(2, 7)
    with pytest.raises(ValueError):
        oracles.rho_oracle_prime(7, 7)


def test_sieve_threshold():
    assert dp6.sieve_threshold(3, 4, dp6.BETA_3) == pytest.approx(
        11.422382361257881, rel=1e-15
    )
    with pytest.raises(ValueError):
        dp6.sieve_threshold(0, 4, dp6.BETA_3)
    with pytest.raises(ValueError):
        dp6.sieve_threshold(3, 4, 1.0)


def test_w2_sum_shape():
    out = dp6.sieve_condition_report(1000, 7, 0.4, 1.0, 5, 30, 12, 4.0)["w2"]
    assert out["tau"] == 0.4
    assert out["d_max"] < 4
    assert out["sum"] >= 0
    assert out["implied_c3"] == pytest.approx(out["sum"] / out["comparison_scale"])
    X = float(Fraction(1500, 49))
    with pytest.raises(ValueError, match=r"d_max = .* is below 1.*--tau.*--c2"):
        dp6._d_max(X, 0.01, 1.0)
    # no cap: a level's cost is the admission budget's to refuse (tests/test_cli_options)
    assert dp6._d_max(X, 4.0, 1.0) == X**4 / math.log(X)
    with pytest.raises(ValueError, match=r"d_max = .* is infinite: change tau \(--tau\)"):
        dp6._d_max(X, 4096, 1.0)


def test_w1_min_c1():
    out = dp6._w1_min_c1(7, 200)
    assert out["min_c1"] >= 0
    with pytest.raises(ValueError):
        dp6._w1_min_c1(7, 3)


@pytest.mark.parametrize("z_max", [5, 7, 30, 100, 1000, 3000])
def test_w1_min_c1_has_the_bits_of_the_double_loop(z_max):
    # every window prime of the bench budget, q = 2, 3, 5 and one prime past the window
    for q in sorted({*dp6.prime_window(10**6), 2, 3, 5, 73, 97, 101}):
        got = dp6._w1_min_c1(q, z_max)["min_c1"]
        assert got.hex() == oracles.w1_min_c1_loop(q, z_max).hex(), q


@pytest.mark.parametrize("q, z_max", [(2, 30), (3, 1000), (5, 1000), (7, 1000), (97, 1000),
                                       (101, 3000)])
def test_w1_min_c1_against_40_digits(q, z_max):
    # README "Conventions": min_c1 is within 90 (n + 1) log(z_max) 2^-53 of
    # the grid maximum at 40 digits, n the number of grid primes (12.2 units
    # of 2^-53 the largest error seen, at the cell w = 3, z = 5)
    n = sum(1 for p in arith.sieve_primes(z_max) if p > 2)
    got = dp6._w1_min_c1(q, z_max)["min_c1"]
    want = oracles.w1_min_c1_mp(q, z_max)
    assert float(abs(want - got)) <= 90 * (n + 1) * math.log(z_max) * 2.0**-53, (got, want)


@pytest.mark.parametrize("q", [3, 7, 101])
def test_w1_grid_tolerance_covers_the_numpy_math_gap(q):
    # _w1_min_c1's docstring: numpy's and math's value of one cell differ by
    # delta < 1e-14, so the cell largest by math lies within 2 delta of the
    # numpy maximum, far inside _GRID_TOL.  delta measured on every cell of
    # the z_max = 3000 grid (2.8e-15 seen)
    ps = [p for p in arith.sieve_primes(3000) if p > 2]
    prefix = [0.0]
    for p in ps:
        prefix.append(prefix[-1] + math.log(float(1 - dp6._rho_factor(p, q) / p)))
    log_p = [math.log(p) for p in ps]
    S, L = np.array(prefix), np.array(log_p)
    i, j = np.triu_indices(len(ps), 1)
    by_numpy = (np.exp(-(S[j] - S[i])) / (L[j] / L[i]) ** 3 - 1) * L[i]
    by_math = [(math.exp(-(prefix[b] - prefix[a])) / (log_p[b] / log_p[a]) ** 3 - 1) * log_p[a]
               for a, b in zip(i.tolist(), j.tolist())]
    delta = float(np.abs(by_numpy - np.array(by_math)).max())
    assert delta < 1e-14 and 2 * delta < dp6._GRID_TOL / 1000, delta


def test_w1_min_c1_takes_the_euler_factors_without_rho(monkeypatch):
    # rho's own Euler factors, with q checked once for primality
    assert all(dp6._rho_factor(p, 7) == oracles.rho_oracle_prime(p, 7)[0] * p for p in (3, 11))
    assert dp6._rho_factor(7, 7) == _rho(7, 7) == 1 + Fraction(1, 7)
    want = dp6._w1_min_c1(83, 1000)

    def no_call(*args):
        raise AssertionError("_w1_min_c1 called rho's Euler product")

    monkeypatch.setattr(dp6, "_rhos", no_call)
    assert dp6._w1_min_c1(83, 1000) == want


def test_w1_min_c1_blocks_agree(monkeypatch):
    # the grid in blocks of one or a few rows has the bits of the grid in one block
    whole = dp6._w1_min_c1(97, 300)["min_c1"]
    for cells in (1, 200):
        monkeypatch.setattr(arith, "BLOCK_CELLS", cells)
        assert dp6._w1_min_c1(97, 300)["min_c1"].hex() == whole.hex()


def test_sieve_condition_report_is_json_ready():
    rep = dp6.sieve_condition_report(1000, 7, 0.4, 1.0, 100, 10, 12, 4.0)
    text = json.dumps(rep)
    back = json.loads(text)
    assert back["points_total"] == 31
    assert back["X"] == "1500/49"
    assert back["rho_table"]["2"] == "2/1"
    assert back["rho_table"]["3"] == "7/3"
    assert "4" not in back["rho_table"]
    assert back["rho_at_q"] == "8/7"
    assert back["threshold"]["t_exceeds"] is True
    assert back["threshold"]["value"] == pytest.approx(11.422382361257881)
    assert "every sequence element is even" in back["w1"]["note"]


@pytest.mark.parametrize("kwargs, message", [
    (dict(rho_table_max=0), r"\(--rho-max\) must be >= 1, got 0"),
    (dict(tau_level=0.0), r"\(--tau\) must be > 0, got 0.0"),
    (dict(c2=-1.0), r"\(--c2\) must be >= 0, got -1.0"),
    (dict(mu=0.0), r"\(--mu\) must be > 0, got 0.0"),
    (dict(mu=-2.5), r"\(--mu\) must be > 0, got -2.5"),
    (dict(z_max=4), r"\(--z-max\) must be >= 5, got 4"),
    (dict(t=-1), r"t \(--t\) must be >= 0, got -1"),
    (dict(tau_level=0.01), r"d_max = X\^tau / log\^c2 X = .* is below 1"),
    (dict(c2=2.5), r"d_max = X\^tau / log\^c2 X = .* is below 1, so .* lower c2 \(--c2\)"),
    (dict(B=16, q=2), r"normalization X must exceed 1"),  # X = phi(2) 16 / (4 * 2^2)
])
def test_sieve_condition_report_refuses_before_any_work(kwargs, message, monkeypatch):
    def no_work(*args):
        raise AssertionError("the sieve sequence was built before the arguments were checked")

    monkeypatch.setattr(dp6, "_sieve_sequence", no_work)
    with pytest.raises(ValueError, match=message):
        dp6.sieve_condition_report(**{"B": 1000, "q": 7, "tau_level": 0.4, "c2": 1.0,
                                      "z_max": 1000, "rho_table_max": 30, "t": 12, "mu": 4.0,
                                      **kwargs})


def test_sieve_condition_report_checks_q_once(monkeypatch):
    # the report checks q at its entry, as a member of the window primes of
    # B, and the bodies it calls trust it: its one factor_array factors the
    # d of the rho table, not q
    seen, factored = [], []
    window, factor_array = dp6.prime_window, dp6.factor_array
    monkeypatch.setattr(dp6, "prime_window", lambda B: seen.append(B) or window(B))
    monkeypatch.setattr(dp6, "factor_array", lambda n: factored.append(list(n)) or factor_array(n))
    assert cli.main(["dp6-sieve", "--B", "1000000", "--q", "97", "--rho-max", "210"]) == 0
    assert seen == [1000000]
    assert len(factored) == 1 and factored[0] == list(range(1, len(factored[0]) + 1))
    with pytest.raises(ValueError, match="q must be prime"):
        dp6.sieve_condition_report(1000000, 98, 0.4, 1.0, 1000, 30, 12, 4.0)
    assert seen == [1000000, 1000000]


def test_sieve_condition_report_smallest_grid_and_zero_c2():
    rep = dp6.sieve_condition_report(1000, 7, 0.4, 0.0, 5, 1, 12, 4.0)
    assert rep["w1"]["z_max"] == 5 and rep["w1"]["min_c1"] >= 0
    assert rep["w2"]["d_max"] == pytest.approx(float(Fraction(1500, 49)) ** 0.4)
