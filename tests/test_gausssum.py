import cmath
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from congruence_lab import gausssum

import oracles


def test_closed_form_examples():
    g = gausssum.gauss_closed(1, 0, 5)
    assert g.value == pytest.approx(math.sqrt(5))
    assert (g.coefficient, g.unit, g.jacobi, g.radicand) == (1, 1, 1, 5)
    assert g.phase == Fraction(0)

    g = gausssum.gauss_closed(1, 0, 3)
    assert g.value == pytest.approx(1j * math.sqrt(3))

    # even modulus, even shift: the sum vanishes
    g = gausssum.gauss_closed(1, 0, 6)
    assert g.value == 0 and g.coefficient == 0

    # 4 | u with odd shift also vanishes
    assert gausssum.gauss_closed(1, 1, 4).value == 0

    # shifted odd case picks up phase e(-(4s)^{-1} t^2 / u)
    g = gausssum.gauss_closed(1, 2, 5)
    assert g.phase == Fraction(4, 5)
    assert g.value == pytest.approx(math.sqrt(5) * cmath.exp(2j * cmath.pi * 4 / 5))

    assert gausssum.gauss_closed(1, 0, 1).value == 1


def test_closed_matches_brute_small_sweep():
    for u in range(1, 41):
        for s in range(1, u + 1):
            if math.gcd(s, u) != 1:
                continue
            for t in range(u):
                closed = gausssum.gauss_closed(s, t, u).value
                brute = gausssum.gauss_brute(s, t, u)
                assert abs(closed - brute) <= 1e-9 * math.sqrt(u), (s, t, u)


def test_closed_matches_brute_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(u=st.integers(1, 2000), s=st.integers(-10**6, 10**6), data=st.data())
    def check(u, s, data):
        hypothesis.assume(math.gcd(s, u) == 1)
        # t over every residue class mod u, and beyond [0, u) on both sides
        t = data.draw(st.integers(-3 * u, 3 * u))
        closed = gausssum.gauss_closed(s, t, u).value
        brute = gausssum.gauss_brute(s, t, u)
        assert abs(closed - brute) <= 1e-9 * math.sqrt(u)

    check()


def test_magnitude_law():
    # |G| is sqrt(u) for odd u; for even u it is 0 or sqrt(2u) by shift parity
    for u, s, t in [(9, 2, 4), (15, 4, 7), (10, 3, 3), (10, 3, 4), (12, 5, 2), (12, 5, 3)]:
        g = gausssum.gauss_closed(s, t, u)
        if u % 2 == 1:
            assert abs(g.value) == pytest.approx(math.sqrt(u))
        elif (u % 4 == 2 and t % 2 == 0) or (u % 4 == 0 and t % 2 == 1):
            assert g.value == 0
        else:
            assert abs(g.value) == pytest.approx(math.sqrt(2 * u))


def test_assemble_reproduces_value():
    for (s, t, u) in [(1, 0, 5), (3, 2, 7), (5, 1, 6), (3, 4, 16), (7, 0, 18), (11, 5, 20)]:
        g = gausssum.gauss_closed(s, t, u)
        assert abs(g.value - oracles.assemble(g)) < 1e-12


def test_closed_normalizes_arguments():
    # G depends on s, t only mod u
    for (s, t, u) in [(8, 11, 5), (13, -2, 6), (21, 100, 16)]:
        a = gausssum.gauss_closed(s, t, u).value
        b = gausssum.gauss_brute(s, t, u)
        assert abs(a - b) < 1e-9


def test_preconditions():
    with pytest.raises(ValueError):
        gausssum.gauss_closed(2, 0, 4)
    with pytest.raises(ValueError):
        gausssum.gauss_closed(1, 0, 0)
    with pytest.raises(ValueError):
        gausssum.gauss_brute(1, 0, 0)
    # brute has no coprimality requirement
    assert abs(gausssum.gauss_brute(2, 0, 4)) < 1e-12


def test_grids_match_scalar_paths():
    for u in (1, 7, 12, 18, 32):
        ss, brute = oracles.brute_grid(u)
        ss2, closed = oracles.closed_grid(u)
        assert ss == ss2 == oracles.coprime_residues(u)
        for i, s in enumerate(ss):
            for t in range(u):
                assert abs(brute[i, t] - gausssum.gauss_brute(s, t, u)) < 1e-9
                assert abs(closed[i, t] - gausssum.gauss_closed(s, t, u).value) < 1e-9


def test_reciprocity_examples():
    lhs, rhs, defect = oracles.reciprocity_check(3, 5)
    assert lhs == pytest.approx(1j * math.sqrt(15))
    assert rhs == pytest.approx(1j * math.sqrt(15))
    assert defect < 1e-9

    lhs, rhs, defect = oracles.reciprocity_check(5, 8)
    assert lhs == pytest.approx((1 + 1j) * math.sqrt(40))
    assert defect < 1e-9


def test_reciprocity_preconditions():
    with pytest.raises(ValueError):
        oracles.reciprocity_check(2, 5)  # even s
    with pytest.raises(ValueError):
        oracles.reciprocity_check(-3, 5)
    with pytest.raises(ValueError):
        oracles.reciprocity_check(3, 6)  # gcd > 1


def test_brute_kahan_is_stable_for_large_u():
    # magnitude law survives a long direct summation, below and above the
    # threshold of the forked path
    assert 3001 < gausssum._FORK_MIN_U <= 65537
    for u in (3001, 65537):  # primes, 1 mod 4
        val = gausssum.gauss_brute(1, 0, u)
        assert abs(val - math.sqrt(u)) < 1e-8, u


def _same_bits(s, t, u):
    # repr tells -0.0 from 0.0 and shows every bit of both parts
    got, want = gausssum.gauss_brute(s, t, u), oracles.kahan_brute(s, t, u)
    assert repr(got) == repr(want), (s, t, u, got, want)


def test_brute_matches_per_term_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(u=st.integers(1, 5000), s=st.integers(-10**30, 10**30),
                      t=st.integers(-10**30, 10**30))
    def check(u, s, t):
        _same_bits(s, t, u)

    check()
    # blocks of n start at 1, 2^13 + 1, ...: moduli at, just past and well
    # past a block edge, the last spanning four blocks
    for u in (gausssum._BLOCK, gausssum._BLOCK + 1, gausssum._BLOCK + 3,
              3 * gausssum._BLOCK + 5):
        _same_bits(-7, 11, u)
    # eleven blocks, the last holding 7 n: each chain carries its sum and
    # compensation across ten block edges (at this s and t, dropping either
    # chain's compensation at a block edge changes the bits)
    _same_bits(-7, -11, 10 * gausssum._BLOCK + 7)
    _same_bits(0, 0, 1)  # every term is cos(0) = 1, sin(0) = +0.0


def test_numpy_trig_matches_libm_on_block_angles():
    # gauss_brute keeps the bits of the per-term math.cos/math.sin loop only
    # while numpy's float64 cos and sin round like the platform libm
    u = 100_003
    ang = gausssum._TWO_PI * np.arange(u, dtype=np.int64) / u
    for name, vec, scalar in (("cos", np.cos, math.cos), ("sin", np.sin, math.sin)):
        got = vec(ang)
        want = np.array([scalar(a) for a in ang.tolist()])
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (
            f"numpy's float64 {name} disagrees with libm on this build at"
            f" {bad.size} of {u} angles 2 pi k / {u}, first k = {bad[0]}:"
            f" numpy {float(got[bad[0]])!r}, libm {float(want[bad[0]])!r}; gauss_brute"
            " no longer reproduces its recorded bits")


def test_brute_refuses_moduli_beyond_int64_exponents():
    with pytest.raises(ValueError, match=r"u < 2\^31, got u = 2147483648"):
        gausssum.gauss_brute(1, 0, 2**31)


# README "Conventions": per part, gauss_brute is within 23 u 2^-53 of G and
# gauss_closed within 64 sqrt(2u) 2^-53
def _brute_bound(u):
    return 23 * u * 2.0**-53


def _closed_bound(u):
    return 64 * math.sqrt(2 * u) * 2.0**-53


@pytest.mark.parametrize("s, t, u", [
    (3, 5, 997), (3, 5, 10007),  # odd u
    (5, 3, 19998),  # u = 2 mod 4, odd t: |G| = sqrt(2u)
    (3, 5, 1000), (7, 2, 20000),  # 4 | u: G = 0 for odd t, |G| = sqrt(2u) for even t
])
def test_brute_and_closed_within_stated_bounds_of_40_digit_sum(s, t, u):
    mpmath = pytest.importorskip("mpmath")
    ref = oracles.gauss_sum_mp(s, t, u)
    brute = gausssum.gauss_brute(s, t, u)
    closed = gausssum.gauss_closed(s, t, u).value
    with mpmath.workdps(40):
        for name, got, bound in (("brute", brute, _brute_bound(u)),
                                 ("closed", closed, _closed_bound(u))):
            for part, x, r in (("re", got.real, ref.real), ("im", got.imag, ref.imag)):
                err = abs(mpmath.mpf(x) - r)
                assert err <= bound, (name, part, s, t, u, float(err), bound)


@pytest.fixture
def forks(monkeypatch):
    """gauss_brute on a process allowed two CPUs, whatever the host has; the
    list records each fork."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(gausssum.os, "fork", counted)
    monkeypatch.setattr(gausssum.os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_brute_matches_per_term_loop(forks):
    # just below, at and past the threshold: past it, each chain carries its
    # sum and compensation across block edges in its own process
    m = gausssum._FORK_MIN_U
    for u, n_forks in ((m - 1, 0), (m, 1), (m + 3 * gausssum._BLOCK + 5, 2)):
        _same_bits(-7, 11, u)
        assert len(forks) == n_forks, u
        _no_child_left()


def test_forked_brute_equals_serial(forks, monkeypatch):
    u = 300_007
    forked = gausssum.gauss_brute(123456789, -987654321, u)
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.setattr(gausssum.os, "sched_getaffinity", lambda pid: {0})
    serial = gausssum.gauss_brute(123456789, -987654321, u)
    assert len(forks) == 1
    assert repr(forked) == repr(serial)


def _failing_chain(monkeypatch, failing_trig):
    chains = gausssum._chains

    def fail(trigs, s, t, u):
        if failing_trig in trigs:
            raise ZeroDivisionError(f"{failing_trig.__name__} chain")
        return chains(trigs, s, t, u)

    monkeypatch.setattr(gausssum, "_chains", fail)


def test_forked_brute_reaps_the_child_when_the_cosine_chain_raises(forks, monkeypatch):
    _failing_chain(monkeypatch, np.cos)
    with pytest.raises(ZeroDivisionError, match="cos chain"):
        gausssum.gauss_brute(3, 5, 300_007)
    assert len(forks) == 1
    _no_child_left()


def test_forked_brute_raises_when_the_sine_chain_fails(forks, monkeypatch):
    pid = os.getpid()
    _failing_chain(monkeypatch, np.sin)
    with pytest.raises(RuntimeError, match="sine chain's child failed"):
        gausssum.gauss_brute(3, 5, 300_007)
    # the child left by os._exit: only this process goes on running the tests
    assert os.getpid() == pid and forks == [pid]
    _no_child_left()
