"""Quadratic Gauss sums G(s, t; u) = sum_{n=1}^{u} e((s n^2 + t n)/u).

For gcd(s, u) = 1 the sum has a closed form that splits on the 2-adic
structure of the modulus (u odd; u = 2v with v odd; 4 | u).  Each closed
value is returned in factored shape

    coefficient * unit * jacobi * sqrt(radicand) * e(phase)

so the pieces can be inspected separately, together with the complex
value they multiply to.  |G| is sqrt(u) for odd u and either 0 or sqrt(2u) for
even u, depending on the parity of t.
"""

from __future__ import annotations

import math
import os
import signal
import struct
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import MODULUS_LIMIT, floor_mod, jacobi, mod_inv, unit_symbols

_TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 13  # n per block of gauss_brute: its cos and sin arrays, 64 KB each
# u from which gauss_brute runs its sine chain in a forked child.  On a 2-vCPU
# Xeon VM one call took 10.5 ms serial and 11.1 ms forked at u = 2^15 + 3,
# 12.8 and 11.8 ms at u = 40000, 20.0 and 16.4 ms at u = 2^16 + 3 (medians of
# 40), so 2^16 is past the break-even with a margin
_FORK_MIN_U = 1 << 16


def _e(phase: Fraction) -> complex:
    # e(x) = exp(2 pi i x), phase reduced mod 1 before evaluation
    k = phase.numerator % phase.denominator
    ang = _TWO_PI * k / phase.denominator
    return complex(math.cos(ang), math.sin(ang))


class GaussSumValue(NamedTuple):
    """Closed-form value in factored shape.

    value == coefficient * unit * jacobi * sqrt(radicand) * e(phase); when the
    sum vanishes the coefficient is 0 and the remaining fields still describe
    the non-vanishing branch of the formula.
    """

    value: complex
    coefficient: complex
    unit: complex
    jacobi: int
    radicand: int
    phase: Fraction


def _kahan(xs: memoryview, s: float, c: float) -> tuple[float, float]:
    # one Kahan chain over xs in order: the running sum s and its compensation c
    for x in xs:
        x -= c
        c = ((v := s + x) - s) - x
        s = v
    return s, c


def _chains(trigs: tuple, s: int, t: int, u: int) -> list[float]:
    # one Kahan chain per trig function: the sum of trig(2 pi k / u),
    # k = (s n^2 + t n) mod u, over n = 1..u in order, block by block, each
    # chain carrying its sum and compensation; the chains share each block's
    # angles and never read each other
    state = [(0.0, 0.0)] * len(trigs)
    for lo in range(1, u + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, u + 1), dtype=np.int64)
        ang = _TWO_PI * floor_mod(s * floor_mod(n * n, u) + t * n, u) / u
        state = [_kahan(memoryview(trig(ang)), *sc) for trig, sc in zip(trigs, state)]
    return [acc for acc, _ in state]


def _forked(s: int, t: int, u: int) -> complex:
    # the sine chain in a forked child, the cosine chain here; the child's
    # sum comes back as 8 little-endian bytes, so every bit survives
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            os.write(w, struct.pack("<d", *_chains((np.sin,), s, t, u)))
            code = 0
        finally:
            os._exit(code)  # never back into the caller's frames, stdio or atexit hooks
    os.close(w)
    data = b""
    try:
        (re,) = _chains((np.cos,), s, t, u)
        while len(data) < 8 and (chunk := os.read(r, 8 - len(data))):
            data += chunk
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        status = os.waitpid(pid, 0)[1]
    if status != 0 or len(data) != 8:
        raise RuntimeError(f"gauss_brute: the sine chain's child failed"
                           f" (wait status {status}, {len(data)} of 8 bytes read)")
    return complex(re, struct.unpack("<d", data)[0])


def gauss_brute(s: int, t: int, u: int) -> complex:
    """Direct evaluation with compensated (Kahan) summation.

    The exponent k = (s n^2 + t n) mod u is reduced in int64 arithmetic over
    blocks of 2^13 n, as (s' (n^2 mod u) + t' n) mod u with s' = s mod u and
    t' = t mod u, each mod taken by floor division (arith.floor_mod); every
    product stays below 2^62 while u < 2^31, and larger u is refused.  Each
    term is then the cos and sin of the exact small angle 2 pi k / u, taken
    by numpy over the block, and the real and imaginary parts are
    Kahan-summed in order of n by two chains that never read each other
    (_chains), each its own loop over a memoryview of its block's float64
    array.  For u >= _FORK_MIN_U, where os.fork exists and the process may
    run on two or more CPUs (os.sched_getaffinity), the sine chain runs in a
    forked child while this process runs the cosine chain; both paths give
    the same bits.  The child always leaves by os._exit; a child that fails
    makes this call raise RuntimeError, and no child outlives the call.
    """
    if u < 1:
        raise ValueError("modulus u must be positive")
    if u >= MODULUS_LIMIT:
        raise ValueError(f"gauss_brute needs u < 2^31, got u = {u}")
    s, t = s % u, t % u
    if (u >= _FORK_MIN_U and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return _forked(s, t, u)
    return complex(*_chains((np.cos, np.sin), s, t, u))


def _branch(s: int, u: int) -> tuple[complex, complex, int, int, int | None, int, int]:
    """The 2-adic branch of the closed form for 0 < s < u, gcd(s, u) = 1,
    u > 1: (coefficient, unit, jacobi, radicand, parity, c, m).

    G(s, t; u) = coefficient * unit * jacobi * sqrt(radicand) * e(c t^2 / m)
    for t of the surviving parity (every t when parity is None) and 0 for
    the other parity; c is taken in [0, m).
    """
    if u % 2 == 1:
        return 1 + 0j, unit_symbols(u), jacobi(s, u), u, None, -mod_inv(4 * s, u) % u, u
    if u % 4 == 2:
        v = u // 2
        j = jacobi(2 * s, v) if v > 1 else 1
        return 2 + 0j, unit_symbols(v), j, v, 1, -mod_inv(8 * s, v) % v, v
    j = jacobi(u, s) if s > 1 else 1
    return 1 + 1j, 1 / unit_symbols(s), j, u, 0, -mod_inv(s, 4 * u) % (4 * u), 4 * u


def gauss_closed(s: int, t: int, u: int) -> GaussSumValue:
    """Closed form of G(s, t; u); requires gcd(s, u) = 1."""
    if u < 1:
        raise ValueError("modulus u must be positive")
    if math.gcd(s, u) != 1:
        raise ValueError("gauss_closed requires gcd(s, u) = 1")
    if u == 1:
        return GaussSumValue(1 + 0j, 1 + 0j, 1 + 0j, 1, 1, Fraction(0))
    t %= u
    coeff, unit, j, rad, parity, c, m = _branch(s % u, u)
    if parity is not None and t % 2 != parity:
        coeff = 0j
    phase = Fraction(c * t * t % m, m)
    value = coeff * unit * j * math.sqrt(rad) * _e(phase)
    return GaussSumValue(value, coeff, unit, j, rad, phase)
