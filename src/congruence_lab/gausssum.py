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
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import floor_mod, jacobi, mod_inv, unit_symbols

_TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 13  # n per block of gauss_brute: its cos and sin lists are held together
_BRUTE_LIMIT = 1 << 31  # gauss_brute's moduli stay below this


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


def gauss_brute(s: int, t: int, u: int) -> complex:
    """Direct evaluation with compensated (Kahan) summation.

    The exponent k = (s n^2 + t n) mod u is reduced in int64 arithmetic over
    blocks of 2^13 n, as (s' (n^2 mod u) + t' n) mod u with s' = s mod u and
    t' = t mod u, each mod taken by floor division (arith.floor_mod); every
    product stays below 2^62 while u < 2^31, and larger u is refused.  Each
    term is then the cos and sin of the exact small angle 2 pi k / u, taken
    by numpy over the block, and the real and imaginary parts are
    Kahan-summed in order of n, two chains in one loop.
    """
    if u < 1:
        raise ValueError("modulus u must be positive")
    if u >= _BRUTE_LIMIT:
        raise ValueError(f"gauss_brute needs u < 2^31, got u = {u}")
    s, t = s % u, t % u
    re = im = 0.0
    cre = cim = 0.0  # the running compensations of the two Kahan chains
    for lo in range(1, u + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, u + 1), dtype=np.int64)
        ang = _TWO_PI * floor_mod(s * floor_mod(n * n, u) + t * n, u) / u
        for x, y in zip(np.cos(ang).tolist(), np.sin(ang).tolist()):
            x -= cre
            v = re + x
            cre = (v - re) - x
            re = v
            y -= cim
            v = im + y
            cim = (v - im) - y
            im = v
    return complex(re, im)


def _branch(s: int, u: int) -> tuple[complex, complex, int, int, int | None, int, int]:
    """The 2-adic branch of the closed form for 0 < s < u, gcd(s, u) = 1,
    u > 1: (coefficient, unit, jacobi, radicand, parity, c, m).

    G(s, t; u) = coefficient * unit * jacobi * sqrt(radicand) * e(c t^2 / m)
    for t of the surviving parity (every t when parity is None) and 0 for
    the other parity; c is taken in [0, m).
    """
    if u % 2 == 1:
        return 1 + 0j, unit_symbols(u)[1], jacobi(s, u), u, None, -mod_inv(4 * s, u) % u, u
    if u % 4 == 2:
        v = u // 2
        j = jacobi(2 * s, v) if v > 1 else 1
        return 2 + 0j, unit_symbols(v)[1], j, v, 1, -mod_inv(8 * s, v) % v, v
    j = jacobi(u, s) if s > 1 else 1
    return 1 + 1j, 1 / unit_symbols(s)[1], j, u, 0, -mod_inv(s, 4 * u) % (4 * u), 4 * u


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
