"""Quadratic Gauss sums G(s, t; u) = sum_{n=1}^{u} e((s n^2 + t n)/u).

For gcd(s, u) = 1 the sum has a closed form that splits on the 2-adic
structure of the modulus (u odd; u = 2v with v odd; 4 | u).  Each closed
value is returned in factored shape

    coefficient * unit * jacobi * sqrt(radicand) * e(phase)

so the pieces can be inspected separately, together with the assembled
complex number.  |G| is sqrt(u) for odd u and either 0 or sqrt(2u) for
even u, depending on the parity of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import jacobi, mod_inv, unit_symbols

_TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 14  # n per int64 block of gauss_brute's exponents
_BRUTE_LIMIT = 1 << 31  # gauss_brute's moduli stay below this


def _e(phase: Fraction) -> complex:
    # e(x) = exp(2 pi i x), phase reduced mod 1 before evaluation
    k = phase.numerator % phase.denominator
    ang = _TWO_PI * k / phase.denominator
    return complex(math.cos(ang), math.sin(ang))


@dataclass(frozen=True)
class GaussSumValue:
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

    def assemble(self) -> complex:
        return (
            self.coefficient
            * self.unit
            * self.jacobi
            * math.sqrt(self.radicand)
            * _e(self.phase)
        )


def gauss_brute(s: int, t: int, u: int) -> complex:
    """Direct evaluation with compensated (Kahan) summation.

    The exponent k = (s n^2 + t n) mod u is reduced in int64 arithmetic over
    blocks of 2^14 n, as (s' (n^2 mod u) + t' n) mod u with s' = s mod u and
    t' = t mod u; every product stays below 2^62 while u < 2^31, and larger
    u is refused.  Each term is then evaluated at the exact small angle
    2 pi k / u and added in order of n.
    """
    if u < 1:
        raise ValueError("modulus u must be positive")
    if u >= _BRUTE_LIMIT:
        raise ValueError(f"gauss_brute needs u < 2^31, got u = {u}")
    s, t = s % u, t % u
    cos, sin = math.cos, math.sin
    re = im = 0.0
    cre = cim = 0.0
    for lo in range(1, u + 1, _BLOCK):
        n = np.arange(lo, min(lo + _BLOCK, u + 1), dtype=np.int64)
        for k in ((s * (n * n % u) + t * n) % u).tolist():
            ang = _TWO_PI * k / u
            x = cos(ang) - cre
            v = re + x
            cre = (v - re) - x
            re = v
            y = sin(ang) - cim
            w = im + y
            cim = (w - im) - y
            im = w
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


def reciprocity_check(s: int, u: int) -> tuple[complex, complex, float]:
    """Both sides of G(s,0;u) G(u,0;s) = G(1,0;su) for odd positive s coprime
    to u, and the absolute defect between them (brute evaluation throughout)."""
    if s < 1 or s % 2 == 0:
        raise ValueError("reciprocity requires odd positive s")
    if u < 1:
        raise ValueError("modulus u must be positive")
    if math.gcd(s, u) != 1:
        raise ValueError("reciprocity requires gcd(s, u) = 1")
    lhs = gauss_brute(s, 0, u) * gauss_brute(u, 0, s)
    rhs = gauss_brute(1, 0, s * u)
    return lhs, rhs, abs(lhs - rhs)


# ---- whole-grid evaluation (all coprime s, all shifts t, fixed u) ----

def coprime_residues(u: int) -> list[int]:
    return [s for s in range(1, u + 1) if math.gcd(s, u) == 1] if u > 1 else [1]


def brute_grid(u: int) -> tuple[list[int], np.ndarray]:
    """G(s, t; u) for every coprime s and every t in [0, u).

    Row s of the result is the inverse DFT of the sequence e(s n^2 / u):
    sum_n e(s n^2/u) e(t n/u) over n = 0..u-1 equals the sum over n = 1..u
    term by term, so this is the same quantity gauss_brute computes.
    """
    ss = coprime_residues(u)
    n = np.arange(u, dtype=np.int64)
    n2 = (n * n) % u
    roots = np.exp(2j * np.pi * np.arange(u) / u)
    rows = np.empty((len(ss), u), dtype=np.complex128)
    for i, s in enumerate(ss):
        rows[i] = roots[(s * n2) % u]
    return ss, np.fft.ifft(rows, axis=1) * u


def closed_grid(u: int) -> tuple[list[int], np.ndarray]:
    """Closed-form values on the same (s, t) grid as brute_grid."""
    ss = coprime_residues(u)
    out = np.ones((len(ss), u), dtype=np.complex128)
    if u == 1:
        return ss, out
    *_, parity, _, m = _branch(1, u)  # parity and m depend on u alone
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    tt = np.arange(u, dtype=np.int64)
    t2 = (tt * tt) % m
    alive = np.ones(u, dtype=bool) if parity is None else tt % 2 == parity
    for i, s in enumerate(ss):
        coeff, unit, j, rad, _, c, _ = _branch(s, u)
        out[i] = np.where(alive, coeff * unit * j * math.sqrt(rad) * roots[(c * t2) % m], 0)
    return ss, out
