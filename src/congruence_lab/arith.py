"""Exact integer arithmetic: factorization, multiplicative functions, symbols.

Factorization does trial division by 2, 3, 5 and the 6k +/- 1 wheel up to
min(sqrt(x), 10^6), x the cofactor left, two wheel candidates per step of a
range.  When the wheel passes sqrt(x), the cofactor is 1 or a prime and is
recorded without a primality test; only a cofactor left at the 10^6 bound
goes to Brent's variant of Pollard rho with a deterministic Miller-Rabin test
(fixed witness set, exact for all n < 2**64).  A Factorization carries the
divisor functions (divisors, tau, phi, sigma_{-1/2}), and the module-level
ones read them from factorize(n), each factoring n afresh: a caller that
needs several of them for one n factors it once and reads them all from
that Factorization.
Everything in this module is exact; the intended operating range is
1 <= n < 2**63.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 1_000_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # returns a nontrivial factor of composite odd n
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle search failed for {n}")


class Factorization(NamedTuple):
    """A positive integer together with its sorted prime factorization, and
    the divisor functions read from it."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def divisors(self) -> list[int]:
        ds = [1]
        for p, e in self.factors:
            ds = [d * p**k for d in ds for k in range(e + 1)]
        return sorted(ds)

    def tau(self) -> int:
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    def phi(self) -> int:
        out = self.n
        for p, _ in self.factors:
            out -= out // p
        return out

    def sigma_half_inv(self) -> float:
        # added left to right in ascending d, the order sum() took up to
        # Python 3.11 (3.12 compensates float sums)
        out = 0.0
        for d in self.divisors():
            out += 1.0 / math.sqrt(d)
        return out


def factorize(n: int) -> Factorization:
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    x = n
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while x % p == 0:
            found[p] = found.get(p, 0) + 1
            x //= p
    # 6k +/- 1 wheel up to the trial bound, in pairs d, d + 4 with d = 1
    # (mod 6); a pair that divides nothing costs two remainders.  Any divisor
    # found is a prime, all smaller primes being divided out already
    d = 7
    while d * d <= x and d <= _TRIAL_BOUND:
        top = min(math.isqrt(x), _TRIAL_BOUND)
        for d in range(d, top + 1, 6):
            if not (x % d and x % (d + 4)):
                break
        else:  # no divisor up to top: d * d > x unless top is the bound
            d = top + 1
            break
        for p in (d, d + 4):
            while x % p == 0:
                found[p] = found.get(p, 0) + 1
                x //= p
        d += 6
    if d * d <= x:  # stopped at the trial bound: x may be composite
        stack = [x]
    else:  # the wheel passed sqrt(x), so x is 1 or a prime
        stack = []
        if x > 1:
            found[x] = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.append(g)
        stack.append(m // g)
    return Factorization(n, tuple(sorted(found.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    return factorize(n).divisors()


# ---- multiplicative and additive functions ----

def tau(n: int) -> int:
    """Number of divisors."""
    return factorize(n).tau()


def sigma_half_inv(n: int) -> float:
    """sum over d | n of d**(-1/2)."""
    return factorize(n).sigma_half_inv()


def phi(n: int) -> int:
    """Euler totient."""
    return factorize(n).phi()


def mobius(n: int) -> int:
    out = 1
    for _, e in factorize(n).factors:
        if e > 1:
            return 0
        out = -out
    return out


def log1n(n: int) -> float:
    """The smoothed logarithm log(n + 1) used by all error envelopes."""
    if n < 0:
        raise ValueError("log1n requires n >= 0")
    return math.log(n + 1)


def floor_mod(x, q: int):
    """x mod q for q > 0, elementwise on numpy arrays, as x - x // q * q.

    Equal to x % q for every integer dtype and for object arrays of Python
    ints; x // q * q lies in (x - q, x], so |x| + q fitting the dtype keeps
    it exact.  numpy divides int64 by a scalar with a multiply and a shift,
    where % takes one hardware divide per element, so on int64 blocks this
    costs about half of x % q.  An array result reuses the buffer of x // q,
    the one temporary allocated."""
    r = x // q
    r *= q
    return np.subtract(x, r, out=r) if isinstance(r, np.ndarray) else x - r


# Moduli below this keep every product of two residues below 2^62, inside
# int64: the bound of count_exact, the int64 boundary counts and gauss_brute.
MODULUS_LIMIT = 1 << 31
# Entries of any 2-D temporary of a kernel (2 MiB in float64 or int64).
BLOCK_CELLS = 1 << 18


def block_rows(width: int) -> int:
    """Rows per block of a 2-D temporary whose rows hold width entries: as
    many as BLOCK_CELLS allows, and at least one."""
    return max(1, BLOCK_CELLS // max(width, 1))


# ---- symbols and inverses ----

def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m); m must be odd and positive."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive lower argument")
    a %= m
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def mod_inv(a: int, q: int) -> int:
    """Inverse of a modulo q; mod_inv(a, 1) = 0 by convention."""
    if q < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, q)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {q}") from None


def unit_symbols(n: int) -> complex:
    """eps_n for odd n: 1 for n = 1 mod 4 and i for n = 3 mod 4.  eps is
    undefined for even n, so even n is rejected."""
    if n % 2 == 0:
        raise ValueError("unit_symbols requires odd n (eps is undefined for even n)")
    return (1 + 0j) if n % 4 == 1 else 1j
