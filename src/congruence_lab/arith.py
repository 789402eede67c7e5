"""Exact integer arithmetic: factorization, multiplicative functions, symbols.

Factorization is trial division by the primes of one table, built at import
by sieve_primes: the 4,792 primes up to isqrt(2^31 - 1) = 46,340, taken in
order until p^2 exceeds the cofactor x left; the x left then is 1 or a
prime.  That is complete only on a bounded domain, so factorize and
is_prime (read from factorize) take 1 <= n < MODULUS_LIMIT = 2^31, whose
square roots the table covers, and refuse a larger n.  A Factorization
carries the divisor functions (divisors, tau, phi, sigma_{-1/2}): a caller
that needs several of them for one n factors it once and reads them all
from that Factorization.  Everything in this module is exact;
Factorization, jacobi, mod_inv, floor_mod and unit_symbols factor nothing
and take integers of any size.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


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


def sieve_primes(limit: int) -> list[int]:
    """The primes p <= limit, ascending, by the sieve of Eratosthenes;
    limit >= 0."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags).tolist()


# Moduli below this keep every product of two residues below 2^62, inside
# int64: the bound of the box count, the boundary counts (class_sums) and
# gauss_brute.  It is also the domain of factorize and is_prime, whose trial
# division is complete below it, and so of every modulus a command factors.
MODULUS_LIMIT = 1 << 31
# The trial divisors of factorize: every prime up to sqrt(n) for n < 2^31.
_TRIAL_PRIMES = tuple(sieve_primes(math.isqrt(MODULUS_LIMIT - 1)))


def factorize(n: int) -> Factorization:
    """The prime factorization of 1 <= n < 2^31 (MODULUS_LIMIT) by trial
    division; any other n is refused by ValueError naming 2^31."""
    if not 1 <= n < MODULUS_LIMIT:
        raise ValueError(f"factorize needs 1 <= n < 2^31, got n = {n}")
    x = n
    found = []
    for p in _TRIAL_PRIMES:
        if p * p > x:
            break
        if x % p == 0:
            e = 0
            while x % p == 0:
                e += 1
                x //= p
            found.append((p, e))
    if x > 1:  # no prime up to sqrt(x) divides x, so x is a prime
        found.append((x, 1))
    return Factorization(n, tuple(found))


def is_prime(n: int) -> bool:
    """Whether n is prime, read from factorize(n): n < 2^31 (MODULUS_LIMIT),
    and larger n is refused as factorize refuses it."""
    if n < 2:
        return False
    return factorize(n).factors == ((n, 1),)


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
