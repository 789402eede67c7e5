"""Exact integer arithmetic: factorization, multiplicative functions, symbols.

Factorization does trial division by 2, 3, 5 and the 6k +/- 1 wheel up to
min(sqrt(x), 10^6), x the cofactor left.  When the wheel passes sqrt(x), the
cofactor is 1 or a prime and is recorded without a primality test; only a
cofactor left at the 10^6 bound goes to Brent's variant of Pollard rho with a
deterministic Miller-Rabin test (fixed witness set, exact for all n < 2**64).
factorize keeps its last result (a one-entry cache), because callers ask for
the same n several times in a row: box_report derives phi, tau and the
divisors of one q, and w2_sum mobius and Omega of one d.  Sharing the result
is safe, since a Factorization is a tuple that holds only tuples of ints.  The
cache is typed, so an int and a numpy integer of one value do not share it.
Everything in this module is exact; the intended operating range is
1 <= n < 2**63.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

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
    """A positive integer together with its sorted prime factorization."""

    n: int
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=1, typed=True)
def factorize(n: int) -> Factorization:
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    x = n
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while x % p == 0:
            found[p] = found.get(p, 0) + 1
            x //= p
    # 6k +/- 1 wheel up to the trial bound
    d = 7
    step = 4
    while d * d <= x and d <= _TRIAL_BOUND:
        while x % d == 0:
            found[d] = found.get(d, 0) + 1
            x //= d
        d += step
        step = 6 - step
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
    ds = [1]
    for p, e in factorize(n).factors:
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


# ---- multiplicative and additive functions ----

def tau(n: int) -> int:
    """Number of divisors."""
    out = 1
    for _, e in factorize(n).factors:
        out *= e + 1
    return out


def sigma_half_inv(n: int) -> float:
    """sum over d | n of d**(-1/2)."""
    return sum(1.0 / math.sqrt(d) for d in divisors(n))


def phi(n: int) -> int:
    """Euler totient."""
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


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
    costs about half of x % q."""
    return x - x // q * q


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


def unit_symbols(n: int) -> tuple[int, complex]:
    """(delta_n, eps_n) for odd n: delta is the parity indicator (1 here),
    eps is 1 for n = 1 mod 4 and i for n = 3 mod 4.  eps is undefined for
    even n, so even n is rejected."""
    if n % 2 == 0:
        raise ValueError("unit_symbols requires odd n (eps is undefined for even n)")
    return 1, (1 + 0j) if n % 4 == 1 else 1j
