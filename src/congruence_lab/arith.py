"""Exact integer arithmetic: factorization, multiplicative functions, symbols.

factor_array is the one factorizer: trial division of an array of moduli
by the primes of one table, built at import by sieve_primes: the 4,792
primes up to isqrt(2^31 - 1) = 46,340.  The moduli are divided by the
table's primes up to isqrt of their largest element, as outer-product
floor_mod passes of at most BLOCK_CELLS cells; the cofactor each modulus
keeps after its primes up to its square root are divided out is then 1 or
a prime.  That is complete only on a bounded domain, so factor_array takes
1 <= n < MODULUS_LIMIT = 2^31, whose square roots the table covers, and
refuses a larger n; a command factors all of its moduli in one call.
divisor_functions reads phi, tau and sigma_{-1/2} of every modulus from
one factor_array, in array passes.  Everything in this module is exact;
jacobi, mod_inv, floor_mod and unit_symbols factor nothing and take
integers of any size.
"""

from __future__ import annotations

import math
import numpy as np


def sieve_primes(limit: int) -> list[int]:
    """The primes p <= limit, ascending, by the sieve of Eratosthenes;
    limit >= 0."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags).tolist()


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


# Moduli below this keep every product of two residues below 2^62, inside
# int64: the bound of the box count, the boundary counts (class_sums) and
# gauss_brute.  It is also the domain of factor_array, whose trial division
# is complete below it, and so of every modulus a command factors.
MODULUS_LIMIT = 1 << 31
# The trial divisors of factor_array: every prime up to sqrt(n) for n < 2^31.
_TRIAL_PRIMES = np.array(sieve_primes(math.isqrt(MODULUS_LIMIT - 1)), dtype=np.int64)


def factor_array(n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, p, e): the prime factorizations of the moduli n, each 1 <= n
    < 2^31 (MODULUS_LIMIT), by trial division; the prime powers of n[i] are
    p[j]^e[j] for start[i] <= j < start[i + 1], primes ascending.  All three
    are int64 arrays.  The moduli are divided by every trial prime up to
    isqrt(max(n)) in blocks of arith.block_rows(primes) moduli, so no block
    holds more than BLOCK_CELLS cells.  Any n outside [1, 2^31) is refused
    by ValueError naming 2^31 and the first such n."""
    n = np.asarray(n)
    if n.size and not (n.min() >= 1 and n.max() < MODULUS_LIMIT):
        bad = next(v for v in n.tolist() if not 1 <= v < MODULUS_LIMIT)
        raise ValueError(f"factor_array needs 1 <= n < 2^31, got n = {bad}")
    n = n.astype(np.int64, copy=False).reshape(-1)
    top = int(n.max()) if len(n) else 1
    primes = _TRIAL_PRIMES[: np.searchsorted(_TRIAL_PRIMES, math.isqrt(top), side="right")]
    rows = block_rows(len(primes))
    at, p = [], []
    for lo in range(0, len(n), rows):
        block = n[lo : lo + rows]
        # the primes up to the square root of this block's largest modulus
        trial = primes[: np.searchsorted(primes, math.isqrt(int(block.max())), side="right")]
        i, j = np.nonzero(floor_mod(block[:, None], trial) == 0)
        at.append(i + lo)
        p.append(trial[j])
    at = np.concatenate([np.zeros(0, np.int64), *at])
    p = np.concatenate([np.zeros(0, np.int64), *p])
    # the exponent of each prime found: divide it out while it divides
    e = np.zeros_like(p)
    rest = n[at]
    left = np.ones(len(p), dtype=bool)
    while left.any():
        e += left
        rest[left] //= p[left]
        left &= floor_mod(rest, p) == 0
    cofactor = n.copy()
    np.floor_divide.at(cofactor, at, p**e)
    # a cofactor above 1 is a prime beyond every prime found for its modulus
    big = np.flatnonzero(cofactor > 1)
    at = np.concatenate([at, big])
    order = np.argsort(at, kind="stable")
    p = np.concatenate([p, cofactor[big]])[order]
    e = np.concatenate([e, np.ones(len(big), np.int64)])[order]
    start = np.searchsorted(at[order], np.arange(len(n) + 1))
    return start, p, e


def divisor_functions(n: np.ndarray, start: np.ndarray, p: np.ndarray, e: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi, tau, sigma_{-1/2}) of the moduli n, given their factor_array:
    int64, int64 and float64 arrays.

    sigma_{-1/2}(n) adds 1.0 / sqrt(d) over the divisors d of n left to
    right in ascending d, so it has the bits of that scalar loop: the
    divisors of a block of moduli are the rows of one matrix, tau(n) mixed-
    radix digits a row, sorted, with the pads past tau(n) set to +inf,
    whose 1.0 / sqrt is +0.0, and the columns are added in order.  The
    blocks take the moduli in ascending tau, each as wide as its own
    largest tau and as many rows as keep it within BLOCK_CELLS cells (at
    least one), so a few moduli of large tau widen only their own block."""
    m = len(n)
    at = np.repeat(np.arange(m), start[1:] - start[:-1])
    tau, rad, phi = np.ones(m, np.int64), np.ones(m, np.int64), np.ones(m, np.int64)
    np.multiply.at(tau, at, e + 1)
    np.multiply.at(rad, at, p)
    np.multiply.at(phi, at, p - 1)
    phi *= n // rad
    # the prime powers of modulus i by slot, padded with 1^0
    slots = int((start[1:] - start[:-1]).max()) if m else 0
    P, E = np.ones((m, slots), np.int64), np.zeros((m, slots), np.int64)
    slot = np.arange(len(p)) - start[at]
    P[at, slot], E[at, slot] = p, e
    order = np.argsort(tau, kind="stable")
    sigma = np.zeros(m)
    lo = 0
    while lo < m:
        # rows lo.. in ascending tau: the cells of a block of j rows, j times
        # its last tau, grow with j, so the most rows within BLOCK_CELLS
        cells = np.arange(1, m - lo + 1) * tau[order[lo:]]
        rows = order[lo : lo + max(1, int(np.searchsorted(cells, BLOCK_CELLS, side="right")))]
        lo += len(rows)
        width = int(tau[rows[-1]])
        column = np.arange(width)
        d = np.ones((len(rows), width), np.int64)
        rest = np.zeros_like(d)
        rest += column
        for s in range(slots):
            radix = E[rows, s, None] + 1
            d *= P[rows, s, None] ** (rest % radix)
            rest //= radix
        d = d.astype(np.float64)
        d[column >= tau[rows, None]] = np.inf
        d.sort(axis=1)
        terms = 1.0 / np.sqrt(d)
        total = np.zeros(len(rows))
        for c in range(width):
            total += terms[:, c]
        sigma[rows] = total
    return phi, tau, sigma


def log1n(n: int) -> float:
    """The smoothed logarithm log(n + 1) used by all error envelopes."""
    if n < 0:
        raise ValueError("log1n requires n >= 0")
    return math.log(n + 1)


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


def legendre_symbols(z: np.ndarray, p: int) -> np.ndarray:
    """The Legendre symbols (z/p), -1, 0 or 1, of an int64 array z >= 0 and
    an odd prime p < 2^31, by Euler's criterion: z^((p-1)/2) mod p by
    repeated squaring, each product of two residues below p < 2^31 so below
    2^62, and each reduction a floor_mod."""
    base = floor_mod(z, p)
    out = np.ones_like(base)
    e = (p - 1) // 2
    while e:
        if e & 1:
            out *= base
            out = floor_mod(out, p)
        e >>= 1
        if e:
            base *= base
            base = floor_mod(base, p)
    out[out > 1] = -1
    return out


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
