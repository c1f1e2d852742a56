"""Exact classical number theory: factorisation, mu, tau, omega, divisors.

All functions take positive integers and raise ValueError on anything else,
through ``valid_n``, the one size check every public entry point of the
package shares.  Trial division is plenty at the input sizes this package
works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Factorization:
    """Prime factorisation ``value = prod(p**e)`` with primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]


def valid_n(n, least: int = 0, name: str = "n") -> int:
    """n itself if it is a plain int (not a bool) of at least `least`;
    ValueError otherwise."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division. factorize(1) carries no factors."""
    valid_n(n, 1)
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def classical_mobius(n: int) -> int:
    """mu(n): 1 for squarefree with an even number of primes, -1 for odd, else 0."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def tau(n: int) -> int:
    """Number of divisors of n."""
    result = 1
    for _, e in factorize(n).factors:
        result *= e + 1
    return result


def omega(n: int) -> int:
    """Number of distinct prime divisors of n."""
    return len(factorize(n).factors)


def prime_divisors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending."""
    return tuple(p for p, _ in factorize(n).factors)


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n."""
    return all(e == 1 for _, e in factorize(n).factors)
