"""Exact classical number theory: factorisation, mu, tau, omega, divisors.

All functions take positive integers and raise ValueError on anything else,
through ``valid_n``, the one size check every public entry point of the
package shares.  Trial division is plenty at the input sizes this package
works with.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator


def valid_n(n, least: int = 0, name: str = "n") -> int:
    """n itself if it is a plain int (not a bool) of at least `least`;
    ValueError otherwise."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


def _divisor_recurrence(n: int, first: int, step: Callable) -> Iterator[int]:
    """a_1 = first, .., a_n, each yielded once, where a_(N+1) = step(a_N, Q(N))
    and Q(N) is the sum over 1 <= j < N of (N//j) a_(j+1).  As N//j - (N-1)//j
    is [j divides N] for j <= N-2, and N//(N-1) = 1 + [N-1 divides N],
    Q(N) = Q(N-1) + a_N + the a_(j+1) of the divisors j < N of N: tau(N)
    additions, about n ln n in all.  The divisor sums of lo <= N < 2 lo are
    sieved when the walk reaches lo, so it runs only as far as it is read;
    a_(j+1) is read at the multiples of j below n alone, so it is kept only
    while 2j < n."""
    value, q = first, -first  # a_N and Q(N-1) from N = 1; Q(0) = -a_1 makes Q(1) = 0
    kept = [value]  # kept[j] = a_(j+1); kept[0] is never read
    lo = 1
    while lo < n:
        hi = min(2 * lo, n)
        sums = [0] * (hi - lo)  # sums[N - lo]: a_(j+1) over the j | N, j < N
        for j in range(1, (hi + 1) // 2):
            a = kept[j]
            for i in range(-lo % j, hi - lo, j):
                sums[i] += a
        for divided in sums:
            yield value
            q += value + divided
            value = step(value, q)
            if 2 * len(kept) < n:
                kept.append(value)
        lo = hi
    if n:
        yield value


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1 by trial division, primes
    strictly increasing; factorize(1) is ()."""
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
    return tuple(factors)


def classical_mobius(n: int) -> int:
    """mu(n): 1 for squarefree with an even number of primes, -1 for odd, else 0."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def tau(n: int) -> int:
    """Number of divisors of n."""
    result = 1
    for _, e in factorize(n):
        result *= e + 1
    return result


def omega(n: int) -> int:
    """Number of distinct prime divisors of n."""
    return len(factorize(n))


def prime_divisors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending."""
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n."""
    return all(e == 1 for _, e in factorize(n))
