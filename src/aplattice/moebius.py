"""Four independent engines for the Moebius function of L(n).

* Definition: the recursion mu(x,y) = -sum of mu(x,z) over x <= z < y,
  memoised per call.  Intervals starting at the bottom are keyed by the size
  of the upper element, because the ideal below an element of size m is
  isomorphic to L(m); that one reduction makes the whole-lattice value cheap.
* PnkRecurrence: sum over k of M(k) * p(m, k) = 0 for m >= 1, because the
  ideal below a size-k element is L(k).  The relation at m minus the one at
  m-1 keeps only the progressions ending at m, (m-1)//(k-1) of size k >= 2
  and one of size 1, so with N = m-1 it reads
  M(m) = 1 - sum over 1 <= j < N of M(j+1) * (N//j).  The terms j <= isqrt(N)
  are summed directly; the rest fall in blocks of equal quotient q = N//j,
  summed by parts over a running prefix sum of M: O(sqrt(m)) terms per m.
* ChainAlternatingSum: M(n) = sum over k of (-1)^k b(n, k), needing only the
  bottom-to-top chain counts.
* CoatomMeet: the value of an interval [x, y] is (-1)^k when x is the meet of
  exactly k elements covered by y, and 0 when x is no such meet.  The ideal
  below y is L(|y|) relabeled, so the value is read off
  ``coatom_meet_table(|y|)`` at x in y's coordinates.

All four agree, and agree with the classical mu(n-1) for n >= 2; the test
suite enforces this.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import repeat
from math import isqrt
from operator import floordiv, mul

from . import cost
from .complexes import chain_counts
from .lattice import (
    Lattice,
    _project_fields,
    build,
    coatom_progressions,
)
from .progression import meet
from .structure import coatom_meet_table


class MoebiusMethod(Enum):
    DEFINITION = "definition"
    PNK_RECURRENCE = "pnk"
    CHAIN_ALTERNATING_SUM = "chains"
    COATOM_MEET = "coatom"


def _mobius_definition(lattice: Lattice, lo: int, hi: int, memo: dict) -> int:
    if lo == hi:
        return 1
    key = ("size", lattice.size_of(hi)) if lo == lattice.bottom_id else (lo, hi)
    cached = memo.get(key)
    if cached is not None:
        return cached
    total = 0
    for z in lattice.interval(lo, hi):
        if z != hi:
            total += _mobius_definition(lattice, lo, z, memo)
    memo[key] = -total
    return -total


def _mobius_coatom_interval(lattice: Lattice, lo: int, hi: int) -> int:
    if lo == hi:
        return 1
    host = lattice.elements[hi]
    if host.length == 1:
        return -1  # [EMPTY, {a}] is a two-element chain; the table starts at 2
    lo_in_host = _project_fields(lattice.elements[lo], host)
    rep = coatom_meet_table(host.length).get(lo_in_host)
    return 0 if rep is None else (-1) ** len(rep)


def mobius_interval(
    lattice: Lattice,
    lo: int,
    hi: int,
    method: MoebiusMethod = MoebiusMethod.DEFINITION,
) -> int:
    """Moebius value of the interval [lo, hi]; requires lo <= hi.

    DEFINITION runs the memoised recursion; COATOM_MEET reads the
    covered-elements criterion off ``coatom_meet_table(|hi|)``, through the
    relabeling of the ideal below hi onto L(|hi|).  The other two methods
    only make sense for the whole lattice, use mobius_bottom_top for those.
    """
    if not lattice.leq_ids(lo, hi):
        raise ValueError(f"mobius_interval requires lo <= hi, got ids {lo}, {hi}")
    if method is MoebiusMethod.DEFINITION:
        return _mobius_definition(lattice, lo, hi, {})
    if method is MoebiusMethod.COATOM_MEET:
        return _mobius_coatom_interval(lattice, lo, hi)
    raise ValueError(f"{method} applies to the whole lattice, not to intervals")


def _pnk_values(n: int) -> list[int]:
    """M(0..n) by the differenced p(n, k) relation of the module docstring."""
    values = [1, -1, 1]  # M(2) = 1: at m = 2 the sum over j is empty
    prefix = [0, 1]  # prefix[x] = M(2) + .. + M(x+1), for x < N
    for big in range(2, n):  # big is N = m - 1 for m = 3..n
        r = isqrt(big)
        quotients = map(floordiv, repeat(big), range(1, r + 1))
        direct = sum(map(mul, values[2 : r + 2], quotients))
        # Block q holds the j with N//(q+1) < j <= N//q, for q = 1..last,
        # which covers r < j <= N.  By parts, the sum of
        # q * (prefix[N//q] - prefix[N//(q+1)]) is the sum of prefix[N//q]
        # less last * prefix[r]; block 1 stops at N-1, short of M(N+1).
        last = big // (r + 1)
        ends = map(floordiv, repeat(big), range(2, last + 1))
        blocks = prefix[big - 1] + sum(map(prefix.__getitem__, ends)) - last * prefix[r]
        value = 1 - direct - blocks
        values.append(value)
        prefix.append(prefix[-1] + value)
    return values[: n + 1]


def _bottom_top_pnk(n: int) -> int:
    return _pnk_values(n)[n]


def _bottom_top_chains(n: int) -> int:
    if n == 0:
        return 1
    return sum((-1) ** k * b for k, b in enumerate(chain_counts(n)[n], 1))


def _bottom_top_coatoms(n: int) -> int:
    if n == 0:
        return 1
    cs = coatom_progressions(n)
    bottom = reduce(meet, cs)
    return (-1) ** len(cs) if bottom.is_empty else 0


def mobius_bottom_top(n: int, method: MoebiusMethod) -> int:
    """M(n), the Moebius value of the whole of L(n), by the chosen engine.

    Only DEFINITION needs a built lattice; the other three run on counts or
    coatom arithmetic alone.  Past the work budget (``cost.engine``) it
    raises cost.BudgetError first.
    """
    if not isinstance(method, MoebiusMethod):
        raise ValueError(f"unknown method {method!r}")
    cost.require(f"M({n}) by the {method.value} engine", cost.engine(n, method.value))
    if method is MoebiusMethod.DEFINITION:
        lattice = build(n)
        return _mobius_definition(lattice, lattice.bottom_id, lattice.top_id, {})
    if method is MoebiusMethod.PNK_RECURRENCE:
        return _bottom_top_pnk(n)
    if method is MoebiusMethod.CHAIN_ALTERNATING_SUM:
        return _bottom_top_chains(n)
    return _bottom_top_coatoms(n)
