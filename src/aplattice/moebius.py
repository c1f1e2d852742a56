"""Four independent engines for the Moebius function of L(n).

* Definition: the recursion mu(x,y) = -sum of mu(x,z) over x <= z < y.
  From the bottom it depends on the size of y alone, because the ideal
  below an element of size m is isomorphic to L(m), so M(0..n) come from
  one walk: M(m) is minus the sum of M(|z|) over the triples z of L(m) in
  canonical order, up to the top, the last and the only one of size m.
  It builds no lattice and visits every element; other intervals run the
  recursion on ids, memoised per call.
* PnkRecurrence: sum over k of M(k) * p(m, k) = 0 for m >= 1, because the
  ideal below a size-k element is L(k).  The relation at m minus the one at
  m-1 keeps only the progressions ending at m, (m-1)//(k-1) of size k >= 2
  and one of size 1, so with N = m-1 it reads
  M(m) = 1 - sum over 1 <= j < N of M(j+1) * (N//j); from N-1 to N that sum
  gains M(N) and the M(j+1) of the divisors j < N of N: tau(m-1) additions.
* ChainAlternatingSum: M(n) = sum over k of (-1)^k b(n, k), read off row n
  of the chain counts alone.  Those rows run through the same divisor walk,
  each row packed into one integer (see ``complexes``).
* CoatomMeet: the value of an interval [x, y] is (-1)^k when x is the meet of
  exactly k elements covered by y, and 0 when x is no such meet (Rota's
  cross-cut theorem).  The ideal below y is L(|y|) relabeled, so the value
  is the rule ``lattice._coatom_meet`` of L(|y|) at x in y's coordinates.
  M(n) folds the meets of the coatoms of L(n) instead, with no number
  theory of n - 1: (-1)^k when all k of them meet to the empty progression,
  which only the whole set can, and 0 otherwise.

All four agree, and agree with the classical mu(n-1) for n >= 2; the test
suite enforces this.
"""

from __future__ import annotations

from enum import Enum

from . import cost
from .complexes import chain_counts
from .lattice import Lattice, _canonical_fields, _coatom_fields, _coatom_meet
from .lattice import _coatoms_meet_empty, _project_fields
from .numtheory import _divisor_recurrence


class MoebiusMethod(Enum):
    DEFINITION = "definition"
    PNK_RECURRENCE = "pnk"
    CHAIN_ALTERNATING_SUM = "chains"
    COATOM_MEET = "coatom"


def _definition_values(n: int) -> list[int]:
    """M(0..n) by the defining recursion, one walk of L(m) per m <= n."""
    values = [1]
    for m in range(1, n + 1):
        total = 0
        for _, _, k in _canonical_fields(m):
            if k == m:  # the top
                break
            total += values[k]
        values.append(-total)
    return values


def _mobius_definition(lattice: Lattice, lo: int, hi: int, memo: dict) -> int:
    """mu(lo, hi) by the recursion on ids, for lo other than the bottom."""
    if lo == hi:
        return 1
    cached = memo.get((lo, hi))
    if cached is not None:
        return cached
    total = 0
    for z in lattice._ids(lo, hi)[:-1]:  # hi, the largest, comes last
        total += _mobius_definition(lattice, lo, z, memo)
    memo[lo, hi] = -total
    return -total


def _mobius_coatom_interval(lattice: Lattice, lo: int, hi: int) -> int:
    if lo == hi:
        return 1
    host = lattice._fields[hi]
    rep = _coatom_meet(host[2], _project_fields(lattice._fields[lo], host))
    return 0 if rep is None else (-1) ** len(rep)


def mobius_interval(
    lattice: Lattice,
    lo: int,
    hi: int,
    method: MoebiusMethod = MoebiusMethod.DEFINITION,
) -> int:
    """Moebius value of the interval [lo, hi]; requires element ids lo <= hi.

    DEFINITION reads the walk of L(|hi|) from the bottom and runs the
    memoised recursion otherwise; COATOM_MEET applies the
    covered-elements rule ``lattice._coatom_meet`` of L(|hi|), through the
    relabeling of the ideal below hi onto L(|hi|).  The other two methods
    only make sense for the whole lattice, use mobius_bottom_top for those.
    """
    if not lattice.leq_ids(lo, hi):
        raise ValueError(f"mobius_interval requires lo <= hi, got ids {lo}, {hi}")
    if method is MoebiusMethod.DEFINITION:
        if lo == lattice.bottom_id:
            return _definition_values(lattice._fields[hi][2])[-1]
        return _mobius_definition(lattice, lo, hi, {})
    if method is MoebiusMethod.COATOM_MEET:
        return _mobius_coatom_interval(lattice, lo, hi)
    raise ValueError(f"{method} applies to the whole lattice, not to intervals")


def _pnk_values(n: int) -> list[int]:
    """M(0..n) by the differenced p(n, k) relation of the module docstring."""
    return [1, *_divisor_recurrence(n, -1, lambda value, q: 1 - q)]


def _bottom_top_chains(n: int) -> int:
    if n == 0:
        return 1
    return sum((-1) ** k * b for k, b in enumerate(chain_counts(n, last=True), 1))


def _bottom_top_coatoms(n: int) -> int:
    if n == 0:  # L(0): bottom = top
        return 1
    return (-1) ** len(_coatom_fields(n)) if _coatoms_meet_empty(n) else 0


def mobius_bottom_top(n: int, method: MoebiusMethod) -> int:
    """M(n), the Moebius value of the whole of L(n), by the chosen engine.

    None of the four builds a lattice: DEFINITION walks the triples of each
    L(m), the other three run on counts or coatom arithmetic alone.  Past
    the work budget (``cost.engine``) it raises cost.BudgetError first.
    """
    if not isinstance(method, MoebiusMethod):
        raise ValueError(f"unknown method {method!r}")
    cost.require(f"M({n}) by the {method.value} engine", cost.engine(n, method.value))
    if method is MoebiusMethod.DEFINITION:
        return _definition_values(n)[n]
    if method is MoebiusMethod.PNK_RECURRENCE:
        return _pnk_values(n)[n]
    if method is MoebiusMethod.CHAIN_ALTERNATING_SUM:
        return _bottom_top_chains(n)
    return _bottom_top_coatoms(n)
