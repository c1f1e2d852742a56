"""Four independent engines for the Moebius function of L(n).

* Definition: the recursion mu(x,y) = -sum of mu(x,z) over x <= z < y,
  memoised per call.  Intervals starting at the bottom are keyed by the size
  of the upper element, because the ideal below an element of size m is
  isomorphic to L(m); that one reduction makes the whole-lattice value cheap.
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
from .lattice import Lattice, _coatom_fields, _coatom_meet, _coatoms_meet_empty, _valid_id
from .lattice import _project_fields, build
from .numtheory import _divisor_recurrence


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

    DEFINITION runs the memoised recursion; COATOM_MEET applies the
    covered-elements rule ``lattice._coatom_meet`` of L(|hi|), through the
    relabeling of the ideal below hi onto L(|hi|).  The other two methods
    only make sense for the whole lattice, use mobius_bottom_top for those.
    """
    if not lattice.leq_ids(_valid_id(lattice, lo, "lo"), _valid_id(lattice, hi, "hi")):
        raise ValueError(f"mobius_interval requires lo <= hi, got ids {lo}, {hi}")
    if method is MoebiusMethod.DEFINITION:
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
        return _pnk_values(n)[n]
    if method is MoebiusMethod.CHAIN_ALTERNATING_SUM:
        return _bottom_top_chains(n)
    return _bottom_top_coatoms(n)
