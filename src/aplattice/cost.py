"""One work budget for every request that can run long.

Entry points estimate their work before they start, from closed forms the
package already has, and call ``require``: past ``BUDGET`` units it raises
``BudgetError``, unless inside ``unbounded()`` (the command line's --force).
A unit is one item counted below; a lattice element weighs ``ELEMENT``,
though build(248) took 7-9 us per element against 0.30-0.41 us per decoded
face of L(13).  The largest admitted request of each kind took (one run
unless a range, 2-vCPU x86-64 VM, Python 3.11, peak RSS of the process):

* elements(n), from the size identity: build(200), 99k, 0.57-0.62 s, 46 MB
* faces(n), B_n(1) - 1 off one t = 1 pass of the chain recurrence:
  order_complex(build(13)), 3.70M, 0.003-0.007 s, 15 MB; decoding its face
  tuples (homology, export) 1.1-1.5 s more, 410-416 MB
* nonzeros(n), d + 1 per d-face, off the rows of one chain_counts: homology
  of L(11), 1.92M, 1.9-2.4 s, 123 MB
* comodernism(n), the members its premises walk per m <= n: |L(m)| -
  |L(m-1)|, tau(m-1) and tau(e) for each e | m-1, e > 1, with no build:
  check comodernistic 0..1091, 3,998,120 units, 7.2-7.3 s, 16 MB
* triples(n), lo <= y <= hi, from ``lattice._pair_rows``, for labelings
* 4 elements(n) per n: check coatoms, each triple and at most 3 members of
  its interval up to the top (1..113, 3,982,964, 1.9-2.0 s, 16 MB); check
  complemented, each triple twice and 2 candidates per element, 1.5 at most
  on average for n <= 200 (2..113, 3,982,956, 1.9-2.1 s, 17 MB)
* k(k-1)/2 member pairs of an interval of k elements, priced in
  ``structure``: left-modularity of a run coatom in the whole L(40), 3.71M,
  0.008 s, 16 MB; an upper bound, as the test makes one meet per member
  (2,724) and checks only the covers of the members it lists (none here)
* chain_steps(n), the steps of all saturated chains of all intervals, from
  count_rows and the coatom sizes: labeling of L(14), 2.50M, 1.8 s, 24 MB
* row_terms(n), n^2/2 count-row terms for table p and table size: 2828,
  1.3 s, 17 MB (table p, written one row at a time); 0.1 s, 17 MB (table
  size)
* engine(n, name), terms: 2 n isqrt(n) for pnk (15875: 0.10-0.12 s, 15
  MB), n^3/6 for chains and chain_counts (288: 0.09-0.14 s, 16 MB), the build
  and the running sum of |L(m)| over m <= n for definition (142: 0.39-0.41
  s, 15 MB; the engine walks the triples of each L(m) and builds nothing,
  but the build stays in its price so that no admission edge moves),
  isqrt(n) trial divisions for coatom

Every count grows with n, so an estimate stops at the first one past the
budget (the elements at their n(n+1)/2 + 1 runs): refusing needs no more.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import isqrt
from operator import mul

from . import complexes, lattice
from .numtheory import divisors, tau, valid_n

BUDGET = 4_000_000
ELEMENT = 40  # units per element; lower admits export lattice-json past n = 200

_unbounded = ContextVar("unbounded", default=False)


class BudgetError(ValueError):
    """A request's estimated work is over the budget; maps to exit code 2."""


@contextmanager
def unbounded(on: bool = True):
    """Admit every request inside the block (when `on`)."""
    token = _unbounded.set(on)
    try:
        yield
    finally:
        _unbounded.reset(token)


def require(what: str, units: int) -> bool:
    """Refuse `units` of work past the budget, unless inside unbounded().
    Returns whether the admitted work is over the budget."""
    if units > BUDGET and not _unbounded.get():
        raise BudgetError(
            f"{what} needs at least {units:,} work units; "
            f"the budget is {BUDGET:,} (use --force)"
        )
    return units > BUDGET


def _first_past(counts) -> int:
    for count in counts:
        if count > BUDGET:
            break
    return count


def elements(n: int) -> int:
    """|L(n)| by the size identity."""
    runs = valid_n(n) * (n + 1) // 2 + 1
    return runs if runs > BUDGET else lattice.size_formula(n)


def build(n: int) -> int:
    """Units of ``lattice.build(n)``: ELEMENT per element."""
    return ELEMENT * elements(n)


def _faces(n: int):
    """Faces of the order complex of L(m), m = 0..n: every chain from the
    bottom to the top but the cover pair, B_m(1) - 1."""
    return (value - 1 for value in complexes._chain_values(valid_n(n), 0))


def faces(n: int) -> int:
    """Faces of the order complex of L(n)."""
    return _first_past(_faces(n))


def nonzeros(n: int) -> int:
    """Non-zeros of its boundary maps, d + 1 per d-face, read off the rows
    up to the first m whose faces pass the budget (each has a non-zero).
    That m is at most 14, so its chain counts are priced far inside it."""
    last = next((m for m, f in enumerate(_faces(n)) if f > BUDGET), n)
    rows = complexes.chain_counts(last) if last else ((),)
    return _first_past(sum(map(mul, row, range(len(row)))) for row in rows)


def triples(n: int) -> int:
    """lo <= y <= hi in L(n): the sum of p(n, m) P(m)."""
    rows = lattice._pair_rows(valid_n(n))
    return _first_past(sum(map(mul, row, pairs)) for row, pairs in rows)


def comodernism(n: int) -> int:
    run = elements(n) - 1
    if run > BUDGET:
        return run
    return run + sum(tau(e) for k in range(1, n) for e in (k, *divisors(k)[1:]))


def _chain_steps(n: int):
    """Chains ending at an element of size m live in its ideal L(m): Q(m) of
    them end at its top, with R(m) steps, where Q(m) = 1 + sum Q(c) and
    R(m) = sum R(c) + Q(c) over the sizes c of L(m)'s coatoms.  L(m) holds
    the sum of p(m, k) R(k) steps."""
    q, r = [1], [0]
    for m, row in enumerate(lattice.count_rows(valid_n(n))):
        if m:
            sizes = [k for _, _, k in lattice._coatom_fields(m)]
            q.append(1 + sum(q[c] for c in sizes))
            r.append(sum(r[c] + q[c] for c in sizes))
        yield sum(map(mul, row, r))


def chain_steps(n: int) -> int:
    return _first_past(_chain_steps(n))


def row_terms(n: int) -> int:
    """Terms of the count rows 0..n, as many as the divisor sums up to n."""
    return valid_n(n) ** 2 // 2


def engine(n: int, name: str) -> int:
    """Terms of the Moebius engine `name` (a method value) on M(n); pnk sums
    tau(N) <= 2 isqrt(N) terms for each N = m - 1 < n, about n ln n in all,
    so its price is an upper bound."""
    valid_n(n)
    if name == "pnk":
        return 2 * n * isqrt(n)
    if name == "chains":
        return n**3 // 6
    if name == "coatom":
        return isqrt(n)
    if name != "definition":
        raise ValueError(f"unknown engine {name!r}")
    built = build(n)
    return built if built > BUDGET else built + sum(lattice.sizes(n))
