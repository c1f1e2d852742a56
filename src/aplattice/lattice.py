"""Construction and queries for L(n), the lattice of arithmetic progressions in {1,..,n}.

Elements are stored in the canonical order (size, base, step) ascending, so the
empty progression always has id 0 and, for n >= 1, the full interval {1,..,n}
is the last id.  L(0) consists of the empty progression alone.  One index,
``id_of``, maps a (base, step, length) triple, or the equal Progression, to
its id; the queries read ``_fields``, the triples as exact plain tuples.

Cover relations are built per element through the ideal relabeling: the ideal
below an element y of size m is isomorphic to L(m) by sending the i-th member
of y to i+1, and under that relabeling the elements covered by y are exactly
the coatoms of L(m): two size m-1 runs plus the prime-step progressions
through 1 and m.  So (a, r, k) covers (a + (b-1)r, s r, l) for each coatom
(b, s, l) of L(k), and {a} covers EMPTY.  A brute-force checker in the test
suite validates the shortcut.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, floordiv, mul

from . import cost
from .numtheory import is_squarefree, prime_divisors, tau, valid_n
from .progression import (
    _Fields,
    _join_fields,
    _leq_fields,
    _meet_fields,
    _members,
    _of_fields,
    render,
)

@lru_cache(maxsize=None, typed=True)  # typed: a bool n still fails valid_n
def _coatom_fields(n: int) -> tuple[_Fields, ...]:
    """The elements covered by the top of L(n), as (base, step, length)
    triples in canonical order.

    For n >= 3 these are the two runs {1,..,n-1} and {2,..,n} together with
    the progressions {1, 1+p, .., n} for primes p dividing n-1 (when n-1 is
    itself prime that single progression is {1, n}).  At n <= 2 the runs
    are singletons, so those cases are listed explicitly.
    """
    if valid_n(n, 1) <= 2:
        return ((0, 0, 0),) if n == 1 else ((1, 0, 1), (2, 0, 1))
    out = [(1, 1, n - 1), (2, 1, n - 1)]
    out += [(1, p, (n - 1) // p + 1) for p in prime_divisors(n - 1)]
    return tuple(sorted(out, key=lambda f: (f[2], f[0], f[1])))


def _coatom_meet(m: int, fields: _Fields) -> tuple[_Fields, ...] | None:
    """The coatoms of L(m), m >= 1, whose meet is the triple x, in canonical
    order; None for the top and for any x that is no meet of coatoms.

    A meet of coatoms is {1, 1+e, .., m}, e a squarefree divisor of m-1, met
    by the coatoms of prime step p | e, less 1 if the run {2,..,m} joins
    them and less m if {1,..,m-1} does: one set per element.  x's step is e;
    a singleton {a} is {1, m} less one end (e = m-1) or {1, a, m} less both
    (e = a-1), and EMPTY is {1, m} less both.  In L(1), EMPTY is the meet of
    the one coatom EMPTY.  That set is every coatom above x.
    """
    base, step, length = fields
    if m > 1:
        e, first, last = step, base, base + (length - 1) * step
        if length == 0:
            e, first, last = m - 1, m, 1
        elif length == 1:  # a middle a other than (m+1)/2 fails the end test
            e = m - 1 if base in (1, m) else base - 1
        ends = first in (1, 1 + e) and last in (m, m - e)
        if (m - 1) % e or not (ends and is_squarefree(e)):
            return None
    return tuple(c for c in _coatom_fields(m) if _leq_fields(fields, c)) or None


def _coatoms_meet_empty(n: int) -> bool:
    """Whether the coatoms of L(n), n >= 1, meet to EMPTY, folded from their
    triples with no number theory of n - 1."""
    return reduce(_meet_fields, _coatom_fields(n)) == (0, 0, 0)


def _valid_id(lattice: Lattice, i, name: str) -> int:
    """i itself if it is an id of the lattice, a plain int below its size;
    ValueError otherwise."""
    if valid_n(i, name=name) >= len(lattice._fields):
        raise ValueError(f"{name} must be an id below {len(lattice)}, got {i}")
    return i


def _canonical_fields(n: int):
    """(base, step, length) of every progression in {1,..,n}, generated in
    the canonical (size, base, step) order."""
    yield (0, 0, 0)
    for a in range(1, n + 1):
        yield (a, 0, 1)
    for k in range(2, n + 1):
        for a in range(1, n):
            for r in range(1, (n - a) // (k - 1) + 1):
                yield (a, r, k)


def _interval_fields(lo: _Fields, hi: _Fields):
    """The triples between lo <= hi, each once, from the arithmetic of the
    bounds: below hi, L(|hi|) embedded into hi, in canonical order; above a
    nonempty lo = (b, s, k) inside hi = (c, h, m), each step t, a multiple
    of h dividing s (any multiple of h for a singleton lo), each base b - j*t
    >= c and each last element from lo's to hi's that is b mod t."""
    b, s, k = lo
    if k == 0:
        yield from map(_embed_fields, _canonical_fields(hi[2]), repeat(hi))
        return
    if k == 1:
        yield lo
    c, h, m = hi
    if h:  # a singleton hi holds nothing above lo but lo itself
        top = c + (m - 1) * h
        last = b + (k - 1) * s
        for t in range(h, (s or top - c) + 1, h):
            if s % t:
                continue
            for a in range(b, c - 1, -t):
                for end in range(max(last, a + t), top + 1, t):
                    yield (a, t, (end - a) // t + 1)


def _embed_fields(p: _Fields, host: _Fields) -> _Fields:
    """Send position j of a triple in {1,..,|host|} to the j-th member of
    host: the inverse of the ideal relabeling.  A host singleton (step 0)
    only receives EMPTY and {1}, so the step product stays canonical."""
    base, step, length = p
    if length == 0:
        return p
    return (host[0] + (base - 1) * host[1], step * host[1], length)


def _project_fields(p: _Fields, host: _Fields) -> _Fields:
    """Send a triple contained in host to {1,..,|host|} coordinates: the
    ideal relabeling, inverse to ``_embed_fields``.  A host singleton (step
    0) holds only EMPTY and itself, so a nonempty p goes to {1}."""
    base, step, length = p
    if length == 0:
        return p
    if host[1] == 0:
        return (1, 0, 1)
    return ((base - host[0]) // host[1] + 1, step // host[1], length)


class _Elements(Sequence):
    """The elements of a lattice by id, each Progression made on access."""

    def __init__(self, fields: tuple[_Fields, ...]):
        self._fields = fields

    def __len__(self):
        return len(self._fields)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(_of_fields, self._fields[i]))
        return _of_fields(self._fields[i])

    def __iter__(self):
        return map(_of_fields, self._fields)


class Lattice:
    """An immutable, fully materialised L(n).

    Attributes:
        n: ambient interval size.
        elements: read-only sequence of Progression in canonical (size, base,
            step) order, each made on access: a build makes none.
        id_of: (base, step, length) triple, or the equal Progression -> id.
        covers_down[i]: ids of the elements covered by element i, ascending
            by construction: the coatoms of L(|i|) embedded into i (see ``ideal``).

    The id queries run the closed forms of ``progression`` on ``_fields``,
    plain tuples because CPython unpacks a named tuple more slowly, and map
    the result back through ``id_of``, so a query builds neither a
    Progression nor a member set, and no quadratic tables are kept.  Every
    public id method validates its ids through ``_valid_id``: ValueError for
    anything but a plain int in 0..len-1.  ``_ids`` is the one internal walk
    from interval triples to ids, unchecked, for callers in the package that
    pass ids they listed themselves.
    """

    def __init__(self, n: int, fields: tuple[_Fields, ...]):
        self.n = n
        # exact tuples: CPython unpacks ``a, r, k = p`` fast only for those
        self._fields = fields
        self.elements = _Elements(fields)
        self.id_of = index = {f: i for i, f in enumerate(fields)}
        self.bottom_id = 0
        self.top_id = len(fields) - 1
        coatoms = [()] * 2 + [_coatom_fields(k) for k in range(2, n + 1)]
        self.covers_down = ((),) + ((0,),) * n + tuple(  # ids 1..n: singletons
            tuple([index[(a + (b - 1) * r, s * r, l)] for b, s, l in coatoms[k]])
            for a, r, k in fields[n + 1 :]
        )

    def __len__(self):
        return len(self._fields)

    def __repr__(self):
        return f"Lattice(n={self.n}, size={len(self)})"

    def size_of(self, i: int) -> int:
        return self._fields[_valid_id(self, i, "i")][2]

    def leq_ids(self, lo: int, hi: int) -> bool:
        """Whether lo <= hi."""
        lo, hi = _valid_id(self, lo, "lo"), _valid_id(self, hi, "hi")
        return _leq_fields(self._fields[lo], self._fields[hi])

    def meet_ids(self, i: int, j: int) -> int:
        i, j = _valid_id(self, i, "i"), _valid_id(self, j, "j")
        return self.id_of[_meet_fields(self._fields[i], self._fields[j])]

    def join_ids(self, i: int, j: int) -> int:
        i, j = _valid_id(self, i, "i"), _valid_id(self, j, "j")
        return self.id_of[_join_fields(self._fields[i], self._fields[j])]

    def ideal(self, x: int) -> tuple[int, ...]:
        """Ids of all elements <= x, ascending: L(|x|) embedded into x."""
        return self._ids(self.bottom_id, _valid_id(self, x, "x"))

    def filter(self, x: int) -> tuple[int, ...]:
        """Ids of all elements >= x, ascending."""
        return self._ids(_valid_id(self, x, "x"), self.top_id)

    def interval(self, lo: int, hi: int) -> tuple[int, ...]:
        """Ids of the elements between lo <= hi, ascending."""
        if not self.leq_ids(lo, hi):
            raise ValueError(f"interval requires ids lo <= hi, got {lo}, {hi}")
        return self._ids(lo, hi)

    def _ids(self, lo: int, hi: int) -> tuple[int, ...]:
        """``interval`` with no id check: ``_interval_fields`` mapped through
        ``id_of``, ascending as listed when lo is the bottom."""
        ids = map(self.id_of.__getitem__, _interval_fields(self._fields[lo], self._fields[hi]))
        return tuple(ids if lo == self.bottom_id else sorted(ids))

    def maximal_chains(self, lo: int, hi: int) -> list[tuple[int, ...]]:
        """All saturated chains lo = x0 < x1 < .. < xs = hi, as id tuples.

        Cover steps inside an interval coincide with cover steps of the whole
        lattice, so the walk starts at hi and follows covers_down restricted
        to the interval, prepending each step, until it reaches lo.
        """
        members = set(self.interval(lo, hi))
        out = []
        stack = [(hi,)]
        while stack:
            chain = stack.pop()
            first = chain[0]
            if first == lo:
                out.append(chain)
                continue
            for prev in self.covers_down[first]:
                if prev in members:
                    stack.append((prev,) + chain)
        out.sort()
        return out

    def to_dot(self) -> str:
        """Hasse diagram in DOT form: one node per element, one edge per cover."""
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i, p in enumerate(self._fields):
            lines.append(f'  e{i} [label="{render(p, self.n)}"];')
        for hi, down in enumerate(self.covers_down):
            lines += (f"  e{lo} -> e{hi};" for lo in down)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        edges = sorted([lo, hi] for hi, c in enumerate(self.covers_down) for lo in c)
        return {
            "n": self.n,
            "elements": [list(_members(p)) for p in self._fields],
            "cover_edges": edges,
        }


def build(n: int) -> Lattice:
    """Materialise L(n).

    Enumerates the empty progression, the n singletons, and every (base,
    step, length) with length >= 2, step >= 1 and last element <= n, already
    in the canonical (size, base, step) order.  Past the work budget it
    raises cost.BudgetError before building anything.
    """
    cost.require(f"building L({n})", cost.build(n))
    return Lattice(n, tuple(_canonical_fields(n)))


def size_formula(n: int) -> int:
    """Element count of L(n) from the divisor-sum identity, no construction:
    the last running sum of ``sizes``."""
    return sizes(valid_n(n))[-1]


def sizes(n_max: int) -> list[int]:
    """|L(0)|, .., |L(n_max)| as one running sum.  The progressions of L(n)
    not in L(n-1) end at n: {n}, and one starting at n - jr for each pair
    of a step r and j >= 1 with rj <= n-1, so |L(n)| - |L(n-1)| is
    1 + tau(1) + .. + tau(n-1)."""
    out = [1]
    ends = 0  # tau(1) + .. + tau(n-1)
    for n in range(1, valid_n(n_max, name="n_max") + 1):
        out.append(out[-1] + 1 + ends)
        ends += tau(n)
    return out


def interval_counts(n_max: int) -> list[int]:
    """For n = 0..n_max, the intervals lo < hi of L(n): its pairs lo <= hi less |L(n)|."""
    return [pairs[-1] - sum(row) for row, pairs in _pair_rows(n_max)]


def _pair_rows(n_max: int):
    """Count row m and the list P(0..m), lazily for m = 0..n_max, where P(m)
    counts the pairs lo <= hi of L(m) in closed form: the ideal below an
    element of size k is L(k), so P(m) is the sum of p(m, k) |L(k)|."""
    size, pairs = [], []
    for row in count_rows(n_max):
        size.append(sum(row))
        pairs.append(sum(map(mul, row, size)))
        yield row, pairs


def count_progressions_formula(n: int, k: int) -> int:
    """The number of progressions of size k in {1,..,n}, in closed form.

    1 for k = 0 (the empty progression), n for k = 1, and for 2 <= k <= n the
    sum of n - (k-1)r over steps r up to (n-1)//(k-1).  Zero when k > n.
    """
    valid_n(n)
    if valid_n(k, name="k") == 0:
        return 1
    if k == 1:
        return n
    if k > n:
        return 0
    rmax = (n - 1) // (k - 1)
    return n * rmax - (k - 1) * (rmax * rmax + rmax) // 2


def _canonical_id(n: int, fields: _Fields) -> int:
    """The id in L(n) of its triple, without a build: EMPTY is 0, {a} is a,
    and a longer (a, r, k) follows the smaller sizes, the (n - b)//(k - 1)
    of size k at each base b < a, and r - 1 smaller steps at base a."""
    base, step, length = fields
    if length < 2:
        return base
    smaller = sum(count_progressions_formula(n, j) for j in range(length))
    return smaller + sum((n - b) // (length - 1) for b in range(1, base)) + step - 1


def count_rows(n_max: int):
    """The rows (p(m, 0), .., p(m, m)) of progression counts for m = 0..n_max.

    Each row comes from the one before it: for 2 <= k < m,
    p(m, k) = p(m-1, k) + (m-1)//(k-1), the added term counting the size-k
    progressions whose last element is m (one for each step r with
    m - (k-1)r >= 1); p(m, 0) = 1, p(m, 1) = m and p(m, m) = 1.  A row costs
    O(m) additions instead of m + 1 closed-form evaluations.
    """
    return _count_rows(valid_n(n_max, name="n_max"))


def _count_rows(n_max: int):
    row = (1,)
    yield row
    if n_max >= 1:
        row = (1, 1)
        yield row
    for m in range(2, n_max + 1):
        ends = map(floordiv, repeat(m - 1), range(1, m - 1))
        row = (1, m, *map(add, row[2:m], ends), 1)
        yield row
