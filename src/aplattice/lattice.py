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
from itertools import repeat
from operator import add, floordiv

from . import cost
from .numtheory import is_squarefree, prime_divisors, tau, valid_n
from .progression import (
    Progression,
    _Fields,
    _join_fields,
    _leq_fields,
    _meet_fields,
    _members,
    _of_fields,
    render,
)

def coatom_progressions(n: int) -> tuple[Progression, ...]:
    """The elements covered by the top of L(n), in canonical order.

    For n >= 3 these are the two runs {1,..,n-1} and {2,..,n} together with
    the progressions {1, 1+p, .., n} for primes p dividing n-1 (when n-1 is
    itself prime that single progression is {1, n}).  At n <= 2 the runs
    are singletons, so those cases are listed explicitly.
    """
    return tuple(map(_of_fields, _coatom_fields(n)))


def _coatom_fields(n: int) -> tuple[_Fields, ...]:
    """``coatom_progressions(n)`` as plain (base, step, length) triples."""
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


def _valid_id(lattice: Lattice, i, name: str = "id") -> int:
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
    Progression nor a member set, and no quadratic tables are kept.  Ideals,
    filters and intervals are generated from the arithmetic of their bounds
    rather than scanned for: the ideal below x is L(|x|) embedded into x.
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
        return self._fields[i][2]

    def leq_ids(self, i: int, j: int) -> bool:
        return _leq_fields(self._fields[i], self._fields[j])

    def meet_ids(self, i: int, j: int) -> int:
        return self.id_of[_meet_fields(self._fields[i], self._fields[j])]

    def join_ids(self, i: int, j: int) -> int:
        return self.id_of[_join_fields(self._fields[i], self._fields[j])]

    def ideal(self, x: int) -> tuple[int, ...]:
        """Ids of all elements <= x, ascending: L(|x|) embedded into x.

        The embedding keeps the size and is increasing in base and step, so
        the canonical order of L(|x|) maps onto ascending ids.
        """
        host = self._fields[x]
        index = self.id_of
        return tuple(index[_embed_fields(f, host)] for f in _canonical_fields(host[2]))

    def filter(self, x: int) -> tuple[int, ...]:
        """Ids of all elements >= x, ascending."""
        return self.interval(x, self.top_id)

    def interval(self, lo: int, hi: int) -> tuple[int, ...]:
        """Ids of all elements between lo and hi inclusive; requires lo <= hi.

        Above a nonempty lo = (b, s, k) and inside hi = (c, h, m) lie exactly
        the progressions with a step t that is a multiple of h and divides s
        (any multiple of h when lo is a singleton), a base b - j*t >= c and a
        last element >= lo's last, <= hi's last and congruent to b mod t.
        Those are generated directly, so the cost follows the interval's size.
        """
        if not self.leq_ids(lo, hi):
            raise ValueError(f"interval requires lo <= hi, got ids {lo}, {hi}")
        b, s, k = self._fields[lo]
        if k == 0:
            return self.ideal(hi)
        c, h, m = self._fields[hi]
        top = c + (m - 1) * h
        last = b + (k - 1) * s
        index = self.id_of
        ids = [lo] if k == 1 else []
        if h:  # a singleton hi holds nothing above lo but lo itself
            for t in range(h, (s or top - c) + 1, h):
                if s % t:
                    continue
                for a in range(b, c - 1, -t):
                    for end in range(max(last, a + t), top + 1, t):
                        ids.append(index[(a, t, (end - a) // t + 1)])
        ids.sort()
        return tuple(ids)

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
    cost.require(f"building L({n})", cost.ELEMENT * cost.elements(n))
    return Lattice(n, tuple(_canonical_fields(n)))


def size_formula(n: int) -> int:
    """Element count of L(n) from the divisor-sum identity, no construction:
    1 + n + the sum over a < n of tau(1) + .. + tau(a), in which tau(r)
    occurs n - r times."""
    if valid_n(n) == 0:
        return 1
    return 1 + n + sum((n - r) * tau(r) for r in range(1, n))


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
