"""Construction and queries for L(n), the lattice of arithmetic progressions in {1,..,n}.

Elements are stored in the canonical order (size, base, step) ascending, so the
empty progression always has id 0 and, for n >= 1, the full interval {1,..,n}
is the last id.  L(0) consists of the empty progression alone.

Cover relations are built per element through the ideal relabeling: the ideal
below an element y of size m is isomorphic to L(m) by sending the i-th member
of y to i+1, and under that relabeling the elements covered by y are exactly
the coatoms of L(m), which have an explicit description (two size m-1 runs
plus the prime-step progressions through 1 and m).  A brute-force checker in
the test suite validates the shortcut.
"""

from __future__ import annotations

from .numtheory import prime_divisors, tau
from .progression import (
    EMPTY,
    Progression,
    _Fields,
    _fields,
    _join_fields,
    _leq_fields,
    _meet_fields,
    _of_fields,
    render,
    sort_key,
)

DEFAULT_MAX_N = 30


class LatticeBoundError(ValueError):
    """Requested n exceeds the configured construction bound."""


def coatom_progressions(n: int) -> tuple[Progression, ...]:
    """The elements covered by the top of L(n), in canonical order.

    For n >= 4 these are the two runs {1,..,n-1} and {2,..,n} together with
    the progressions {1, 1+p, .., n} for primes p dividing n-1 (when n-1 is
    itself prime that single progression is {1, n}).  The small cases n <= 3
    are listed explicitly; they agree with the same recipe.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (EMPTY,)
    if n == 2:
        return (Progression(1, 0, 1), Progression(2, 0, 1))
    if n == 3:
        return (Progression(1, 1, 2), Progression(1, 2, 2), Progression(2, 1, 2))
    out = [Progression(1, 1, n - 1), Progression(2, 1, n - 1)]
    for p in prime_divisors(n - 1):
        out.append(Progression(1, p, (n - 1) // p + 1))
    return tuple(sorted(out, key=sort_key))


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
    """embed_progression on (base, step, length) triples.  A host singleton
    (step 0) only receives EMPTY and {1}, so the step product stays canonical."""
    base, step, length = p
    if length == 0:
        return p
    return (host[0] + (base - 1) * host[1], step * host[1], length)


def embed_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression in {1,..,len(host)} to the corresponding subset of host.

    Position j goes to the j-th member of host.  This is the inverse of the
    ideal relabeling.
    """
    return _of_fields(_embed_fields(_fields(p), _fields(host)))


def project_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression contained in host to {1,..,len(host)} coordinates."""
    if p.is_empty:
        return EMPTY
    if host.step == 0:
        # host is a singleton; the only nonempty subset is host itself
        if p != host:
            raise ValueError(f"{p} is not contained in {host}")
        return Progression(1, 0, 1)
    offset = p.base - host.base
    if offset % host.step:
        raise ValueError(f"{p} is not contained in {host}")
    base = offset // host.step + 1
    if p.length == 1:
        return Progression(base, 0, 1)
    if p.step % host.step:
        raise ValueError(f"{p} is not contained in {host}")
    return Progression(base, p.step // host.step, p.length)


class Lattice:
    """An immutable, fully materialised L(n).

    Attributes:
        n: ambient interval size.
        elements: tuple of Progression, canonical (size, base, step) order.
        id_of: Progression -> dense id.
        covers_up[i]: sorted ids of the elements covering element i.
        covers_down[i]: sorted ids of the elements covered by element i.

    The id queries run the closed forms of ``progression`` on a tuple of
    (base, step, length) triples and map the result back to an id through
    one triple -> id index, so a query builds neither a Progression nor a
    member set, and no quadratic tables are kept.  Ideals, filters and
    intervals are generated from the arithmetic of their bounds rather than
    scanned for: the ideal below x is L(|x|) embedded into x.
    """

    def __init__(self, n: int, elements: tuple[Progression, ...]):
        self.n = n
        self.elements = elements
        self.id_of = {p: i for i, p in enumerate(elements)}
        self._fields = tuple(_fields(p) for p in elements)
        self._index = {f: i for i, f in enumerate(self._fields)}
        self.bottom_id = 0
        self.top_id = len(elements) - 1
        down = []
        for f in self._fields:
            if f[2] == 0:
                down.append(())
                continue
            covered = (_embed_fields(_fields(c), f) for c in coatom_progressions(f[2]))
            down.append(tuple(sorted(self._index[c] for c in covered)))
        self.covers_down = tuple(down)
        up = [[] for _ in elements]
        for hi, lows in enumerate(self.covers_down):
            for lo in lows:
                up[lo].append(hi)
        self.covers_up = tuple(tuple(sorted(v)) for v in up)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Lattice(n={self.n}, size={len(self.elements)})"

    def size_of(self, i: int) -> int:
        return self.elements[i].length

    def element_set(self, i: int) -> frozenset[int]:
        return frozenset(self.elements[i].elements())

    def leq_ids(self, i: int, j: int) -> bool:
        return _leq_fields(self._fields[i], self._fields[j])

    def covers(self, upper: int, lower: int) -> bool:
        return lower in self.covers_down[upper]

    def meet_ids(self, i: int, j: int) -> int:
        return self._index[_meet_fields(self._fields[i], self._fields[j])]

    def join_ids(self, i: int, j: int) -> int:
        return self._index[_join_fields(self._fields[i], self._fields[j])]

    def ideal(self, x: int) -> tuple[int, ...]:
        """Ids of all elements <= x, ascending: L(|x|) embedded into x.

        The embedding keeps the size and is increasing in base and step, so
        the canonical order of L(|x|) maps onto ascending ids.
        """
        host = self._fields[x]
        index = self._index
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
        index = self._index
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
        lattice, so the walk follows covers_up restricted to the interval.
        """
        members = set(self.interval(lo, hi))
        out = []
        stack = [(lo,)]
        while stack:
            chain = stack.pop()
            last = chain[-1]
            if last == hi:
                out.append(chain)
                continue
            for nxt in self.covers_up[last]:
                if nxt in members:
                    stack.append(chain + (nxt,))
        out.sort()
        return out

    def ideal_isomorphism(self, x: int) -> dict[int, int]:
        """Relabeling bijection from the ideal below x onto L(size of x).

        Keys are ids in this lattice, values are ids in build(size_of(x)).
        Rejects the empty progression.
        """
        host = self.elements[x]
        if host.is_empty:
            raise ValueError("the empty progression has a one-point ideal; no relabeling")
        target = build(host.length, max_n=max(host.length, DEFAULT_MAX_N))
        return {
            i: target.id_of[project_progression(self.elements[i], host)]
            for i in self.ideal(x)
        }

    def to_dot(self) -> str:
        """Hasse diagram in DOT form: one node per element, one edge per cover."""
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i, p in enumerate(self.elements):
            lines.append(f'  e{i} [label="{render(p, self.n)}"];')
        for hi in range(len(self.elements)):
            for lo in self.covers_down[hi]:
                lines.append(f"  e{lo} -> e{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        edges = []
        for hi in range(len(self.elements)):
            for lo in self.covers_down[hi]:
                edges.append([lo, hi])
        edges.sort()
        return {
            "n": self.n,
            "elements": [list(p.elements()) for p in self.elements],
            "cover_edges": edges,
        }


def build(n: int, *, max_n: int = DEFAULT_MAX_N) -> Lattice:
    """Materialise L(n).

    Enumerates the empty progression, the n singletons, and every (base,
    step, length) with length >= 2, step >= 1 and last element <= n, already
    in the canonical (size, base, step) order.  Raises
    LatticeBoundError for n beyond max_n (default 30) to keep memory bounded.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n > max_n:
        raise LatticeBoundError(f"n={n} exceeds the construction bound {max_n}")
    return Lattice(n, tuple(_of_fields(f) for f in _canonical_fields(n)))


def size_formula(n: int) -> int:
    """Element count of L(n) from the divisor-sum identity, no construction."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return 1 + n + sum(tau(r) for a in range(1, n) for r in range(1, a + 1))


def count_progressions_formula(n: int, k: int) -> int:
    """The number of progressions of size k in {1,..,n}, in closed form.

    1 for k = 0 (the empty progression), n for k = 1, and for 2 <= k <= n the
    sum of n - (k-1)r over steps r up to (n-1)//(k-1).  Zero when k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k == 0:
        return 1
    if k == 1:
        return n
    if k > n:
        return 0
    rmax = (n - 1) // (k - 1)
    return n * rmax - (k - 1) * (rmax * rmax + rmax) // 2


def count_progressions_enumerated(lattice: Lattice, k: int) -> int:
    """The number of size-k elements, by direct scan of a built lattice."""
    return sum(1 for p in lattice.elements if p.length == k)


def gf_coefficients(max_n: int, max_k: int) -> list[list[int]]:
    """Coefficient table of the bivariate generating function of the counts.

    Expands (1/(1-z)^2) * (1 - z + zq + sum_{k>=2} (zq)^k / (1 - z^{k-1}))
    as an exact truncated power series; entry [n][k] is the number of
    progressions of size k in {1,..,n}.
    """
    if max_n < 0 or max_k < 0:
        raise ValueError("bounds must be >= 0")
    # inner factor: 1 - z + zq + sum_{k>=2} z^{k + j(k-1)} q^k over j >= 0
    inner = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    inner[0][0] += 1
    if max_n >= 1:
        inner[1][0] -= 1
        if max_k >= 1:
            inner[1][1] += 1
    for k in range(2, min(max_k, max_n) + 1):
        e = k
        while e <= max_n:
            inner[e][k] += 1
            e += k - 1
    # multiply by 1/(1-z)^2 = sum_m (m+1) z^m
    out = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    for n in range(max_n + 1):
        row = out[n]
        for m in range(n + 1):
            w = m + 1
            src = inner[n - m]
            for k in range(max_k + 1):
                if src[k]:
                    row[k] += w * src[k]
    return out
