"""Chain counting, the order complex of L(n), and coatom cross-cut complexes.

A complex knows its face count in every dimension and yields all of its
faces (not just the maximal ones) grouped by dimension, for the
boundary-matrix homology downstream.  Vertices are dense integers with a
translation table back to lattice ids.  The empty face is always considered
present.

Chain counts are rows (b(m, 1), .., b(m, m)), read as polynomials
B_m(t) = sum of b(m, k) t^k: B_0 = 1 and B_m = t A_m, A_m = sum over i < m
of p(m, i) B_i.  Differenced like the p(n, k) Moebius engine, with N = m-1,
B_m = B_N + t (B_1 + B_N + sum over 1 <= j < N of (N//j) B_(j+1)), the sum
carried from N-1 to N by B_N and the B_(j+1) of the divisors j < N of N; at
one power of two wide enough for every count, each row is one integer
(Kronecker substitution), made once.  Less its b(m, 1) = 1, row m counts the
faces of the order complex of L(m), B_m(1) - 1 in all.  The order complex is
walked level by level as a count per vertex of the faces of one dimension
that end there, one pass over the comparable pairs a level, so the f-vector
and the Euler characteristic need no face tuple.  The tuples are decoded
once, on first use, in lexicographic order: the breadth-first layout of a
simplex tree (Boissonnat and Maria, "The Simplex Tree", Algorithmica 2014).
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import chain, combinations, count

from . import cost
from .lattice import Lattice, _coatoms_meet_empty
from .numtheory import _divisor_recurrence, valid_n

_Faces = tuple[tuple[tuple[int, ...], ...], ...]  # index = dimension


class SimplicialComplex:
    """Faces by dimension over dense integer vertices; downward closed.

    Built from its faces, or by ``order_complex`` from its face counts and a
    decoder that generates the faces on first use.  Either way the counts
    are known up front, so ``f_vector`` and ``dim`` never build a face.
    """

    def __init__(
        self,
        vertex_count: int,
        faces_by_dim: _Faces,
        translation: tuple[int, ...] | None = None,  # vertex -> lattice id
    ):
        _check_faces(vertex_count, faces_by_dim)
        self.vertex_count = vertex_count
        self.translation = translation
        self._faces = faces_by_dim
        self._counts = tuple(map(len, faces_by_dim))

    @classmethod
    def _decoded_on_demand(
        cls,
        vertex_count: int,
        counts: tuple[int, ...],
        decode: Callable[[], _Faces],
        translation: tuple[int, ...] | None,
    ) -> SimplicialComplex:
        """A complex with `counts` faces by dimension, which `decode()`
        generates when they are first asked for."""
        complex = cls.__new__(cls)
        complex.vertex_count, complex.translation = vertex_count, translation
        complex._faces, complex._counts, complex._decode = None, counts, decode
        return complex

    @property
    def faces_by_dim(self) -> _Faces:
        """Decoded once and kept; every decoded level's length is asserted
        against the count the complex was built with."""
        if self._faces is None:
            faces = self._decode()
            assert tuple(map(len, faces)) == self._counts, (
                "decoded faces disagree with the walked counts"
            )
            self._faces = faces
        return self._faces

    @property
    def dim(self) -> int:
        return len(self._counts) - 1

    def faces(self, d: int) -> tuple[tuple[int, ...], ...]:
        return self.faces_by_dim[d]

    def f_vector(self) -> tuple[int, ...]:
        return self._counts

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(range(self.vertex_count)),
            "faces_by_dim": {
                str(d): [list(f) for f in fs]
                for d, fs in enumerate(self.faces_by_dim)
            },
            "translation": list(self.translation) if self.translation else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _check_faces(vertex_count: int, faces_by_dim: _Faces) -> None:
    """Raise ValueError unless level d is nonempty and holds distinct,
    strictly increasing (d+1)-tuples of plain int vertices (not bool, not
    float) in range(vertex_count), each of whose facets is in level d-1, and
    level 0 holds every vertex (being distinct and in range, it does when it
    has vertex_count faces).  The faces of a level may come in any order."""
    below = set()
    for d, level in enumerate(faces_by_dim):
        if not level:
            raise ValueError(f"dimension {d} is listed with no face")
        if not set(map(type, chain.from_iterable(level))) <= {int}:
            raise ValueError(f"dimension {d} has a vertex that is not an int")
        here = set(level)
        if len(here) != len(level):
            raise ValueError(f"dimension {d} lists a face twice")
        for f in level:
            if not (
                len(f) == d + 1
                and 0 <= f[0]
                and f[-1] < vertex_count
                and all(a < b for a, b in zip(f, f[1:]))
            ):
                raise ValueError(
                    f"face {f!r} in dimension {d} is not an increasing "
                    f"{d + 1}-tuple of vertices in range({vertex_count})"
                )
            if d and not all(f[:i] + f[i + 1 :] in below for i in range(d + 1)):
                raise ValueError(f"a facet of {f!r} is missing from dimension {d - 1}")
        below = here
    if (len(faces_by_dim[0]) if faces_by_dim else 0) != vertex_count:
        raise ValueError(f"dimension 0 lacks a vertex of range({vertex_count})")


def _chain_values(n: int, shift: int) -> Iterator[int]:
    """B_0(t), .., B_n(t) at t = 2**shift, each yielded once and made only
    when asked for: B_(N+1) = B_N + t (t + B_N + Q(N)), Q(N) the sum over
    1 <= j < N of (N//j) B_(j+1), by ``numtheory._divisor_recurrence``."""
    t = 1 << shift
    yield 1
    yield from _divisor_recurrence(
        n, t, lambda value, q: value + ((t + value + q) << shift)
    )


def _slot_bytes(bound: int) -> int:
    """Bytes per packed coefficient: those `bound` needs, plus one."""
    return (bound.bit_length() + 7) // 8 + 1


def chain_counts(n: int, *, last: bool = False) -> tuple:
    """The rows (b(m, 1), .., b(m, m)) for m = 0..n, or row n alone when
    `last`, where b(m, k) counts the chains of length k in L(m) that contain
    both the empty progression and {1,..,m}; row 0 is empty.  Row m less
    b(m, 1) counts the B_m(1) - 1 faces of the order complex of L(m).  Past
    the work budget (the chains engine's terms) it raises BudgetError first.

    The recurrence runs at t = 1, for the largest total, B_n(1), which bounds
    every b(m, k) with m <= n, and at t = 2**(8w), w bytes per coefficient
    to spare, where each row is one integer, held while it is unpacked or
    read again (``_chain_values``).
    """
    valid_n(n, 1)
    cost.require(f"the chain counts of L({n})", cost.engine(n, "chains"))
    w = _slot_bytes(max(_chain_values(n, 0)))
    packed = _chain_values(n, 8 * w)

    def row(m: int, value: int) -> tuple[int, ...]:
        data = value.to_bytes((m + 1) * w, "little")  # slot k holds b(m, k)
        slots = range(w, len(data), w)
        return tuple(int.from_bytes(data[i : i + w], "little") for i in slots)

    return row(n, deque(packed, 1).pop()) if last else tuple(map(row, count(), packed))


def order_complex(lattice: Lattice) -> SimplicialComplex:
    """The complex whose vertices are the proper elements of L(n) and whose
    faces are the chains among them.  Needs n >= 2 (a proper part to speak of).

    Each level of the walk counts, per vertex, the faces of one dimension
    that end there, and the next level adds each count to the vertices
    above.  The level totals must equal the chain counts of row n; that is
    asserted on every construction.  Past the work budget (one unit per face,
    counted from the same rows) it raises cost.BudgetError first.
    """
    n = lattice.n
    if n < 2:
        raise ValueError("the order complex needs n >= 2")
    cost.require(f"the order complex of L({n})", cost.faces(n))
    top = lattice.top_id
    vertices = range(1, top)  # lattice ids, bottom and top dropped
    # vertex i is lattice id i + 1; the ids strictly between v and the top,
    # ascending, by the lattice's unchecked walk
    ups = tuple(tuple(w - 1 for w in lattice._ids(v, top)[1:-1]) for v in vertices)
    counts = []
    mult = [1] * len(ups)  # mult[v] = number of d-faces that end at v
    while any(mult):
        counts.append(sum(mult))
        below, mult = mult, [0] * len(ups)
        for v, c in enumerate(below):
            if c:
                for w in ups[v]:
                    mult[w] += c
    assert tuple(counts) == chain_counts(n, last=True)[1:], (
        "face counts disagree with the chain recurrence"
    )
    return SimplicialComplex._decoded_on_demand(
        len(ups), tuple(counts), partial(_chains, ups), tuple(vertices)
    )


def _chains(ups: tuple[tuple[int, ...], ...]) -> _Faces:
    """The faces, by dimension, of the order complex in which vertex v lies
    below the vertices ups[v] (ascending).  Extending each face of a level in
    lexicographic order by the vertices above its last one keeps the next
    level in that order, so every level comes out sorted and distinct."""
    # one-tuples, so that extending a face is one concatenation
    above = [tuple((w,) for w in ws) for ws in ups]
    levels = []
    level = [(v,) for v in range(len(ups))]
    while level:
        levels.append(tuple(level))
        level = [f + w for f in level for w in above[f[-1]]]
    return tuple(levels)


def crosscut_complex(lattice: Lattice) -> SimplicialComplex:
    """The complex on the coatoms of L(n) whose faces are the subsets that do
    not span (a subset spans when its join is the top and its meet is the
    bottom).  Needs n >= 4.

    The coatoms form a cross-cut: they are pairwise incomparable and every
    maximal chain passes through one (its next-to-top element is covered by
    the top).  A subset of two or more spans iff its meet is EMPTY, and as a
    meet of coatoms has one representing set (``lattice._coatom_meet``),
    only the whole set can: the faces are every nonempty subset, less the
    whole set when its meets fold to EMPTY.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("the cross-cut complex is built for n >= 4")
    cs = lattice.covers_down[lattice.top_id]
    k = len(cs)
    sizes = range(1, k if _coatoms_meet_empty(n) else k + 1)
    return SimplicialComplex(
        k, tuple(tuple(combinations(range(k), size)) for size in sizes), cs
    )


def reduced_euler_characteristic(complex: SimplicialComplex) -> int:
    """Alternating face-count sum minus one (the empty face's contribution)."""
    return sum((-1) ** d * c for d, c in enumerate(complex.f_vector())) - 1


def tsv_lines(rows: Iterable[Iterable[int]]) -> Iterator[str]:
    """One tab-separated line per row, newline included, lazily."""
    return ("\t".join(map(str, row)) + "\n" for row in rows)
