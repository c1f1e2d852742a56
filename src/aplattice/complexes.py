"""Chain counting, the order complex of L(n), and coatom cross-cut complexes.

A complex knows its face count in every dimension and yields all of its
faces (not just the maximal ones) grouped by dimension, for the
boundary-matrix homology downstream.  Vertices are dense integers with a
translation table back to lattice ids.  The empty face is always considered
present.

Chain counts are plain rows (b(m, 1), .., b(m, m)), one per m, filled from
the progression counts one whole row p(m, 0..m) at a time from
``lattice.count_rows``; their readers index the rows.  The order complex is
walked level by level as one flat list of last vertices, the breadth-first
layout of a simplex tree (Boissonnat and Maria, "The Simplex Tree",
Algorithmica 2014): the children of a chain ending at v are the vertices
above v, so a level's length is its face count, and the f-vector and the
Euler characteristic need no face tuple.  The tuples are decoded once, on
first use, already in lexicographic order.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from functools import partial, reduce
from itertools import chain, combinations, islice
from operator import mul

from . import cost
from .lattice import Lattice, count_rows
from .numtheory import valid_n
from .structure import coatoms

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


def chain_counts(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows (b(m, 1), .., b(m, m)) for m = 0..n, where b(m, k) counts the
    chains of length k in L(m) that contain both the empty progression and
    {1,..,m}; row 0 is empty.  They fill through the recurrence
    b(m, k) = sum over i < m of p(m, i) * b(i, k-1), with b(m, 1) = 1.

    Row m of the progression counts is read once, and b is also kept by
    column (cols[k] holds b(k, k), b(k+1, k), ..), so each b(m, k) is one
    dot product of two contiguous runs.
    """
    valid_n(n, 1)
    rows: list[tuple[int, ...]] = [()]
    cols: list[list[int]] = [[]]
    for m, p in enumerate(islice(count_rows(n), 1, None), 1):
        cols.append([])
        # cols[k-1] holds b(k-1..m-1, k-1), so map stops before p(m, m)
        row = (1, *(sum(map(mul, p[k - 1 :], cols[k - 1])) for k in range(2, m + 1)))
        for k, b in enumerate(row, 1):
            cols[k].append(b)
        rows.append(row)
    return tuple(rows)


def order_complex(lattice: Lattice) -> SimplicialComplex:
    """The complex whose vertices are the proper elements of L(n) and whose
    faces are the chains among them.  Needs n >= 2 (a proper part to speak of).

    Each level of the walk lists the last vertex of every face of one
    dimension, and the next level lays the vertices above each of them end to
    end.  The level lengths must equal the chain counts of row n; that is
    asserted on every construction.  Past the work budget (one unit per face,
    counted from the same rows) it raises cost.BudgetError first.
    """
    n = lattice.n
    if n < 2:
        raise ValueError("the order complex needs n >= 2")
    cost.require(f"the order complex of L({n})", cost.faces(n))
    top = lattice.top_id
    vertices = range(1, top)  # lattice ids, bottom and top dropped
    # vertex i is lattice id i + 1 and filter(v) ascends
    ups = tuple(tuple(w - 1 for w in lattice.filter(v) if v < w < top) for v in vertices)
    counts = []
    last = list(range(len(ups)))
    while last:
        counts.append(len(last))
        below, last = last, []
        for v in below:
            last.extend(ups[v])
    assert tuple(counts) == chain_counts(n)[n][1:], (
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

    The coatoms form a cross-cut: they are pairwise incomparable (asserted on
    construction) and every maximal chain passes through one (its
    next-to-top element is covered by the top).
    """
    n = lattice.n
    if n < 4:
        raise ValueError("the cross-cut complex is built for n >= 4")
    cs = coatoms(lattice)
    for a, b in combinations(cs, 2):
        assert not lattice.leq_ids(a, b) and not lattice.leq_ids(b, a), (
            "coatoms must form an antichain"
        )
    faces_by_dim: list[list[tuple[int, ...]]] = []
    for size in range(1, len(cs) + 1):
        layer = []
        for combo in combinations(range(len(cs)), size):
            chosen = [cs[i] for i in combo]
            spanning = (
                reduce(lattice.meet_ids, chosen) == lattice.bottom_id
                and reduce(lattice.join_ids, chosen) == lattice.top_id
            )
            if not spanning:
                layer.append(combo)
        if not layer:
            break
        faces_by_dim.append(layer)
    return SimplicialComplex(
        len(cs),
        tuple(tuple(fs) for fs in faces_by_dim),
        cs,
    )


def reduced_euler_characteristic(complex: SimplicialComplex) -> int:
    """Alternating face-count sum minus one (the empty face's contribution)."""
    return sum((-1) ** d * c for d, c in enumerate(complex.f_vector())) - 1


def tsv_lines(rows: Iterable[Iterable[int]]) -> Iterator[str]:
    """One tab-separated line per row, newline included, lazily."""
    return ("\t".join(map(str, row)) + "\n" for row in rows)
