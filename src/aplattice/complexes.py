"""Chain counting, the order complex of L(n), and coatom cross-cut complexes.

A complex stores *all* faces grouped by dimension (not just the maximal
ones), because the boundary-matrix homology downstream wants every face
anyway.  Vertices are dense integers with a translation table back to
lattice ids.  The empty face is always considered present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .lattice import Lattice, count_progressions_formula
from .progression import join_in_ambient, meet
from .structure import coatoms


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces by dimension over dense integer vertices; downward closed."""

    vertex_count: int
    faces_by_dim: tuple[tuple[tuple[int, ...], ...], ...]  # index = dimension
    translation: tuple[int, ...] | None = None  # vertex -> lattice id
    includes_empty_face: bool = True

    @property
    def dim(self) -> int:
        return len(self.faces_by_dim) - 1

    def faces(self, d: int) -> tuple[tuple[int, ...], ...]:
        return self.faces_by_dim[d]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(fs) for fs in self.faces_by_dim)

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


@dataclass(frozen=True)
class ChainTable:
    """Counts of bottom-to-top chains by length, for every interval size up to n.

    count(m, k) is the number of chains of length k in L(m) that contain both
    the empty progression and {1,..,m}; it is 1 at k = 1 and 0 for k > m.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]  # rows[m][k-1] for 1 <= k <= m

    def count(self, m: int, k: int) -> int:
        if not 1 <= m <= self.n:
            raise ValueError(f"m must be in 1..{self.n}")
        if k < 1 or k > m:
            return 0
        return self.rows[m][k - 1]


def chain_counts(n: int) -> ChainTable:
    """Fill the chain-count table through the recurrence
    b(m, k) = sum over i < m of p(m, i) * b(i, k-1), with b(m, 1) = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows: list[tuple[int, ...]] = [()]
    for m in range(1, n + 1):
        row = [1]
        for k in range(2, m + 1):
            row.append(
                sum(
                    count_progressions_formula(m, i) * rows[i][k - 2]
                    for i in range(k - 1, m)
                )
            )
        rows.append(tuple(row))
    return ChainTable(n, tuple(rows))


def order_complex(lattice: Lattice) -> SimplicialComplex:
    """The complex whose vertices are the proper elements of L(n) and whose
    faces are the chains among them.  Needs n >= 2 (a proper part to speak of).

    The d-face count must equal the (d+2)-chain count of the table; that is
    asserted on every construction.
    """
    n = lattice.n
    if n < 2:
        raise ValueError("the order complex needs n >= 2")
    top = lattice.top_id
    vertices = list(range(1, top))  # lattice ids, bottom and top dropped
    translation = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    ups = [[index[w] for w in lattice.filter(v) if v < w < top] for v in vertices]
    faces_by_dim: list[list[tuple[int, ...]]] = []
    stack = [(i,) for i in reversed(range(len(vertices)))]
    while stack:
        chain = stack.pop()
        d = len(chain) - 1
        if d == len(faces_by_dim):
            faces_by_dim.append([])
        faces_by_dim[d].append(chain)
        for w in ups[chain[-1]]:
            stack.append(chain + (w,))
    result = SimplicialComplex(
        len(vertices),
        tuple(tuple(sorted(fs)) for fs in faces_by_dim),
        translation,
    )
    table = chain_counts(n)
    assert result.f_vector() == tuple(
        table.count(n, d + 2) for d in range(result.dim + 1)
    ), "face counts disagree with the chain recurrence"
    return result


def crosscut_complex(lattice: Lattice) -> SimplicialComplex:
    """The complex on the coatoms of L(n) whose faces are the subsets that do
    not span (a subset spans when its join is the top and its meet is the
    bottom).  Needs n >= 4.

    The coatoms form a cross-cut: they are pairwise incomparable and every
    maximal chain passes through one (its next-to-top element is covered by
    the top).  Both facts are asserted on construction.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("the cross-cut complex is built for n >= 4")
    cs = coatoms(lattice)
    for a, b in combinations(cs, 2):
        assert not lattice.leq_ids(a, b) and not lattice.leq_ids(b, a), (
            "coatoms must form an antichain"
        )
    assert tuple(sorted(lattice.covers_down[lattice.top_id])) == cs, (
        "every maximal chain must meet the coatom set"
    )
    progs = [lattice.elements[c] for c in cs]
    full = lattice.elements[lattice.top_id]
    faces_by_dim: list[list[tuple[int, ...]]] = []
    for size in range(1, len(cs) + 1):
        layer = []
        for combo in combinations(range(len(cs)), size):
            chosen = [progs[i] for i in combo]
            spanning = (
                reduce(meet, chosen).is_empty
                and reduce(join_in_ambient, chosen) == full
            )
            if not spanning:
                layer.append(combo)
        if not layer:
            break
        faces_by_dim.append(layer)
    return SimplicialComplex(
        len(cs),
        tuple(tuple(sorted(fs)) for fs in faces_by_dim),
        cs,
    )


def reduced_euler_characteristic(complex: SimplicialComplex) -> int:
    """Alternating face-count sum minus one (the empty face's contribution)."""
    return sum((-1) ** d * len(fs) for d, fs in enumerate(complex.faces_by_dim)) - 1


# ---------------------------------------------------------------------------
# published table layouts


def progression_count_rows(n_max: int) -> list[list[int]]:
    """Row n holds the progression counts p(n, 0) .. p(n, n), for n = 1..n_max."""
    return [
        [count_progressions_formula(n, k) for k in range(n + 1)]
        for n in range(1, n_max + 1)
    ]


def chain_count_rows(n_max: int) -> list[list[int]]:
    """Row n holds the chain counts b(n, 1) .. b(n, n), for n = 1..n_max."""
    table = chain_counts(n_max)
    return [[table.count(n, k) for k in range(1, n + 1)] for n in range(1, n_max + 1)]


def rows_to_tsv(rows: list[list[int]]) -> str:
    return "\n".join("\t".join(str(v) for v in row) for row in rows) + "\n"
