"""Reduced simplicial homology over the integers via boundary matrices and
Smith normal form.

Conventions:

* The chain complex is augmented: dimension -1 is the single empty face, and
  the 0th boundary matrix is the 1 x f0 all-ones map onto it, so every rank
  reported here is a *reduced* homology rank.
* A matrix is a plain tuple of sparse columns, each a dict from row to
  nonzero exact integer; a boundary column of a d-face holds d+1 entries of
  +-1.  smith_normal_form copies the columns, checks every entry of the
  copies (plain ints only) and eliminates them in place.
* Homology reduces one boundary map per dimension, from the top down, in
  three exact stages.  Clearing (Chen and Kerber, "Persistent homology
  computation with a twist", 2011; over Z the elementary reductions of
  Kaczynski, Mrozek and Slusarek, 1998): the d-faces that were unit pivot
  rows of the (d+1)-st map get no column in the d-th.  Units: a +-1 entry
  clears its row by column operations, after which the row and the column
  drop out with one unit divisor; the pivots are picked globally to keep
  fill low (Markowitz, "The elimination form of the inverse and its
  application to linear programming", Management Sci. 1957; Dumas,
  Heckenbach, Saunders and Welker, "Computing simplicial homology based on
  efficient Smith normal form algorithms", 2003): rows whose one live entry
  is +-1 first, then the sparsest row holding a unit, in its shortest unit
  column, until no live column holds +-1.  Dense: whatever block has no
  unit entry left goes through minimal-pivot elimination on unbounded Python
  integers, so results are exact for any input.  smith_normal_form runs the
  last two stages.
* Clearing is exact.  Take the unit pivots (r_i, c_i) of the (d+1)-st map in
  elimination order: when picked, column c_i is the boundary b_i of some
  (d+1)-chain, with +-1 on row r_i and 0 on the rows r_j of earlier pivots.
  So the b_i and the d-faces other than the r_i are a basis of the d-chains,
  a triangular change from the faces with +-1 on the diagonal.  The d-th map
  sends each b_i to zero, so dropping the columns r_i changes neither its
  rank nor its nonzero elementary divisors.  Dense pivots need not be units
  and come with row operations, so they clear nothing.
* A Smith normal form is the plain tuple of its nonzero elementary
  divisors, so the rank of the map is the length of that tuple.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd

from . import cost
from .complexes import SimplicialComplex, reduced_euler_characteristic


def boundary_matrix(
    complex: SimplicialComplex, d: int, cleared: frozenset[int] = frozenset()
) -> tuple[dict[int, int], ...]:
    """The d-th boundary map as columns: one row -> value dict per d-face,
    whose rows index the (d-1)-faces, and removing the j-th vertex of a face
    contributes sign (-1)**j.  The d-faces whose indices are in `cleared`
    have no column.

    d = 0 maps every vertex to the empty face (the augmentation row 0).
    """
    if d < 0 or d > complex.dim:
        raise ValueError(f"dimension {d} out of range 0..{complex.dim}")
    cols = [f for i, f in enumerate(complex.faces(d)) if i not in cleared]
    rows = complex.faces(d - 1) if d else ((),)
    row_of = {f: i for i, f in enumerate(rows)}.__getitem__
    # combinations yields the facets omitting vertex d, d-1, .., 0 in turn
    signs = [(-1) ** j for j in reversed(range(d + 1))]
    return tuple(dict(zip(map(row_of, combinations(face, d)), signs)) for face in cols)


def _eliminate_units(cols: list[dict[int, int]]) -> list[int]:
    """Stage one: pivot on +-1 entries until none is left.  Returns the pivot
    rows in elimination order, one per unit divisor; eliminated and zeroed
    columns are left empty in `cols`.

    Once the pivot's row is cleared by column operations, row operations
    would only touch the pivot column, so dropping both is exact.

    The pivot order is global and fill-aware (Markowitz 1957; Dumas,
    Heckenbach, Saunders and Welker 2003; see the module docstring).  A row
    whose one live entry is +-1 comes first, from a first-in first-out
    worklist that a row joins when its count drops to 1: such a pivot
    updates no other column.  When the worklist is empty, the live row with
    the fewest entries that holds a unit is taken, in its shortest unit
    column.  Those rows come from a heap of (count, row), built the first
    time the worklist runs dry.  A pivot that updates other columns pushes
    each row of its column once; a row popped with a count above its key is
    pushed back, and one without a unit is dropped until an update changes
    it, which pushes it again.
    """
    where: dict[int, set[int]] = {}  # row -> live columns with an entry there
    for c, col in enumerate(cols):
        for r in col:
            where.setdefault(r, set()).add(c)
    singles = deque(r for r, ks in where.items() if len(ks) == 1)
    heap = None  # (count, row) candidates, once the singles have run out
    pivots = []
    while True:
        if singles:
            r = singles.popleft()
            ks = where.get(r, ())
            if len(ks) != 1:
                continue
            (c,) = ks
            if cols[c][r] not in (1, -1):
                continue
        else:
            if heap is None:
                heap = [(len(ks), r) for r, ks in where.items() if ks]
                heapify(heap)
            if not heap:
                break
            count, r = heappop(heap)
            ks = where.get(r, ())
            if not ks:
                continue
            if len(ks) > count:
                heappush(heap, (len(ks), r))
                continue
            units = [k for k in ks if cols[k][r] in (1, -1)]
            if not units:
                continue
            c = min(units, key=lambda k: len(cols[k]))
        col = cols[c]
        u = col.pop(r)
        fill = len(ks) > 1  # the pivot updates other columns
        for k in where.pop(r):
            if k == c:
                continue
            other = cols[k]
            f = other.pop(r) * u  # u * u == 1, so this clears row r
            for i, v in col.items():
                w = other.get(i, 0) - f * v
                if w:
                    if i not in other:
                        where[i].add(k)
                    other[i] = w
                else:
                    del other[i]
                    where[i].discard(k)
        for i in col:
            live = where[i]
            live.discard(c)
            if len(live) == 1:
                singles.append(i)
            elif fill and live:
                heappush(heap, (len(live), i))
        col.clear()
        pivots.append(r)
    return pivots


def _diagonalize_python(a: list[list[int]], m: int, n: int) -> None:
    """Exact in-place diagonalisation by minimal-absolute-value pivots."""
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if best is None or av < best[0]:
                        best = (av, i, j)
                        if av == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            return
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            v = a[i][t]
            if v:
                q = v // p
                if q:
                    rt, ri = a[t], a[i]
                    for j in range(t, n):
                        ri[j] -= q * rt[j]
                if a[i][t]:
                    dirty = True
        if dirty:
            continue  # remainders left below the pivot; re-pick a smaller one
        rt = a[t]
        dirty = False
        for j in range(t + 1, n):
            v = rt[j]
            if v:
                # the column below the pivot is clear, so subtracting q times
                # column t from column j only changes row t
                rt[j] = v - (v // p) * p
                if rt[j]:
                    dirty = True
        if dirty:
            continue
        t += 1


def _divisor_chain(values: list[int]) -> tuple[int, ...]:
    # the sweep of i leaves ds[i] = gcd(ds[i:]), and (gcd, lcm) of two
    # multiples of it are multiples again, so one pass ends divisibility-chained
    ds = [abs(v) for v in values if v]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if ds[j] % ds[i]:
                g = gcd(ds[i], ds[j])
                ds[i], ds[j] = g, ds[i] * ds[j] // g
    for a, b in zip(ds, ds[1:]):
        assert b % a == 0
    return tuple(ds)


def smith_normal_form(
    columns: tuple[dict[int, int], ...], unit_rows: list[int] | None = None
) -> tuple[int, ...]:
    """The elementary divisors, positive and each dividing the next, of the
    matrix with these columns; their number is the rank.  The rows of the
    unit-stage pivots are appended to `unit_rows` if given.

    Each column must be a row -> value dict whose rows are non-negative ints
    and whose values are nonzero ints (bool is not an int here); anything
    else raises ValueError.  The columns are copied, and the copies checked,
    before elimination.  The transforming unimodular matrices are not kept;
    only the divisor multiset is needed downstream.
    """
    cols = []
    for j, col in enumerate(columns):
        if not isinstance(col, dict):
            raise ValueError(f"column {j} is not a row -> value dict")
        col = dict(col)
        for r, v in col.items():
            if not (type(r) is type(v) is int and r >= 0 and v):
                raise ValueError(
                    f"column {j} maps row {r!r} to {v!r}: a row must be a "
                    f"non-negative int and a value a nonzero int"
                )
        cols.append(col)
    pivots = _eliminate_units(cols)
    if unit_rows is not None:
        unit_rows.extend(pivots)
    live = [col for col in cols if col]
    rows = sorted(set().union(*live))
    block = [[col.get(r, 0) for col in live] for r in rows]
    _diagonalize_python(block, len(rows), len(live))
    return (1,) * len(pivots) + _divisor_chain(
        [block[i][i] for i in range(min(len(rows), len(live)))]
    )


@dataclass(frozen=True)
class HomologyResult:
    """Reduced integral homology: one free rank and one torsion tuple per
    dimension of the complex from 0 up.  The rank in dimension -1 is nonzero
    only for the complex with no vertices at all.
    """

    free_ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    rank_minus1: int = 0

    def nonzero(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        """dimension -> (free rank, torsion) restricted to nontrivial groups."""
        out = {}
        if self.rank_minus1:
            out[-1] = (self.rank_minus1, ())
        for d, (r, t) in enumerate(zip(self.free_ranks, self.torsion)):
            if r or t:
                out[d] = (r, t)
        return out

    def as_dict(self) -> dict:
        return {
            str(d): {"free_rank": r, "torsion": list(t)}
            for d, (r, t) in enumerate(zip(self.free_ranks, self.torsion))
        }

    def __str__(self):
        nz = self.nonzero()
        if not nz:
            return "all reduced homology groups trivial"
        parts = []
        for d, (r, t) in sorted(nz.items()):
            pieces = []
            if r:
                pieces.append("Z" if r == 1 else f"Z^{r}")
            pieces.extend(f"Z/{v}" for v in t)
            parts.append(f"H~_{d} = " + " + ".join(pieces))
        return ", ".join(parts)


def reduced_homology(complex: SimplicialComplex) -> HomologyResult:
    """Free ranks and torsion of the reduced homology of a downward-closed
    complex, one boundary-matrix Smith form per dimension, from the top down
    with the faces paired by the map above cleared.  Past the work budget
    (one unit per boundary non-zero) it raises cost.BudgetError first."""
    if complex.dim < 0:
        return HomologyResult((), (), rank_minus1=1)
    fvec = complex.f_vector()
    nonzeros = sum(d * f for d, f in enumerate(fvec, 1))
    cost.require(f"the homology of a {complex.dim}-dimensional complex", nonzeros)
    divisors = [()] * (complex.dim + 1)
    paired: list[int] = []  # the unit pivot rows of the map above
    for d in reversed(range(complex.dim + 1)):
        cleared, paired = frozenset(paired), []
        divisors[d] = smith_normal_form(boundary_matrix(complex, d, cleared), paired)
    ranks = [len(ds) for ds in divisors] + [0]
    free = tuple(
        fvec[d] - ranks[d] - ranks[d + 1] for d in range(complex.dim + 1)
    )
    torsion = tuple(
        tuple(v for v in divisors[d + 1] if v > 1)
        if d < complex.dim
        else ()
        for d in range(complex.dim + 1)
    )
    result = HomologyResult(free, torsion, rank_minus1=1 - ranks[0])
    euler = sum((-1) ** d * r for d, r in enumerate(free)) - result.rank_minus1
    assert euler == reduced_euler_characteristic(complex), (
        "free ranks disagree with the Euler characteristic"
    )
    return result
