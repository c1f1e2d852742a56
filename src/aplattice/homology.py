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
  four exact stages.  Clearing (Chen and Kerber, "Persistent homology
  computation with a twist", 2011; over Z the elementary reductions of
  Kaczynski, Mrozek and Slusarek, 1998): the d-faces that were unit pivot
  rows of the (d+1)-st map get no column in the d-th.  Counter collapses,
  run by reduced_homology in place on the columns boundary_matrix built:
  every row whose one live entry is +-1 is a pivot, a free-face collapse.
  Row r holds nothing else, so clearing it needs no column operation and
  the pivot is fill-free: the row and its column c drop out with one unit
  divisor and no other column changes.  So two flat counters per row
  suffice, the number of live columns with an entry there and the sum of
  their indices; when the count is 1 the sum is the live column.  A pivot
  subtracts 1 and c from the counters of the rows of column c.  The
  columns left go to smith_normal_form, which runs the last two stages.
  Markowitz units: a +-1 entry clears its row by column operations, after
  which the row and the column drop out with one unit divisor; the pivots
  are picked globally to keep fill low (Markowitz, "The elimination form
  of the inverse and its application to linear programming", Management
  Sci. 1957; Dumas, Heckenbach, Saunders and Welker, "Computing simplicial
  homology based on efficient Smith normal form algorithms", 2003): the
  sparsest row holding a unit, in its shortest unit column, until no live
  column holds +-1.  A heap holds one key per row, never above the row's
  live count: a row popped with more entries than its key is re-keyed and
  pushed back, a row scanned without a unit is parked, with no key, until
  an update touches it, and a row whose count a pivot lowers below its key
  is re-keyed to that count.  Dense: whatever block has no unit entry left
  goes through minimal-pivot elimination on unbounded Python integers, so
  results are exact for any input.
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

from collections import namedtuple
from collections.abc import Sequence
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


def _peel_units(cols: Sequence[dict[int, int]], nrows: int) -> list[int]:
    """The counter collapses: pivot on every row whose one live entry is
    +-1, the free-face collapses, until none is left.  Rows are
    0..nrows-1.  Returns the pivot rows in elimination order; pivot columns
    are left empty in `cols`, the others untouched.

    Two counters per row: the number of live columns with an entry in the
    row, and the sum of their indices.  When the count is 1, the sum is the
    one live column.  Row r holds nothing but the unit in column c, so the
    column operations that would clear it are empty and no other column
    changes: the pivot only takes c out of the counters of its rows.  A row
    joins a first-in first-out worklist when its count drops to 1; non-unit
    singletons stay for smith_normal_form.
    """
    count = [0] * nrows
    tot = [0] * nrows
    for c, col in enumerate(cols):
        for r in col:
            count[r] += 1
            tot[r] += c
    todo = [r for col in cols for r in col if count[r] == 1]
    pivots = []
    for r in todo:  # rows appended below are visited too
        if count[r] != 1:
            continue
        c = tot[r]
        col = cols[c]
        if col[r] not in (1, -1):
            continue
        for i in col:
            count[i] -= 1
            tot[i] -= c
            if count[i] == 1:
                todo.append(i)
        col.clear()
        pivots.append(r)
    return pivots


def _eliminate_units(cols: list[dict[int, int]]) -> list[int]:
    """The unit stage: pivot on +-1 entries until none is left.  Returns the
    pivot rows in elimination order, one per unit divisor; eliminated and
    zeroed columns are left empty in `cols`.

    Once the pivot's row is cleared by column operations, row operations
    would only touch the pivot column, so dropping both is exact.

    The pivot order is global and fill-aware (Markowitz 1957; Dumas,
    Heckenbach, Saunders and Welker 2003; see the module docstring): the
    live row with the fewest entries that holds a unit is taken, in its
    shortest unit column, from a heap of (key, row).  Each row has at most
    one key, `key[r]`, never above its live count, and a heap entry counts
    only while it holds the row's key, so an entry left behind by a re-key
    or a pivot is skipped when popped.  A row popped with a count above its
    key is re-keyed to that count and pushed back.  A row scanned without a
    unit, an emptied one too, is parked, its key dropped: only an update can
    give it one, so a pivot that updates other columns re-keys and pushes
    each parked row of its column.  After each pivot, a keyed row of its
    column whose count fell below its key is re-keyed to the count and
    pushed.  A row whose one live entry is +-1 thus comes first; such a
    pivot updates no other column.
    """
    where: dict[int, set[int]] = {}  # row -> live columns with an entry there
    for c, col in enumerate(cols):
        for r in col:
            where.setdefault(r, set()).add(c)
    key = {r: len(ks) for r, ks in where.items()}  # none for a parked row
    heap = [(k, r) for r, k in key.items()]
    heapify(heap)
    pivots = []
    while heap:
        count, r = heappop(heap)
        if key.get(r) != count:
            continue
        ks = where[r]
        if len(ks) > count:  # an update grew the row since it was keyed
            key[r] = len(ks)
            heappush(heap, (len(ks), r))
            continue
        c = -1
        for k in ks:
            v = cols[k][r]
            if (v == 1 or v == -1) and (c < 0 or len(cols[k]) < len(cols[c])):
                c = k
        del key[r]
        if c < 0:
            continue  # parked
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
            n = len(live)
            if n and (n < key[i] if i in key else fill):
                key[i] = n
                heappush(heap, (n, i))
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


class HomologyResult(
    namedtuple("HomologyResult", "free_ranks torsion rank_minus1", defaults=(0,))
):
    """Reduced integral homology: one free rank and one torsion tuple per
    dimension of the complex from 0 up.  The rank in dimension -1 is nonzero
    only for the complex with no vertices at all.
    """

    __slots__ = ()

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
        """str(dimension) -> {"free_rank", "torsion"} for every dimension of
        the complex, and for -1 when its rank is nonzero."""
        out = {}
        if self.rank_minus1:
            out["-1"] = {"free_rank": self.rank_minus1, "torsion": []}
        for d, (r, t) in enumerate(zip(self.free_ranks, self.torsion)):
            out[str(d)] = {"free_rank": r, "torsion": list(t)}
        return out

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
    with the faces paired by the map above cleared, after the counter
    collapses of each map.  Past the work budget (one unit per boundary
    non-zero) it raises cost.BudgetError first."""
    if complex.dim < 0:
        return HomologyResult((), (), rank_minus1=1)
    fvec = complex.f_vector()
    nonzeros = sum(d * f for d, f in enumerate(fvec, 1))
    cost.require(f"the homology of a {complex.dim}-dimensional complex", nonzeros)
    divisors = [()] * (complex.dim + 1)
    paired: list[int] = []  # the unit pivot rows of the map above
    for d in reversed(range(complex.dim + 1)):
        cleared = frozenset(paired)
        cols = boundary_matrix(complex, d, cleared)
        paired = _peel_units(cols, fvec[d - 1] if d else 1)
        units = (1,) * len(paired)
        live = [col for col in cols if col]
        divisors[d] = units + smith_normal_form(live, paired)
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
