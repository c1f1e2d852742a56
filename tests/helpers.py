"""Set-to-progression, relabeling, member-set, subset-meet, comodernism-scan,
count-row Moebius, Moebius-support, column-sweep unit stage and
labeling-file helpers that only the tests use."""

from collections.abc import Iterable
from itertools import combinations, islice
from operator import mul

from aplattice.lattice import Lattice, _embed_fields, _project_fields, build, count_rows
from aplattice.numtheory import omega
from aplattice.progression import EMPTY, Progression, _of_fields, leq
from aplattice.structure import (
    EdgeLabeling,
    coatom_meet_table,
    interval_coatoms,
    is_left_modular_coatom,
)


class NotAProgressionError(ValueError):
    """Raised by from_set when a set is not an arithmetic progression."""


def from_set(elements: Iterable[int]) -> Progression:
    """Canonical progression for a finite set of positive integers.

    Raises NotAProgressionError when the gaps are unequal (e.g. {1,2,4}),
    ValueError when a member is not a positive integer.
    """
    xs = sorted(set(elements))
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in xs):
        raise ValueError("members must be positive integers")
    if not xs:
        return EMPTY
    if len(xs) == 1:
        return Progression(xs[0], 0, 1)
    step = xs[1] - xs[0]
    for a, b in zip(xs, xs[1:]):
        if b - a != step:
            raise NotAProgressionError(f"not an arithmetic progression: {set(xs)}")
    return Progression(xs[0], step, len(xs))


def element_set(lattice: Lattice, i: int) -> frozenset[int]:
    return frozenset(lattice.elements[i].elements())


def embed_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression in {1,..,host.length} to the corresponding subset of
    host: position j goes to the j-th member of host."""
    return _of_fields(_embed_fields(p, host))


def project_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression contained in host to {1,..,host.length} coordinates;
    the inverse of embed_progression."""
    if not leq(p, host):
        raise ValueError(f"{p} is not contained in {host}")
    return _of_fields(_project_fields(p, host))


def meet_subset(lattice: Lattice, target: int, candidates):
    """The unique nonempty subset of the candidate ids (in their order) whose
    meet is the target id, or None when there is none: a search over every
    subset, the oracle for the coatom meet table."""
    usable = [c for c in candidates if lattice.leq_ids(target, c)]
    hits = []
    for size in range(1, len(usable) + 1):
        for combo in combinations(usable, size):
            inter = combo[0]
            for c in combo[1:]:
                inter = lattice.meet_ids(inter, c)
            if inter == target:
                hits.append(combo)
    assert len(hits) <= 1, f"meet representation of id {target} not unique"
    return hits[0] if hits else None


def pnk_by_rows(n: int) -> list[int]:
    """M(0..n) by the p(n, k) recurrence as written, one dot product with
    each whole count row: the oracle for the differenced pnk engine."""
    values = [1]
    for row in islice(count_rows(n), 1, None):
        # values holds M(0..m-1), so map stops before p(m, m)
        values.append(-sum(map(mul, values, row)))
    return values


def mobius_support(lattice: Lattice) -> tuple[tuple[int, int], ...]:
    """All (id, mu(id, top)) pairs with nonzero value, ascending by id.

    Read off coatom_meet_table(n); defined for n >= 4.  Every value is +1 or
    -1, and the number of pairs is 2 ** (omega(n-1) + 2), both asserted here;
    test_moebius checks the values against the definitional recursion.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("mobius_support is defined for n >= 4")
    table = coatom_meet_table(n)
    out = []
    for i, p in enumerate(lattice.elements):
        if i == lattice.top_id:
            out.append((i, 1))
            continue
        rep = table.get(p)
        if rep is not None:
            out.append((i, (-1) ** len(rep)))
    assert len(out) == 2 ** (omega(n - 1) + 2), "support size disagrees with 2^(omega+2)"
    assert all(v in (-1, 1) for _, v in out)
    return tuple(out)


def eliminate_units_by_sweep(cols: list[dict[int, int]]) -> list[int]:
    """The unit stage by column sweeps: each column in turn pivots on the
    unit in its shortest row, until a sweep finds no unit.  Same contract as
    homology._eliminate_units; the oracle for its global pivot order."""
    where: dict[int, set[int]] = {}  # row -> live columns with an entry there
    for c, col in enumerate(cols):
        for r in col:
            where.setdefault(r, set()).add(c)
    pivots = []
    progress = True
    while progress:
        progress = False
        for c, col in enumerate(cols):
            units = [r for r, v in col.items() if v == 1 or v == -1]
            if not units:
                continue
            r = min(units, key=lambda i: len(where[i]))
            u = col.pop(r)
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
                where[i].discard(c)
            col.clear()
            pivots.append(r)
            progress = True
    return pivots


def comodernism_by_scan(lattice: Lattice) -> dict:
    """Witness of every interval (lo, hi) with lo < hi, searched in that
    interval itself: its coatoms of size |hi|-1 first, then by ascending
    step, then id, the first passing the cover criterion.  The oracle for
    is_comodernistic; None stands for an interval with no such coatom."""
    witnesses = {}
    for hi in range(len(lattice)):
        for lo in lattice.ideal(hi)[:-1]:
            cands = sorted(
                interval_coatoms(lattice, lo, hi),
                key=lambda c: (
                    lattice.size_of(c) != lattice.size_of(hi) - 1,
                    lattice.elements[c].step,
                    c,
                ),
            )
            witnesses[(lo, hi)] = next(
                (m for m in cands if is_left_modular_coatom(lattice, lo, hi, m)), None
            )
    return witnesses


def edge_labeling_from_text(lattice: Lattice, text: str) -> EdgeLabeling:
    """Parse the line format 'lowerId upperId label'; '#' starts a comment
    line."""
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'lowerId upperId label'")
        lo, hi, lab = (int(v) for v in parts)
        if (lo, hi) in labels:
            raise ValueError(f"line {lineno}: duplicate edge ({lo}, {hi})")
        labels[(lo, hi)] = lab
    return EdgeLabeling(lattice, labels)


def ideal_isomorphism(lattice: Lattice, x: int) -> dict[int, int]:
    """Relabeling bijection from the ideal below x onto L(size of x).

    Keys are ids in `lattice`, values are ids in build(size_of(x)).
    Rejects the empty progression.
    """
    host = lattice.elements[x]
    if host.is_empty:
        raise ValueError("the empty progression has a one-point ideal; no relabeling")
    target = build(host.length)
    return {
        i: target.id_of[project_progression(lattice.elements[i], host)]
        for i in lattice.ideal(x)
    }
