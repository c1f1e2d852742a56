"""Reference arithmetic for the verdict checks, independent of aplattice.

Progressions are plain sorted tuples of their members.  Every answer here
comes from direct enumeration over those tuples or from a closed form, so
an engine under test is never asked to check itself.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def progressions(n: int) -> list[tuple[int, ...]]:
    """Every arithmetic progression inside {1..n}, the empty one included."""
    out = [()] + [(a,) for a in range(1, n + 1)]
    for a in range(1, n + 1):
        for step in range(1, n):
            out.extend(
                tuple(range(a, last + 1, step)) for last in range(a + step, n + 1, step)
            )
    return out


def join(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest progression containing both."""
    members = sorted(set(p) | set(q))
    if len(members) <= 1:
        return tuple(members)
    step = 0
    for x in members[1:]:
        step = gcd(step, x - members[0])
    return tuple(range(members[0], members[-1] + 1, step))


def meet(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(p) & set(q)))


def strict_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (x, y) with x strictly contained in y."""
    elems = progressions(n)
    sets = [frozenset(e) for e in elems]
    return [
        (elems[i], elems[j])
        for i, si in enumerate(sets)
        for j, sj in enumerate(sets)
        if si < sj
    ]


def cover_count(n: int) -> int:
    """Number of cover relations x < y with nothing strictly between."""
    sets = [frozenset(e) for e in progressions(n)]
    return sum(
        1
        for x in sets
        for y in sets
        if x < y and not any(x < z < y for z in sets)
    )


def coatoms(n: int) -> list[tuple[int, ...]]:
    """Maximal progressions strictly inside {1..n}."""
    full = frozenset(range(1, n + 1))
    proper = [frozenset(e) for e in progressions(n) if len(e) < n]
    proper.sort(key=len, reverse=True)
    found: list[frozenset] = []
    for s in proper:
        if s != full and not any(s < c for c in found):
            found.append(s)
    return sorted(tuple(sorted(s)) for s in found)


def is_left_modular(pairs, m: tuple[int, ...]) -> bool:
    """(x v m) ^ y == x v (m ^ y) for every pair x < y, by the definition."""
    return all(meet(join(x, m), y) == join(x, meet(m, y)) for x, y in pairs)


def coatom_meets(n: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Meet of every nonempty set of coatoms -> that set, sorted."""
    cs = coatoms(n)
    out = {}
    for size in range(1, len(cs) + 1):
        for combo in combinations(cs, size):
            common = set(combo[0])
            for c in combo[1:]:
                common &= set(c)
            out[tuple(sorted(common))] = sorted(combo)
    return out


def semicomplement_witnesses(n: int) -> list[tuple[int, ...]]:
    """Elements other than the bottom and the top whose only upper
    semicomplement is the top; such an element has no complement."""
    elems = progressions(n)
    top = tuple(range(1, n + 1))
    return sorted(
        w
        for w in elems
        if w and w != top and all(join(w, y) != top for y in elems if y != top)
    )


def progression_count(n: int, k: int) -> int:
    """Progressions of size k in {1..n}: n - (k-1)r choices of base per step r."""
    if k == 0:
        return 1
    if k == 1:
        return n
    return sum(max(0, n - (k - 1) * r) for r in range(1, n))


def chain_rows(n_max: int) -> list[list[int]]:
    """Row m lists the bottom-to-top chain counts of L(m) by length 1..m.

    The last element below the top of a chain of length k has some size i,
    and its ideal is a copy of L(i), so b(m, k) sums p(m, i) b(i, k-1).
    """
    rows: list[list[int]] = [[]]
    for m in range(1, n_max + 1):
        row = [1]
        for k in range(2, m + 1):
            row.append(
                sum(progression_count(m, i) * rows[i][k - 2] for i in range(k - 1, m))
            )
        rows.append(row)
    return rows
