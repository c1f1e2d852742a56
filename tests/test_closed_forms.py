"""The closed-form progression arithmetic against a set-based oracle.

The oracle works on frozensets of members only: intersection for the meet,
subset for the order, and for the join the minimal enclosing progression of
the union (smallest member, largest member, gcd of the differences), built
from those three numbers so that a join spanning millions is never listed.  It is
checked on every ordered pair of L(n) for n = 0..12, at the object level and
at the id level, and by property tests on large random progressions.
"""

from functools import reduce
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as hs

from aplattice import progression as pr
from aplattice.progression import EMPTY, Progression

N_RANGE = range(13)


def members(p: Progression) -> frozenset[int]:
    return frozenset(p.elements())


def oracle_join(a: frozenset[int], b: frozenset[int]) -> Progression:
    """Minimal enclosing progression of a | b, from its members alone."""
    union = a | b
    if not union:
        return EMPTY
    lo, hi = min(union), max(union)
    step = reduce(gcd, (x - lo for x in union), 0)
    return Progression(lo, step, (hi - lo) // step + 1) if step else Progression(lo, 0, 1)


def test_object_operations_match_oracle_on_every_pair(lat):
    for n in N_RANGE:
        els = lat(n).elements
        sets = [members(p) for p in els]
        for p, sp in zip(els, sets):
            for q, sq in zip(els, sets):
                assert pr.leq(p, q) == (sp <= sq), (n, p, q)
                assert members(pr.meet(p, q)) == sp & sq, (n, p, q)
                assert pr.join_in_ambient(p, q) == oracle_join(sp, sq), (n, p, q)


def test_id_operations_match_oracle_on_every_pair(lat):
    for n in N_RANGE:
        ln = lat(n)
        ids = range(len(ln))
        sets = [members(p) for p in ln.elements]
        for i in ids:
            for j in ids:
                assert ln.leq_ids(i, j) == (sets[i] <= sets[j]), (n, i, j)
                assert sets[ln.meet_ids(i, j)] == sets[i] & sets[j], (n, i, j)
                assert ln.elements[ln.join_ids(i, j)] == oracle_join(sets[i], sets[j]), (n, i, j)


def test_ideal_filter_interval_match_scans(lat):
    for n in N_RANGE:
        ln = lat(n)
        ids = range(len(ln))
        sets = [ln.element_set(i) for i in ids]
        below = [tuple(j for j in ids if sets[j] <= sets[i]) for i in ids]
        above = [tuple(j for j in ids if sets[i] <= sets[j]) for i in ids]
        for i in ids:
            assert ln.ideal(i) == below[i], (n, i)
            assert ln.filter(i) == above[i], (n, i)
        for hi in ids:
            for lo in below[hi]:
                expected = tuple(sorted(set(above[lo]) & set(below[hi])))
                assert ln.interval(lo, hi) == expected, (n, lo, hi)


@hs.composite
def progressions(draw):
    length = draw(hs.integers(0, 40))
    if length == 0:
        return EMPTY
    base = draw(hs.integers(1, 10**6))
    step = draw(hs.integers(1, 10**6)) if length >= 2 else 0
    return Progression(base, step, length)


@hs.composite
def pairs(draw):
    """Two progressions.  In half the draws both lie on one grid o + g*Z at
    small coordinates, so that their meet is often nonempty; independent
    draws almost never meet."""
    if draw(hs.booleans()):
        return draw(progressions()), draw(progressions())
    origin = draw(hs.integers(1, 5 * 10**5))
    grid = draw(hs.integers(1, 5000))

    def on_grid():
        length = draw(hs.integers(0, 40))
        if length == 0:
            return EMPTY
        base = origin + grid * draw(hs.integers(0, 99))
        step = grid * draw(hs.integers(1, 30)) if length >= 2 else 0
        return Progression(base, step, length)

    return on_grid(), on_grid()


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_meet_is_set_intersection(pq):
    p, q = pq
    assert members(pr.meet(p, q)) == members(p) & members(q)


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_join_is_minimal_enclosing_progression(pq):
    p, q = pq
    j = pr.join_in_ambient(p, q)
    assert pr.leq(p, j) and pr.leq(q, j)
    assert j == oracle_join(members(p), members(q))


@settings(max_examples=400, deadline=None)
@given(pairs())
def test_commutativity_absorption_and_order(pq):
    p, q = pq
    m, j = pr.meet(p, q), pr.join_in_ambient(p, q)
    assert m == pr.meet(q, p)
    assert j == pr.join_in_ambient(q, p)
    assert pr.meet(p, pr.join_in_ambient(p, q)) == p
    assert pr.join_in_ambient(p, m) == p
    assert pr.leq(p, q) == (m == p) == (members(p) <= members(q))
