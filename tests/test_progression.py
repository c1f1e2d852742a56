import pickle
from itertools import combinations

import pytest

from aplattice import progression as pr
from aplattice.progression import EMPTY, Progression

from helpers import NotAProgressionError, covers, from_set


def test_canonical_form_rules():
    assert Progression(3, 0, 1).elements() == (3,)
    with pytest.raises(ValueError):
        Progression(3, 2, 1)  # singleton with a step
    with pytest.raises(ValueError):
        Progression(1, 0, 2)  # length 2 needs a step
    with pytest.raises(ValueError):
        Progression(1, 1, 0)  # empty must be all zeros
    with pytest.raises(ValueError):
        Progression(0, 0, 1)  # base below 1
    with pytest.raises(ValueError):
        Progression(1, 1, -1)  # negative length
    with pytest.raises(ValueError):
        EMPTY.last  # the empty progression has no last element


@pytest.mark.parametrize(
    "fields", [(1, 2.0, 3), (1.0, 0, 1), (1, 1, 2.0), (True, 0, 1), (1, True, 2), (1, 0, True)]
)
def test_fields_must_be_integers(fields):
    with pytest.raises(ValueError):
        Progression(*fields)


def test_a_progression_is_its_triple(lat):
    p = Progression(2, 3, 3)
    assert p == (2, 3, 3) and hash(p) == hash((2, 3, 3))
    assert lat(8).id_of[(2, 3, 3)] == lat(8).id_of[p]
    assert tuple(p) == (p.base, p.step, p.length)
    assert 5 in p and 3 not in p and 3 not in EMPTY  # `in` is membership
    assert repr(p) == "Progression(base=2, step=3, length=3)"
    with pytest.raises(AttributeError):
        p.step = 4
    with pytest.raises(ValueError):
        p._replace(step=0)
    forged = tuple.__new__(Progression, (2, 3, 1))  # skips validation
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for q in (p, EMPTY):
            back = pickle.loads(pickle.dumps(q, protocol))
            assert type(back) is Progression and back == q, protocol
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged, protocol))


def test_from_set_examples():
    assert from_set(set()) is EMPTY
    assert from_set({2, 5, 8}) == Progression(2, 3, 3)
    with pytest.raises(NotAProgressionError):
        from_set({1, 2, 4})
    with pytest.raises(ValueError):
        from_set({0, 1})
    # pairs get step b - a
    assert from_set({3, 7}) == Progression(3, 4, 2)


def test_elements_examples():
    assert Progression(1, 3, 2).elements() == (1, 4)
    assert EMPTY.elements() == ()
    assert Progression(3, 0, 1).elements() == (3,)


def test_membership():
    p = Progression(2, 3, 4)  # {2,5,8,11}
    assert 5 in p and 8 in p
    assert 4 not in p and 14 not in p and 1 not in p
    assert 7 not in EMPTY


def test_meet_examples():
    p12 = from_set({1, 2})
    p14 = from_set({1, 4})
    assert pr.meet(p12, p14) == from_set({1})
    assert pr.meet(p12, EMPTY) is EMPTY
    # worked by hand: {1,3,5,7} cap {1,4,7} = {1,7}
    assert pr.meet(from_set({1, 3, 5, 7}), from_set({1, 4, 7})) == Progression(1, 6, 2)


def test_join_examples():
    p12 = from_set({1, 2})
    p14 = from_set({1, 4})
    assert pr.join_in_ambient(p12, p14) == from_set({1, 2, 3, 4})
    assert pr.join_in_ambient(EMPTY, p14) == p14
    # worked by hand: min 1, max 7, gcd(3, 6) = 3
    assert pr.join_in_ambient(from_set({1, 4}), from_set({7})) == from_set({1, 4, 7})


def test_leq_is_containment():
    assert pr.leq(from_set({1, 4}), from_set({1, 2, 3, 4}))
    assert not pr.leq(from_set({1, 3}), from_set({1, 4}))
    assert pr.leq(EMPTY, from_set({2}))


def test_covers_in_l4(lat):
    l4 = lat(4)
    i1234, i12, i1 = (l4.id_of[from_set(s)] for s in ({1, 2, 3, 4}, {1, 2}, {1}))
    assert not covers(l4, i1234, i12)
    assert covers(l4, i12, i1)
    assert from_set({5}) not in l4.id_of


def test_round_trip_through_sets(lat):
    for n in range(13):
        for p in lat(n).elements:
            assert from_set(p.elements()) == p


def test_meet_commutative_idempotent_absorption(lat):
    els = lat(8).elements
    for p, q in combinations(els, 2):
        m = pr.meet(p, q)
        assert m == pr.meet(q, p)
        j = pr.join_in_ambient(p, q)
        assert j == pr.join_in_ambient(q, p)
        # absorption
        assert pr.meet(p, j) == p
        assert pr.join_in_ambient(p, m) == p
    for p in els:
        assert pr.meet(p, p) == p
        assert pr.join_in_ambient(p, p) == p


def test_meet_associative(lat):
    els = lat(6).elements
    for p in els:
        for q in els:
            pq = pr.meet(p, q)
            for r in els:
                assert pr.meet(pq, r) == pr.meet(p, pr.meet(q, r))


def test_join_matches_upper_bound_oracle(lat):
    # join must equal the meet of all lattice elements containing both
    for n in (5, 8):
        ln = lat(n)
        els = ln.elements
        for p, q in combinations(els, 2):
            bounds = [x for x in els if pr.leq(p, x) and pr.leq(q, x)]
            expected = bounds[0]
            for x in bounds[1:]:
                expected = pr.meet(expected, x)
            assert pr.join_in_ambient(p, q) == expected


def test_render_styles():
    assert pr.render(from_set({1, 2, 3, 4}), 4) == "1234"
    assert pr.render(from_set({1, 4}), 9) == "14"
    assert pr.render(from_set({1, 10}), 10) == "{1,10}"
    assert pr.render(EMPTY, 5) == "{}"
    # a plain triple renders as its Progression does
    for fields in [(1, 1, 4), (1, 3, 2), (1, 9, 2), (3, 0, 1), (0, 0, 0)]:
        for n in (9, 10):
            assert pr.render(fields, n) == pr.render(pr.Progression(*fields), n)
    assert pr.render((3, 0, 1), 12) == "{3}" and pr.render((0, 0, 0), 12) == "{}"
    assert str(from_set({2, 5, 8})) == "{2,5,8}"
