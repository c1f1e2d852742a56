import json

import pytest

from aplattice import cost
from aplattice import lattice as lt
from aplattice import numtheory as nt
from aplattice import progression as pr

from helpers import (
    coatom_meet_table,
    count_progressions_enumerated,
    covers,
    covers_by_embedding,
    covers_by_member_sets,
    element_set,
    embed_progression,
    from_set,
    gf_coefficients,
    ideal_isomorphism,
    intervals_by_elements,
    project_progression,
    sort_key,
)


def test_build_small_sizes(lat):
    assert len(lat(0)) == 1
    assert len(lat(2)) == 4
    assert [str(p) for p in lat(2).elements] == ["{}", "{1}", "{2}", "{1,2}"]
    assert len(lat(4)) == 14  # the degree-4 count polynomial at 1
    assert repr(lat(3)) == "Lattice(n=3, size=8)"


def test_build_rejects_bad_n():
    for bad in (-1, True, False, 4.0):
        with pytest.raises(ValueError):
            lt.build(bad)
    # building costs ELEMENT units per element: L(200) is the last in budget
    assert cost.ELEMENT * cost.elements(200) <= cost.BUDGET
    with pytest.raises(cost.BudgetError):
        lt.build(201)
    with cost.unbounded():
        assert len(lt.build(31)) == lt.size_formula(31)


def test_build_derives_coatoms_once_per_length(monkeypatch):
    calls, original = [], lt._coatom_fields

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(lt, "_coatom_fields", counted)
    for n in (0, 1, 9):
        calls.clear()
        lt.build(n)
        assert sorted(calls) == sorted(set(calls)) and len(calls) <= n
    assert calls  # L(9) reads the coatoms of its lengths 2..9


def test_build_makes_no_progression(monkeypatch):
    made, new = [], pr.Progression.__new__

    def counted(cls, *fields):
        made.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(pr.Progression, "__new__", staticmethod(counted))
    ln = lt.build(30)
    assert made == []
    # each element is made when it is read, and only then; EMPTY is shared
    assert ln.elements[0] is pr.EMPTY and made == []
    assert ln.elements[-1] == (1, 1, 30) and made == [(1, 1, 30)]


def test_elements_is_a_read_only_sequence(lat):
    ln = lat(6)
    els, fields = ln.elements, list(lt._canonical_fields(6))
    assert len(els) == len(ln) == len(fields)
    assert els[0] is pr.EMPTY
    for i in (1, 7, len(ln) - 1, -1, -len(ln)):
        assert type(els[i]) is pr.Progression and els[i] == fields[i], i
    for cut in (slice(2, 9), slice(None, None, -3), slice(-4, None)):
        assert els[cut] == tuple(fields[cut])
        assert all(type(p) is pr.Progression for p in els[cut])
    assert list(els) == fields and all(type(p) is pr.Progression for p in els)
    assert list(reversed(els)) == fields[::-1]
    assert els.index(fields[5]) == 5 and fields[5] in els
    for bad in (len(ln), -len(ln) - 1):
        with pytest.raises(IndexError):
            els[bad]
    with pytest.raises(TypeError):
        els[0] = pr.EMPTY


def test_covers_match_the_embedding_route(lat):
    # the closed form against one _embed_fields call per cover
    for n in range(61):
        assert lat(n).covers_down == covers_by_embedding(lat(n)), n


def test_covers_match_member_sets(lat):
    for n in range(11):
        assert lat(n).covers_down == covers_by_member_sets(lat(n)), n


def test_element_order_and_ids(lat):
    for n in (0, 1, 5, 9):
        ln = lat(n)
        assert ln.elements[0] is pr.EMPTY or ln.elements[0] == pr.EMPTY
        if n >= 1:
            assert ln.elements[ln.top_id] == from_set(range(1, n + 1))
        keys = [sort_key(p) for p in ln.elements]
        assert keys == sorted(keys)
        assert all(ln.id_of[p] == i for i, p in enumerate(ln.elements))


def test_canonical_id_matches_the_build(lat):
    # the closed-form id of every triple of L(n), n <= 40, against id_of
    for n in range(41):
        ln = lat(n)
        assert {f: lt._canonical_id(n, f) for f in ln._fields} == ln.id_of, n


def test_size_formula_matches_enumeration(lat):
    for n in range(13):
        expected = 1 + n + sum(
            nt.tau(r) for a in range(1, n) for r in range(1, a + 1)
        )
        assert len(lat(n)) == expected == lt.size_formula(n)


def test_size_sequence_without_empty_set():
    # 1, 3, 7, 13, 22, 33: progression counts with the empty set dropped
    # (row sums of the size-k table without the k = 0 column)
    expected = [
        sum(lt.count_progressions_formula(n, k) for k in range(1, n + 1))
        for n in range(1, 7)
    ]
    assert expected == [1, 3, 7, 13, 22, 33]
    assert [lt.size_formula(n) - 1 for n in range(1, 7)] == expected


def test_count_formula_examples():
    assert lt.count_progressions_formula(5, 3) == 4
    assert lt.count_progressions_formula(10, 4) == 12
    assert lt.count_progressions_formula(7, 9) == 0
    assert lt.count_progressions_formula(6, 0) == 1
    assert lt.count_progressions_formula(9, 1) == 9


def test_count_enumeration_examples(lat):
    assert count_progressions_enumerated(lat(11), 2) == 55
    assert count_progressions_enumerated(lat(4), 3) == 2
    assert count_progressions_enumerated(lat(6), 0) == 1


def test_three_way_count_agreement(lat):
    gf = gf_coefficients(12, 12)
    for n in range(13):
        for k in range(13):
            formula = lt.count_progressions_formula(n, k)
            assert formula == count_progressions_enumerated(lat(n), k)
            assert formula == gf[n][k]


def test_count_rows_match_formula_and_generating_function():
    gf = gf_coefficients(200, 200)
    rows = list(lt.count_rows(200))
    assert len(rows) == 201
    for m, row in enumerate(rows):
        assert list(row) == [lt.count_progressions_formula(m, k) for k in range(m + 1)]
        assert list(row) == gf[m][: m + 1], m


def test_count_rows_rejects_bad_bounds():
    assert list(lt.count_rows(0)) == [(1,)]
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError):
            lt.count_rows(bad)


def test_gf_spot_values():
    gf = gf_coefficients(9, 5)
    assert gf[5][3] == 4
    assert gf[0][0] == 1
    assert gf[9][5] == 6


def test_coatom_meet_rule_matches_the_table_on_l1_to_l60():
    # every triple of L(m), EMPTY, singletons and the top included, against
    # the forward construction of every meet of coatoms
    assert lt._coatom_meet(1, (0, 0, 0)) == ((0, 0, 0),)  # the one coatom of L(1)
    assert lt._coatom_meet(1, (1, 0, 1)) is None  # the top
    checked = 2
    for m in range(2, 61):
        table = coatom_meet_table(m)  # Progression keys equal plain triples
        for f in lt._canonical_fields(m):
            assert lt._coatom_meet(m, f) == table.get(f), (m, f)
            checked += 1
    assert checked == sum(lt.sizes(60)[1:])


def test_ideal_filter_interval(lat):
    l4 = lat(4)
    assert l4.ideal(l4.top_id) == tuple(range(14))
    assert l4.filter(0) == tuple(range(14))
    i1 = l4.id_of[from_set({1})]
    i14 = l4.id_of[from_set({1, 4})]
    assert l4.interval(i1, i14) == (i1, i14)
    i2 = l4.id_of[from_set({2})]
    with pytest.raises(ValueError):
        l4.interval(i2, i14)


@pytest.mark.parametrize("bad", [-1, "len", True, 1.0])
def test_ideal_filter_interval_reject_an_id_outside_the_lattice(lat, bad):
    # -1 would index the top from the end, True would read as id 1
    l5 = lat(5)
    top = l5.top_id
    bad = len(l5) if bad == "len" else bad
    calls = [
        lambda: l5.ideal(bad),
        lambda: l5.filter(bad),
        lambda: l5.interval(bad, top),
        lambda: l5.interval(0, bad),
        lambda: l5.interval(bad, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert l5.ideal(0) == (0,) and l5.filter(top) == l5.interval(top, top) == (top,)


@pytest.mark.parametrize("name", ["meet_ids", "join_ids"])
@pytest.mark.parametrize("bad", [-1, "len", True, 1.0])
def test_meet_and_join_ids_reject_an_id_outside_the_lattice(lat, bad, name):
    # -1 would read the top from the end, len(L) would raise IndexError
    l5 = lat(5)
    bad = len(l5) if bad == "len" else bad
    for i, j in ((bad, 3), (3, bad), (bad, bad)):
        with pytest.raises(ValueError):
            getattr(l5, name)(i, j)
    assert l5.meet_ids(3, l5.top_id) == l5.join_ids(3, 0) == 3


def test_interval_counts_match_the_element_walk(lat):
    counts = lt.interval_counts(200)
    assert counts[:41] == [intervals_by_elements(lat(n)) for n in range(41)]
    assert counts[22] == 33_943 and counts[200] == 348_815_895
    assert lt.interval_counts(0) == [0]


def test_covers_match_two_element_intervals(lat):
    # the construction shortcut against the definition, exhaustively
    for n in (4, 5, 6, 7, 8):
        ln = lat(n)
        for hi in range(len(ln)):
            for lo in range(len(ln)):
                if lo == hi or not ln.leq_ids(lo, hi):
                    assert not covers(ln, hi, lo)
                    continue
                assert covers(ln, hi, lo) == (len(ln.interval(lo, hi)) == 2), (n, lo, hi)


def test_covers_down_ascend_and_grow(lat):
    # ascending by construction, with no sort; sizes grow along a cover
    for n in range(13):
        ln = lat(n)
        for hi, lows in enumerate(ln.covers_down):
            assert list(lows) == sorted(lows), (n, hi)
            for lo in lows:
                assert ln.size_of(lo) < ln.size_of(hi)  # acyclic


def brute_maximal_chains(ln, lo, hi):
    """Oracle: the saturated chains from lo to hi, built from member sets;
    a step a -> b is a cover when no element lies strictly between them."""
    sets = [element_set(ln, i) for i in range(len(ln))]
    inside = [x for x in range(len(ln)) if sets[lo] <= sets[x] <= sets[hi]]

    def covers(a, b):
        return sets[a] < sets[b] and not any(
            sets[a] < sets[c] < sets[b] for c in inside
        )

    out = []

    def walk(chain):
        if chain[-1] == hi:
            out.append(tuple(chain))
            return
        for b in inside:
            if covers(chain[-1], b):
                walk(chain + [b])

    walk([lo])
    return sorted(out)


class _ReadLog(tuple):
    """A tuple that records the indices read from it."""

    def __getitem__(self, i):
        self.read.add(i)
        return tuple.__getitem__(self, i)


def test_maximal_chains_match_brute_force(lat, monkeypatch):
    # the same chains as the oracle, and the walk never leaves the interval,
    # so its cost follows the interval rather than the ideal below hi
    for n in range(8):
        ln = lat(n)
        log = _ReadLog(ln.covers_down)
        monkeypatch.setattr(ln, "covers_down", log)
        for hi in range(len(ln)):
            for lo in ln.ideal(hi):
                log.read = set()
                expected = brute_maximal_chains(ln, lo, hi)
                assert ln.maximal_chains(lo, hi) == expected, (n, lo, hi)
                assert log.read <= set(ln.interval(lo, hi)), (n, lo, hi)


def test_meet_join_closed(lat):
    l6 = lat(6)
    for i in range(len(l6)):
        for j in range(len(l6)):
            assert 0 <= l6.meet_ids(i, j) < len(l6)
            assert 0 <= l6.join_ids(i, j) < len(l6)


def test_not_graded_witness_chains(lat):
    # two maximal chains of different lengths through 1 < 14 < 1234 < ...
    for n in range(4, 9):
        ln = lat(n)
        short = [pr.EMPTY, from_set({1}), from_set({1, 4})]
        short += [from_set(range(1, m + 1)) for m in range(4, n + 1)]
        long = [pr.EMPTY] + [from_set(range(1, m + 1)) for m in range(1, n + 1)]
        for chain, length in ((short, n - 1), (long, n)):
            ids = [ln.id_of[p] for p in chain]
            assert len(ids) - 1 == length
            assert ids[0] == 0 and ids[-1] == ln.top_id
            for a, b in zip(ids, ids[1:]):
                assert covers(ln, b, a)  # saturated, hence maximal


def test_ideal_isomorphism_examples(lat):
    l9 = lat(9)
    x = l9.id_of[from_set({2, 5, 8})]
    iso = ideal_isomorphism(l9, x)
    l3 = lat(3)
    assert len(iso) == len(l3)
    assert iso[l9.id_of[from_set({2})]] == l3.id_of[from_set({1})]
    assert iso[l9.id_of[from_set({5})]] == l3.id_of[from_set({2})]
    assert iso[l9.id_of[from_set({2, 5, 8})]] == l3.top_id

    # the top maps identically
    l4 = lat(4)
    iso_top = ideal_isomorphism(l4, l4.top_id)
    assert iso_top == {i: i for i in range(len(l4))}

    iso_14 = ideal_isomorphism(l4, l4.id_of[from_set({1, 4})])
    assert len(iso_14) == 4

    with pytest.raises(ValueError):
        ideal_isomorphism(l4, 0)


def test_ideal_isomorphism_order_preserving_both_ways(lat):
    l8 = lat(8)
    for x in range(1, len(l8)):
        host_size = l8.size_of(x)
        target = lat(host_size)
        iso = ideal_isomorphism(l8, x)
        members = sorted(iso)
        assert sorted(iso.values()) == list(range(len(target)))  # bijection
        for a in members:
            for b in members:
                assert l8.leq_ids(a, b) == target.leq_ids(iso[a], iso[b])


def test_dot_export_l3_is_the_cube(lat):
    dot = lat(3).to_dot()
    assert dot.count(" -> ") == 12  # cube graph edges
    assert dot.count("label=") == 8
    assert dot == lat(3).to_dot()  # deterministic


def test_json_export_shape(lat):
    blob = lat(2).to_json_dict()
    assert blob["n"] == 2
    assert blob["elements"] == [[], [1], [2], [1, 2]]
    assert blob["cover_edges"] == [[0, 1], [0, 2], [1, 3], [2, 3]]
    json.dumps(blob)  # serialisable


def test_exports_render_from_the_triples(monkeypatch):
    # no Progression is made; the members of each element are the x in
    # {1,..,n} that the containment kernel puts in its triple
    made, new = [], pr.Progression.__new__

    def counted(cls, *fields):
        made.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(pr.Progression, "__new__", staticmethod(counted))
    for n in (0, 6, 9, 10, 12):
        ln = lt.build(n)
        members = [
            [x for x in range(1, n + 1) if pr._leq_fields((x, 0, 1), f)]
            for f in ln._fields
        ]
        dot, blob = ln.to_dot(), ln.to_json_dict()
        assert made == [], n
        assert blob["elements"] == members, n
        labels = [line.split('"')[1] for line in dot.splitlines() if "label=" in line]
        assert labels == [
            "".join(map(str, m)) if m and n <= 9 else "{" + ",".join(map(str, m)) + "}"
            for m in members
        ], n


def test_embed_project_round_trip(lat):
    l8 = lat(8)
    for host in l8.elements:
        if host.length < 1:
            continue
        sub = lat(host.length)
        for p in sub.elements:
            emb = embed_progression(p, host)
            assert project_progression(emb, host) == p
        for q in l8.elements:
            if not pr.leq(q, host):
                with pytest.raises(ValueError):
                    project_progression(q, host)
