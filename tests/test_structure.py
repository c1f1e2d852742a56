import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from aplattice import cost
from aplattice import lattice as lt
from aplattice import numtheory as nt
from aplattice import progression as pr
from aplattice import structure as st

from helpers import (
    coatom_meet_table,
    comodernism_by_scan,
    comodernism_failure_by_ids,
    complements_by_scan,
    edge_labeling_from_text,
    element_set,
    first_uncomplemented_by_scan,
    from_set,
    interval_coatoms,
    intervals_by_elements,
    is_left_modular_coatom,
    label_word,
    labeling_by_chains,
    last_coatom,
    left_modular_by_all_pairs,
    meet_subset,
    witness_closed_form,
    witnesses_by_fill,
    witnesses_by_search,
)


def _never(*args, **kwargs):
    raise AssertionError("work started on a refused request")


def brute_force_coatoms(lattice):
    top = lattice.top_id
    return tuple(
        i
        for i in range(len(lattice.elements))
        if i != top
        and lattice.leq_ids(i, top)
        and len(lattice.interval(i, top)) == 2
    )


def test_coatoms_small_cases(lat):
    assert [str(lat(1).elements[i]) for i in st.coatoms(lat(1))] == ["{}"]
    assert [str(lat(2).elements[i]) for i in st.coatoms(lat(2))] == ["{1}", "{2}"]
    assert [str(lat(3).elements[i]) for i in st.coatoms(lat(3))] == [
        "{1,2}",
        "{1,3}",
        "{2,3}",
    ]
    with pytest.raises(ValueError):
        st.coatoms(lat(0))


def test_coatoms_examples(lat):
    l7 = lat(7)
    assert {str(l7.elements[i]) for i in st.coatoms(l7)} == {
        "{1,2,3,4,5,6}",
        "{2,3,4,5,6,7}",
        "{1,3,5,7}",
        "{1,4,7}",
    }
    l6 = lat(6)
    assert {str(l6.elements[i]) for i in st.coatoms(l6)} == {
        "{1,2,3,4,5}",
        "{2,3,4,5,6}",
        "{1,6}",
    }


def test_coatoms_against_brute_force(lat):
    for n in range(1, 13):
        ln = lat(n)
        assert st.coatoms(ln) == brute_force_coatoms(ln), n
        if n >= 4:
            assert len(st.coatoms(ln)) == nt.omega(n - 1) + 2


def test_unique_meet_over_all_coatom_subsets(lat):
    # distinct nonempty subsets of the coatoms have distinct meets
    for n in range(4, 10):
        ln = lat(n)
        cs = st.coatoms(ln)
        seen = {}
        for size in range(1, len(cs) + 1):
            for combo in combinations(cs, size):
                m = element_set(ln, combo[0])
                for c in combo[1:]:
                    m = m & element_set(ln, c)
                key = frozenset(m)
                assert key not in seen, (n, combo, seen[key])
                seen[key] = combo


def test_meet_representation_examples(lat):
    l7 = lat(7)
    assert st.meet_of_coatoms_representation(l7, 0) == st.coatoms(l7)
    x = l7.id_of[from_set({2, 3, 4, 5, 6})]
    rep = st.meet_of_coatoms_representation(l7, x)
    assert {str(l7.elements[i]) for i in rep} == {"{1,2,3,4,5,6}", "{2,3,4,5,6,7}"}
    assert st.meet_of_coatoms_representation(lat(10), 0) is None
    with pytest.raises(ValueError):
        st.meet_of_coatoms_representation(l7, l7.top_id)
    with pytest.raises(ValueError):
        st.meet_of_coatoms_representation(lat(3), 0)
    with pytest.raises(ValueError):
        coatom_meet_table(1)  # the table starts at n = 2


@pytest.mark.parametrize(
    "case", ["negative", "wrapping to the bottom", "bool", "past the end"]
)
def test_meet_representation_rejects_bad_ids(lat, case):
    # ids do not wrap through Python indexing: -1 would name the top (and
    # answer None), -len(L) the bottom and True id 1
    l7 = lat(7)
    x = {
        "negative": -1,
        "wrapping to the bottom": -len(l7),
        "bool": True,
        "past the end": len(l7),
    }[case]
    with pytest.raises(ValueError, match="x must be"):
        st.meet_of_coatoms_representation(l7, x)


def test_meet_representation_matches_subset_search(lat):
    # the rule's answer against a search over every coatom subset, on every
    # non-top element of L(4..30)
    for n in range(4, 31):
        ln = lat(n)
        cs = st.coatoms(ln)
        for x in range(len(ln) - 1):
            assert st.meet_of_coatoms_representation(ln, x) == meet_subset(
                ln, x, cs
            ), (n, x)


def test_meet_representation_round_trip(lat):
    # whenever a representation exists, its meet really is the element
    for n in (5, 8, 9):
        ln = lat(n)
        for x in range(len(ln) - 1):
            rep = st.meet_of_coatoms_representation(ln, x)
            if rep is None:
                continue
            m = element_set(ln, rep[0])
            for c in rep[1:]:
                m = m & element_set(ln, c)
            assert m == element_set(ln, x), (n, x)


def independent_left_modular(lattice, lo, hi, m):
    """Definitional oracle phrased directly over progressions."""
    members = [lattice.elements[i] for i in lattice.interval(lo, hi)]
    pm = lattice.elements[m]
    for x in members:
        for y in members:
            if x == y or not pr.leq(x, y):
                continue
            left = pr.meet(pr.join_in_ambient(x, pm), y)
            right = pr.join_in_ambient(x, pr.meet(pm, y))
            if left != right:
                return False
    return True


def test_run_coatoms_are_left_modular(lat):
    for n in (4, 5, 6):
        ln = lat(n)
        for base in (1, 2):
            run = ln.id_of[from_set(range(base, base + n - 1))]
            assert st.is_left_modular(ln, run)


def test_left_modular_matches_independent_oracle_on_l4(lat):
    l4 = lat(4)
    for m in range(len(l4)):
        assert st.is_left_modular(l4, m) == independent_left_modular(
            l4, 0, l4.top_id, m
        )


def test_left_modular_matches_all_pairs_oracle(lat):
    # every (lo, hi, m) with m in [lo, hi] for L(0..8), and every coatom of
    # the whole L(4..16), past the range the benchmark checks
    cases = [
        (ln, lo, hi, m)
        for ln in map(lat, range(9))
        for hi in range(len(ln))
        for lo in ln.ideal(hi)
        for m in ln.interval(lo, hi)
    ]
    cases += [
        (ln, ln.bottom_id, ln.top_id, m)
        for ln in map(lat, range(4, 17))
        for m in st.coatoms(ln)
    ]
    verdicts = []
    for ln, lo, hi, m in cases:
        verdict = st.is_left_modular_in_interval(ln, lo, hi, m)
        assert verdict == left_modular_by_all_pairs(ln, lo, hi, m), (ln.n, lo, hi, m)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_left_modular_coatoms_match_the_cover_criterion_up_to_l40(lat):
    verdicts = []
    for n in range(4, 41):
        ln = lat(n)
        for m in st.coatoms(ln):
            verdict = st.is_left_modular(ln, m)
            assert verdict == is_left_modular_coatom(ln, 0, ln.top_id, m), (n, m)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_left_modularity_checks_only_the_covers_of_listed_members(lat, monkeypatch):
    # one meet (m, y) per member y, then, for each member y listed by the
    # failure list of m, two meets per cover x -> y, up to the first strict
    # pair: for every (lo, hi, m) of L(6), members and covers as triples
    l6 = lat(6)
    fields, id_of, below = l6._fields, l6.id_of, l6.covers_down
    meet, join = pr._meet_fields, pr._join_fields
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return meet(p, q)

    monkeypatch.setattr(st, "_meet_fields", counted)
    verdicts = []
    for hi in range(len(l6)):
        for lo in l6.ideal(hi):
            members = list(lt._interval_fields(fields[lo], fields[hi]))
            assert sorted(map(id_of.__getitem__, members)) == list(l6.interval(lo, hi))
            for m in members:
                expected = [(m, y) for y in members]
                listed = [
                    y
                    for y in members
                    if meet(m, y) != y and id_of[meet(m, y)] not in below[id_of[y]]
                ]
                holds = True
                for y in listed:
                    for x in (fields[i] for i in below[id_of[y]]):
                        expected += [(join(x, m), y), (m, y)]
                        if meet(join(x, m), y) != join(x, meet(m, y)):
                            holds = False
                            break
                    if not holds:
                        break
                calls.clear()
                verdict = st.is_left_modular_in_interval(l6, lo, hi, id_of[m])
                assert calls == expected and verdict == holds, (lo, hi, m)
                verdicts.append((verdict, bool(listed)))
    assert {(True, True), (True, False), (False, True)} <= set(verdicts)


def test_cover_criterion_matches_definition_on_l6(lat):
    l6 = lat(6)
    checked = 0
    for hi in range(len(l6)):
        for lo in l6.ideal(hi):
            if lo == hi:
                continue
            for m in interval_coatoms(l6, lo, hi):
                a = is_left_modular_coatom(l6, lo, hi, m)
                b = st.is_left_modular_in_interval(l6, lo, hi, m)
                assert a == b, (lo, hi, m)
                checked += 1
    assert checked > 300


def test_interval_coatom_guards(lat):
    l5 = lat(5)
    with pytest.raises(ValueError):
        is_left_modular_coatom(l5, 0, l5.top_id, 0)  # bottom is not a coatom
    with pytest.raises(ValueError):
        st.is_left_modular_in_interval(l5, 1, l5.top_id, 0)  # m outside interval


def test_comodernistic_small(lat):
    for n in range(9):
        report = st.is_comodernistic(lat(n))
        assert report.holds, n
        proper_intervals = sum(
            1 for hi in range(len(lat(n))) for lo in lat(n).ideal(hi) if lo != hi
        )
        assert report.intervals == proper_intervals


def strict_pairs(lattice):
    """Every (lo, hi) with lo < hi, by ascending hi, then lo."""
    return [(lo, hi) for hi in range(len(lattice)) for lo in lattice.ideal(hi)[:-1]]


def test_comodernistic_witnesses_are_valid(lat):
    l6 = lat(6)
    for lo, hi in strict_pairs(l6):
        m = st.comodernism_witness(l6, lo, hi)
        assert m in interval_coatoms(l6, lo, hi)
        assert st.is_left_modular_in_interval(l6, lo, hi, m), (lo, hi, m)


def test_comodernism_report_is_a_frozen_named_tuple(lat):
    assert st.ComodernismReport._fields == ("holds", "intervals", "counterexample")
    assert st.ComodernismReport._field_defaults == {"counterexample": None}
    report = st.ComodernismReport(intervals=0, holds=True)
    assert report == st.ComodernismReport(True, 0, None) == (True, 0, None)
    holds, intervals, counterexample = st.is_comodernistic(lat(4))
    assert holds and counterexample is None and intervals == 49
    assert st.comodernism_witness(lat(4), 0, lat(4).top_id) in st.coatoms(lat(4))
    for name in (*report._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


def test_comodernistic_witnesses_match_the_per_interval_scan(lat):
    # the first coatom by step, then base, equals a search in every interval
    for n in range(17):
        ln = lat(n)
        report = st.is_comodernistic(ln)
        assert report.holds and report.counterexample is None, n
        witnesses = {key: st.comodernism_witness(ln, *key) for key in strict_pairs(ln)}
        assert witnesses == comodernism_by_scan(ln), n


def test_witness_map_counts_the_strict_pairs(lat):
    # the count is summed per hi, never by listing the pairs
    for n in (*range(23), 40):
        report = st.is_comodernistic(lat(n))
        assert report.intervals == intervals_by_elements(lat(n)), n
        if n == 22:
            assert report.intervals == 33_943
    assert report.intervals == 403_498


def test_witness_map_keys_and_order_match_the_fill(lat):
    # the definition against the dict the scan used to fill, key for key
    for n in range(17):
        ln = lat(n)
        filled = witnesses_by_fill(ln)
        assert sorted(filled) == sorted(strict_pairs(ln)), n
        for (lo, hi), w in filled.items():
            assert st.comodernism_witness(ln, lo, hi) == w, (n, lo, hi)


def test_witness_lookup_rejects_every_non_interval(lat):
    l6 = lat(6)
    i1, i2, i12 = l6.id_of[(1, 0, 1)], l6.id_of[(2, 0, 1)], l6.id_of[(1, 1, 2)]
    i13 = l6.id_of[(1, 2, 2)]
    assert st.comodernism_witness(l6, i1, i12) in l6.covers_down[i12]
    bad = [
        (i12, i12),  # lo = hi
        (0, 0),
        (i2, i13),  # incomparable, lo < hi as ids
        (i12, i13),  # incomparable, same size
        (i12, i1),  # hi below lo
        (-1, l6.top_id),
        (0, len(l6)),
        (0, -1),
        ("a", "b"),
        (0.0, 1.0),
        (None, None),
        (False, True),
    ]
    for lo, hi in bad:
        with pytest.raises(ValueError):
            st.comodernism_witness(l6, lo, hi)


@pytest.mark.parametrize("bad", [-1, "len", True, 1.0])
def test_structure_entry_points_reject_a_non_id(lat, bad):
    l5 = lat(5)
    bad = len(l5) if bad == "len" else bad
    top, c = l5.top_id, st.coatoms(l5)[0]
    calls = [
        lambda: st.complements_of(l5, bad),
        lambda: st.is_left_modular(l5, bad),
        lambda: st.is_left_modular_in_interval(l5, bad, top, top),
        lambda: st.is_left_modular_in_interval(l5, 0, bad, 0),
        lambda: st.is_left_modular_in_interval(l5, 0, top, bad),
        lambda: st.comodernism_witness(l5, bad, top),
        lambda: st.comodernism_witness(l5, 0, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # the same entry points take a plain id
    assert st.complements_of(l5, 0) == (top,)
    assert st.is_left_modular_in_interval(l5, 0, top, c) == st.is_left_modular(l5, c)


def _reject_2_under_1_to_3(monkeypatch):
    """Patch the failure lists so that the two runs {1,2} and {2,3} of
    {1,2,3} fail on the member {2}, in whichever lattice and over whichever
    members they are checked."""
    failures = st._cover_failures
    runs = ((1, 1, 2), (2, 1, 2))

    def rejecting(c, members):
        return failures(c, members) + (((2, 0, 1),) if c in runs else ())

    monkeypatch.setattr(st, "_cover_failures", rejecting)


def test_comodernism_failure_names_the_rejected_representative(lat, monkeypatch):
    # the rule names {1,2} for [{}, {1,2,3}], the first representative of
    # m = 3, and does not move on to {1,3} as the search does
    l8 = lat(8)
    lo, top = 0, l8.id_of[(1, 1, 3)]
    _reject_2_under_1_to_3(monkeypatch)
    report = st.is_comodernistic(l8)
    assert not report.holds and report.counterexample == (lo, top)
    assert report.intervals == intervals_by_elements(l8)  # counted, failing or not
    witness = st.comodernism_witness(l8, lo, top)
    assert l8._fields[witness] == (1, 1, 2)
    fields = l8._fields
    assert st._cover_failures(fields[witness], [fields[y] for y in l8.interval(lo, top)])
    # the left-modularity test still passes it: the failure is the rejection
    # alone, as {2} adds no strict cover pair to the lists it is injected in
    assert st.is_left_modular_in_interval(l8, lo, top, witness)


def test_search_oracle_moves_past_the_rejected_runs(lat, monkeypatch):
    # the search tries {1,3} after the runs: [{}, {1,2,3}] keeps a witness,
    # and [{2}, {1,2,3}] is the first interval left with none
    l8 = lat(8)
    _reject_2_under_1_to_3(monkeypatch)
    assert witnesses_by_search(l8, 2)[1] is None
    witnesses, failing = witnesses_by_search(l8, 3)
    assert failing == (2, 0, 1)  # a triple, not an id
    assert witnesses == {(0, 0, 0): (1, 2, 2), (1, 0, 1): (1, 1, 2)}
    # every candidate of [{2}, {1,2,3}] has a (patched) failure inside it
    lo, top = l8.id_of[(2, 0, 1)], l8.id_of[(1, 1, 3)]
    cands = interval_coatoms(l8, lo, top)
    fields = l8._fields
    ideal = [fields[y] for y in l8.ideal(top)]
    assert cands and all(
        any(pr._leq_fields(fields[lo], y) for y in st._cover_failures(fields[m], ideal))
        for m in cands
    )


def test_rule_matches_the_search_witness_for_witness(lat):
    # every [x, {1,..,m}], m <= 40, in L(40) coordinates: the first coatom
    # read off the covers, and the closed form by cases
    l40 = lat(40)
    size = lt.sizes(40)
    fields, id_of = l40._fields, l40.id_of
    for m in range(1, 41):
        r_m = id_of[(1, 1, m) if m > 1 else (1, 0, 1)]
        witnesses, failing = witnesses_by_search(l40, m)
        assert failing is None and len(witnesses) == size[m] - 1, m
        for x, w in witnesses.items():
            assert fields[st.comodernism_witness(l40, id_of[x], r_m)] == w, (m, x)
            assert witness_closed_form(m, x) == w, (m, x)


def test_search_oracle_holds_triples_that_match_the_scan(lat):
    # the search of m equals the per-interval scan of [x, {1,..,m}] in L(12)
    l12 = lat(12)
    fields = l12._fields
    scan = comodernism_by_scan(l12)
    for m in range(1, 13):
        witnesses, failing = witnesses_by_search(l12, m)
        assert failing is None, m
        for x, w in witnesses.items():
            for t in (x, w):
                assert type(t) is tuple and len(t) == 3, (m, t)
                assert all(type(v) is int for v in t), (m, t)
        r_m = l12.id_of[(1, 1, m) if m > 1 else (1, 0, 1)]
        expected = {fields[lo]: fields[w] for (lo, hi), w in scan.items() if hi == r_m}
        assert witnesses == expected, m


def test_premises_hold_and_walk_what_the_estimate_counts(lat, monkeypatch):
    # no premise fails up to L(40), so no representative is decided one by
    # one; the members walked are cost.comodernism(n) exactly
    failures, walked = st._cover_failures, []

    def counting(c, members):
        members = tuple(members)
        walked.append(len(members))
        found = failures(c, members)
        assert not found, (c, found)
        return found

    monkeypatch.setattr(st, "_cover_failures", counting)
    for n in (*range(13), 40):
        walked.clear()
        assert st.is_comodernistic(lat(n)).holds, n
        assert sum(walked) == cost.comodernism(n), n


def test_triple_walk_matches_the_id_walk(lat, monkeypatch):
    # verdict and counterexample ids against the premise walk on a built
    # lattice, for n <= 40, and under the max-keyed witness for n <= 12; the
    # report reads only n and id_of of the lattice it is given
    for n in range(41):
        report = st.is_comodernistic(lat(n))
        assert report.counterexample == comodernism_failure_by_ids(lat(n)), n
        assert report.holds == (report.counterexample is None), n
        bare = SimpleNamespace(n=n, id_of=lat(n).id_of)
        assert st.is_comodernistic(bare) == report, n
    monkeypatch.setattr(st, "_first_coatom", last_coatom)
    for n in range(13):
        report = st.is_comodernistic(lat(n))
        assert report.counterexample == comodernism_failure_by_ids(lat(n), max), n
        assert report.holds == (n < 4), n
        bare = SimpleNamespace(n=n, id_of=lat(n).id_of)
        assert st.is_comodernistic(bare) == report, n


def _inject(monkeypatch, coatom, member, lowest=None):
    """Patch the failure lists so that the coatom triple fails on the member
    triple, whenever that member is among those checked (and the lowest of
    them is the triple `lowest`, if given)."""
    failures = st._cover_failures

    def injected(c, members):
        members = tuple(members)
        found = failures(c, members)
        if c == coatom and member in members:
            if lowest is None or min(members, key=lambda f: (f[2], f[0], f[1])) == lowest:
                return found + (member,)
        return found

    monkeypatch.setattr(st, "_cover_failures", injected)


@pytest.mark.parametrize(
    "m, es", [(7, (2,)), (7, (3,)), (7, (6,)), (9, (8,)), (13, (4,)), (13, (2, 4, 12))]
)
def test_a_divisor_interval_failure_names_that_interval(lat, monkeypatch, m, es):
    # failures of the prime-step witness on [x_e, R_m] alone, e = m-1 among
    # them (the interval above {1, m}); of several, the least x_e is named
    l16 = lat(16)
    x = {e: (1, e, (m - 1) // e + 1) for e in es}
    for e in es:
        p = nt.prime_divisors(e)[0]
        _inject(monkeypatch, (1, p, (m - 1) // p + 1), (1, 1, m), lowest=x[e])
    report = st.is_comodernistic(l16)
    assert not report.holds
    assert report.counterexample == (l16.id_of[x[max(es)]], l16.id_of[(1, 1, m)])


@pytest.mark.parametrize("m", [2, 3, 5, 12])
@pytest.mark.parametrize("base", [1, 2])
def test_a_run_failure_names_the_first_interval_it_serves(lat, monkeypatch, base, m):
    # {1,..,m-1} fails on {m}, which holds no 1, so only the members holding
    # m (the end it lacks) show it, and [{}, R_m] is named; {2,..,m} fails on
    # {1, m}, and [{m}, R_m], the first interval it serves, is named
    l12 = lat(12)
    run = (base, 1 if m > 2 else 0, m - 1)
    member, x = ((m, 0, 1), (0, 0, 0)) if base == 1 else ((1, m - 1, 2), (m, 0, 1))
    _inject(monkeypatch, run, member)
    report = st.is_comodernistic(l12)
    assert not report.holds
    assert report.counterexample == (l12.id_of[x], l12.id_of[(1, 1, m)])


def test_failure_list_is_empty_iff_the_coatom_is_left_modular(lat):
    # over the whole of L(m), m = 2..16, against the definition
    verdicts = []
    for m in range(2, 17):
        lm = lat(m)
        for c in st.coatoms(lm):
            verdict = st.is_left_modular(lm, c)
            assert (not st._cover_failures(lm._fields[c], lm._fields)) == verdict, (m, c)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_comodernistic_bound(lat, monkeypatch):
    # the premises walk fewer members than the build makes elements, so every
    # lattice the build admits is admitted: L(200) is the last of them
    for n in (*range(201), 10**9):
        assert cost.comodernism(n) < cost.ELEMENT * cost.elements(n), n
    assert cost.comodernism(200) == 103_852
    assert cost.comodernism(1091) <= cost.BUDGET < cost.comodernism(1092) == 4_005_924
    monkeypatch.setattr(st, "_comodernism_failure", _never)
    with pytest.raises(cost.BudgetError, match="comodernism of L\\(1092\\)"):
        st.is_comodernistic(SimpleNamespace(n=1092))


def test_witnesses_in_endpoint_pinning_intervals_have_prime_step(lat):
    # when the lower end contains both endpoints of the upper end, no run-shaped
    # covered element remains, so the witness must be a prime-step progression
    for n in (6, 7, 8):
        ln = lat(n)
        assert st.is_comodernistic(ln).holds, n
        for lo, hi in strict_pairs(ln):
            m = st.comodernism_witness(ln, lo, hi)
            host = ln.elements[hi]
            low = ln.elements[lo]
            if low.is_empty or host.length < 4:
                continue
            if host.base in low and host.last in low:
                witness = ln.elements[m]
                assert witness.length != host.length - 1
                # its step, relative to the host, is prime
                rel = witness.step // max(host.step, 1)
                assert nt.omega(rel) == 1 and nt.is_squarefree(rel), (n, lo, hi, rel)


def test_left_modularity_survives_principal_filters(lat):
    # a left-modular coatom of the whole lattice stays left-modular in any
    # principal filter containing it
    for k in range(2, 7):
        lk = lat(k)
        lm_coatoms = [m for m in st.coatoms(lk) if st.is_left_modular(lk, m)]
        for x in range(len(lk)):
            for m in lm_coatoms:
                if lk.leq_ids(x, m):
                    assert st.is_left_modular_in_interval(lk, x, lk.top_id, m), (k, x, m)


def test_complemented_iff_squarefree(lat):
    for n in [*range(2, 13), 30]:
        assert st.is_complemented(lat(n)) == nt.is_squarefree(n - 1), n
    with pytest.raises(ValueError):
        st.is_complemented(lat(1))  # considered for n >= 2 only


def test_complement_scan_matches_listing(lat):
    for n in range(2, 15):
        listed = all(st.complements_of(lat(n), x) for x in range(len(lat(n))))
        assert st.is_complemented(lat(n)) == listed, n


def test_complements_match_the_full_scan(lat):
    # a join and a meet with every element, for every element of L(0..24)
    for n in range(25):
        ln = lat(n)
        for x in range(len(ln)):
            assert st.complements_of(ln, x) == tuple(complements_by_scan(ln, x)), (n, x)


def test_is_complemented_matches_the_full_scan(lat):
    # the triple scan names the first uncomplemented element in id order
    for n in range(2, 31):
        ln = lat(n)
        first = first_uncomplemented_by_scan(ln)
        assert st._uncomplemented(n) == (None if first is None else ln._fields[first]), n
        assert st.is_complemented(ln) == (first is None), n


def test_complements_examples(lat):
    # L(0): its one element is top, bottom and its own complement, which no
    # endpoint class holds; in L(1), 1 = n and {} and {1} complement each other
    assert st.complements_of(lat(0), 0) == (0,)
    assert st.complements_of(lat(1), 0) == (1,)
    assert st.complements_of(lat(1), 1) == (0,)
    l2 = lat(2)
    one = l2.id_of[from_set({1})]
    two = l2.id_of[from_set({2})]
    assert st.complements_of(l2, one) == (two,)
    # bottom and top complement each other, always
    l7 = lat(7)
    assert st.complements_of(l7, 0) == (l7.top_id,)
    assert st.complements_of(l7, l7.top_id) == (0,)


def test_semicomplement_witnesses(lat):
    l5 = lat(5)
    assert st.semicomplement_witness(l5) == from_set({3})
    assert st.semicomplement_witness(lat(9)) == from_set({5})
    assert st.semicomplement_witness(lat(10)) == from_set({4, 7})
    assert st.semicomplement_witness(lat(7)) is None
    # both read n alone: a stand-in with no elements answers the same
    bare = SimpleNamespace(n=10)
    assert not st.is_complemented(bare) and st.semicomplement_witness(bare) == from_set({4, 7})


def test_semicomplement_witness_checked_exhaustively(lat):
    # direct restatement of the claim, by a join with every element: only the
    # top joins the witness to the top, for every n <= 50 with n-1 not
    # squarefree
    checked = 0
    for n in range(2, 51):
        if nt.is_squarefree(n - 1):
            continue
        ln = lat(n)
        w = ln.id_of[st.semicomplement_witness(ln)]
        joins = [y for y in range(len(ln)) if ln.join_ids(w, y) == ln.top_id]
        assert joins == [ln.top_id], n
        checked += 1
    assert checked == 18  # n-1 = 4, 8, 9, 12, .., 45, 48, 49


# ---------------------------------------------------------------------------
# labelings


def added_element_labeling(lattice):
    """Each cover edge labeled by the least element it adds, the only one
    for n <= 3 (a cover such as {1,4,7} < {1,..,7} adds several)."""
    labels = {}
    for hi in range(len(lattice.elements)):
        for lo in lattice.covers_down[hi]:
            added = set(lattice.elements[hi].elements()) - set(
                lattice.elements[lo].elements()
            )
            assert len(added) == 1 or lattice.n > 3
            labels[(lo, hi)] = min(added)
    return st.EdgeLabeling(lattice, labels)


def constant_labeling(lattice, value=0):
    return st.EdgeLabeling(
        lattice,
        {
            (lo, hi): value
            for hi in range(len(lattice.elements))
            for lo in lattice.covers_down[hi]
        },
    )


def test_added_element_labeling_on_l3_is_el(lat):
    verdict = st.verify_el_labeling(added_element_labeling(lat(3)))
    assert verdict.is_er and verdict.is_el
    assert not verdict.ties
    # label the edge from the bottom to {2} 1, as the edge to {1}: still ER,
    # but in [bottom, {1,2}] the rising word (1, 2) follows the word (1, 1)
    l3 = lat(3)
    labels = dict(added_element_labeling(l3).labels)
    bottom, two, one_two = (l3.id_of[from_set(s)] for s in ((), (2,), (1, 2)))
    labels[(bottom, two)] = 1
    verdict = st.verify_el_labeling(st.EdgeLabeling(l3, labels))
    assert verdict.is_er and not verdict.is_el
    assert verdict.lex_failures[0] == (bottom, one_two, (1, 2), (1, 1))


def test_lex_failure_names_the_smallest_competing_word(lat):
    # the added-element labeling of L(3), with the edges {} -> {3} and
    # {3} -> {1,3} relabeled 0 and 3: in [{}, {1,2,3}] the rising word
    # (1, 2, 3) follows (0, 3, 2) and (0, 2, 1), in that chain order
    l3 = lat(3)
    labels = dict(added_element_labeling(l3).labels)
    sets = ((), (3,), (1, 3), (1, 2, 3))
    bottom, three, one_three, top = (l3.id_of[from_set(s)] for s in sets)
    labels[(bottom, three)] = 0
    labels[(three, one_three)] = 3
    labeling = st.EdgeLabeling(l3, labels)
    words = [label_word(labeling, c) for c in l3.maximal_chains(bottom, top)]
    assert [w for w in words if w < (1, 2, 3)] == [(0, 3, 2), (0, 2, 1)]
    verdict = st.verify_el_labeling(labeling)
    assert verdict.lex_failures == ((bottom, top, (1, 2, 3), (0, 2, 1)),)
    assert verdict == labeling_by_chains(labeling, check_lex=True)


def test_word_sweep_matches_the_chain_listing(lat):
    # every field of both verdicts on L(2..7), for the constant, the
    # added-element and seeded random labelings with labels 0..3
    rng = random.Random(2024)
    lex_seen = 0
    for n in range(2, 8):
        ln = lat(n)
        edges = [(lo, hi) for hi in range(len(ln)) for lo in ln.covers_down[hi]]
        labelings = [constant_labeling(ln), added_element_labeling(ln)]
        labelings += [
            st.EdgeLabeling(ln, {e: rng.randrange(4) for e in edges}) for _ in range(3)
        ]
        for labeling in labelings:
            er = st.verify_er_labeling(labeling)
            assert er == labeling_by_chains(labeling, check_lex=False), n
            el = st.verify_el_labeling(labeling)
            assert el == labeling_by_chains(labeling, check_lex=True), n
            lex_seen += len(el.lex_failures)
    assert lex_seen


def test_labeling_verdict_is_a_frozen_named_tuple(lat):
    fields = ("is_er", "is_el", "rising_failures", "lex_failures", "ties")
    assert st.LabelingVerdict._fields == fields
    assert st.LabelingVerdict._field_defaults == {}
    verdict = st.verify_er_labeling(added_element_labeling(lat(3)))
    assert verdict == st.LabelingVerdict(
        is_er=True, is_el=None, rising_failures=(), lex_failures=(), ties=()
    )
    assert verdict == (True, None, (), (), ())
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(verdict, name, None)


def test_constant_labeling_on_l4_is_not_er(lat):
    verdict = st.verify_er_labeling(constant_labeling(lat(4)))
    assert not verdict.is_er
    assert verdict.rising_failures
    assert verdict.ties  # many chains share the constant word


def test_el_implies_er_on_random_labelings(lat):
    rng = random.Random(987654)
    runs = {3: 80, 4: 80, 5: 30, 6: 20}
    assert sum(runs.values()) >= 200
    el_seen = 0
    for n, count in runs.items():
        ln = lat(n)
        edges = [
            (lo, hi)
            for hi in range(len(ln.elements))
            for lo in ln.covers_down[hi]
        ]
        for _ in range(count):
            labeling = st.EdgeLabeling(
                ln, {e: rng.randrange(0, 6) for e in edges}
            )
            verdict = st.verify_el_labeling(labeling)
            if verdict.is_el:
                el_seen += 1
                assert verdict.is_er
            if not verdict.is_er:
                assert verdict.is_el is False or verdict.is_el is None
    # the added-element labeling gives at least one genuine EL case per size
    for n in (3,):
        assert st.verify_el_labeling(added_element_labeling(lat(n))).is_el


def test_labeling_loader_and_validation(lat):
    l3 = lat(3)
    good = added_element_labeling(l3)
    text = "\n".join(
        f"{lo} {hi} {label}" for (lo, hi), label in sorted(good.labels.items())
    )
    loaded = edge_labeling_from_text(l3, "# comment\n" + text + "\n")
    assert loaded.labels == good.labels

    lines = text.splitlines()
    with pytest.raises(ValueError):
        edge_labeling_from_text(l3, "\n".join(lines[:-1]))  # partial
    with pytest.raises(ValueError):
        edge_labeling_from_text(l3, text + "\n0 99 5\n")  # not a cover edge
    with pytest.raises(ValueError):
        edge_labeling_from_text(l3, text + "\n" + lines[0] + "\n")  # duplicate


def test_labeling_bound(lat, monkeypatch):
    # one unit per chain step and per triple: L(14) is the last in budget
    assert cost.chain_steps(14) + cost.triples(14) <= cost.BUDGET
    labeling = constant_labeling(lat(15))
    monkeypatch.setattr(lt.Lattice, "filter", _never)
    with pytest.raises(cost.BudgetError):
        st.verify_er_labeling(labeling)
