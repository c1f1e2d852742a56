import time
from itertools import accumulate

import pytest

from aplattice import cost
from aplattice import lattice as lt
from aplattice import moebius as mb
from aplattice import numtheory as nt
from aplattice.moebius import MoebiusMethod as MM

from helpers import (
    coatom_meet_table,
    embed_progression,
    from_set,
    meet_subset,
    mobius_support,
    pnk_by_quotient_blocks,
    pnk_by_rows,
    project_progression,
)


def expected_m(n):
    if n == 0:
        return 1
    if n == 1:
        return -1
    return nt.classical_mobius(n - 1)


def test_small_values_all_methods():
    for n in range(13):
        values = {m: mb.mobius_bottom_top(n, m) for m in MM}
        assert len(set(values.values())) == 1, (n, values)
        assert values[MM.DEFINITION] == expected_m(n)
    with pytest.raises(ValueError):
        mb.mobius_bottom_top(5, "pnk")  # a method value, not a MoebiusMethod


def test_lattice_free_methods_to_30():
    for n in range(31):
        for m in (MM.PNK_RECURRENCE, MM.CHAIN_ALTERNATING_SUM, MM.COATOM_MEET):
            assert mb.mobius_bottom_top(n, m) == expected_m(n), (n, m)


def pnk_by_formula(n):
    """Oracle: the p(n, k) recurrence with one closed-form count per term."""
    values = [1]
    for m in range(1, n + 1):
        values.append(
            -sum(values[k] * lt.count_progressions_formula(m, k) for k in range(m))
        )
    return values


def test_pnk_engine_matches_formula_per_term():
    oracle = pnk_by_formula(200)
    for n in range(201):
        assert mb.mobius_bottom_top(n, MM.PNK_RECURRENCE) == oracle[n], n
    assert mb.mobius_bottom_top(2000, MM.PNK_RECURRENCE) == pnk_by_formula(2000)[2000]


def test_pnk_engine_matches_the_count_rows():
    assert mb._pnk_values(2000) == pnk_by_rows(2000)


def test_pnk_engine_matches_classical_mobius_to_the_largest_admitted_n():
    n = 15875  # the largest n that mobius --method pnk admits (test_cli)
    values = mb._pnk_values(n)
    assert len(values) == n + 1
    for m in range(2, n + 1):
        assert values[m] == nt.classical_mobius(m - 1), m


def test_pnk_engine_matches_the_quotient_blocks():
    # every value the budget admits, then every n <= 1000 on its own and the
    # n at the edges of the walk's doubling sieve: a_(j+1) is kept only while
    # 2j < n, so the parity of n matters
    top = 15875
    oracle = pnk_by_quotient_blocks(top)
    assert mb._pnk_values(top) == oracle
    edges = (e + d for e in (2**k for k in range(10, 14)) for d in (-1, 0, 1))
    for n in (*range(1001), *edges, top - 1):
        assert mb._pnk_values(n) == oracle[: n + 1], n


def test_pnk_cost_bounds_the_engine_terms(monkeypatch):
    # every term the divisor walk sums into Q(N) is one addition of a value
    # M(j+1) or M(N); the values count the additions they take part in
    terms = 0

    class Term(int):
        def __add__(self, other):
            nonlocal terms
            terms += 1
            return int(self) + other

        __radd__ = __add__

    run = mb._divisor_recurrence
    monkeypatch.setattr(
        mb,
        "_divisor_recurrence",
        lambda n, first, step: run(n, Term(first), lambda *a: Term(step(*a))),
    )
    # Q(N) takes tau(N) terms, M(N) and the M(j+1) of the divisors j < N,
    # and M(n) reads Q(1), .., Q(n-1)
    summed = [0, 0, *accumulate(map(nt.tau, range(1, 2000)))]
    for n in (*range(130), 2000):
        terms = 0
        mb._pnk_values(n)
        assert terms == summed[n], n
    for n in range(2001):
        assert summed[n] <= cost.engine(n, "pnk"), n


def test_spot_values():
    assert mb.mobius_bottom_top(5, MM.PNK_RECURRENCE) == 0
    assert mb.mobius_bottom_top(7, MM.COATOM_MEET) == 1


def test_interval_examples(lat):
    l7 = lat(7)
    x = l7.id_of[from_set({2, 3, 4, 5, 6})]
    assert mb.mobius_interval(l7, x, x) == 1
    assert mb.mobius_interval(l7, x, l7.top_id) == 1
    assert mb.mobius_interval(l7, x, l7.top_id, MM.COATOM_MEET) == 1
    l4 = lat(4)
    assert mb.mobius_interval(l4, 0, l4.top_id) == -1
    with pytest.raises(ValueError):
        mb.mobius_interval(l4, l4.top_id, 0)
    with pytest.raises(ValueError):
        mb.mobius_interval(l4, 0, l4.top_id, MM.PNK_RECURRENCE)


@pytest.mark.parametrize("method", [MM.DEFINITION, MM.COATOM_MEET])
@pytest.mark.parametrize(
    "case", ["negative hi", "wrapping lo", "bool lo", "hi past the end"]
)
def test_interval_rejects_bad_ids(lat, method, case):
    # ids do not wrap through Python indexing, where the two engines
    # disagreed: [0, -1] read 0 by DEFINITION and 1 = mu(6) by COATOM_MEET
    l7 = lat(7)
    lo, hi = {
        "negative hi": (0, -1),
        "wrapping lo": (-len(l7), l7.top_id),
        "bool lo": (True, l7.top_id),
        "hi past the end": (0, len(l7)),
    }[case]
    with pytest.raises(ValueError, match="(lo|hi) must be"):
        mb.mobius_interval(l7, lo, hi, method)


def test_defining_recursion_sums_to_zero(lat):
    # sum of mu(lo, z) over an interval vanishes whenever lo < hi
    for n in range(9):
        ln = lat(n)
        for hi in range(len(ln)):
            for lo in ln.ideal(hi):
                if lo == hi:
                    continue
                total = sum(
                    mb.mobius_interval(ln, lo, z) for z in ln.interval(lo, hi)
                )
                assert total == 0, (n, lo, hi)


def test_coatom_criterion_equals_definition_on_l1_to_l12(lat):
    singleton_tops = 0
    for n in range(1, 13):
        ln = lat(n)
        for hi in range(len(ln)):
            singleton_tops += ln.size_of(hi) == 1
            for lo in ln.ideal(hi):
                assert mb.mobius_interval(ln, lo, hi) == mb.mobius_interval(
                    ln, lo, hi, MM.COATOM_MEET
                ), (n, lo, hi)
    assert singleton_tops == sum(range(1, 13))


def test_structural_representation_matches_subsets(lat):
    # the subset search over covered elements against the coatom table of
    # L(|hi|), relabeled through the ideal below hi, on every interval of
    # L(1..10)
    for n in range(1, 11):
        ln = lat(n)
        for hi in range(len(ln)):
            host = ln.elements[hi]
            if host.length < 1:
                continue
            for lo in ln.ideal(hi):
                if lo == hi:
                    continue
                found = meet_subset(ln, lo, ln.covers_down[hi])
                if host.length == 1:
                    # L(1) below a singleton: the only covered element is the bottom
                    expected = (ln.bottom_id,) if lo == ln.bottom_id else None
                else:
                    rep = coatom_meet_table(host.length).get(
                        project_progression(ln.elements[lo], host)
                    )
                    expected = None if rep is None else tuple(
                        sorted(ln.id_of[embed_progression(c, host)] for c in rep)
                    )
                assert found == expected, (n, lo, hi, found, expected)


def test_support_sizes_and_values(lat):
    for n, size in ((5, 8), (7, 16)):
        support = mobius_support(lat(n))
        assert len(support) == size == 2 ** (nt.omega(n - 1) + 2)
        assert all(v in (-1, 1) for _, v in support)


def test_support_matches_definition(lat):
    for n in range(4, 10):
        ln = lat(n)
        support = dict(mobius_support(ln))
        for x in range(len(ln)):
            mu = mb.mobius_interval(ln, x, ln.top_id)
            assert support.get(x, 0) == mu, (n, x)


def test_support_rejects_small_n(lat):
    with pytest.raises(ValueError):
        mobius_support(lat(3))


def test_euler_characteristic_agreement(lat):
    from aplattice import complexes as cx

    for n in range(2, 11):
        chi = cx.reduced_euler_characteristic(cx.order_complex(lat(n)))
        assert chi == mb.mobius_bottom_top(n, MM.CHAIN_ALTERNATING_SUM)
        if n <= 9:
            assert chi == mb.mobius_bottom_top(n, MM.DEFINITION)


def test_fast_methods_under_a_second():
    start = time.time()
    for n in range(31):
        for m in (MM.PNK_RECURRENCE, MM.CHAIN_ALTERNATING_SUM, MM.COATOM_MEET):
            mb.mobius_bottom_top(n, m)
    assert time.time() - start < 1.0
