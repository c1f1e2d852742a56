from itertools import combinations

import pytest

from aplattice import complexes as cx
from aplattice import lattice as lt
from aplattice import moebius as mb
from aplattice import progression as pr
from aplattice import structure as st
from aplattice.moebius import MoebiusMethod as MM

from helpers import (
    chain_counts_by_rows,
    chain_values_by_quotient_blocks,
    crosscut_by_subsets,
)

# Published count tables, frozen for golden comparison.
TABLE_P = [
    [1, 1],
    [1, 2, 1],
    [1, 3, 3, 1],
    [1, 4, 6, 2, 1],
    [1, 5, 10, 4, 2, 1],
    [1, 6, 15, 6, 3, 2, 1],
    [1, 7, 21, 9, 5, 3, 2, 1],
    [1, 8, 28, 12, 7, 4, 3, 2, 1],
    [1, 9, 36, 16, 9, 6, 4, 3, 2, 1],
    [1, 10, 45, 20, 12, 8, 5, 4, 3, 2, 1],
    [1, 11, 55, 25, 15, 10, 7, 5, 4, 3, 2, 1],
]
TABLE_B = [
    [1],
    [1, 2],
    [1, 6, 6],
    [1, 12, 24, 12],
    [1, 21, 68, 72, 24],
    [1, 32, 144, 244, 180, 48],
    [1, 47, 283, 666, 764, 432, 96],
    [1, 64, 486, 1510, 2436, 2164, 1008, 192],
    [1, 85, 799, 3117, 6534, 8028, 5816, 2304, 384],
    [1, 109, 1232, 5860, 15368, 24524, 24516, 15040, 5184, 768],
    [1, 137, 1838, 10418, 33049, 65402, 84284, 70992, 37760, 11520, 1536],
]


def test_progression_rows_match_published_table():
    assert [list(row) for row in lt.count_rows(11)][1:] == TABLE_P


def test_chain_rows_match_published_table():
    assert [list(row) for row in cx.chain_counts(11)[1:]] == TABLE_B


def test_chain_count_examples():
    rows = cx.chain_counts(9)
    assert rows[4][2] == 24
    assert rows[7][3] == 666
    assert rows[9][0] == 1
    assert [len(row) for row in rows] == list(range(10))  # b(m, k) for k <= m


def enumerate_bottom_top_chains(lattice):
    """Independent oracle: DFS over all chains through bottom and top,
    counted by length."""
    counts = {}
    proper = [
        i
        for i in range(len(lattice.elements))
        if i not in (lattice.bottom_id, lattice.top_id)
    ]
    ups = {
        v: [w for w in proper if w > v and lattice.leq_ids(v, w)] for v in proper
    }
    stack = [(v,) for v in proper]
    counts[1] = 1  # the bare chain {bottom, top}
    while stack:
        chain = stack.pop()
        k = len(chain) + 1
        counts[k] = counts.get(k, 0) + 1
        for w in ups[chain[-1]]:
            stack.append(chain + (w,))
    return counts


def test_chain_recurrence_against_enumeration(lat):
    for n in range(1, 9):
        row = cx.chain_counts(n)[n]
        oracle = enumerate_bottom_top_chains(lat(n))
        for k in range(1, n + 1):
            assert row[k - 1] == oracle.get(k, 0), (n, k)


def chain_counts_by_formula(n):
    """Oracle: the chain recurrence with one closed-form count per term."""
    rows = [()]
    for m in range(1, n + 1):
        row = [1]
        for k in range(2, m + 1):
            row.append(
                sum(
                    lt.count_progressions_formula(m, i) * rows[i][k - 2]
                    for i in range(k - 1, m)
                )
            )
        rows.append(tuple(row))
    return tuple(rows)


def test_chain_counts_match_formula_per_term():
    assert cx.chain_counts(200) == chain_counts_by_formula(200)


@pytest.fixture(scope="module")
def rows_by_recurrence():
    # the whole range the budget admits for mobius --method chains and table b
    return chain_counts_by_rows(288)


def test_chain_counts_match_the_row_recurrence(rows_by_recurrence):
    oracle = rows_by_recurrence
    assert cx.chain_counts(288) == oracle
    for n in (*range(1, 40), *range(40, 289, 31), 288):
        assert cx.chain_counts(n, last=True) == oracle[n], n


def test_chain_values_match_the_quotient_blocks():
    # every n the budget admits, of both parities (the walk keeps B_(j+1)
    # only while 2j < n), at t = 1 and at the packed shift of chain_counts(288)
    ones = chain_values_by_quotient_blocks(288, 0)
    shift = 8 * cx._slot_bytes(ones[-1])
    packed = chain_values_by_quotient_blocks(288, shift)
    for n in range(289):
        assert list(cx._chain_values(n, 0)) == ones[: n + 1], n
        assert list(cx._chain_values(n, shift)) == packed[: n + 1], n


def test_narrow_slots_break_the_chain_rows(rows_by_recurrence, monkeypatch):
    # packing with slots narrower than the largest b(n, k) must be caught
    oracle = rows_by_recurrence
    for n in (12, 100, 288):
        narrow = (max(oracle[n]).bit_length() + 7) // 8 - 1
        monkeypatch.setattr(cx, "_slot_bytes", lambda bound: narrow)
        try:
            rows = cx.chain_counts(n)
        except OverflowError:  # the top slot carried past row n's bytes
            continue
        assert rows != oracle[: n + 1], n


def test_pnk_values_are_alternating_chain_sums():
    # the two callers of numtheory._divisor_recurrence check each other
    rows = cx.chain_counts(288)
    sums = [sum((-1) ** k * b for k, b in enumerate(row, 1)) for row in rows]
    assert mb._pnk_values(288)[1:] == sums[1:]


def test_stirling_variant_of_the_recurrence():
    # replacing the progression counts by binomials must produce k! * S(n, k)
    from math import comb, factorial

    def stirling2(n, k):
        if n == k == 0:
            return 1
        if n == 0 or k == 0:
            return 0
        return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    rows = {1: {1: 1}}
    for m in range(2, 9):
        rows[m] = {1: 1}
        for k in range(2, m + 1):
            rows[m][k] = sum(
                comb(m, i) * rows[i].get(k - 1, 0) for i in range(1, m)
            )
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert rows[n][k] == factorial(k) * stirling2(n, k), (n, k)


def test_order_complex_examples(lat):
    oc4 = cx.order_complex(lat(4))
    assert oc4.f_vector() == (12, 24, 12)
    oc2 = cx.order_complex(lat(2))
    assert oc2.f_vector() == (2,)
    assert oc2.faces(0) == ((0,), (1,))
    assert cx.order_complex(lat(5)).dim == 3
    with pytest.raises(ValueError):
        cx.order_complex(lat(1))


def test_order_complex_face_counts_follow_chain_table(lat):
    for n in range(2, 10):
        oc = cx.order_complex(lat(n))
        row = cx.chain_counts(n)[n]
        assert oc.dim == n - 2
        assert oc.f_vector() == tuple(row[d + 1] for d in range(n - 1))


def test_order_complex_translation(lat):
    l5 = lat(5)
    oc = cx.order_complex(l5)
    assert oc.translation == tuple(range(1, l5.top_id))
    # vertices are ordered consistently with lattice ids
    assert oc.vertex_count == len(l5) - 2


def downward_closed(complex):
    present = {(): True}
    for fs in complex.faces_by_dim:
        for f in fs:
            present[f] = True
    for fs in complex.faces_by_dim:
        for f in fs:
            for drop in range(len(f)):
                if f[:drop] + f[drop + 1 :] not in present:
                    return False
    return True


def test_downward_closure(lat):
    for n in range(2, 8):
        assert downward_closed(cx.order_complex(lat(n)))
    for n in range(4, 9):
        assert downward_closed(cx.crosscut_complex(lat(n)))


def test_faces_sorted_and_distinct(lat):
    for n in range(2, 11):
        oc = cx.order_complex(lat(n))
        for d, fs in enumerate(oc.faces_by_dim):
            assert list(fs) == sorted(set(fs)), n
            assert all(tuple(sorted(f)) == f for f in fs), n
            assert len(fs) == oc.f_vector()[d], (n, d)


def chains_by_pairwise_order(lattice):
    """Oracle: every chain of proper elements, found by testing leq_ids on
    all pairs, as a set of vertex tuples (vertex = lattice id - 1)."""
    proper = range(1, lattice.top_id)
    above = {
        v: [w for w in proper if w != v and lattice.leq_ids(v, w)] for v in proper
    }
    chains, frontier = set(), [(v,) for v in proper]
    while frontier:
        chain = frontier.pop()
        chains.add(tuple(v - 1 for v in chain))
        frontier.extend(chain + (w,) for w in above[chain[-1]])
    return chains


def test_faces_equal_chains_by_pairwise_order(lat):
    for n in range(2, 9):
        oc = cx.order_complex(lat(n))
        faces = {f for fs in oc.faces_by_dim for f in fs}
        assert faces == chains_by_pairwise_order(lat(n)), n
        assert len(faces) == sum(oc.f_vector())


def f_vector_by_pairwise_order(lattice):
    """Oracle: chains of proper elements counted by dimension and last
    vertex, over the comparable pairs found by testing leq_ids on all pairs;
    no chain is enumerated."""
    proper = range(1, lattice.top_id)
    below = {w: [v for v in proper if v != w and lattice.leq_ids(v, w)] for w in proper}
    ending = dict.fromkeys(proper, 1)  # d-faces ending at each vertex, d = 0
    counts = []
    while any(ending.values()):
        counts.append(sum(ending.values()))
        ending = {w: sum(ending[v] for v in below[w]) for w in proper}
    return tuple(counts)


def test_f_vector_against_pairwise_order(lat):
    # the whole admitted range of the benchmark and of check euler
    for n in range(2, 13):
        assert cx.order_complex(lat(n)).f_vector() == f_vector_by_pairwise_order(lat(n)), n


def test_counts_build_no_face(lat, monkeypatch):
    def no_decoding(ups):
        raise AssertionError("a face tuple was decoded")

    monkeypatch.setattr(cx, "_chains", no_decoding)
    oc = cx.order_complex(lat(9))
    assert oc.f_vector() == tuple(cx.chain_counts(9)[9][1:])
    assert oc.dim == 7
    assert cx.reduced_euler_characteristic(oc) == mb.mobius_bottom_top(9, MM.PNK_RECURRENCE)
    with pytest.raises(AssertionError, match="decoded"):
        oc.faces(0)


def test_chain_table_assertion_guards_the_walk(lat, monkeypatch):
    # dropping one comparable pair from the walk must trip the assertion
    L, interval = lat(6), lt._interval_fields

    def lossy(lo, hi):
        ups = sorted(interval(lo, hi), key=L.id_of.__getitem__)
        # ups[1] is below the top
        return ups[:1] + ups[2:] if lo == L._fields[1] else ups

    monkeypatch.setattr(lt, "_interval_fields", lossy)
    with pytest.raises(AssertionError, match="chain recurrence"):
        cx.order_complex(L)


def test_internal_walks_check_no_id(lat, monkeypatch):
    # the package reads the ids it listed itself unchecked: the recursion,
    # the order complex and the labeling sweeps validate none, and
    # mobius_interval validates its own two ids alone
    def run(n):
        L = lat(n)
        labeling = st.EdgeLabeling(
            L, {(lo, hi): hi % 3 for hi, down in enumerate(L.covers_down) for lo in down}
        )
        return (
            mb.mobius_bottom_top(n, MM.DEFINITION),
            cx.order_complex(L).faces_by_dim,
            st.verify_er_labeling(labeling),
            st.verify_el_labeling(labeling),
        )

    before = {n: run(n) for n in range(2, 10)}
    checked, valid_id = [], lt._valid_id

    def counted(lattice, i, name):
        checked.append(i)
        return valid_id(lattice, i, name)

    monkeypatch.setattr(lt, "_valid_id", counted)
    for n in range(2, 10):
        assert run(n) == before[n], n
    assert checked == []
    L = lat(8)
    for method in (MM.DEFINITION, MM.COATOM_MEET):
        for lo, hi in ((0, L.top_id), (1, L.top_id), (0, 9), (L.top_id, L.top_id)):
            checked.clear()
            mb.mobius_interval(L, lo, hi, method)
            assert checked == [lo, hi], (method, lo, hi)


def test_crosscut_shapes(lat):
    # boundary of the simplex when the coatoms span, the full simplex otherwise
    assert cx.crosscut_complex(lat(7)).f_vector() == (4, 6, 4)
    assert cx.crosscut_complex(lat(10)).f_vector() == (3, 3, 1)
    assert cx.crosscut_complex(lat(6)).f_vector() == (3, 3)
    with pytest.raises(ValueError):
        cx.crosscut_complex(lat(3))


def test_crosscut_matches_the_subset_folds(lat):
    # the faces read off the coatom-meet rule against meet and join folds
    # over every coatom subset
    for n in range(4, 41):
        ln = lat(n)
        cc = cx.crosscut_complex(ln)
        assert cc.faces_by_dim == crosscut_by_subsets(ln), n
        assert cc.translation == ln.covers_down[ln.top_id], n


def test_crosscut_spanning_logic_by_hand(lat):
    # brute force over coatom subsets of L(6): only the full set spans
    l6 = lat(6)
    cc = cx.crosscut_complex(l6)
    coatoms = [l6.elements[i] for i in cc.translation]
    assert len(coatoms) == 3
    full = l6.elements[l6.top_id]
    for size in range(1, 4):
        for combo in combinations(range(3), size):
            m = coatoms[combo[0]]
            j = coatoms[combo[0]]
            for i in combo[1:]:
                m = pr.meet(m, coatoms[i])
                j = pr.join_in_ambient(j, coatoms[i])
            spanning = m.is_empty and j == full
            assert spanning == (size == 3)


def test_euler_characteristic_examples(lat):
    assert cx.reduced_euler_characteristic(cx.order_complex(lat(4))) == -1
    assert cx.reduced_euler_characteristic(cx.order_complex(lat(5))) == 0
    point = cx.SimplicialComplex(1, (((0,),),))
    assert cx.reduced_euler_characteristic(point) == 0


def test_euler_equals_alternating_chain_sum(lat):
    for n in range(2, 11):
        chi = cx.reduced_euler_characteristic(cx.order_complex(lat(n)))
        row = cx.chain_counts(n)[n]
        alt = sum((-1) ** k * row[k - 1] for k in range(1, n + 1))
        assert chi == alt == mb.mobius_bottom_top(n, MM.CHAIN_ALTERNATING_SUM)


def test_complex_json_round_trip(lat):
    import json

    oc = cx.order_complex(lat(4))
    blob = json.loads(oc.to_json())
    assert len(blob["vertices"]) == 12
    assert [len(blob["faces_by_dim"][str(d)]) for d in range(3)] == [12, 24, 12]
    assert blob["translation"] == list(range(1, 13))


def test_tsv_rendering():
    assert list(cx.tsv_lines([[1, 2], (3,)])) == ["1\t2\n", "3\n"]
