"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from itertools import combinations

from aplattice import cli
from aplattice import complexes as cx
from aplattice import homology as hm
from aplattice import lattice as lt
from aplattice import moebius as mb
from aplattice import numtheory as nt
from aplattice import progression as pr
from aplattice import structure as st
from aplattice.moebius import MoebiusMethod as MM

from helpers import (
    count_progressions_enumerated,
    element_set,
    gf_coefficients,
    interval_coatoms,
    is_left_modular_coatom,
    mobius_support,
)

# The two published count tables, frozen.
GOLDEN_P = [
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
GOLDEN_B = [
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


def report(num, label, body, capsys=None):
    def emit(text):
        if capsys is None:
            print(text)
        else:
            with capsys.disabled():
                print(text)

    start = time.time()
    try:
        body()
    except BaseException:
        emit(f"criterion {num:>2} FAIL  {label}")
        raise
    emit(f"criterion {num:>2} PASS  {label}  [{time.time() - start:.1f}s]")


def expected_m(n):
    return 1 if n == 0 else (-1 if n == 1 else nt.classical_mobius(n - 1))


def tsv(rows):
    return "\n".join("\t".join(str(v) for v in row) for row in rows) + "\n"


def test_criterion_01_golden_tables(capsys):
    def body():
        start = time.time()
        assert cli.main(["table", "p", "--n-max", "11"]) == 0
        got_p = capsys.readouterr().out
        assert cli.main(["table", "b", "--n-max", "11"]) == 0
        got_b = capsys.readouterr().out
        assert got_p == tsv(GOLDEN_P)
        assert got_b == tsv(GOLDEN_B)
        assert time.time() - start < 1.0

    report(1, "golden tables p and b reproduce the published rows", body, capsys)


def test_criterion_02_four_moebius_engines():
    def body():
        t_def = time.time()
        for n in range(13):
            definition = mb.mobius_bottom_top(n, MM.DEFINITION)
            assert definition == expected_m(n), n
        assert time.time() - t_def < 60.0
        t_fast = time.time()
        for n in range(31):
            vals = {
                m: mb.mobius_bottom_top(n, m)
                for m in (MM.PNK_RECURRENCE, MM.CHAIN_ALTERNATING_SUM, MM.COATOM_MEET)
            }
            assert set(vals.values()) == {expected_m(n)}, (n, vals)
        assert time.time() - t_fast < 1.0
        for n in range(13):
            vals = {m: mb.mobius_bottom_top(n, m) for m in MM}
            assert set(vals.values()) == {expected_m(n)}, (n, vals)

    report(2, "four Moebius engines agree and match mu(n-1), n <= 12", body)


def test_criterion_03_counting_consistency(lat):
    def body():
        gf = gf_coefficients(12, 12)
        for n in range(13):
            ln = lat(n)
            for k in range(13):
                formula = lt.count_progressions_formula(n, k)
                assert formula == count_progressions_enumerated(ln, k), (n, k)
                assert formula == gf[n][k], (n, k)

    report(3, "formula = enumeration = generating function, n,k <= 12", body)


def test_criterion_04_size_identity(lat):
    def body():
        for n in range(13):
            expected = 1 + n + sum(
                nt.tau(r) for a in range(1, n) for r in range(1, a + 1)
            )
            assert len(lat(n)) == expected, n
        # the size polynomial of the first non-boolean case, evaluated at 1
        assert sum(GOLDEN_P[3]) == 14 == len(lat(4))

    report(4, "element counts match the divisor-sum identity, n <= 12", body)


def test_criterion_05_coatoms_and_unique_meets(lat):
    def body():
        for n in range(4, 13):
            ln = lat(n)
            built = st.coatoms(ln)
            brute = tuple(
                i
                for i in range(len(ln) - 1)
                if ln.leq_ids(i, ln.top_id) and len(ln.interval(i, ln.top_id)) == 2
            )
            assert built == brute, n
            assert len(built) == nt.omega(n - 1) + 2, n
        for n in range(4, 10):
            ln = lat(n)
            cs = st.coatoms(ln)
            meets = set()
            for size in range(1, len(cs) + 1):
                for combo in combinations(cs, size):
                    m = element_set(ln, combo[0])
                    for c in combo[1:]:
                        m = m & element_set(ln, c)
                    assert frozenset(m) not in meets, (n, combo)
                    meets.add(frozenset(m))

    report(5, "explicit coatoms match brute force; coatom-subset meets distinct", body)


def test_criterion_06_coatom_moebius_oracle(lat):
    def body():
        for n in range(1, 10):
            ln = lat(n)
            for x in range(len(ln)):
                if not ln.leq_ids(x, ln.top_id):
                    continue
                a = mb.mobius_interval(ln, x, ln.top_id, MM.DEFINITION)
                b = mb.mobius_interval(ln, x, ln.top_id, MM.COATOM_MEET)
                assert a == b, (n, x)
            if n >= 4:
                support = mobius_support(ln)
                assert len(support) == 2 ** (nt.omega(n - 1) + 2), n
                assert all(v in (-1, 1) for _, v in support), n

    report(6, "coatom criterion = definitional recursion; support = 2^(omega+2)", body)


def test_criterion_07_homology(lat):
    def body():
        start = time.time()
        expected = {
            4: {1: (1, ())},
            5: {},
            6: {1: (1, ())},
            7: {2: (1, ())},
            8: {1: (1, ())},
        }
        for n in range(4, 9):
            order = hm.reduced_homology(cx.order_complex(lat(n)))
            cross = hm.reduced_homology(cx.crosscut_complex(lat(n)))
            assert order.nonzero() == expected[n], (n, order)
            assert cross.nonzero() == expected[n], (n, cross)
            assert all(not t for t in order.torsion), n
            assert all(not t for t in cross.torsion), n
        assert time.time() - start < 300.0

    report(7, "order-complex homology 4 <= n <= 8, no torsion, Folkman agreement", body)


def test_criterion_08_euler_consistency(lat):
    def body():
        for n in range(2, 11):
            chi = cx.reduced_euler_characteristic(cx.order_complex(lat(n)))
            row = cx.chain_counts(n)[n]
            alternating = sum((-1) ** k * row[k - 1] for k in range(1, n + 1))
            assert chi == alternating == expected_m(n), n

    report(8, "face-count Euler = alternating chain sum = M(n), 2 <= n <= 10", body)


def test_criterion_09_comodernism(lat):
    def body():
        for n in range(9):
            ln = lat(n)
            result = st.is_comodernistic(ln)
            assert result.holds, n
            proper = sum(
                1 for hi in range(len(ln)) for lo in ln.ideal(hi) if lo != hi
            )
            assert len(result.witnesses) == proper, n
            for (lo, hi), m in result.witnesses.items():
                assert m in interval_coatoms(ln, lo, hi), (n, lo, hi)
        l6 = lat(6)
        for hi in range(len(l6)):
            for lo in l6.ideal(hi):
                if lo == hi:
                    continue
                for m in interval_coatoms(l6, lo, hi):
                    assert is_left_modular_coatom(
                        l6, lo, hi, m
                    ) == st.is_left_modular_in_interval(l6, lo, hi, m), (lo, hi, m)

    report(9, "comodernism holds with witnesses, n <= 8; cover criterion = definition on L(6)", body)


def test_criterion_10_complements(lat):
    def body():
        for n in range(2, 13):
            ln = lat(n)
            assert st.is_complemented(ln) == nt.is_squarefree(n - 1), n
            if not nt.is_squarefree(n - 1):
                witness = st.semicomplement_witness(ln)
                assert witness is not None, n
                wid = ln.id_of[witness]
                partners = [
                    y
                    for y in range(len(ln))
                    if ln.join_ids(wid, y) == ln.top_id
                ]
                assert partners == [ln.top_id], n

    report(10, "complemented iff n-1 squarefree; semicomplement witnesses verified", body)


def test_criterion_11_labeling_verifier(lat):
    def body():
        l3 = lat(3)
        labels = {}
        for hi in range(len(l3)):
            for lo in l3.covers_down[hi]:
                (added,) = set(l3.elements[hi].elements()) - set(
                    l3.elements[lo].elements()
                )
                labels[(lo, hi)] = added
        verdict = st.verify_el_labeling(st.EdgeLabeling(l3, labels))
        assert verdict.is_er and verdict.is_el

        l4 = lat(4)
        constant = st.EdgeLabeling(
            l4,
            {
                (lo, hi): 7
                for hi in range(len(l4))
                for lo in l4.covers_down[hi]
            },
        )
        assert not st.verify_er_labeling(constant).is_er

        rng = random.Random(424242)
        runs = {3: 80, 4: 80, 5: 30, 6: 20}
        assert sum(runs.values()) >= 200
        for n, count in runs.items():
            ln = lat(n)
            edges = [
                (lo, hi)
                for hi in range(len(ln))
                for lo in ln.covers_down[hi]
            ]
            for _ in range(count):
                labeling = st.EdgeLabeling(
                    ln, {e: rng.randrange(0, 5) for e in edges}
                )
                v = st.verify_el_labeling(labeling)
                if v.is_el:
                    assert v.is_er

    report(11, "EL certificate on L(3), constant rejected on L(4), EL => ER randomized", body)
