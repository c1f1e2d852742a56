"""The work budget: estimators against the quantities they stand for, refusals
that start no work, the --force warning, and the one size check."""

import pytest

from aplattice import (
    MoebiusMethod,
    boundary_matrix,
    chain_counts,
    cli,
    coatoms,
    complexes,
    cost,
    count_progressions_formula,
    count_rows,
    homology,
    is_left_modular,
    lattice,
    mobius_bottom_top,
    moebius,
    order_complex,
    size_formula,
    structure,
)
from aplattice.numtheory import tau
from helpers import (
    count_progressions_enumerated,
    definition_price_by_elements,
    faces_by_rows,
    gf_coefficients,
    nonzeros_by_rows,
)


def check_units(name, lo, hi):
    _, least, units = cli._CHECKS[name]
    return units(range(max(lo, least), hi + 1))


def _never(*args, **kwargs):
    raise AssertionError("work started on a refused request")


# ---------------------------------------------------------------------------
# estimators against built objects


def test_elements_match_built_lattices(lat):
    for n in range(41):
        assert cost.elements(n) == len(lat(n)), n


def test_faces_and_nonzeros_match_the_order_complex(lat):
    for n in range(2, 11):
        c = order_complex(lat(n))
        assert cost.faces(n) == sum(c.f_vector()), n
        if n <= 9:
            nonzeros = sum(
                len(col)
                for d in range(c.dim + 1)
                for col in boundary_matrix(c, d)
            )
            assert cost.nonzeros(n) == nonzeros, n


@pytest.mark.parametrize("n", [*range(41), 100, 289, 10**5])
def test_chain_estimates_match_the_per_m_oracles(n):
    assert cost.faces(n) == faces_by_rows(n)
    assert cost.nonzeros(n) == nonzeros_by_rows(n)
    assert cost.engine(n, "definition") == definition_price_by_elements(n)


def test_nonzeros_reads_rows_inside_the_budget():
    # the rows up to the first m past the budget (m = 14) are priced far
    # inside it, so no estimate is refused outside cost.unbounded()
    assert not cost._unbounded.get()
    assert cost.nonzeros(11) == 1_918_041
    for n in (12, 13, 14, 300):
        assert cost.nonzeros(n) == 7_203_431, n


def test_nonzeros_runs_the_chain_recurrence_at_most_three_times(monkeypatch):
    # one t = 1 pass for the faces, then the two passes of one chain_counts
    calls = []
    run = complexes._chain_values
    monkeypatch.setattr(
        complexes, "_chain_values", lambda *args: calls.append(args) or run(*args)
    )
    for n in (0, 1, 2, 13, 14, 289, 10**5):
        calls.clear()
        cost.nonzeros(n)
        assert 1 <= len(calls) <= 3, (n, calls)


def test_pairs_and_triples_match_interval_scans(lat):
    for n in range(9):
        ln = lat(n)
        ideals = [ln.ideal(hi) for hi in range(len(ln))]
        assert lattice.interval_counts(n)[-1] + len(ln) == sum(map(len, ideals)), n
        triples = sum(
            len(ln.interval(lo, hi)) for hi, lows in enumerate(ideals) for lo in lows
        )
        assert cost.triples(n) == triples, n


def _counted(work, items):
    for item in items:
        work[0] += 1
        yield item


def test_complement_and_coatom_prices_bound_the_counted_work(monkeypatch):
    # the triples each scan generates, plus the candidates the complement
    # scan tests (and the tau(n-1) divisors its witness is checked on) or
    # the members the coatom scan reads, for every n <= 60 and at the edge
    work = [0]
    fields, complements, interval = (
        lattice._canonical_fields,
        structure._complements,
        lattice._interval_fields,
    )
    for where in (structure, cli):
        monkeypatch.setattr(where, "_canonical_fields", lambda n: _counted(work, fields(n)))
    monkeypatch.setattr(
        structure, "_complements", lambda x, top, ys: complements(x, top, _counted(work, ys))
    )
    monkeypatch.setattr(cli, "_interval_fields", lambda lo, hi: _counted(work, interval(lo, hi)))
    for n in [*range(1, 61), 113]:
        size, work[0] = size_formula(n), 0
        assert cli._coatoms(n)[0]
        # the top reads itself alone, any other x at least x and the top
        assert 3 * size - 1 <= work[0] <= check_units("coatoms", n, n), n
        if n >= 2:
            work[0] = tau(n - 1)
            assert cli._complemented(n)[0]
            assert size < work[0] <= check_units("complemented", n, n), n


def test_chain_steps_match_listed_chains(lat):
    for n in range(9):
        ln = lat(n)
        steps = sum(
            len(chain) - 1
            for hi in range(len(ln))
            for lo in ln.ideal(hi)
            for chain in ln.maximal_chains(lo, hi)
        )
        assert cost.chain_steps(n) == steps, n


def test_estimates_past_the_budget_are_lower_bounds():
    # L(13) is the last order complex in budget; larger n stop at L(14)
    assert cost.faces(13) <= cost.BUDGET < cost.faces(14) == cost.faces(10**9)
    assert cost.faces(10**9) == sum(chain_counts(14)[14][1:])
    assert cost.triples(30) == cost.triples(10**9) > cost.BUDGET
    assert cost.comodernism(10**9) == cost.elements(10**9) - 1
    n = 10**9
    assert cost.elements(n) == n * (n + 1) // 2 + 1


# ---------------------------------------------------------------------------
# what is admitted and what is refused


@pytest.mark.parametrize(
    "name, lo, hi",
    [
        ("folkman", 4, 11),
        ("euler", 2, 11),
        ("comodernistic", 0, 12),
        ("complemented", 2, 14),
        ("coatoms", 1, 12),
        ("theorem1", 0, 30),
    ],
)
def test_checks_admitted(name, lo, hi):
    assert check_units(name, lo, hi) <= cost.BUDGET


def test_library_requests_admitted():
    assert cost.faces(12) + cost.ELEMENT * cost.elements(12) <= cost.BUDGET
    assert cost.chain_steps(7) + cost.triples(7) <= cost.BUDGET
    assert cost.engine(30, "definition") <= cost.BUDGET
    assert cost.engine(2000, "pnk") + cost.engine(200, "chains") <= cost.BUDGET
    with pytest.raises(ValueError):
        cost.engine(5, "nosuch")


@pytest.mark.parametrize(
    "argv, heavy",
    [
        ("check folkman 4..12", (complexes, "order_complex")),
        ("check folkman 4..20", (complexes, "order_complex")),
        ("check euler 2..20", (complexes, "order_complex")),
        ("check euler 2..100000", (complexes, "order_complex")),
        ("mobius 800 --method chains", (moebius, "_bottom_top_chains")),
        ("mobius 20000 --method pnk", (moebius, "_pnk_values")),
        ("mobius 1000 --method definition", (moebius, "_definition_values")),
    ],
)
def test_cli_refuses_before_any_work(capsys, monkeypatch, argv, heavy):
    monkeypatch.setattr(*heavy, _never)
    monkeypatch.setattr(cli, "build", _never)
    assert cli.main(argv.split()) == 2
    err = capsys.readouterr().err
    assert argv in err and "work units" in err and f"budget is {cost.BUDGET:,}" in err


def test_library_refuses_before_any_work(monkeypatch):
    l14 = lattice.build(14)
    c4 = order_complex(lattice.build(4))  # 96 boundary non-zeros
    monkeypatch.setattr(lattice.Lattice, "filter", _never)
    with pytest.raises(cost.BudgetError, match="order complex of L\\(14\\)"):
        order_complex(l14)
    monkeypatch.setattr(lattice, "_canonical_fields", _never)
    with pytest.raises(cost.BudgetError, match="building L\\(5000\\)"):
        lattice.build(5000)
    monkeypatch.setattr(complexes, "_chain_values", _never)
    with pytest.raises(cost.BudgetError, match="chain counts of L\\(289\\)"):
        chain_counts(289)
    monkeypatch.setattr(moebius, "_pnk_values", _never)
    with pytest.raises(cost.BudgetError, match="M\\(20000\\) by the pnk engine"):
        mobius_bottom_top(20000, MoebiusMethod.PNK_RECURRENCE)
    monkeypatch.setattr(cost, "BUDGET", 95)
    monkeypatch.setattr(homology, "boundary_matrix", _never)
    with pytest.raises(cost.BudgetError, match="96"):
        homology.reduced_homology(c4)


def test_left_modularity_is_priced_per_pair(monkeypatch):
    # one unit per pair of members: the whole L(40) fits, the whole L(41) not
    l40, l41 = lattice.build(40), lattice.build(41)
    m40, m41 = coatoms(l40)[0], coatoms(l41)[0]
    assert len(l40) * (len(l40) - 1) // 2 == 3_708_726 <= cost.BUDGET
    monkeypatch.setattr(structure, "_cover_failures", _never)
    with pytest.raises(cost.BudgetError, match="4,154,403"):
        is_left_modular(l41, m41)
    with pytest.raises(AssertionError, match="work started"):  # admitted
        is_left_modular(l40, m40)


def test_range_estimate_stops_once_past_the_budget(capsys, monkeypatch):
    # each n of the Euler estimate prices its faces once
    faces, seen = cost.faces, []
    monkeypatch.setattr(cost, "faces", lambda n: seen.append(n) or faces(n))
    assert cli.main(["check", "euler", "2..100000"]) == 2
    assert seen == list(range(2, 14))  # 2..12 fit, 13 passes the budget


def test_unbounded_admits_and_resets():
    with pytest.raises(cost.BudgetError):
        cost.require("x", cost.BUDGET + 1)
    assert cost.require("x", cost.BUDGET) is False
    with cost.unbounded():
        assert cost.require("x", cost.BUDGET + 1) is True
        with cost.unbounded(False):
            with pytest.raises(cost.BudgetError):
                cost.require("x", cost.BUDGET + 1)
    with pytest.raises(cost.BudgetError):
        cost.require("x", cost.BUDGET + 1)


def test_force_warns_once_and_only_over_budget(capsys, monkeypatch):
    # check euler 2..5: builds, faces and both engines of each n
    units = check_units("euler", 2, 5)
    monkeypatch.setattr(cost, "BUDGET", units - 1)
    assert cli.main(["check", "euler", "2..5"]) == 2
    capsys.readouterr()
    assert cli.main(["check", "euler", "2..5", "--force"]) == 0
    out = capsys.readouterr()
    assert out.out.count("PASS") == 4
    assert out.err.count("warning") == 1 and f"{units:,}" in out.err
    monkeypatch.setattr(cost, "BUDGET", units)
    assert cli.main(["check", "euler", "2..5", "--force"]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# one size check for every entry point


SIZED = [
    size_formula,
    lattice.sizes,
    lambda n: count_progressions_formula(n, 2),
    lattice._coatom_fields,  # cached by type, so True still fails
    lambda n: gf_coefficients(n, 2),
    lambda n: gf_coefficients(2, n),
    chain_counts,
    count_rows,
    lattice.build,
    lambda n: mobius_bottom_top(n, MoebiusMethod.COATOM_MEET),
    lambda n: mobius_bottom_top(n, MoebiusMethod.PNK_RECURRENCE),
    cost.elements,
    cost.faces,
    cost.nonzeros,
    lattice.interval_counts,
    cost.triples,
    cost.chain_steps,
    cost.row_terms,
    lambda n: cost.engine(n, "definition"),
    lambda k: count_progressions_enumerated(lattice.build(4), k),
    cost.comodernism,
]


@pytest.mark.parametrize("entry", SIZED)
@pytest.mark.parametrize("bad", [True, False, 4.0, -1, "3"])
def test_sizes_are_plain_nonnegative_ints(entry, bad):
    with pytest.raises(ValueError):
        entry(bad)
