import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from aplattice import cli, cost, moebius, structure
from aplattice import lattice as lt

from helpers import coatoms_of_n, comodernistic_of_n, complemented_of_n, last_coatom


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_units(name, lo, hi):
    """The estimate `check NAME lo..hi` is admitted on."""
    _, least, units = cli._CHECKS[name]
    return units(range(max(lo, least), hi + 1))


def _never(*args, **kwargs):
    raise AssertionError("work started on a refused request")


def test_import_loads_neither_dataclasses_nor_inspect():
    # with bytecode cached they took about half of `import aplattice` (6.5-7.2
    # of 13-14 ms on a 2-vCPU x86-64 VM), which every command pays; a fresh
    # interpreter sees what the import loads
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, aplattice, aplattice.cli; "
        "print(*sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == []


def test_run_report_fields_and_a_fresh_verdict_list():
    first = cli.RunReport("check", {"name": "euler"})
    second = cli.RunReport(parameters={}, command="mobius")
    assert list(vars(first)) == ["command", "parameters", "verdicts"]
    assert (second.command, second.parameters, second.verdicts) == ("mobius", {}, [])
    first.record("euler n=2", 1)
    assert first.verdicts == [("euler n=2", True, "")] and second.verdicts == []
    assert first.passed and second.passed


def test_table_p_golden_row(capsys):
    code, out, _ = run(capsys, "table", "p", "--n-max", "11")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[10] == "\t".join("1 11 55 25 15 10 7 5 4 3 2 1".split())
    assert rows[0] == "1\t1"


def test_table_b_golden_row(capsys):
    code, out, _ = run(capsys, "table", "b", "--n-max", "10")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[9] == "\t".join(
        "1 109 1232 5860 15368 24524 24516 15040 5184 768".split()
    )


def test_table_size(capsys):
    code, out, _ = run(capsys, "table", "size", "--n-max", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["0", "1"]
    assert rows[4] == ["4", "14"]


def test_table_size_column_matches_size_formula(capsys):
    code, out, _ = run(capsys, "table", "size", "--n-max", "400")
    assert code == 0
    assert out == "".join(f"{n}\t{lt.size_formula(n)}\n" for n in range(401))


@pytest.mark.parametrize("kind", ["p", "b", "size"])
def test_table_out_file_matches_stdout(capsys, tmp_path, kind):
    code, out, _ = run(capsys, "table", kind, "--n-max", "40")
    path = tmp_path / "table.tsv"
    assert run(capsys, "table", kind, "--n-max", "40", "--out", str(path))[0] == code == 0
    assert path.read_bytes() == out.encode()


def test_table_bound_is_exit_2(capsys, monkeypatch):
    # table p reads n_max**2 / 2 count-row terms: 2828 is the last in budget
    assert cost.row_terms(2828) <= cost.BUDGET < cost.row_terms(2829)
    monkeypatch.setattr(cli, "count_rows", _never)
    code, _, err = run(capsys, "table", "p", "--n-max", "2829")
    assert code == 2 and "budget" in err


def test_mobius_pnk_bound_is_exit_2(capsys, monkeypatch):
    # pnk sums at most 2 n isqrt(n) terms: 15875 is the last in budget
    assert cost.engine(15875, "pnk") <= cost.BUDGET < cost.engine(15876, "pnk")
    code, out, _ = run(capsys, "mobius", "15875", "--method", "pnk")
    assert code == 0 and "PASS" in out
    monkeypatch.setattr(moebius, "_pnk_values", _never)
    code, _, err = run(capsys, "mobius", "15876", "--method", "pnk")
    assert code == 2 and "budget" in err


def test_mobius_coatom_example(capsys):
    code, out, _ = run(capsys, "mobius", "13", "--method", "coatom")
    assert code == 0
    assert "value 0, expected 0" in out


def test_mobius_json(capsys):
    code, out, _ = run(capsys, "mobius", "7", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "mobius"
    assert blob["parameters"] == {"method": "all", "n": 7}
    assert all(v["passed"] for v in blob["verdicts"])


@pytest.mark.parametrize("n, value", [(0, 1), (1, -1)])
def test_mobius_below_two(capsys, n, value):
    code, out, _ = run(capsys, "mobius", str(n), "--json")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert all(v["passed"] for v in verdicts)
    assert verdicts[-1]["detail"] == f"value {value}, expected {value}"


def test_mobius_requires_n(capsys):
    code, _, err = run(capsys, "mobius")
    assert code == 2


def test_check_theorem1(capsys):
    code, out, _ = run(capsys, "check", "theorem1", "2..20")
    assert code == 0
    assert out.count("PASS") == 19


def test_check_coatoms(capsys):
    code, out, _ = run(capsys, "check", "coatoms", "1..12")
    assert code == 0
    assert out.count("PASS") == 12


@pytest.mark.parametrize("name, n", [("euler", 5), ("coatoms", 7)])
def test_check_single_n_is_the_range_n_to_n(capsys, name, n):
    code, out, _ = run(capsys, "check", name, str(n))
    assert code == 0 and out.count("PASS") >= 1
    assert run(capsys, "check", name, f"{n}..{n}")[:2] == (code, out)


def test_check_complemented(capsys):
    code, out, _ = run(capsys, "check", "complemented", "2..10")
    assert code == 0
    assert "semicomplement witness" in out


def test_check_complemented_and_coatoms_build_nothing(capsys, monkeypatch, lat):
    # both scans run on triples: no build, no Lattice, and verdict for
    # verdict the same bytes as the per-n oracles, which decide on the ids of
    # the built lattices (complements by a join and a meet of ids within the
    # endpoint classes, the witness by a join with every id, the coatoms by
    # the ids below the top with none between them and the top)
    complemented = _per_n(lat, "complemented", 2, 40, False, complemented_of_n)
    coatoms = _per_n(lat, "coatoms", 1, 40, False, coatoms_of_n)
    for where in (cli, lt):
        monkeypatch.setattr(where, "build", _never)
    monkeypatch.setattr(lt.Lattice, "__init__", _never)
    assert run(capsys, "check", "complemented", "2..40")[:2] == complemented
    assert run(capsys, "check", "coatoms", "1..40")[:2] == coatoms
    assert complemented[0] == coatoms[0] == 0
    witness = "complemented=False, squarefree(n-1)=False, semicomplement witness {10,19}"
    assert f"PASS complemented n=28: {witness}\n" in complemented[1]
    assert "PASS coatoms n=31: 5 coatoms, omega(n-1)+2 = 5\n" in coatoms[1]


@pytest.mark.parametrize(
    "name, lo, admitted, refused",
    [("complemented", 2, 3_982_956, "4,097,652"), ("coatoms", 1, 3_982_964, "4,097,660")],
)
def test_check_complemented_and_coatoms_bound(capsys, monkeypatch, name, lo, admitted, refused):
    # four units per element of each n: the triples generated, and the
    # candidates tested or the members read
    assert check_units(name, lo, 113) == admitted <= cost.BUDGET
    monkeypatch.setattr(structure, "_uncomplemented", _never)
    monkeypatch.setattr(cli, "_canonical_fields", _never)
    code, _, err = run(capsys, "check", name, f"{lo}..114")
    assert code == 2 and refused in err


def _per_n(lat, name, lo, hi, as_json, verdict):
    """The exit code and output of `check NAME lo..hi`, each n decided on its
    own by `verdict` of the built L(n), taken from the `lat` fixture."""
    report = cli.RunReport("check", {"name": name, "range": [lo, hi]})
    for n in range(lo, hi + 1):
        report.record(f"{name} n={n}", *verdict(lat(n)))
    return int(not report.passed), report.to_json() if as_json else report.to_text()


def test_check_comodernistic(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "comodernistic", "0..5")
    assert code == 0
    assert out.count("PASS") == 6
    # a representative whose witness fails the check is named
    monkeypatch.setattr(structure, "_cover_failures", lambda c, members: tuple(members))
    code, out, _ = run(capsys, "check", "comodernistic", "0..1")
    assert code == 1
    assert out.count("PASS") == 1
    assert "counterexample interval (0, 1)" in out


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_check_comodernistic_range_matches_the_per_n_oracle(capsys, lat, flags):
    # one walk of L(40) against 41 built lattices and walks, byte for byte
    expected = _per_n(lat, "comodernistic", 0, 40, "--json" in flags, comodernistic_of_n)
    assert run(capsys, "check", "comodernistic", "0..40", *flags)[:2] == expected
    assert expected[0] == 0


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_check_comodernistic_failure_matches_the_per_n_oracle(capsys, monkeypatch, lat, flags):
    # the walk first fails at m = 4: n = 0..3 pass, and n = 4..8 each name
    # [{}, {1,2,3,4}] by the ids of their own lattice
    monkeypatch.setattr(structure, "_first_coatom", last_coatom)
    broken = partial(comodernistic_of_n, pick=max)
    expected = _per_n(lat, "comodernistic", 0, 8, "--json" in flags, broken)
    assert run(capsys, "check", "comodernistic", "0..8", *flags)[:2] == expected
    verdicts = json.loads(_per_n(lat, "comodernistic", 0, 8, True, broken)[1])
    assert [v["passed"] for v in verdicts["verdicts"]] == [True] * 4 + [False] * 5
    assert verdicts["verdicts"][4]["detail"] == "counterexample interval (0, 13)"
    assert verdicts["verdicts"][8]["detail"] == "counterexample interval (0, 49)"


def test_check_comodernistic_builds_nothing(capsys, monkeypatch, lat):
    # the range is read off one walk of triples, held or failing: no build,
    # no Lattice, and the ids of every failing n in closed form
    holds = _per_n(lat, "comodernistic", 0, 40, False, comodernistic_of_n)
    fails = _per_n(lat, "comodernistic", 0, 8, False, partial(comodernistic_of_n, pick=max))
    for where in (cli, lt):
        monkeypatch.setattr(where, "build", _never)
    monkeypatch.setattr(lt.Lattice, "__init__", _never)
    assert run(capsys, "check", "comodernistic", "0..40")[:2] == holds
    monkeypatch.setattr(structure, "_first_coatom", last_coatom)
    assert run(capsys, "check", "comodernistic", "0..8")[:2] == fails
    assert fails[0] == 1
    assert "FAIL comodernistic n=4: counterexample interval (0, 13)\n" in fails[1]
    assert "FAIL comodernistic n=8: counterexample interval (0, 49)\n" in fails[1]


def test_check_comodernistic_bound(capsys, monkeypatch):
    # the members the premises of the range's last n walk, alone
    assert check_units("comodernistic", 0, 1091) == 3_998_120 <= cost.BUDGET
    assert check_units("comodernistic", 150, 1091) == 3_998_120
    monkeypatch.setattr(structure, "_comodernism_failure", _never)
    code, _, err = run(capsys, "check", "comodernistic", "0..1092")
    assert code == 2 and "4,005,924" in err


def test_check_euler_json(capsys):
    code, out, _ = run(capsys, "check", "euler", "2..6", "--json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["verdicts"]) == 5


def test_check_folkman_small(capsys):
    code, out, _ = run(capsys, "check", "folkman", "4..6")
    assert code == 0
    assert out.count("PASS") == 3


def test_check_bad_range(capsys):
    assert run(capsys, "check", "euler", "6..2")[0] == 2
    assert run(capsys, "check", "euler", "x..2")[0] == 2
    assert check_units("theorem1", 0, 49) <= cost.BUDGET
    assert run(capsys, "check", "theorem1", "0..50")[0] == 2


def test_check_empty_range(capsys):
    code, _, err = run(capsys, "check", "folkman", "2..3")
    assert code == 2 and "nothing to check" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "p", "--n-max", "0"),
        ("check", "nosuch"),  # refused by the argument parser
        ("export", "hasse-dot", "--n", "-1"),
        ("export", "complex-json", "--n", "1"),
        ("export", "homology-json", "--n", "0"),
        ("check", "theorem1"),  # a check needs its range
        ("check", "theorem1", "--n", "5"),  # n and the range are positional
        ("mobius", "--n", "5"),
        ("mobius", "-1"),  # refused by the library, as below
    ],
)
def test_usage_errors_exit_2_with_no_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("export", "complex-json", "--n", "1"), "the order complex needs n >= 2"),
        (("mobius", "-1"), "n must be an integer >= 0"),
    ],
)
def test_library_refusals_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_failed_verdict_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_expected_mobius", lambda n: 99)
    code, out, _ = run(capsys, "check", "theorem1", "2..4")
    assert code == 1
    assert "FAIL" in out


def test_export_hasse_dot_cube(capsys):
    code, out, _ = run(capsys, "export", "hasse-dot", "--n", "3")
    assert code == 0
    assert out.count(" -> ") == 12
    assert out.count("label=") == 8
    # deterministic bytes
    assert out == run(capsys, "export", "hasse-dot", "--n", "3")[1]


def test_export_lattice_json(capsys):
    code, out, _ = run(capsys, "export", "lattice-json", "--n", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["elements"] == [[], [1], [2], [1, 2]]


def test_export_complex_json_counts(capsys):
    code, out, _ = run(capsys, "export", "complex-json", "--n", "4")
    assert code == 0
    blob = json.loads(out)
    assert [len(blob["faces_by_dim"][str(d)]) for d in range(3)] == [12, 24, 12]


def test_export_homology_json(capsys):
    code, out, _ = run(capsys, "export", "homology-json", "--n", "7")
    assert code == 0
    blob = json.loads(out)
    assert blob["2"] == {"free_rank": 1, "torsion": []}
    assert all(
        blob[d] == {"free_rank": 0, "torsion": []} for d in blob if d != "2"
    )


def test_export_bounds(capsys, monkeypatch):
    # homology and complex exports are admitted up to n = 11, lattices to 200
    assert check_units("folkman", 11, 11) <= cost.BUDGET
    assert cost.ELEMENT * cost.elements(200) <= cost.BUDGET
    monkeypatch.setattr(cli, "build", _never)
    assert run(capsys, "export", "homology-json", "--n", "12")[0] == 2
    assert run(capsys, "export", "complex-json", "--n", "12")[0] == 2
    assert run(capsys, "export", "hasse-dot", "--n", "201")[0] == 2


def test_export_out_file(tmp_path, capsys):
    target = tmp_path / "l3.dot"
    code, out, _ = run(capsys, "export", "hasse-dot", "--n", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().count(" -> ") == 12


def test_out_file_failure_is_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "table", "p", "--out", str(tmp_path / "missing" / "x.tsv")
    )
    assert code == 2 and "cannot write" in err


def test_force_prints_warning(capsys, monkeypatch):
    # table size --n-max 31 sums 31**2 // 2 = 480 divisor counts
    monkeypatch.setattr(cost, "BUDGET", 479)
    assert run(capsys, "table", "size", "--n-max", "31")[0] == 2
    code, out, err = run(capsys, "table", "size", "--n-max", "31", "--force")
    assert code == 0
    assert err.count("\n") == 1
    assert "--force" in err and "budget" in err and "480" in err
    assert out.strip().splitlines()[-1].startswith("31\t")
    code, _, err = run(capsys, "table", "size", "--n-max", "30", "--force")
    assert code == 0 and err == ""


def test_mobius_force_warns_only_when_the_lattice_is_built(capsys, monkeypatch):
    # pnk on 40 costs 2 * 40 * 6 = 480 units.  The definition engine walks
    # triples and builds no lattice, but its price still counts the build of
    # L(31), 40 * 1524 units, so that no admission edge moves
    monkeypatch.setattr(cost, "BUDGET", 1000)
    code, out, err = run(capsys, "mobius", "40", "--method", "pnk", "--force")
    assert code == 0 and "PASS" in out
    assert err == ""
    code, _, err = run(capsys, "mobius", "31", "--method", "definition", "--force")
    assert code == 0
    assert "mobius 31 --method definition needs at least" in err


def test_readme_examples(capsys, monkeypatch, tmp_path):
    """Every command of README's command-line block runs within the budget."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```")[0]
    commands = [
        line.split("#", 1)[0].split()
        for line in block.splitlines()
        if line.startswith("aplattice ")
    ]
    assert len(commands) == 15
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_readme_library_example(capsys):
    """README's library block runs on the exported names, and each line it
    prints opens the comment beside its print: 49, 1 and H~_2 = Z."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```")[0]
    comments = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["49", "1", "H~_2 = Z"]
    assert len(comments) == len(printed)
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + " "), (line, comment)
