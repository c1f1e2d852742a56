import json
from pathlib import Path

import pytest

from aplattice import cli, complexes, cost, moebius, structure
from aplattice import lattice as lt


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_units(name, lo, hi):
    """The estimate `check NAME lo..hi` is admitted on, summed in full."""
    return sum(map(cli._CHECKS[name][2], range(lo, hi + 1)))


def _never(*args, **kwargs):
    raise AssertionError("work started on a refused request")


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
    monkeypatch.setattr(complexes, "progression_count_rows", _never)
    code, _, err = run(capsys, "table", "p", "--n-max", "2829")
    assert code == 2 and "budget" in err


def test_mobius_pnk_bound_is_exit_2(capsys, monkeypatch):
    # pnk sums at most 2 n isqrt(n) terms: 15875 is the last in budget
    assert cost.engine(15875, "pnk") <= cost.BUDGET < cost.engine(15876, "pnk")
    code, out, _ = run(capsys, "mobius", "15875", "--method", "pnk")
    assert code == 0 and "PASS" in out
    monkeypatch.setattr(moebius, "_bottom_top_pnk", _never)
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


def test_mobius_requires_n(capsys):
    code, _, err = run(capsys, "mobius")
    assert code == 2


def test_check_theorem1(capsys):
    code, out, _ = run(capsys, "check", "theorem1", "2..20")
    assert code == 0
    assert out.count("PASS") == 19


def test_check_theorem1_default_range(capsys):
    code, out, _ = run(capsys, "check", "theorem1")
    assert code == 0
    assert out.count("PASS") == 13  # 0..12


def test_check_range_flag_spelling(capsys):
    code, out, _ = run(capsys, "check", "theorem1", "--n", "5")
    assert code == 0
    assert "theorem1 n=5" in out


def test_check_coatoms(capsys):
    code, out, _ = run(capsys, "check", "coatoms", "1..12")
    assert code == 0
    assert out.count("PASS") == 12


def test_check_complemented(capsys):
    code, out, _ = run(capsys, "check", "complemented", "2..10")
    assert code == 0
    assert "semicomplement witness" in out


def test_check_comodernistic(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "comodernistic", "0..5")
    assert code == 0
    assert out.count("PASS") == 6
    # a representative with no witness fails the check and is named
    monkeypatch.setattr(structure, "_first_left_modular_coatom", lambda *args: None)
    code, out, _ = run(capsys, "check", "comodernistic", "0..1")
    assert code == 1
    assert out.count("PASS") == 1
    assert "counterexample interval (0, 1)" in out


def test_check_comodernistic_bound(capsys, monkeypatch):
    assert check_units("comodernistic", 0, 22) <= cost.BUDGET
    monkeypatch.setattr(structure, "is_comodernistic", _never)
    code, _, err = run(capsys, "check", "comodernistic", "0..23")
    assert code == 2 and "budget" in err


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
    ],
)
def test_usage_errors_exit_2_with_no_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


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
    # pnk on 40 costs 2 * 40 * 6 = 480 units; building L(31) alone costs 40 * 1524
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
