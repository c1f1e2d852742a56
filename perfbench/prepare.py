"""Build one workload's operations and the expected verdicts for them.

    python3 perfbench/prepare.py --workload NAME --seed N

prints one JSON object {"ops": [...], "expect": [...], "info": {...}}.
`expect[i]` describes the correct outcome of `ops[i]`.  Expected values
come from aplattice.numtheory (mu, squarefreeness, omega), from the
closed forms and enumerations in oracle.py, and, for `torsion`, from ranks
and determinants mod q computed in torsion.py.  None of them asks an engine
that the benchmark times.

This runs in its own process so that the pass processes start with cold
caches and run.py stays small.  Only `torsion` depends on the seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy

import oracle
import torsion
from aplattice.numtheory import classical_mobius, is_squarefree, omega

HOMOLOGY_RANGE = (4, 7)
TORSION_VERTICES = 60
TORSION_COMPLEXES = 4
COMPLEMENTED_RANGE = (2, 14)
COMODERNISM_RANGE = (0, 12)
LEFT_MODULAR_RANGE = (4, 12)
MEET_REP_N = 30
LABELING_N = 7
MOBIUS_RUNS = (("pnk", 2000), ("chains", 200), ("coatom", 1000002), ("definition", 30))
TABLE_N_MAX = 30
EULER_RANGE = (2, 11)
F_VECTOR_N = 12


def _m(n: int) -> int:
    """M(n), the Moebius value of L(n) for n >= 2, by the theorem M(n) = mu(n-1)."""
    return classical_mobius(n - 1)


def _cli(argv, verdicts) -> tuple[dict, dict]:
    return {"kind": "cli", "argv": argv}, {"check": "cli_verdicts", "verdicts": verdicts}


def _homology_text(n: int) -> str:
    if is_squarefree(n - 1):
        return f"H~_{omega(n - 1)} = Z"
    return "all reduced homology groups trivial"


def homology(seed: int):
    lo, hi = HOMOLOGY_RANGE
    verdicts = {}
    for n in range(lo, hi + 1):
        text = _homology_text(n)
        verdicts[f"folkman n={n}"] = {"detail": f"order complex: {text}; cross-cut: {text}"}
    return [_cli(["check", "folkman", f"{lo}..{hi}", "--json"], verdicts)]


def torsion_workload(seed: int):
    pairs = []
    v = TORSION_VERTICES
    size = (v - 1) * (v - 2) // 2
    for i in range(TORSION_COMPLEXES):
        triangles, det = torsion.generate(v, seed * 1000 + i)
        inv = torsion.invariants(triangles, v)
        inv[torsion.GENERATOR_PRIME] = (size, det)  # full rank by construction
        pairs.append(
            (
                {"kind": "homology", "v": v, "triangles": triangles},
                {
                    "check": "torsion",
                    "size": size,
                    "invariants": [[q, r, d] for q, (r, d) in inv.items()],
                },
            )
        )
    return pairs


def structure(seed: int):
    pairs = []
    lo, hi = COMPLEMENTED_RANGE
    verdicts = {}
    for n in range(lo, hi + 1):
        sq = is_squarefree(n - 1)
        entry = {"detail": f"complemented={sq}, squarefree(n-1)={sq}"}
        if not sq:
            entry = {
                "prefix": entry["detail"] + ", semicomplement witness ",
                "witnesses": [list(w) for w in oracle.semicomplement_witnesses(n)],
            }
        verdicts[f"complemented n={n}"] = entry
    pairs.append(_cli(["check", "complemented", f"{lo}..{hi}", "--json"], verdicts))

    lo, hi = COMODERNISM_RANGE
    verdicts = {
        f"comodernistic n={n}": {"detail": f"{len(oracle.strict_pairs(n))} intervals witnessed"}
        for n in range(lo, hi + 1)
    }
    argv = ["check", "comodernistic", f"{lo}..{hi}", "--force", "--json"]
    pairs.append(_cli(argv, verdicts))

    lo, hi = LEFT_MODULAR_RANGE
    for n in range(lo, hi + 1):
        strict = oracle.strict_pairs(n)
        expected = [[list(c), oracle.is_left_modular(strict, c)] for c in oracle.coatoms(n)]
        pairs.append(({"kind": "left_modular", "n": n}, {"check": "equal", "value": expected}))

    meets = oracle.coatom_meets(MEET_REP_N)
    expected = sorted([list(x), [list(c) for c in rep]] for x, rep in meets.items())
    pairs.append(({"kind": "meet_rep", "n": MEET_REP_N}, {"check": "equal", "value": expected}))

    # A constant labeling has one rising chain exactly on the cover intervals.
    n = LABELING_N
    failures = len(oracle.strict_pairs(n)) - oracle.cover_count(n)
    expected = {"er": [False, None, failures, 0], "el": [False, False, failures, 0]}
    pairs.append(({"kind": "labeling", "n": n}, {"check": "equal", "value": expected}))
    return pairs


def counting(seed: int):
    pairs = []
    for method, n in MOBIUS_RUNS:
        argv = ["mobius", str(n), "--method", method, "--json"]
        if n > 30:  # above the package's default construction bound
            argv.append("--force")
        name = f"M({n}) matches the classical mu({n - 1})"
        pairs.append(_cli(argv, {name: {"detail": f"value {_m(n)}, expected {_m(n)}"}}))

    chains = oracle.chain_rows(TABLE_N_MAX)
    tables = {
        "p": [
            [oracle.progression_count(n, k) for k in range(n + 1)]
            for n in range(1, TABLE_N_MAX + 1)
        ],
        "b": chains[1:],
        "size": [
            [n, sum(oracle.progression_count(n, k) for k in range(n + 1))]
            for n in range(TABLE_N_MAX + 1)
        ],
    }
    for kind, rows in tables.items():
        text = "\n".join("\t".join(map(str, r)) for r in rows) + "\n"
        op = {"kind": "cli", "argv": ["table", kind, "--n-max", str(TABLE_N_MAX)]}
        pairs.append((op, {"check": "stdout", "value": text}))

    lo, hi = EULER_RANGE
    verdicts = {}
    for n in range(lo, hi + 1):
        m = _m(n)
        detail = f"face-count chi~ {m}, alternating chain sum {m}, M(n) {m}"
        verdicts[f"euler n={n}"] = {"detail": detail}
    pairs.append(_cli(["check", "euler", f"{lo}..{hi}", "--json"], verdicts))

    # d-faces of the order complex are the chains of length d + 2
    n = F_VECTOR_N
    faces = oracle.chain_rows(n)[n][1:]
    pairs.append(({"kind": "f_vector", "n": n}, {"check": "equal", "value": faces}))
    return pairs


WORKLOADS = {
    "homology": homology,
    "torsion": torsion_workload,
    "structure": structure,
    "counting": counting,
}


def prepare(workload: str, seed: int) -> dict:
    pairs = WORKLOADS[workload](seed)
    return {
        "ops": [op for op, _ in pairs],
        "expect": [e for _, e in pairs],
        "info": {"numpy": numpy.__version__},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(prepare(args.workload, args.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
