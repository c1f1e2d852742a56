"""Self-tests of the benchmark: oracles, seeding and tracing.

    python3 perfbench/selftest.py      (from the root of the checkout)

Checks that the verdict oracles accept right outputs and reject corrupted
ones, that the seed changes the `torsion` inputs and nothing else, and
that traced and untraced passes give identical outputs.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402
import torsion  # noqa: E402
import verdicts  # noqa: E402
from aplattice import SimplicialComplex, reduced_homology  # noqa: E402

# the 6-vertex real projective plane: full 1-skeleton, H~_1 = Z/2
RP2 = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]


@contextlib.contextmanager
def small_sizes():
    """Shrink the slow inputs of prepare.py for the duration of a test."""
    saved = prepare.HOMOLOGY_RANGE, prepare.TORSION_VERTICES, prepare.TORSION_COMPLEXES
    prepare.HOMOLOGY_RANGE, prepare.TORSION_VERTICES, prepare.TORSION_COMPLEXES = (4, 6), 24, 2
    try:
        yield
    finally:
        prepare.HOMOLOGY_RANGE, prepare.TORSION_VERTICES, prepare.TORSION_COMPLEXES = saved


def _report(verdicts_by_name: dict) -> dict:
    """A cli output whose JSON report states the given verdict details."""
    stdout = json.dumps(
        {
            "verdicts": [
                {"name": name, "passed": True, "detail": want["detail"]}
                for name, want in verdicts_by_name.items()
            ]
        }
    )
    return {"value": {"rc": 0, "stdout": stdout, "stderr": ""}}


def _torsion_case(v: int, triangles):
    faces = (
        tuple((a,) for a in range(v)),
        tuple((a, b) for a in range(v) for b in range(a + 1, v)),
        tuple(sorted(triangles)),
    )
    h = reduced_homology(SimplicialComplex(v, faces))
    output = {
        "value": {
            "free_ranks": list(h.free_ranks),
            "torsion": [list(t) for t in h.torsion],
            "rank_minus1": h.rank_minus1,
        }
    }
    expect = {
        "check": "torsion",
        "size": (v - 1) * (v - 2) // 2,
        "invariants": [[q, r, d] for q, (r, d) in torsion.invariants(triangles, v).items()],
    }
    return expect, output


def _bump_first_digit(value):
    text = json.dumps(value)
    return json.loads(re.sub(r"\d", lambda m: str((int(m[0]) + 1) % 10), text, count=1))


class Oracles(unittest.TestCase):
    def test_cli_verdicts_accept_and_reject(self):
        ((_, expect),) = prepare.homology(0)
        good = _report(expect["verdicts"])
        self.assertEqual(verdicts.judge(expect, good), [True] * 4)

        wrong = copy.deepcopy(expect["verdicts"])
        wrong["folkman n=7"]["detail"] = wrong["folkman n=7"]["detail"].replace(
            "H~_2 = Z", "H~_2 = Z^2", 1
        )
        self.assertEqual(verdicts.judge(expect, _report(wrong)).count(False), 1)

        refused = copy.deepcopy(good)
        refused["value"]["rc"] = 2
        self.assertEqual(verdicts.judge(expect, refused), [False] * 4)
        self.assertEqual(verdicts.judge(expect, {"error": "boom"}), [False] * 4)
        garbled = {"value": {"rc": 0, "stdout": "not json", "stderr": ""}}
        self.assertEqual(verdicts.judge(expect, garbled), [False] * 4)
        self.assertEqual(verdicts.score([expect], [refused]), (4, 4))

    def test_semicomplement_witness(self):
        want = prepare.structure(0)[0][1]["verdicts"]["complemented n=5"]
        self.assertEqual(want["witnesses"], [[3]])  # n - 1 = 4: the singleton {3}
        good = "complemented=False, squarefree(n-1)=False, semicomplement witness {3}"
        self.assertTrue(verdicts._detail_ok(want, good))
        self.assertFalse(verdicts._detail_ok(want, good.replace("{3}", "{2}")))
        self.assertFalse(verdicts._detail_ok(want, good.replace("{3}", "None")))

    def test_equal_and_stdout_checks_reject_corruption(self):
        for op, expect in prepare.structure(0)[2:] + prepare.counting(0)[4:]:
            if expect["check"] == "equal":
                good = {"value": expect["value"]}
                bad = {"value": _bump_first_digit(expect["value"])}
            elif expect["check"] == "stdout":
                good = {"value": {"rc": 0, "stdout": expect["value"]}}
                bad = {"value": {"rc": 0, "stdout": _bump_first_digit(expect["value"])}}
            else:
                continue
            self.assertEqual(verdicts.judge(expect, good), [True], op)
            self.assertEqual(verdicts.judge(expect, bad), [False], op)

    def test_reference_values(self):
        self.assertEqual(oracle.chain_rows(5)[5], [1, 21, 68, 72, 24])
        self.assertEqual(len(oracle.progressions(8)), 66)
        self.assertEqual(
            oracle.coatoms(7),
            [(1, 2, 3, 4, 5, 6), (1, 3, 5, 7), (1, 4, 7), (2, 3, 4, 5, 6, 7)],
        )

    def test_torsion_invariants_of_rp2(self):
        inv = torsion.invariants(RP2, 6)
        self.assertEqual(inv[2], (9, 0))
        for q in torsion.CHECK_PRIMES[1:]:
            self.assertIn(inv[q], [(10, 2), (10, q - 2)])
        expect, output = _torsion_case(6, RP2)
        self.assertEqual(output["value"]["torsion"][1], [2])
        self.assertEqual(verdicts.judge(expect, output), [True])

    def test_torsion_oracle_rejects_corruption(self):
        triangles, det = torsion.generate(24, 3)
        p = torsion.GENERATOR_PRIME
        self.assertIn(torsion.invariants(triangles, 24, (p,))[p], [(253, det), (253, p - det)])
        expect, output = _torsion_case(24, triangles)
        self.assertEqual(verdicts.judge(expect, output), [True])
        t1 = output["value"]["torsion"][1]
        self.assertTrue(t1, "the test complex should carry torsion")
        corruptions = [
            t1[:-1],  # a summand lost
            t1[:-1] + [t1[-1] * 2],
            t1[:-1] + [t1[-1] * 3],
            [2] + t1,  # an extra Z/2
        ]
        for t in corruptions:
            bad = copy.deepcopy(output)
            bad["value"]["torsion"][1] = t
            self.assertEqual(verdicts.judge(expect, bad), [False], t)
        bad = copy.deepcopy(output)
        bad["value"]["free_ranks"][1] = 1
        self.assertEqual(verdicts.judge(expect, bad), [False])
        self.assertEqual(verdicts.judge(expect, {"value": {"torsion": []}}), [False])


class Seeding(unittest.TestCase):
    def test_seed_changes_only_torsion(self):
        with small_sizes():
            for workload in prepare.WORKLOADS:
                a = prepare.prepare(workload, 1)
                self.assertEqual(a, prepare.prepare(workload, 1), workload)
                b = prepare.prepare(workload, 2)
                if workload == "torsion":
                    self.assertNotEqual(a["ops"], b["ops"])
                else:
                    self.assertEqual(a, b, workload)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_outputs_agree(self):
        with small_sizes():
            pairs = (
                prepare.homology(0)
                + prepare.torsion_workload(5)
                + prepare.structure(0)[2:]
                + prepare.counting(0)[2:]
            )
        ops = json.dumps([op for op, _ in pairs])
        expects = [e for _, e in pairs]
        runner = run.Runner(ROOT)
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            stem = os.path.join(tmp, "spans")
            plain = runner.run_pass(ops, False, stem)
            traced = runner.run_pass(ops, True, stem)
            with open(stem + ".json", encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            self.assertEqual(os.path.getsize(stem + ".bin"), spans * 24)
        self.assertEqual(plain["outputs"], traced["outputs"])
        self.assertEqual(len(plain["kernel_s"]), 2)
        self.assertTrue(all(k > 0 for k in plain["kernel_s"] + traced["kernel_s"]))
        self.assertEqual(verdicts.score(expects, traced["outputs"])[1], 0)
        layers = traced["layers"]
        self.assertEqual(layers["trace.spans"], spans)
        for metric in (
            "homology.snf.calls",
            "lattice.build.calls",
            "complexes.faces",
            "moebius.definition.self_s",
            "structure.meet_rep.self_s",
            "cli.self_s",
        ):
            self.assertGreater(layers[metric], 0, metric)


if __name__ == "__main__":
    unittest.main()
