"""Benchmark runner for aplattice.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Workloads: homology, torsion, structure, counting; see README.md.

1. prepare.py builds the operations and expected verdicts in a process of
   its own (BLAS/OpenMP threads capped at nproc).
2. Set-up is timed by spawning children that only import aplattice.
3. Passes run one after another, each in a fresh child process, so the
   package's caches start cold as they do for every command-line call.
   New passes start while they are expected to end within S seconds; at
   least one pass runs.  With --trace 1 untraced and traced passes alternate.
4. Every output is judged (verdicts.py), and the last stdout line is a JSON
   object {"correct", "attempted", "failed", "metrics"}: medians of the
   end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Each child also times a fixed calibration kernel (calib.py) right after
its import and around its pass.  The end-to-end times are scaled by it to
reference seconds, which divides out the drift of a shared machine's CPU
speed; the unscaled times stay in the result file and in the per-layer
metrics (raw.*).

This process stays small and imports neither numpy nor aplattice: a
child's ru_maxrss starts from its parent's peak RSS.  Nothing pins CPUs,
drops caches or traces the system.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib
import verdicts

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("homology", "torsion", "structure", "counting")
SETUP_PROBES = 5
CHILD_TIMEOUT = 170
LIMITS = (
    "no CPU pinning, no page-cache dropping and no system-wide tracing; "
    "BLAS/OpenMP threads of the input generator capped at nproc; "
    "runs are sequential, one child process at a time"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def commit(root: str) -> str:
    """HEAD of a git checkout at root, read from .git; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns the child processes of one benchmark run."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "aplattice", "__init__.py")):
            raise BenchError(f"no aplattice sources under {src}")
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def _run(self, args, stdin=None, env=None):
        proc = subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=self.root,
            env=env or self.env,
            timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def prepare(self, workload: str, seed: int) -> dict:
        env = dict(self.env)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(nproc())
        script = os.path.join(HERE, "prepare.py")
        return self._run([script, "--workload", workload, "--seed", str(seed)], env=env)

    def probe(self) -> tuple[float, float]:
        """Seconds from spawning a child until its `import aplattice` returned,
        and the child's kernel time measured right after."""
        t0 = time.monotonic()
        result = self._run([os.path.join(HERE, "child.py"), "probe"])
        return result["setup_done"] - t0, result["kernel_s"]

    def run_pass(self, ops_json: str, trace: bool, stem: str) -> dict:
        t0 = time.monotonic()
        args = [os.path.join(HERE, "child.py"), "pass", "1" if trace else "0", stem]
        result = self._run(args, stdin=ops_json)
        result["setup_s"] = result["setup_done"] - t0
        return result


def _passes(runner, ops_json, seconds, trace, stem, start):
    """Run passes until the next one would overrun the time budget.

    Returns a list of rounds; a round is [untraced] or [untraced, traced].
    """
    rounds = []
    while True:
        t0 = time.monotonic()
        rnd = [runner.run_pass(ops_json, False, stem)]
        if trace:
            rnd.append(runner.run_pass(ops_json, True, stem))
        rounds.append(rnd)
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            return rounds


def scaled(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, in reference seconds."""
    return seconds * calib.REFERENCE_S / kernel_s


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    runner = Runner(root)
    prepared = runner.prepare(workload, seed)
    ops_json = json.dumps(prepared["ops"])
    expects = prepared["expect"]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"spans-{workload}")

    runner.probe()  # untimed: compiles bytecode on a fresh checkout
    start = time.monotonic()
    probes = [runner.probe() for _ in range(SETUP_PROBES)]
    rounds = _passes(runner, ops_json, seconds, trace, stem, start)

    attempted = failed = 0
    for rnd in rounds:
        for result in rnd:
            a, f = verdicts.score(expects, result["outputs"])
            attempted += a
            failed += f
        if trace:  # one more verdict: tracing left every output unchanged
            attempted += 1
            failed += rnd[0]["outputs"] != rnd[1]["outputs"]
    plain = [rnd[0] for rnd in rounds]
    # a pass is scaled by the kernel times around it, its set-up by the first
    kernels = [statistics.mean(r["kernel_s"]) for r in plain]
    setup = probes + [(r["setup_s"], r["kernel_s"][0]) for r in plain]
    wall_ref = [scaled(r["wall_s"], k) for r, k in zip(plain, kernels)]
    cpu_ref = [scaled(r["cpu_s"], k) for r, k in zip(plain, kernels)]
    setup_ref = [scaled(s, k) for s, k in setup]
    end_to_end = {
        "wall_ref_s": statistics.median(wall_ref),
        "cpu_ref_s": statistics.median(cpu_ref),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(setup_ref),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "samples": {
            "wall_ref_s": wall_ref,
            "cpu_ref_s": cpu_ref,
            "setup_ref_s": setup_ref,
            "setup_s": [s for s, _ in setup],
            "setup_kernel_s": [k for _, k in setup],
            "wall_s": [r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "kernel_s": [r["kernel_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "op_s": [r["op_s"] for r in plain],
        },
        "environment": {
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": prepared["info"]["numpy"],
            "platform": platform.platform(),
            "commit": commit(root),
            "limits": LIMITS,
        },
    }
    if workload == "torsion":
        judged = zip(expects, plain[0]["outputs"])
        tors = [o["value"]["torsion"][1] for e, o in judged if verdicts.judge(e, o)[0]]
        report["torsion"] = {
            "complexes": len(expects),
            "nontrivial": sum(1 for t in tors if t),
            "divisor_ge_2**31": sum(1 for t in tors if t and max(t) >= 2**31),
        }
    if trace:
        traced = [rnd[1] for rnd in rounds]
        layers = {
            k: statistics.median(r["layers"][k] for r in traced)
            for k in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(
            scaled(r["wall_s"], statistics.mean(r["kernel_s"])) for r in traced
        ) - end_to_end["wall_ref_s"]
        layers["raw.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        layers["raw.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["raw.setup_s"] = statistics.median(s for s, _ in setup)
        layers["calib.kernel_s"] = statistics.median(kernels)
        layers["failed_frac"] = failed / attempted
        report["layers"] = layers
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aplattice benchmark runner")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("environment: " + json.dumps(report["environment"]))
    if "torsion" in report:
        print("torsion inputs: " + json.dumps(report["torsion"]))
    print(f"passes: {report['passes']}, details in {os.path.relpath(path, root)}")
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in report["layers"].items()}
    else:
        metrics = {
            k: {"value": v, "unit": _unit(k)} for k, v in report["end_to_end"].items()
        }
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
