"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py probe
    python3 perfbench/child.py pass TRACE SPANS_STEM < ops.json

`probe` imports aplattice and its command-line module, as every
`aplattice` command does, and prints the CLOCK_MONOTONIC time at which the
import returned, so the parent can time set-up from before the spawn, and
the speed of the calibration kernel (calib.py) measured right after.
`pass` reads the operations prepared by prepare.py from stdin, runs them
once and prints one JSON line with the outputs, the wall and CPU time of
the pass, the kernel's speed right before and right after it, the peak RSS
of this process, and, when TRACE is 1, the layer metrics of a traced pass
(spans are written to SPANS_STEM.bin/.json).  Inputs are turned into
library objects before the clock starts.
"""

import time

import aplattice
import aplattice.cli

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = aplattice.cli.main(list(argv))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _homology(complex_):
    h = aplattice.reduced_homology(complex_)
    return {
        "free_ranks": list(h.free_ranks),
        "torsion": [list(t) for t in h.torsion],
        "rank_minus1": h.rank_minus1,
    }


def _left_modular(n):
    lat = aplattice.build(n)
    out = [
        [list(lat.elements[c].elements()), aplattice.is_left_modular(lat, c)]
        for c in aplattice.coatoms(lat)
    ]
    return sorted(out)


def _meet_rep(n):
    lat = aplattice.build(n)
    out = []
    for x in range(len(lat) - 1):
        rep = aplattice.meet_of_coatoms_representation(lat, x)
        if rep is not None:
            members = sorted(list(lat.elements[c].elements()) for c in rep)
            out.append([list(lat.elements[x].elements()), members])
    return sorted(out)


def _labeling(n):
    lat = aplattice.build(n)
    labels = {(lo, hi): 0 for hi in range(len(lat)) for lo in lat.covers_down[hi]}
    labeling = aplattice.EdgeLabeling(lat, labels)
    out = {}
    for key, verify in (
        ("er", aplattice.verify_er_labeling),
        ("el", aplattice.verify_el_labeling),
    ):
        v = verify(labeling)
        counts = [c for _, _, c in v.rising_failures]
        out[key] = [v.is_er, v.is_el, len(counts), max(counts, default=0)]
    return out


def _f_vector(n):
    return list(aplattice.order_complex(aplattice.build(n)).f_vector())


def _complex(v, triangles):
    """The 2-complex with every vertex and edge and the given triangles."""
    edges = [(a, b) for a in range(v) for b in range(a + 1, v)]
    faces = (
        tuple((a,) for a in range(v)),
        tuple(edges),
        tuple(sorted(tuple(t) for t in triangles)),
    )
    return aplattice.SimplicialComplex(v, faces)


def _bind(op):
    """(function, argument) for one operation; inputs built here, untimed."""
    kind = op["kind"]
    if kind == "cli":
        return _cli, op["argv"]
    if kind == "homology":
        return _homology, _complex(op["v"], op["triangles"])
    return {
        "left_modular": _left_modular,
        "meet_rep": _meet_rep,
        "labeling": _labeling,
        "f_vector": _f_vector,
    }[kind], op["n"]


def run_pass(ops, tracer=None):
    bound = [_bind(op) for op in ops]
    if tracer is not None:
        tracer.install(aplattice)
    outputs, op_seconds = [], []
    kernel_before = calib.measure()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for fn, arg in bound:
        s = time.perf_counter()
        try:
            outputs.append({"value": fn(arg)})
        except Exception as exc:  # a raised operation is a failed verdict
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
        op_seconds.append(time.perf_counter() - s)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    kernel_after = calib.measure()
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return {
        "setup_done": SETUP_DONE,
        "outputs": outputs,
        "wall_s": wall,
        "cpu_s": cpu,
        "op_s": op_seconds,
        "kernel_s": [kernel_before, kernel_after],
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
    }


def main(argv):
    if argv[:1] == ["probe"]:
        print(json.dumps({"setup_done": SETUP_DONE, "kernel_s": calib.measure()}))
        return 0
    _, trace, stem = argv
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
    result = run_pass(json.load(sys.stdin), tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(stem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
