"""Call-level tracing of aplattice from outside the package.

`Tracer.install` wraps every public function of each aplattice module and
the query methods of `Lattice`, and rebinds each wrapper in every aplattice
namespace that holds the original (so `cli.build` and `complexes.meet` are
traced too).  A wrapper records one span (name, start, end, parent) per
call into flat arrays; `layer_metrics` derives self times, exact call
counts and size counters from them after the pass, and `write` stores the
raw spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

MODULES = (
    "numtheory",
    "progression",
    "lattice",
    "moebius",
    "complexes",
    "homology",
    "structure",
    "cli",
)
LATTICE_QUERIES = (
    "leq_ids",
    "meet_ids",
    "join_ids",
    "interval",
    "ideal",
    "filter",
    "maximal_chains",
)

_LATTICE_QUERY_SPANS = tuple(f"lattice.Lattice.{m}" for m in LATTICE_QUERIES)
_LATTICE_COUNT_SPANS = tuple(
    "lattice." + f
    for f in (
        "count_progressions_formula",
        "count_progressions_enumerated",
        "size_formula",
        "gf_coefficients",
    )
)
_STRUCTURE = "structure."
# metric -> span names (exact) or a module prefix ending in "."
SELF_TIME = {
    "homology.snf.self_s": ("homology.smith_normal_form",),
    "homology.boundary.self_s": ("homology.boundary_matrix",),
    "homology.reduce.self_s": ("homology.reduced_homology",),
    "complexes.order_complex.self_s": ("complexes.order_complex",),
    "complexes.crosscut.self_s": ("complexes.crosscut_complex",),
    "complexes.chain_counts.self_s": ("complexes.chain_counts",),
    "progression.self_s": "progression.",
    "lattice.query.self_s": _LATTICE_QUERY_SPANS,
    "lattice.build.self_s": ("lattice.build",),
    "lattice.counts.self_s": _LATTICE_COUNT_SPANS,
    "moebius.definition.self_s": ("moebius.definition",),
    "moebius.pnk.self_s": ("moebius.pnk",),
    "moebius.chains.self_s": ("moebius.chains",),
    "moebius.coatom.self_s": ("moebius.coatom",),
    "numtheory.self_s": "numtheory.",
    "structure.complements.self_s": tuple(
        _STRUCTURE + f
        for f in ("complements_of", "is_complemented", "semicomplement_witness")
    ),
    "structure.comodernism.self_s": tuple(
        _STRUCTURE + f
        for f in (
            "is_comodernistic",
            "is_left_modular",
            "is_left_modular_in_interval",
            "is_left_modular_coatom",
            "interval_coatoms",
        )
    ),
    "structure.labeling.self_s": tuple(
        _STRUCTURE + f for f in ("verify_er_labeling", "verify_el_labeling", "lex_leq")
    ),
    "structure.meet_rep.self_s": tuple(
        _STRUCTURE + f for f in ("meet_of_coatoms_representation", "coatom_meet_table")
    ),
    "cli.self_s": "cli.",
}
CALLS = {
    "homology.snf.calls": ("homology.smith_normal_form",),
    "progression.meet.calls": ("progression.meet",),
    "progression.join.calls": ("progression.join_in_ambient",),
    "progression.leq.calls": ("progression.leq",),
    "lattice.query.calls": _LATTICE_QUERY_SPANS,
    "lattice.build.calls": ("lattice.build",),
    "lattice.counts.calls": _LATTICE_COUNT_SPANS,
    "numtheory.calls": "numtheory.",
}
COUNTERS = (
    "homology.boundary.cells",
    "homology.boundary.nnz",
    "complexes.faces",
    "lattice.elements",
)


def _count_boundary(counters, args, kwargs, result):
    complex_, d = args[0], args[1] if len(args) > 1 else kwargs["d"]
    cols = len(complex_.faces(d))
    rows = 1 if d == 0 else len(complex_.faces(d - 1))
    counters["homology.boundary.cells"] += rows * cols
    counters["homology.boundary.nnz"] += (d + 1) * cols if d else cols


def _count_faces(counters, args, kwargs, result):
    counters["complexes.faces"] += sum(result.f_vector())


def _count_elements(counters, args, kwargs, result):
    counters["lattice.elements"] += len(result)


_COUNTED = {
    "homology.boundary_matrix": _count_boundary,
    "complexes.order_complex": _count_faces,
    "complexes.crosscut_complex": _count_faces,
    "lattice.build": _count_elements,
}


def _moebius_label(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs["method"]
    return "moebius." + method.value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _wrap(self, label: str, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        label_of = _moebius_label if label == "moebius.mobius_bottom_top" else None
        fixed = self._id(label)
        count = _COUNTED.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(self._id(label_of(args, kwargs)) if label_of else fixed)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the package's public functions and rebind them everywhere."""
        prefix = package.__name__ + "."
        namespaces = [
            m
            for name, m in list(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)
        ]
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            module = sys.modules[prefix + short]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped at its home
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
        lattice_cls = sys.modules[prefix + "lattice"].Lattice
        for meth in LATTICE_QUERIES:
            original = getattr(lattice_cls, meth)
            setattr(lattice_cls, meth, self._wrap(f"lattice.Lattice.{meth}", original))

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        return name, dur - children

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time (seconds), call counts and size counters."""
        name, self_time = self._arrays()
        per_name_self = np.bincount(name, weights=self_time, minlength=len(self.names))
        per_name_calls = np.bincount(name, minlength=len(self.names))

        def pick(selector):
            if isinstance(selector, str):
                return [i for i, n in enumerate(self.names) if n.startswith(selector)]
            return [self._ids[n] for n in selector if n in self._ids]

        out = {}
        for metric, selector in SELF_TIME.items():
            out[metric] = float(sum(per_name_self[i] for i in pick(selector)))
        for metric, selector in CALLS.items():
            out[metric] = int(sum(per_name_calls[i] for i in pick(selector)))
        out.update(self.counters)
        out["trace.spans"] = len(self.start)
        return out

    def write(self, stem: str) -> None:
        """Store the spans as `stem.json` (names, layout) and `stem.bin`
        (int32 name ids, int32 parents, float64 starts, float64 ends)."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "clock": "time.perf_counter, seconds",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
