"""Command-line surface: published tables, structural checks, and exports.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 a usage error, input
the library refuses, or a request over the work budget.  The command line
only parses, prices and prints: each request is estimated once, through
``cost``, before any work; ``--force`` runs an over-budget request after one
warning.  A check gives the verdict of every n of the requested range,
clamped up to the check's least n: most decide one n at a time, while
comodernism reads every n off one triple walk of its last n.  Coatoms,
complements, comodernism and the definition engine run on plain (base,
step, length) triples and build no lattice.  All output is deterministic
for fixed arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from functools import cache, partial
from itertools import accumulate, islice

from . import complexes, cost, homology, moebius, structure
from .lattice import _canonical_fields, _canonical_id, _coatom_fields, _interval_fields, build
from .lattice import count_rows, interval_counts, sizes
from .moebius import MoebiusMethod
from .numtheory import classical_mobius, is_squarefree, omega, valid_n

_METHOD_NAMES = {m.value: m for m in MoebiusMethod}


class RunReport:
    def __init__(self, command: str, parameters: dict):
        self.command = command
        self.parameters = parameters
        self.verdicts = []  # (name, passed, detail)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.verdicts.append((name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def to_text(self) -> str:
        lines = []
        for name, ok, detail in self.verdicts:
            tag = "PASS" if ok else "FAIL"
            lines.append(f"{tag} {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        blob = {
            "command": self.command,
            "parameters": self.parameters,
            "verdicts": [
                {"name": n, "passed": ok, "detail": d} for n, ok, d in self.verdicts
            ],
        }
        return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            a, b = int(lo), int(hi)
        else:
            a = b = int(text)
    except ValueError:
        raise ValueError(f"bad range {text!r}; use N or A..B") from None
    if a > b or a < 0:
        raise ValueError(f"bad range {text!r}")
    return a, b


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks in order, to out_path or else to stdout; a lazy
    iterable is written as it is produced."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.writelines(chunks)


def _admit(what: str, units: int) -> None:
    """Refuse a request over the budget; under --force, warn once instead."""
    if cost.require(what, units):
        print(
            f"warning: {what} needs at least {units:,} work units, over the "
            f"budget of {cost.BUDGET:,}; --force runs it anyway",
            file=sys.stderr,
        )


def _complex_units(n: int) -> int:
    """Build L(n), list its order complex and reduce (or write) every face."""
    return cost.build(n) + cost.faces(n) + cost.nonzeros(n)


def _engines(n: int, names) -> int:
    return sum(cost.engine(n, name) for name in names)


# ---------------------------------------------------------------------------
# subcommands


def cmd_table(kind: str, n_max: int, out: str | None) -> int:
    valid_n(n_max, 1, "--n-max")
    # b is the chains engine's table; p reads the count rows, and size, a
    # running sum of n divisor counts, keeps the bound of p
    units = cost.engine(n_max, "chains") if kind == "b" else cost.row_terms(n_max)
    _admit(f"table {kind} --n-max {n_max}", units)
    # row n of p is (p(n, 0), .., p(n, n)) and of b (b(n, 1), .., b(n, n)),
    # for n = 1..n_max
    if kind == "p":
        rows = islice(count_rows(n_max), 1, None)
    elif kind == "b":
        rows = complexes.chain_counts(n_max)[1:]
    else:
        rows = enumerate(sizes(n_max))
    _emit(complexes.tsv_lines(rows), out)
    return 0


def _expected_mobius(n: int) -> int:
    return (1, -1)[n] if n < 2 else classical_mobius(n - 1)


def _engine_values(n: int, methods) -> tuple[dict, str]:
    """M(n) by each engine, as {method value: M(n)} and its k=v listing."""
    values = {m.value: moebius.mobius_bottom_top(n, m) for m in methods}
    return values, ", ".join(f"{k}={v}" for k, v in sorted(values.items()))


def cmd_mobius(n: int, method_name: str, as_json: bool) -> int:
    if method_name == "all":
        methods = list(MoebiusMethod)
    else:
        methods = [_METHOD_NAMES[method_name]]
    _admit(f"mobius {n} --method {method_name}", _engines(n, [m.value for m in methods]))
    report = RunReport("mobius", {"n": n, "method": method_name})
    values, listing = _engine_values(n, methods)
    expected = _expected_mobius(n)
    agreed = len(set(values.values())) == 1
    value = next(iter(values.values()))
    if len(methods) > 1:
        report.record("method agreement", agreed, listing)
    report.record(
        f"M({n}) matches the classical mu({max(n - 1, 0)})" if n >= 2 else f"M({n})",
        agreed and value == expected,
        f"value {value}, expected {expected}",
    )
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return 0 if report.passed else 1


def _theorem1(n: int) -> tuple[bool, str]:
    expected = _expected_mobius(n)
    values, listing = _engine_values(n, MoebiusMethod)
    ok = len(set(values.values())) == 1 and values["pnk"] == expected
    return ok, f"{listing}; expected {expected}"


def _coatoms(n: int) -> tuple[bool, str]:
    """The explicit coatoms against the x whose [x, top] holds x and top alone."""
    top = (1, 1, n) if n > 1 else (1, 0, 1)
    explicit = _coatom_fields(n)
    scanned = tuple(
        x for x in _canonical_fields(n) if len(tuple(islice(_interval_fields(x, top), 3))) == 2
    )
    ok = explicit == scanned
    detail = f"{len(explicit)} coatoms"
    if n >= 4:
        ok = ok and len(explicit) == omega(n - 1) + 2
        detail += f", omega(n-1)+2 = {omega(n - 1) + 2}"
    return ok, detail


def _comodernistic(ns: range):
    """The verdicts of every n of the range off one premise walk of b, its
    last n, on triples: L(n) holds the premises of each m <= n, walked by
    ascending m, so it fails exactly when the walk fails at some m0 <= n, at
    triples it names by their ids in closed form, as it counts intervals."""
    failed = structure._comodernism_failure(ns[-1]) or ()  # [x, R_m0] as triples
    m0 = failed[1][2] if failed else ns[-1] + 1
    counts = interval_counts(ns[-1])
    for n in ns:
        if n < m0:
            yield True, f"{counts[n]} intervals witnessed"
        else:
            ids = tuple(_canonical_id(n, f) for f in failed)
            yield False, f"counterexample interval {ids}"


def _complemented(n: int) -> tuple[bool, str]:
    have = structure._uncomplemented(n) is None
    want = is_squarefree(n - 1)
    ok = have == want
    detail = f"complemented={have}, squarefree(n-1)={want}"
    if not want:
        witness = structure._semicomplement(n)
        ok = ok and witness is not None
        detail += f", semicomplement witness {witness}"
    return ok, detail


def _folkman(n: int) -> tuple[bool, str]:
    lat = build(n)
    order = homology.reduced_homology(complexes.order_complex(lat))
    cross = homology.reduced_homology(complexes.crosscut_complex(lat))
    detail = f"order complex: {order}; cross-cut: {cross}"
    return order.nonzero() == cross.nonzero(), detail


def _euler(n: int) -> tuple[bool, str]:
    chi = complexes.reduced_euler_characteristic(complexes.order_complex(build(n)))
    alt = moebius.mobius_bottom_top(n, MoebiusMethod.CHAIN_ALTERNATING_SUM)
    mu = moebius.mobius_bottom_top(n, MoebiusMethod.PNK_RECURRENCE)
    detail = f"face-count chi~ {chi}, alternating chain sum {alt}, M(n) {mu}"
    return chi == alt == mu, detail


def _each_n(verdict, least: int, units_of):
    """The table entry of a check decided one n at a time: its verdicts over a
    range, lazily, and its estimate summed over the range up to the first n
    past the budget (refusing needs no more)."""
    return partial(map, verdict), least, lambda ns: cost._first_past(accumulate(map(units_of, ns)))


# name -> (verdicts of a range, least n, work units of a range).  The coatom
# scan generates the triples of L(n) and reads at most 3 members of each
# [x, top]; the complement scan generates them twice, to group and to test,
# and tests at most 1.5 candidates per element on average, and 18 for any
# one element (counted for each n up to 200), priced at 2 per element.
# Comodernism walks the premises of its last n alone.
_CHECKS = {
    "theorem1": _each_n(_theorem1, 0, lambda n: _engines(n, _METHOD_NAMES)),
    "coatoms": _each_n(_coatoms, 1, lambda n: (1 + 3) * cost.elements(n)),
    "comodernistic": (_comodernistic, 0, lambda ns: cost.comodernism(ns[-1])),
    "complemented": _each_n(_complemented, 2, lambda n: (2 + 2) * cost.elements(n)),
    "folkman": _each_n(_folkman, 4, _complex_units),
    "euler": _each_n(
        _euler,
        2,
        lambda n: cost.build(n) + cost.faces(n) + _engines(n, ("pnk", "chains")),
    ),
}


def cmd_check(name: str, range_text: str, as_json: bool) -> int:
    verdicts, least, units_of = _CHECKS[name]
    lo, hi = _parse_range(range_text)
    ns = range(max(lo, least), hi + 1)
    if not ns:
        raise ValueError(f"range {lo}..{hi} leaves nothing to check for {name!r}")
    _admit(f"check {name} {lo}..{hi}", units_of(ns))
    report = RunReport("check", {"name": name, "range": [lo, hi]})
    for n, verdict in zip(ns, verdicts(ns)):
        report.record(f"{name} n={n}", *verdict)
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return 0 if report.passed else 1


def cmd_export(kind: str, n: int, out: str | None) -> int:
    units = cost.build if kind in ("hasse-dot", "lattice-json") else _complex_units
    _admit(f"export {kind} --n {n}", units(n))
    lat = build(n)
    if kind == "hasse-dot":
        _emit([lat.to_dot()], out)
    elif kind == "lattice-json":
        _emit([json.dumps(lat.to_json_dict(), indent=2, sort_keys=True) + "\n"], out)
    elif kind == "complex-json":
        _emit([complexes.order_complex(lat).to_json()], out)
    else:
        result = homology.reduced_homology(complexes.order_complex(lat))
        _emit([json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n"], out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 without argparse's traceback noise
        raise ValueError(message)


@cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="aplattice",
        description="Explore the lattice of arithmetic progressions in {1,..,n}.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true", help="run over the work budget")

    t = sub.add_parser("table", help="emit a counting table as TSV", parents=[force])
    t.add_argument("kind", choices=["p", "b", "size"])
    t.add_argument("--n-max", type=int, default=11)
    t.add_argument("--out")

    m = sub.add_parser("mobius", help="Moebius value of the whole lattice", parents=[force])
    m.add_argument("n", type=int)
    m.add_argument("--method", choices=sorted(_METHOD_NAMES) + ["all"], default="all")
    m.add_argument("--json", action="store_true")

    c = sub.add_parser(
        "check", help="verify a structural statement over a range of n", parents=[force]
    )
    c.add_argument("name", choices=sorted(_CHECKS))
    c.add_argument("range", help="N or A..B, clamped up to the check's least n")
    c.add_argument("--json", action="store_true")

    e = sub.add_parser(
        "export", help="write a lattice, complex, or homology artifact", parents=[force]
    )
    e.add_argument("kind", choices=["hasse-dot", "lattice-json", "complex-json", "homology-json"])
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with cost.unbounded(args.force):
            return _dispatch(args)
    # every ValueError of the package refuses input (BudgetError is one);
    # internal invariants are asserts, so a bug is never a usage error
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.subcommand == "table":
        return cmd_table(args.kind, args.n_max, args.out)
    if args.subcommand == "mobius":
        return cmd_mobius(args.n, args.method, args.json)
    if args.subcommand == "check":
        return cmd_check(args.name, args.range, args.json)
    return cmd_export(args.kind, args.n, args.out)


def entry() -> None:
    sys.exit(main())
