"""Command-line surface: published tables, structural checks, and exports.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 a usage error, input
the library refuses, or a request over the work budget.  The command line
only parses, prices and prints: each request is estimated once, through
``cost``, before any work; ``--force`` runs an over-budget request after one
warning.  A check is a verdict of one n; ``cmd_check`` runs it over the
requested range, clamped up to the check's least n.  All output is
deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from functools import cache
from itertools import islice

from . import complexes, cost, homology, moebius, structure
from .lattice import build, count_rows, sizes
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


def _lattice_units(n: int) -> int:
    return cost.ELEMENT * cost.elements(n)


def _complex_units(n: int) -> int:
    """Build L(n), list its order complex and reduce (or write) every face."""
    return _lattice_units(n) + cost.faces(n) + cost.nonzeros(n)


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


def cmd_mobius(n: int, method_name: str, as_json: bool) -> int:
    if method_name == "all":
        methods = list(MoebiusMethod)
    else:
        methods = [_METHOD_NAMES[method_name]]
    _admit(f"mobius {n} --method {method_name}", _engines(n, [m.value for m in methods]))
    report = RunReport("mobius", {"n": n, "method": method_name})
    values = {m.value: moebius.mobius_bottom_top(n, m) for m in methods}
    expected = _expected_mobius(n)
    agreed = len(set(values.values())) == 1
    value = next(iter(values.values()))
    if len(methods) > 1:
        report.record(
            "method agreement",
            agreed,
            ", ".join(f"{k}={v}" for k, v in sorted(values.items())),
        )
    report.record(
        f"M({n}) matches the classical mu({max(n - 1, 0)})" if n >= 2 else f"M({n})",
        agreed and value == expected,
        f"value {value}, expected {expected}",
    )
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return 0 if report.passed else 1


def _theorem1(n: int) -> tuple[bool, str]:
    expected = _expected_mobius(n)
    values = {m.value: moebius.mobius_bottom_top(n, m) for m in MoebiusMethod}
    ok = len(set(values.values())) == 1 and values["pnk"] == expected
    detail = ", ".join(f"{k}={v}" for k, v in sorted(values.items()))
    return ok, f"{detail}; expected {expected}"


def _coatoms(n: int) -> tuple[bool, str]:
    lat = build(n)
    built = structure.coatoms(lat)
    top = lat.top_id
    brute = tuple(i for i in range(top) if len(lat.interval(i, top)) == 2)
    ok = built == brute
    detail = f"{len(built)} coatoms"
    if n >= 4:
        ok = ok and len(built) == omega(n - 1) + 2
        detail += f", omega(n-1)+2 = {omega(n - 1) + 2}"
    return ok, detail


def _comodernistic(n: int) -> tuple[bool, str]:
    result = structure.is_comodernistic(build(n))
    if result.holds:
        return True, f"{result.intervals} intervals witnessed"
    return False, f"counterexample interval {result.counterexample}"


def _complemented(n: int) -> tuple[bool, str]:
    lat = build(n)
    have = structure.is_complemented(lat)
    want = is_squarefree(n - 1)
    ok = have == want
    detail = f"complemented={have}, squarefree(n-1)={want}"
    if not want:
        witness = structure.semicomplement_witness(lat)
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


# name -> (verdict of one n, least n, work units of one n).  The coatom
# brute force lists the interval up to the top of every element; the
# complement scan meets a complement within about 2n candidates per element
# (counted up to n = 150), a join and a meet each.
_CHECKS = {
    "theorem1": (_theorem1, 0, lambda n: _engines(n, _METHOD_NAMES)),
    "coatoms": (_coatoms, 1, lambda n: _lattice_units(n) + cost.pairs(n)),
    "comodernistic": (_comodernistic, 0, lambda n: _lattice_units(n) + cost.comodernism(n)),
    "complemented": (
        _complemented, 2, lambda n: (cost.ELEMENT + 4 * n) * cost.elements(n)
    ),
    "folkman": (_folkman, 4, _complex_units),
    "euler": (
        _euler,
        2,
        lambda n: _lattice_units(n) + cost.faces(n) + _engines(n, ("pnk", "chains")),
    ),
}


def cmd_check(name: str, range_text: str, as_json: bool) -> int:
    verdict, least, units_of = _CHECKS[name]
    lo, hi = _parse_range(range_text)
    ns = range(max(lo, least), hi + 1)
    if not ns:
        raise ValueError(f"range {lo}..{hi} leaves nothing to check for {name!r}")
    units = 0
    for n in ns:  # stop once the budget is passed
        units += units_of(n)
        if units > cost.BUDGET:
            break
    _admit(f"check {name} {lo}..{hi}", units)
    report = RunReport("check", {"name": name, "range": [lo, hi]})
    for n in ns:
        report.record(f"{name} n={n}", *verdict(n))
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return 0 if report.passed else 1


def cmd_export(kind: str, n: int, out: str | None) -> int:
    units = _lattice_units if kind in ("hasse-dot", "lattice-json") else _complex_units
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
