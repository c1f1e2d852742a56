"""Command-line surface: published tables, structural checks, and exports.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 a usage error or a
request over the work budget.  Each request is estimated once, through
``cost``, before any work; ``--force`` runs an over-budget request after one
warning.  A check is a verdict of one n; ``cmd_check`` runs it over the
requested range, clamped up to the least n where the default range starts.
All output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import complexes, cost, homology, moebius, structure
from .lattice import build, sizes
from .moebius import MoebiusMethod
from .numtheory import classical_mobius, is_squarefree, omega

_METHOD_NAMES = {m.value: m for m in MoebiusMethod}


class UsageError(ValueError):
    """Malformed arguments; maps to exit code 2."""


@dataclass
class RunReport:
    command: str
    parameters: dict
    verdicts: list = field(default_factory=list)  # (name, passed, detail)

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


def _parse_range(text: str, default: tuple[int, int]) -> tuple[int, int]:
    if text is None:
        return default
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            a, b = int(lo), int(hi)
        else:
            a = b = int(text)
    except ValueError:
        raise UsageError(f"bad range {text!r}; use N or A..B") from None
    if a > b or a < 0:
        raise UsageError(f"bad range {text!r}")
    return a, b


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks in order, to out_path or else to stdout; a lazy
    iterable is written as it is produced."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from None
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
    if n_max < 1:
        raise UsageError("--n-max must be >= 1")
    # b is the chains engine's table; p reads the count rows, and size, a
    # running sum of n divisor counts, keeps the bound of p
    units = cost.engine(n_max, "chains") if kind == "b" else cost.row_terms(n_max)
    _admit(f"table {kind} --n-max {n_max}", units)
    if kind == "p":
        rows = complexes.progression_count_rows(n_max)
    elif kind == "b":
        rows = complexes.chain_count_rows(n_max)
    else:
        rows = enumerate(sizes(n_max))
    _emit(complexes.tsv_lines(rows), out)
    return 0


def _expected_mobius(n: int) -> int:
    if n == 0:
        return 1
    if n == 1:
        return -1
    return classical_mobius(n - 1)


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
    brute = tuple(
        i
        for i in range(len(lat))
        if i != top and lat.leq_ids(i, top) and len(lat.interval(i, top)) == 2
    )
    ok = built == brute
    detail = f"{len(built)} coatoms"
    if n >= 4:
        ok = ok and len(built) == omega(n - 1) + 2
        detail += f", omega(n-1)+2 = {omega(n - 1) + 2}"
    return ok, detail


def _comodernistic(n: int) -> tuple[bool, str]:
    result = structure.is_comodernistic(build(n))
    if result.holds:
        return True, f"{len(result.witnesses)} intervals witnessed"
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


# name -> (verdict of one n, default range, work units of one n); a default
# range starts at the check's least n.  The coatom brute force lists the
# interval up to the top of every element; the complement scan meets a
# complement within about 2n candidates per element (counted up to n = 150),
# a join and a meet each.
_CHECKS = {
    "theorem1": (_theorem1, (0, 12), lambda n: _engines(n, _METHOD_NAMES)),
    "coatoms": (_coatoms, (1, 12), lambda n: _lattice_units(n) + cost.pairs(n)),
    "comodernistic": (
        _comodernistic, (0, 8), lambda n: _lattice_units(n) + cost.triples(n)
    ),
    "complemented": (
        _complemented, (2, 12), lambda n: (cost.ELEMENT + 4 * n) * cost.elements(n)
    ),
    "folkman": (_folkman, (4, 8), _complex_units),
    "euler": (
        _euler,
        (2, 10),
        lambda n: _lattice_units(n) + cost.faces(n) + _engines(n, ("pnk", "chains")),
    ),
}


def cmd_check(name: str, range_text: str | None, as_json: bool) -> int:
    verdict, default, units_of = _CHECKS[name]
    lo, hi = _parse_range(range_text, default)
    ns = range(max(lo, default[0]), hi + 1)
    if not ns:
        raise UsageError(f"range {lo}..{hi} leaves nothing to check for {name!r}")
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
        raise UsageError(message)


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
    m.add_argument("n", type=int, nargs="?")
    m.add_argument("--n", type=int, dest="n_flag")
    m.add_argument("--method", choices=sorted(_METHOD_NAMES) + ["all"], default="all")
    m.add_argument("--json", action="store_true")

    c = sub.add_parser(
        "check", help="verify a structural statement over a range of n", parents=[force]
    )
    c.add_argument("name", choices=sorted(_CHECKS))
    c.add_argument("range", nargs="?", help="N or A..B (default depends on the check)")
    c.add_argument("--n", dest="n_flag", help="alternative spelling of the range")
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
    except (UsageError, cost.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.subcommand == "table":
        return cmd_table(args.kind, args.n_max, args.out)
    if args.subcommand == "mobius":
        n = args.n if args.n is not None else args.n_flag
        if n is None or n < 0:
            raise UsageError("mobius needs a nonnegative n")
        return cmd_mobius(n, args.method, args.json)
    if args.subcommand == "check":
        range_text = args.range if args.range is not None else args.n_flag
        return cmd_check(args.name, range_text, args.json)
    if args.n < 0:  # export, the last subcommand
        raise UsageError("export needs a nonnegative n")
    if args.n < 2 and args.kind in ("complex-json", "homology-json"):
        raise UsageError(f"export {args.kind} needs n >= 2")
    return cmd_export(args.kind, args.n, args.out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
