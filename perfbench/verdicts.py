"""Judge the outputs of one pass against the expected verdicts.

Every operation carries one or more verdicts.  A verdict fails when the
output is wrong, when the operation raised, or when the command refused the
request (a nonzero exit code).  Pure standard library, so run.py can use
it without importing the package under test.
"""

from __future__ import annotations

import json
from math import prod


def verdict_count(expect: dict) -> int:
    if expect["check"] == "cli_verdicts":
        return len(expect["verdicts"])
    return 1


def judge(expect: dict, output: dict) -> list[bool]:
    """One entry per verdict of the operation: True when it is right.

    An output of the wrong shape fails every verdict of its operation.
    """
    if "error" not in output:
        try:
            return _CHECKS[expect["check"]](expect, output["value"])
        except (KeyError, IndexError, TypeError, ValueError, AttributeError):
            pass
    return [False] * verdict_count(expect)


def score(expects: list[dict], outputs: list[dict]) -> tuple[int, int]:
    """(verdicts attempted, verdicts failed) over one pass."""
    attempted = failed = 0
    for expect, output in zip(expects, outputs, strict=True):
        marks = judge(expect, output)
        attempted += len(marks)
        failed += marks.count(False)
    return attempted, failed


def _parse_members(text: str):
    """'{5,9,13}' -> [5, 9, 13]; None when the text is not such a set."""
    if not (text.startswith("{") and text.endswith("}")):
        return None
    inner = text[1:-1]
    try:
        return [int(x) for x in inner.split(",")] if inner else []
    except ValueError:
        return None


def _detail_ok(want: dict, detail: str) -> bool:
    if "detail" in want:
        return detail == want["detail"]
    prefix = want["prefix"]
    if not detail.startswith(prefix):
        return False
    return _parse_members(detail[len(prefix) :]) in want["witnesses"]


def _cli_verdicts(expect: dict, out: dict) -> list[bool]:
    wanted = expect["verdicts"]
    got = {v["name"]: v for v in json.loads(out["stdout"])["verdicts"]}
    whole = out["rc"] == 0 and got.keys() == wanted.keys()
    return [
        whole and got[name]["passed"] is True and _detail_ok(want, got[name]["detail"])
        for name, want in wanted.items()
    ]


def _stdout(expect: dict, out: dict) -> list[bool]:
    return [out["rc"] == 0 and out["stdout"] == expect["value"]]


def _equal(expect: dict, value) -> list[bool]:
    return [value == expect["value"]]


def _torsion(expect: dict, out: dict) -> list[bool]:
    """H~ of a Q-acyclic 2-complex: only torsion, only in dimension 1, and
    for each prime q the torsion summands divisible by q number
    size - rank_q, while their product is +-det mod q."""
    free, tors = out["free_ranks"], out["torsion"]
    if out["rank_minus1"] != 0 or free != [0, 0, 0] or tors[0] or tors[2]:
        return [False]
    t1 = tors[1]
    if any(t < 2 for t in t1) or any(b % a for a, b in zip(t1, t1[1:])):
        return [False]
    order = prod(t1)
    for q, rank, det in expect["invariants"]:
        if sum(1 for t in t1 if t % q == 0) != expect["size"] - rank:
            return [False]
        if order % q not in (det % q, -det % q):
            return [False]
    return [True]


_CHECKS = {
    "cli_verdicts": _cli_verdicts,
    "stdout": _stdout,
    "equal": _equal,
    "torsion": _torsion,
}
