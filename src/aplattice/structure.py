"""Structural properties of L(n): coatoms, meet representations, left-modularity,
comodernism, complements, and an ER/EL edge-labeling verifier.

Conventions used throughout:

* an interval [lo, hi] of a lattice is a sublattice, and a cover step between
  two of its members is a cover step of the whole lattice, so interval-level
  notions reuse the global cover structure;
* "coatom of [lo, hi]" means an element covered by hi that lies above lo;
* comodernism is checked over intervals with at least two elements (a
  one-point interval has no coatoms to offer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import cost
from .lattice import Lattice, _embed_fields, build
from .numtheory import divisors, is_squarefree, prime_divisors
from .progression import EMPTY, Progression, sort_key


def coatoms(lattice: Lattice) -> tuple[int, ...]:
    """Ids of the elements covered by the top, ascending.

    The lattice stores them from the explicit construction (two size n-1 runs
    plus prime-step progressions through both endpoints); the test suite
    checks them against a brute-force scan of the order.
    """
    if lattice.n < 1:
        raise ValueError("L(0) has no coatoms")
    return lattice.covers_down[lattice.top_id]


@lru_cache(maxsize=None)
def coatom_meet_table(n: int) -> dict[Progression, tuple[Progression, ...]]:
    """Every progression in {1,..,n} expressible as a meet of coatoms, with its
    unique representing coatom set (the top, whose representation would be the
    empty meet, is excluded).

    A meet of coatoms is {1, 1+e, .., n} for a squarefree divisor e of n-1
    (the prime-step coatoms for the primes dividing e), with the endpoint 1
    and/or n stripped when the corresponding size n-1 run participates.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    run_step = 1 if n > 2 else 0  # at n = 2 the two runs degenerate to singletons
    run_left = Progression(1, run_step, n - 1)   # {1,..,n-1}, strips n from a meet
    run_right = Progression(2, run_step, n - 1)  # {2,..,n}, strips 1 from a meet
    table: dict[Progression, tuple[Progression, ...]] = {}
    for e in divisors(n - 1):
        if not is_squarefree(e):
            continue
        primes = prime_divisors(e)
        prime_coatoms = [Progression(1, p, (n - 1) // p + 1) for p in primes]
        full_len = (n - 1) // e + 1
        for drop_one in (False, True):
            for drop_n in (False, True):
                length = full_len - drop_one - drop_n
                base = 1 + (e if drop_one else 0)
                if length <= 0:
                    x = EMPTY
                elif length == 1:
                    x = Progression(base, 0, 1)
                else:
                    x = Progression(base, e, length)
                s = list(prime_coatoms)
                if drop_n:
                    s.append(run_left)
                if drop_one:
                    s.append(run_right)
                if not s:
                    continue  # empty meet = top, excluded by convention
                assert x not in table, f"meet representation not unique at n={n}: {x}"
                table[x] = tuple(sorted(s, key=sort_key))
    return table


def meet_of_coatoms_representation(lattice: Lattice, x: int):
    """The unique coatom subset whose meet is x, or None when x is not a meet
    of coatoms.  Defined for n >= 4 and x different from the top (the empty
    meet would represent the top; that degenerate case is excluded).

    The answer is read off ``coatom_meet_table(n)``; the test suite checks it
    against a search over every subset of the omega(n-1) + 2 coatoms.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("meet representations are defined for n >= 4")
    if x == lattice.top_id:
        raise ValueError("the top element is excluded (empty meet convention)")
    rep = coatom_meet_table(n).get(lattice.elements[x])
    return None if rep is None else tuple(sorted(lattice.id_of[c] for c in rep))


# ---------------------------------------------------------------------------
# left-modularity and comodernism


def is_left_modular_in_interval(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """Definitional test: (x v m) ^ y == x v (m ^ y) for all x < y in [lo, hi].

    x v m is computed once per member x and m ^ y once per member y; the
    identity is still checked on every pair.  Past the work budget (one unit
    per pair of members) it raises cost.BudgetError first.
    """
    members = lattice.interval(lo, hi)
    if m not in members:
        raise ValueError("m must belong to the interval")
    pairs = len(members) * (len(members) - 1) // 2
    cost.require(f"the left-modularity test on {len(members):,} elements", pairs)
    meets = [lattice.meet_ids(m, y) for y in members]
    for i, x in enumerate(members):
        x_join_m = lattice.join_ids(x, m)
        for y, m_meet_y in zip(members[i + 1 :], meets[i + 1 :]):
            if not lattice.leq_ids(x, y):  # ids ascend, so y is never below x
                continue
            if lattice.meet_ids(x_join_m, y) != lattice.join_ids(x, m_meet_y):
                return False
    return True


def is_left_modular(lattice: Lattice, m: int) -> bool:
    """Definitional left-modularity of m in the whole lattice."""
    return is_left_modular_in_interval(lattice, lattice.bottom_id, lattice.top_id, m)


def interval_coatoms(lattice: Lattice, lo: int, hi: int) -> tuple[int, ...]:
    """Elements covered by hi that lie above lo."""
    return tuple(c for c in lattice.covers_down[hi] if lattice.leq_ids(lo, c))


def _covers_its_meets(lattice: Lattice, members: tuple[int, ...], m: int) -> bool:
    """The cover criterion: every member y not below m covers m ^ y."""
    return all(
        lattice.leq_ids(y, m) or lattice.covers(y, lattice.meet_ids(m, y))
        for y in members
    )


def is_left_modular_coatom(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """Cover-based criterion for a coatom m of [lo, hi]: m is left-modular in
    the interval iff every member y not below m covers m ^ y.

    Agrees with the definitional test wherever both run (checked in tests).
    """
    if m not in interval_coatoms(lattice, lo, hi):
        raise ValueError("m must be a coatom of the interval")
    return _covers_its_meets(lattice, lattice.interval(lo, hi), m)


def _first_left_modular_coatom(lattice: Lattice, lo: int, hi: int) -> int | None:
    """The first coatom of [lo, hi] that passes the cover criterion, or None.

    Coatoms are tried by ascending step, then id, which puts the two size
    |hi|-1 runs first: for |hi| >= 3 they keep the step of hi, and every
    other coatom of hi has a prime multiple of it.
    """
    members = lattice.interval(lo, hi)
    candidates = sorted(
        interval_coatoms(lattice, lo, hi), key=lambda c: (lattice.elements[c].step, c)
    )
    return next((m for m in candidates if _covers_its_meets(lattice, members, m)), None)


@lru_cache(maxsize=None)
def _representative_witnesses(m: int) -> tuple[dict, tuple | None]:
    """The witness of every interval [x, top] of L(m) with x below the top,
    as (base, step, length) triples in L(m) coordinates: its first coatom
    passing the cover criterion, by ascending step, then id (the two runs of
    size m-1 come first).  Returns (witnesses, None), or the witnesses found
    so far and the first x whose interval has none.
    """
    lattice = build(m)
    fields, top = lattice._fields, lattice.top_id
    witnesses = {}
    for lo in range(top):
        witness = _first_left_modular_coatom(lattice, lo, top)
        if witness is None:
            return witnesses, fields[lo]
        witnesses[fields[lo]] = fields[witness]
    return witnesses, None


@dataclass
class ComodernismReport:
    holds: bool
    # one qualifying left-modular coatom per interval (lo, hi) with lo < hi
    witnesses: dict = field(default_factory=dict)
    counterexample: tuple | None = None


def is_comodernistic(lattice: Lattice) -> ComodernismReport:
    """Exhaustive check that every interval with at least two elements has a
    left-modular coatom.  Past the work budget (one unit per triple
    lo <= y <= hi) it raises cost.BudgetError first.

    The ideal below hi is L(|hi|) relabeled (``lattice._embed_fields`` and its
    inverse ``_project_fields``), so [lo, hi] is isomorphic to [proj(lo),
    {1,..,|hi|}].  The check runs in two phases:

    * representatives: for each m = 1..n, the witnesses of the intervals
      [x, R_m] below R_m = {1,..,m} are read from
      ``_representative_witnesses(m)``, which searches [x, top] in L(m)
      itself (R_m is the element whose embedding is the identity, so its
      ideal is L(m) with the same triples).  The search is memoised per m,
      so a range of n, or a later call, searches each L(m) once per process;
    * fill: for each hi, every representative [x, R_|hi|] and its witness
      are embedded into hi, which gives [lo, hi] with lo below hi and its
      witness.  The embedding keeps size and is increasing in base and step,
      so it is the first qualifying coatom of [lo, hi] in the same candidate
      order.

    A failure stops the scan, and ``counterexample`` names the failing
    representative [x, R_m], as ids of the given lattice.
    """
    cost.require(f"the comodernism scan of L({lattice.n})", cost.triples(lattice.n))
    report = ComodernismReport(True)
    index = lattice.id_of
    # witness_of[m][x]: the witness fields of [x, R_m], in L(m) coordinates
    witness_of = [{}]
    for m in range(1, lattice.n + 1):
        witnesses, failing = _representative_witnesses(m)
        if failing is not None:
            r_m = (1, 1, m) if m > 1 else (1, 0, 1)
            report.holds = False
            report.counterexample = (index[failing], index[r_m])
            return report
        witness_of.append(witnesses)
    for hi, host in enumerate(lattice._fields):
        for x, w in witness_of[host[2]].items():
            lo, witness = _embed_fields(x, host), _embed_fields(w, host)
            report.witnesses[(index[lo], hi)] = index[witness]
    return report


# ---------------------------------------------------------------------------
# complements


def _complement_ids(lattice: Lattice, x: int):
    """The ids y with x v y = top and x ^ y = bottom, ascending, lazily."""
    top, bottom = lattice.top_id, lattice.bottom_id
    return (
        y
        for y in range(len(lattice.elements))
        if lattice.join_ids(x, y) == top and lattice.meet_ids(x, y) == bottom
    )


def complements_of(lattice: Lattice, x: int) -> tuple[int, ...]:
    """All y with x v y = top and x ^ y = bottom."""
    return tuple(_complement_ids(lattice, x))


def is_complemented(lattice: Lattice) -> bool:
    """Exhaustive: every element has at least one complement.  The scan of
    each element stops at its first complement."""
    if lattice.n < 2:
        raise ValueError("complementation is considered for n >= 2")
    return all(
        next(_complement_ids(lattice, x), None) is not None
        for x in range(len(lattice.elements))
    )


def semicomplement_witness(lattice: Lattice):
    """For n-1 divisible by a prime square, the progression
    {1 + (n-1)/p, 1 + 2(n-1)/p, .., n - (n-1)/p} (smallest such prime p),
    whose only upper semicomplement is the top.  None when n-1 is squarefree.

    The claimed property is verified exhaustively before returning.
    """
    n = lattice.n
    if n < 2 or is_squarefree(n - 1):
        return None
    p = next(q for q in prime_divisors(n - 1) if (n - 1) % (q * q) == 0)
    step = (n - 1) // p
    if p == 2:
        witness = Progression(1 + step, 0, 1)
    else:
        witness = Progression(1 + step, step, p - 1)
    wid = lattice.id_of[witness]
    for y in range(len(lattice.elements)):
        if lattice.join_ids(wid, y) == lattice.top_id and y != lattice.top_id:
            raise AssertionError(
                f"{witness} has an upper semicomplement other than the top in L({n})"
            )
    return witness


# ---------------------------------------------------------------------------
# ER / EL labeling verification


class EdgeLabeling:
    """An integer label on every cover edge (lower id, upper id) of a lattice."""

    def __init__(self, lattice: Lattice, labels: dict):
        edges = {
            (lo, hi)
            for hi in range(len(lattice.elements))
            for lo in lattice.covers_down[hi]
        }
        given = set(labels)
        if given != edges:
            missing = sorted(edges - given)[:5]
            extra = sorted(given - edges)[:5]
            raise ValueError(
                f"labeling must cover the cover edges exactly; "
                f"missing {missing}, unexpected {extra}"
            )
        self.lattice = lattice
        self.labels = dict(labels)

    def word(self, chain: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.labels[(a, b)] for a, b in zip(chain, chain[1:]))


@dataclass
class LabelingVerdict:
    is_er: bool
    is_el: bool | None  # None when only the ER property was examined
    rising_failures: tuple  # (lo, hi, number of strictly rising maximal chains)
    lex_failures: tuple  # (lo, hi, rising word, smaller competing word)
    ties: tuple  # (lo, hi, word shared by several maximal chains)


def _is_rising(word: tuple[int, ...]) -> bool:
    return all(a < b for a, b in zip(word, word[1:]))


def _scan_labeling(labeling: EdgeLabeling, check_lex: bool):
    """Lists the maximal chains of every interval: past the work budget (one
    unit per chain step and per interval member) it raises cost.BudgetError
    first."""
    lattice = labeling.lattice
    n = lattice.n
    cost.require(f"the labeling scan of L({n})", cost.chain_steps(n) + cost.triples(n))
    rising_failures = []
    lex_failures = []
    ties = []
    size = len(lattice.elements)
    for hi in range(size):
        for lo in lattice.ideal(hi):
            if lo == hi:
                continue
            chains = lattice.maximal_chains(lo, hi)
            words = [labeling.word(c) for c in chains]
            seen = {}
            for w in words:
                seen[w] = seen.get(w, 0) + 1
            for w, cnt in sorted(seen.items()):
                if cnt > 1:
                    ties.append((lo, hi, w))
            rising = [w for w in words if _is_rising(w)]
            if len(rising) != 1:
                rising_failures.append((lo, hi, len(rising)))
                continue
            if check_lex:
                for w in words:
                    # tuples compare lexicographically, a prefix first
                    if w < rising[0]:
                        lex_failures.append((lo, hi, rising[0], w))
                        break
    is_er = not rising_failures
    is_el = (is_er and not lex_failures) if check_lex else None
    return LabelingVerdict(
        is_er, is_el, tuple(rising_failures), tuple(lex_failures), tuple(ties)
    )


def verify_er_labeling(labeling: EdgeLabeling) -> LabelingVerdict:
    """Every interval must have exactly one maximal chain with strictly
    increasing labels."""
    return _scan_labeling(labeling, check_lex=False)


def verify_el_labeling(labeling: EdgeLabeling) -> LabelingVerdict:
    """ER, plus the rising chain's label word must lexicographically precede
    the word of every other maximal chain of its interval.

    Duplicate label words are reported in ``ties`` and never resolved here.
    """
    return _scan_labeling(labeling, check_lex=True)
