"""Structural properties of L(n): coatoms, meet representations, left-modularity,
comodernism, complements, and an ER/EL edge-labeling verifier.

Conventions used throughout:

* an interval [lo, hi] of a lattice is a sublattice, and a cover step between
  two of its members is a cover step of the whole lattice, so interval-level
  notions reuse the global cover structure;
* "coatom of [lo, hi]" means an element covered by hi that lies above lo;
* comodernism is checked over intervals with at least two elements (a
  one-point interval has no coatoms to offer), searched on the
  representatives [x, {1,..,m}] alone; any other witness is looked up;
* which coatoms meet to an element is decided once, by the closed-form rule
  ``lattice._coatom_meet``; this module maps its triples to ids.

Each exhaustive scan decides a candidate once, by an exact rule:

* failure lists: a coatom c of [lo, hi] passes the cover criterion when each
  member y not below c covers c ^ y.  Meets and covers are global, so the
  failing y of the whole ideal of hi are listed once per c, and c passes on
  [lo, hi] exactly when none of them lies above lo;
* endpoint classes: in L(n), n >= 1, a join spans from the smaller first to
  the larger last member and a meet is the intersection, so a complement of
  x holds 1, and n, exactly when x does not.  L(0) keeps the plain scan: its
  one element is its own complement;
* word sweeps: every maximal chain of [lo, y] ends in a cover c -> y with c
  in [lo, y], and ids ascend with size, so one ascending walk of the filter
  of lo builds the label words of every [lo, y].
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from operator import lt
from types import MappingProxyType
from weakref import WeakKeyDictionary

from . import cost
from .lattice import Lattice, _coatom_meet, _embed_fields, _project_fields, _valid_id
from .numtheory import divisors, is_squarefree, prime_divisors
from .progression import Progression, _leq_fields


def coatoms(lattice: Lattice) -> tuple[int, ...]:
    """Ids of the elements covered by the top, ascending.

    The lattice stores them from the explicit construction (two size n-1 runs
    plus prime-step progressions through both endpoints); the test suite
    checks them against a brute-force scan of the order.
    """
    if lattice.n < 1:
        raise ValueError("L(0) has no coatoms")
    return lattice.covers_down[lattice.top_id]


def meet_of_coatoms_representation(lattice: Lattice, x: int):
    """The unique coatom subset whose meet is x, or None when x is not a meet
    of coatoms.  Defined for n >= 4 and an id x other than the top (the empty
    meet would represent the top; that degenerate case is excluded).

    The answer is the rule ``lattice._coatom_meet``; the test suite checks
    it against a search over every subset of the omega(n-1) + 2 coatoms.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("meet representations are defined for n >= 4")
    if _valid_id(lattice, x, "x") == lattice.top_id:
        raise ValueError("the top element is excluded (empty meet convention)")
    rep = _coatom_meet(n, lattice._fields[x])
    return None if rep is None else tuple(map(lattice.id_of.__getitem__, rep))


# ---------------------------------------------------------------------------
# left-modularity and comodernism


def is_left_modular_in_interval(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """Definitional test: (x v m) ^ y == x v (m ^ y) for all x <= y in [lo, hi].

    y walks only the filter of x in the interval, and two kinds of pair are
    skipped, as both sides are equal there: x <= m (x v m = m and x <= m ^ y,
    so both are m ^ y) and m <= y (x v m <= y and m ^ y = m, so both are
    x v m).  Past the work budget (one unit per pair of members, more than
    the pairs visited) it raises cost.BudgetError first.
    """
    members = lattice.interval(lo, hi)
    if m not in members:
        raise ValueError("m must belong to the interval")
    pairs = len(members) * (len(members) - 1) // 2
    cost.require(f"the left-modularity test on {len(members):,} elements", pairs)
    for x in members:
        if lattice.leq_ids(x, m):
            continue
        x_join_m = lattice.join_ids(x, m)
        for y in lattice.interval(x, hi):
            if lattice.leq_ids(m, y):
                continue
            m_meet_y = lattice.meet_ids(m, y)
            if lattice.meet_ids(x_join_m, y) != lattice.join_ids(x, m_meet_y):
                return False
    return True


def is_left_modular(lattice: Lattice, m: int) -> bool:
    """Definitional left-modularity of m in the whole lattice."""
    return is_left_modular_in_interval(lattice, lattice.bottom_id, lattice.top_id, m)


def _cover_failures(lattice: Lattice, c: int, members) -> tuple[int, ...]:
    """The members y not below c (c ^ y != y) that do not cover c ^ y: the
    cover criterion for c fails on an interval exactly when it holds one."""
    meets = map(lattice.meet_ids, repeat(c), members)
    below = lattice.covers_down
    return tuple(y for y, z in zip(members, meets) if z != y and z not in below[y])


_WITNESSES: dict[int, tuple[dict, tuple | None]] = {}


def _representative_witnesses(lattice: Lattice, m: int) -> tuple[dict, tuple | None]:
    """The witness of every interval [x, R_m] with x below R_m = {1,..,m},
    as (base, step, length) triples: its first coatom passing the cover
    criterion, by ascending step (the two runs of size m-1 keep the step of
    R_m, every other coatom has a prime multiple of it), then id, read from
    one failure list per coatom.  Returns (witnesses, None), or the
    witnesses found so far and the first x whose interval has none.  R_m
    embeds by the identity, so its ideal in any L(n), n >= m, is L(m) with
    the same triples in the same order: the result depends on m alone and
    is memoised in ``_WITNESSES``.
    """
    if m not in _WITNESSES:
        fields, leq = lattice._fields, lattice.leq_ids
        r_m = lattice.id_of[(1, 1, m) if m > 1 else (1, 0, 1)]
        members = lattice.ideal(r_m)
        by_step = sorted(lattice.covers_down[r_m], key=lambda c: (fields[c][1], c))
        failures = [(c, _cover_failures(lattice, c, members)) for c in by_step]
        witnesses, failing = {}, None
        for lo in members[:-1]:
            for c, bad in failures:
                if leq(lo, c) and not any(leq(lo, y) for y in bad):
                    witnesses[fields[lo]] = fields[c]
                    break
            else:
                failing = fields[lo]
                break
        _WITNESSES[m] = witnesses, failing
    return _WITNESSES[m]


class _Witnesses(Mapping):
    """(lo, hi) -> witness id for every lo < hi, read from the witness of
    [proj(lo), R_|hi|] in ``witness_of[|hi|]``; keys by ascending hi, lo."""

    def __init__(self, lattice: Lattice, witness_of: list):
        self._lattice, self._witness_of = lattice, witness_of

    def __getitem__(self, key):
        fields = self._lattice._fields
        try:
            lo, hi = key
            low, host = fields[lo], fields[hi]
            if 0 <= lo < hi and _leq_fields(low, host):
                w = self._witness_of[host[2]][_project_fields(low, host)]
                return self._lattice.id_of[_embed_fields(w, host)]
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __iter__(self):
        ideal = self._lattice.ideal
        return ((lo, hi) for hi in range(len(self._lattice)) for lo in ideal(hi)[:-1])

    def __len__(self):  # L(|hi|) less its top, for each hi
        return sum(len(self._witness_of[k]) for _, _, k in self._lattice._fields)


@dataclass
class ComodernismReport:
    holds: bool
    witnesses: Mapping  # read-only (lo, hi) -> a witness, for all lo < hi
    counterexample: tuple | None = None


def is_comodernistic(lattice: Lattice) -> ComodernismReport:
    """Exhaustive check that every interval with at least two elements has a
    left-modular coatom.  Past the work budget (one unit per triple
    lo <= y <= hi) it raises cost.BudgetError first.

    The ideal below hi is L(|hi|) relabeled (``lattice._embed_fields`` and its
    inverse ``_project_fields``), so [lo, hi] is isomorphic to [proj(lo),
    R_|hi|], R_m = {1,..,m}.  R_m embeds by the identity, so its ideal is
    L(m) with the same triples: ``_representative_witnesses`` searches the
    witnesses of every [x, R_m] in the given lattice, once per m and
    process.  ``witnesses[(lo, hi)]`` then looks up the witness of
    [proj(lo), R_|hi|] and embeds it back into hi.  The embedding keeps size
    and is increasing in base and step, so that is the first qualifying
    coatom of [lo, hi] in the same candidate order.  No pair is listed or
    stored: the length is the sum over hi of |L(|hi|)| - 1.

    A failure stops the scan, and ``counterexample`` names the failing
    representative [x, R_m], as ids of the given lattice.
    """
    cost.require(f"the comodernism scan of L({lattice.n})", cost.triples(lattice.n))
    # witness_of[m][x]: the witness fields of [x, R_m], in L(m) coordinates
    witness_of = [{}]
    for m in range(1, lattice.n + 1):
        witnesses, failing = _representative_witnesses(lattice, m)
        if failing is not None:
            r_m = (1, 1, m) if m > 1 else (1, 0, 1)
            ids = lattice.id_of[failing], lattice.id_of[r_m]
            return ComodernismReport(False, MappingProxyType({}), ids)
        witness_of.append(witnesses)
    return ComodernismReport(True, _Witnesses(lattice, witness_of))


# ---------------------------------------------------------------------------
# complements

_CLASSES: WeakKeyDictionary = WeakKeyDictionary()  # lattice -> its _opposite_classes


def _opposite_classes(lattice: Lattice) -> list:
    """For each id x, ascending, the ids y that hold 1 exactly when x does
    not, and n exactly when x does not: the only complements x can have.
    Every id in L(0), whose one element is its own complement."""
    n = lattice.n
    if not n:
        return [range(len(lattice))]
    ends = [(b == 1, b + (k - 1) * s == n) for b, s, k in lattice._fields]
    classes = {}
    for y, key in enumerate(ends):
        classes.setdefault(key, []).append(y)
    return [classes.get((not first, not last), ()) for first, last in ends]


def _complement_ids(lattice: Lattice, x: int, candidates):
    """The candidate ids y with x v y = top and x ^ y = bottom, lazily."""
    top, bottom = lattice.top_id, lattice.bottom_id
    return (
        y
        for y in candidates
        if lattice.join_ids(x, y) == top and lattice.meet_ids(x, y) == bottom
    )


def complements_of(lattice: Lattice, x: int) -> tuple[int, ...]:
    """All y with x v y = top and x ^ y = bottom, ascending."""
    if lattice not in _CLASSES:
        _CLASSES[lattice] = _opposite_classes(lattice)
    return tuple(_complement_ids(lattice, x, _CLASSES[lattice][x]))


def is_complemented(lattice: Lattice) -> bool:
    """Exhaustive: every element has at least one complement.  The scan of
    each element stops at its first complement."""
    if lattice.n < 2:
        raise ValueError("complementation is considered for n >= 2")
    return all(
        next(_complement_ids(lattice, x, candidates), None) is not None
        for x, candidates in enumerate(_opposite_classes(lattice))
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
    # the witness holds neither 1 nor n, so an upper semicomplement holds
    # both: it is {1, 1+d, .., n} for a divisor d of n-1
    for d in divisors(n - 1):
        y = lattice.id_of[(1, d, (n - 1) // d + 1)]
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
        edges = {(lo, hi) for hi, down in enumerate(lattice.covers_down) for lo in down}
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
    lex_failures: tuple  # (lo, hi, rising word, smallest competing word)
    ties: tuple  # (lo, hi, word shared by several maximal chains)


def _is_rising(word: tuple[int, ...]) -> bool:
    return all(map(lt, word, word[1:]))


def _scan_labeling(labeling: EdgeLabeling, check_lex: bool):
    """Builds the label words of every interval [lo, hi] in one upward sweep
    of the filter of each lo, and reports by ascending (hi, lo): past the
    work budget (one unit per chain step and per interval member) it raises
    cost.BudgetError first."""
    lattice = labeling.lattice
    n = lattice.n
    cost.require(f"the labeling scan of L({n})", cost.chain_steps(n) + cost.triples(n))
    labels, covers_down = labeling.labels, lattice.covers_down
    rising_failures, lex_failures, ties = [], [], []
    for lo in range(len(lattice)):
        words = {lo: [()]}  # words[y]: the label words of [lo, y]
        for hi in lattice.filter(lo)[1:]:
            words[hi] = hi_words = [
                w + (labels[(c, hi)],)
                for c in covers_down[hi]
                if c in words
                for w in words[c]
            ]
            for w, cnt in sorted(Counter(hi_words).items()):
                if cnt > 1:
                    ties.append((lo, hi, w))
            rising = [w for w in hi_words if _is_rising(w)]
            if len(rising) != 1:
                rising_failures.append((lo, hi, len(rising)))
            elif check_lex and min(hi_words) < rising[0]:
                # tuples compare lexicographically, a prefix first
                lex_failures.append((lo, hi, rising[0], min(hi_words)))
    for found in (rising_failures, lex_failures, ties):
        found.sort(key=lambda t: (t[1], t[0]))  # stable: ties keep word order
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
    the word of every other maximal chain of its interval.  A failing
    interval is reported with the smallest word of its maximal chains.

    Duplicate label words are reported in ``ties`` and never resolved here.
    """
    return _scan_labeling(labeling, check_lex=True)
