"""Structural properties of L(n): coatoms, meet representations, left-modularity,
comodernism, complements, and an ER/EL edge-labeling verifier.

Conventions used throughout:

* an interval [lo, hi] of a lattice is a sublattice, and a cover step between
  two of its members is a cover step of the whole lattice, so interval-level
  notions reuse the global cover structure;
* "coatom of [lo, hi]" means an element covered by hi that lies above lo;
* comodernism is checked over intervals with at least two elements (a
  one-point interval has no coatoms to offer), each a relabeled copy of some
  [x, R_m], R_m = {1,..,m}: the premises of those alone are checked;
* which coatoms meet to an element is decided once, by the closed-form rule
  ``lattice._coatom_meet``; this module maps its triples to ids.

Each exhaustive scan decides a candidate once, by an exact rule:

* failure lists: a coatom c of [lo, hi] passes the cover criterion when each
  member y not below c covers c ^ y.  Meets and covers are global, so the
  failing y of a set of members are listed once per c, and c passes on
  each [lo, hi] inside that set exactly when none of them lies above lo;
* cover pairs: m in [lo, hi] is left-modular there exactly when no cover
  x -> y into a y on its failure list fails: a failing pair moves up to a
  failing cover pair, only a listed y tops one (its x lies above lo), and
  for a coatom every listed y does (proofs at ``_cover_failures``);
* endpoint classes: in L(n), n >= 1, a join spans from the smaller first to
  the larger last member and a meet is the intersection, so a complement of
  x holds 1, and n, exactly when x does not.  L(0) keeps the plain scan: its
  one element is its own complement;
* word sweeps: every maximal chain of [lo, y] ends in a cover c -> y with c
  in [lo, y], and ids ascend with size, so one ascending walk of the filter
  of lo builds the label words of every [lo, y].
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from operator import lt
from weakref import WeakKeyDictionary

from . import cost
from .lattice import Lattice, _coatom_meet, _valid_id, sizes
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
    """(x v m) ^ y == x v (m ^ y) for all x <= y in [lo, hi], tested exactly
    on the covers of the members ``_cover_failures`` lists for m.  Past the
    work budget (one unit per pair of members) it raises cost.BudgetError."""
    lo, hi = _valid_id(lattice, lo, "lo"), _valid_id(lattice, hi, "hi")
    members = lattice.interval(lo, hi)
    if _valid_id(lattice, m, "m") not in members:
        raise ValueError("m must belong to the interval")
    pairs = len(members) * (len(members) - 1) // 2
    cost.require(f"the left-modularity test on {len(members):,} elements", pairs)
    meet, join = lattice.meet_ids, lattice.join_ids
    return not any(
        meet(join(x, m), y) != join(x, meet(m, y))
        for y in _cover_failures(lattice, m, members)
        for x in lattice.covers_down[y]
    )


def is_left_modular(lattice: Lattice, m: int) -> bool:
    """Left-modularity of m in the whole lattice."""
    return is_left_modular_in_interval(lattice, lattice.bottom_id, lattice.top_id, m)


def _cover_failures(lattice: Lattice, c: int, members) -> tuple[int, ...]:
    """The members y not below c (c ^ y != y) that do not cover c ^ y: the
    cover criterion for c fails on an interval exactly when it holds one.
    Call x <= y in [lo, hi] strict when x v (c ^ y) < (x v c) ^ y; c in
    [lo, hi] is left-modular there exactly when no listed y has a strict
    cover x -> y:

    1. x' = x v (c ^ y) has (x' v c) ^ y = (x v c) ^ y = w, so if x <= y is
       strict, any x' -> x1 <= w is a strict cover pair (c ^ x1 <= x');
    2. only a listed y has one: x v (c ^ y) = y makes both sides y, and
       x = c ^ y makes both x, so a strict x -> y has c ^ y < x (so x >= lo);
    3. for a coatom c every listed y has one: c ^ y < x -> y puts x outside
       c, so (x v c) ^ y = hi ^ y = y != x.  This is the cover criterion.
    """
    meets = map(lattice.meet_ids, repeat(c), members)
    below = lattice.covers_down
    return tuple(y for y, z in zip(members, meets) if z != y and z not in below[y])


def _first_coatom(lattice: Lattice, lo: int, hi: int) -> int:
    """The witness of [lo, hi], lo < hi: its first coatom by step, then base."""
    fields = lattice._fields
    above = [c for c in lattice.covers_down[hi] if _leq_fields(fields[lo], fields[c])]
    return min(above, key=lambda c: (fields[c][1], fields[c][0]))


def comodernism_witness(lattice: Lattice, lo: int, hi: int) -> int:
    """The left-modular coatom that ``is_comodernistic`` checks for [lo, hi]:
    its first coatom by step, then base.  ValueError unless lo and hi are
    ids of the lattice with lo < hi."""
    lo, hi = _valid_id(lattice, lo, "lo"), _valid_id(lattice, hi, "hi")
    if lo == hi or not lattice.leq_ids(lo, hi):
        raise ValueError(f"a witness needs lo < hi, got ids {lo}, {hi}")
    return _first_coatom(lattice, lo, hi)


def _premises(lattice: Lattice, m: int, r_m: int):
    """(x, witness, members) of each premise at m by ascending x, as ids."""
    id_of = lattice.id_of
    firsts = [((0, 0, 0), (m, 0, 1))] + ([((m, 0, 1), (1, m - 1, 2))] if m > 1 else [])
    x_es = [(1, e, (m - 1) // e + 1) for e in divisors(m - 1)[:0:-1]] if m > 1 else []
    for x, least in [*firsts, *zip(x_es, x_es)]:
        x = id_of[x]
        yield x, _first_coatom(lattice, x, r_m), lattice.interval(id_of[least], r_m)


# intervals: how many have at least two elements, each with a witness
ComodernismReport = namedtuple(
    "ComodernismReport", "holds intervals counterexample", defaults=(None,)
)


def is_comodernistic(lattice: Lattice) -> ComodernismReport:
    """Exhaustive check that every interval with at least two elements has a
    left-modular coatom.  Past the work budget (``cost.comodernism``, one
    unit per member the premises walk) it raises cost.BudgetError first.

    The witness of [lo, hi] is its first coatom by step, then base
    (``comodernism_witness``).  The ideal below hi is L(|hi|) relabeled
    (``Lattice.ideal``), which keeps containment and the step and base
    orders, so [lo, hi] is a copy of some [x, R_m], m = |hi|, R_m = {1,..,m},
    witness for witness.  Runs come first, as step 1 is below every prime
    step: the witness of [x, R_m] is EMPTY at m = 1, else the run
    {1,..,m-1} if x lies in it, else the run {2,..,m} if x lies in it, else
    {1, 1+p, .., m}, p the least prime of e, as x is then x_e = {1, 1+e, ..,
    m}, e | m-1.  For each m <= n, a premise checks a witness by the cover
    criterion on the members outside it of the intervals it serves, all
    above one x:

    * {1,..,m-1} serves EMPTY: it walks the members holding m;
    * {2,..,m} serves x holding m, above {m}: each y outside it holds 1 and
      m, so it walks [{1, m}, R_m];
    * [x_e, R_m] holds the {1, 1+d, .., m}, d | e, a larger d lower: the
      dual of the divisor lattice of e, distributive, so every element is
      left-modular there; its witness is checked all the same.

    A premise fails exactly when [x, R_m] does, and x ascends (x_e by
    descending e): ``counterexample`` names the first failure, by ids.
    ``intervals`` counts the intervals with at least two elements, failing
    or not: |L(|hi|)| - 1 for each hi.
    """
    cost.require(f"comodernism of L({lattice.n})", cost.comodernism(lattice.n))
    size = sizes(lattice.n)
    intervals = sum(size[k] - 1 for _, _, k in lattice._fields)
    for m in range(1, lattice.n + 1):
        r_m = lattice.id_of[(1, 1, m) if m > 1 else (1, 0, 1)]
        for x, c, members in _premises(lattice, m, r_m):
            if _cover_failures(lattice, c, members):
                return ComodernismReport(False, intervals, (x, r_m))
    return ComodernismReport(True, intervals)


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
    _valid_id(lattice, x, "x")
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
    witness = Progression(1 + step, step if p > 2 else 0, p - 1)
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


# is_el: None when only the ER property was examined
# rising_failures: (lo, hi, number of strictly rising maximal chains)
# lex_failures: (lo, hi, rising word, smallest competing word)
# ties: (lo, hi, word shared by several maximal chains)
LabelingVerdict = namedtuple(
    "LabelingVerdict", "is_er is_el rising_failures lex_failures ties"
)


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
