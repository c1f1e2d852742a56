"""Structural properties of L(n): coatoms, meet representations, left-modularity,
comodernism, complements, and an ER/EL edge-labeling verifier.

Conventions used throughout:

* an interval [lo, hi] of a lattice is a sublattice, and a cover step between
  two of its members is a cover step of the whole lattice, so interval-level
  notions reuse the global cover structure;
* "coatom of [lo, hi]" means an element covered by hi that lies above lo;
* comodernism is checked over intervals with at least two elements (a
  one-point interval has no coatoms to offer), each a relabeled copy of some
  [x, R_m], R_m = {1,..,m}: only their premises are checked, on triples;
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
* endpoint keys: in L(n), n >= 1, a join spans from the smaller first to
  the larger last member and a meet is the intersection, so a complement of
  x holds 1, and n, exactly when x does not.  The complement scan groups
  the triples of L(n) by that key, with no build, and tests each x on the
  opposite key alone, up to its first complement.  L(0) keeps the plain
  scan: its one element is its own complement;
* word sweeps: every maximal chain of [lo, y] ends in a cover c -> y with c
  in [lo, y], and ids ascend with size, so one ascending walk of the filter
  of lo builds the label words of every [lo, y].
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import lt

from . import cost
from .lattice import Lattice, _coatom_fields, _coatom_meet, _embed_fields, _valid_id
from .lattice import _canonical_fields, _interval_fields, _project_fields, interval_counts
from .numtheory import divisors, is_squarefree, prime_divisors
from .progression import EMPTY, Progression, _Fields, _join_fields, _leq_fields, _meet_fields


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
    fields = lattice._fields
    low, high, c = fields[lo], fields[hi], fields[_valid_id(lattice, m, "m")]
    if not (_leq_fields(low, c) and _leq_fields(c, high)):
        raise ValueError("m must belong to the interval")
    members = tuple(_interval_fields(low, high))
    pairs = len(members) * (len(members) - 1) // 2
    cost.require(f"the left-modularity test on {len(members):,} elements", pairs)
    return not any(
        _meet_fields(_join_fields(x, c), y) != _join_fields(x, _meet_fields(c, y))
        for y in _cover_failures(c, members)
        for x in (_embed_fields(f, y) for f in _coatom_fields(y[2]))
    )


def is_left_modular(lattice: Lattice, m: int) -> bool:
    """Left-modularity of m in the whole lattice."""
    return is_left_modular_in_interval(lattice, lattice.bottom_id, lattice.top_id, m)


def _cover_failures(c: _Fields, members) -> tuple[_Fields, ...]:
    """The member triples y not below c (c ^ y != y) that do not cover c ^ y
    (c ^ y, relabeled into y, is no coatom of L(|y|)): the cover criterion
    for c fails on an interval exactly when it holds one.  Call x <= y in
    [lo, hi] strict when x v (c ^ y) < (x v c) ^ y; c in [lo, hi] is
    left-modular there exactly when no listed y has a strict cover x -> y:

    1. x' = x v (c ^ y) has (x' v c) ^ y = (x v c) ^ y = w, so if x <= y is
       strict, any x' -> x1 <= w is a strict cover pair (c ^ x1 <= x');
    2. only a listed y has one: x v (c ^ y) = y makes both sides y, and
       x = c ^ y makes both x, so a strict x -> y has c ^ y < x (so x >= lo);
    3. for a coatom c every listed y has one: c ^ y < x -> y puts x outside
       c, so (x v c) ^ y = hi ^ y = y != x.  This is the cover criterion.
    """
    return tuple(
        y
        for y in members
        if (z := _meet_fields(c, y)) != y
        and _project_fields(z, y) not in _coatom_fields(y[2])
    )


def _first_coatom(lo: _Fields, covers) -> _Fields:
    """The witness of [lo, hi] among the covers of hi: the first by step, then base."""
    return min((c for c in covers if _leq_fields(lo, c)), key=lambda c: (c[1], c[0]))


def comodernism_witness(lattice: Lattice, lo: int, hi: int) -> int:
    """The left-modular coatom that ``is_comodernistic`` checks for [lo, hi]:
    its first coatom by step, then base.  ValueError unless lo and hi are
    ids of the lattice with lo < hi."""
    if not lattice.leq_ids(lo, hi) or lo == hi:
        raise ValueError(f"a witness needs lo < hi, got ids {lo}, {hi}")
    covers = [lattice._fields[c] for c in lattice.covers_down[hi]]
    return lattice.id_of[_first_coatom(lattice._fields[lo], covers)]


def _comodernism_failure(n: int) -> tuple[_Fields, _Fields] | None:
    """The first failing premise (``is_comodernistic``) as triples (x, R_m),
    or None: L(m)'s premises are triples of every L(n), n >= m."""
    for m in range(1, n + 1):
        r_m = (1, 1, m) if m > 1 else (1, 0, 1)
        firsts = [((0, 0, 0), (m, 0, 1))] + ([((m, 0, 1), (1, m - 1, 2))] if m > 1 else [])
        x_es = [(1, e, (m - 1) // e + 1) for e in divisors(m - 1)[:0:-1]] if m > 1 else []
        for x, least in [*firsts, *zip(x_es, x_es)]:
            c = _first_coatom(x, _coatom_fields(m))
            if _cover_failures(c, _interval_fields(least, r_m)):
                return x, r_m
    return None


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
    descending e): ``counterexample`` names by ids the first failure of the
    walk on triples, ``_comodernism_failure``.  ``intervals`` counts the
    intervals with at least two elements, failing or not, in closed form.
    """
    cost.require(f"comodernism of L({lattice.n})", cost.comodernism(lattice.n))
    failure = _comodernism_failure(lattice.n)
    ids = failure and tuple(lattice.id_of[f] for f in failure)
    return ComodernismReport(failure is None, interval_counts(lattice.n)[-1], ids)


# ---------------------------------------------------------------------------
# complements

def _ends(n: int, fields: _Fields) -> int:
    """The endpoint key of a triple of L(n), n >= 1: 1 if it holds 1, plus 2
    if it holds n.  A complement of x has the opposite key, 3 less x's."""
    base, step, length = fields
    return (base == 1) + 2 * (base + (length - 1) * step == n)


def _complements(x: _Fields, top: _Fields, candidates):
    """The candidate triples y with x v y = top and x ^ y = EMPTY, lazily."""
    return (y for y in candidates if _join_fields(x, y) == top and _meet_fields(x, y) == EMPTY)


def _uncomplemented(n: int) -> _Fields | None:
    """The first triple of L(n), n >= 2, with no complement, or None, testing
    each x in canonical order on the opposite endpoint key up to its first."""
    classes, top = {}, (1, 1, n)
    for y in _canonical_fields(n):
        classes.setdefault(_ends(n, y), []).append(y)
    for x in _canonical_fields(n):
        if next(_complements(x, top, classes.get(3 - _ends(n, x), ())), None) is None:
            return x
    return None


def complements_of(lattice: Lattice, x: int) -> tuple[int, ...]:
    """All y with x v y = top and x ^ y = bottom, ascending."""
    n, fields = lattice.n, lattice._fields
    x = fields[_valid_id(lattice, x, "x")]
    key = 3 - _ends(n, x)  # L(0): its one element is its own complement
    candidates = (y for y in fields if _ends(n, y) == key) if n else fields
    return tuple(map(lattice.id_of.__getitem__, _complements(x, fields[-1], candidates)))


def is_complemented(lattice: Lattice) -> bool:
    """Exhaustive: every element has a complement, decided on triples."""
    if lattice.n < 2:
        raise ValueError("complementation is considered for n >= 2")
    return _uncomplemented(lattice.n) is None


def semicomplement_witness(lattice: Lattice):
    """For n-1 divisible by a prime square, the progression
    {1 + (n-1)/p, 1 + 2(n-1)/p, .., n - (n-1)/p} (smallest such prime p),
    whose only upper semicomplement is the top.  None when n-1 is squarefree.

    The claimed property is verified exhaustively before returning.
    """
    return _semicomplement(lattice.n)


def _semicomplement(n: int) -> Progression | None:
    """``semicomplement_witness`` of L(n), checked on triples."""
    if n < 2 or is_squarefree(n - 1):
        return None
    p = next(q for q in prime_divisors(n - 1) if (n - 1) % (q * q) == 0)
    step = (n - 1) // p
    witness = Progression(1 + step, step if p > 2 else 0, p - 1)
    # the witness holds neither 1 nor n, so an upper semicomplement holds
    # both: it is {1, 1+d, .., n} for a divisor d of n-1, the top at d = 1
    for d in divisors(n - 1)[1:]:
        if _join_fields(witness, (1, d, (n - 1) // d + 1)) == (1, 1, n):
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
    labels, covers_down, top = labeling.labels, lattice.covers_down, lattice.top_id
    rising_failures, lex_failures, ties = [], [], []
    for lo in range(len(lattice)):
        words = {lo: [()]}  # words[y]: the label words of [lo, y]
        for hi in lattice._ids(lo, top)[1:]:
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
