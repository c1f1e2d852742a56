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
from itertools import combinations

from .lattice import Lattice, coatom_progressions
from .numtheory import divisors, is_squarefree, prime_divisors
from .progression import EMPTY, Progression, sort_key


class LatticeScaleError(ValueError):
    """An exhaustive check was asked for above its configured bound."""


def coatoms(lattice: Lattice) -> tuple[int, ...]:
    """Ids of the elements covered by the top, ascending.

    Uses the explicit construction (two size n-1 runs plus prime-step
    progressions through both endpoints); the test suite checks it against a
    brute-force scan of the order.
    """
    if lattice.n < 1:
        raise ValueError("L(0) has no coatoms")
    return tuple(sorted(lattice.id_of[c] for c in coatom_progressions(lattice.n)))


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


def _meet_subset(lattice: Lattice, target: int, candidates):
    """The unique nonempty subset of the candidate ids (in their order) whose
    meet is the target id, or None when there is none."""
    usable = [c for c in candidates if lattice.leq_ids(target, c)]
    hits = []
    for size in range(1, len(usable) + 1):
        for combo in combinations(usable, size):
            inter = combo[0]
            for c in combo[1:]:
                inter = lattice.meet_ids(inter, c)
            if inter == target:
                hits.append(combo)
    assert len(hits) <= 1, f"meet representation of id {target} not unique"
    return hits[0] if hits else None


def meet_of_coatoms_representation(lattice: Lattice, x: int):
    """The unique coatom subset whose meet is x, or None when x is not a meet
    of coatoms.  Defined for n >= 4 and x different from the top (the empty
    meet would represent the top; that degenerate case is excluded).

    The answer is read off the structural table and cross-checked by a subset
    search over the omega(n-1) + 2 coatoms.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("meet representations are defined for n >= 4")
    if x == lattice.top_id:
        raise ValueError("the top element is excluded (empty meet convention)")
    rep = coatom_meet_table(n).get(lattice.elements[x])
    ids = None if rep is None else tuple(sorted(lattice.id_of[c] for c in rep))
    assert _meet_subset(lattice, x, coatoms(lattice)) == ids, (
        f"structural/subset mismatch at n={n}, id {x}"
    )
    return ids


# ---------------------------------------------------------------------------
# left-modularity and comodernism


def _pairs_below(lattice: Lattice, members: tuple[int, ...]):
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if lattice.leq_ids(x, y):
                yield x, y
            elif lattice.leq_ids(y, x):
                yield y, x


def is_left_modular_in_interval(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """Definitional test: (x v m) ^ y == x v (m ^ y) for all x < y in [lo, hi]."""
    members = lattice.interval(lo, hi)
    if m not in members:
        raise ValueError("m must belong to the interval")
    for x, y in _pairs_below(lattice, members):
        left = lattice.meet_ids(lattice.join_ids(x, m), y)
        right = lattice.join_ids(x, lattice.meet_ids(m, y))
        if left != right:
            return False
    return True


def is_left_modular(lattice: Lattice, m: int) -> bool:
    """Definitional left-modularity of m in the whole lattice."""
    return is_left_modular_in_interval(lattice, lattice.bottom_id, lattice.top_id, m)


def interval_coatoms(lattice: Lattice, lo: int, hi: int) -> tuple[int, ...]:
    """Elements covered by hi that lie above lo."""
    return tuple(c for c in lattice.covers_down[hi] if lattice.leq_ids(lo, c))


def is_left_modular_coatom(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """Cover-based criterion for a coatom m of [lo, hi]: m is left-modular in
    the interval iff every member y not below m covers m ^ y.

    Agrees with the definitional test wherever both run (checked in tests).
    """
    if m not in interval_coatoms(lattice, lo, hi):
        raise ValueError("m must be a coatom of the interval")
    for y in lattice.interval(lo, hi):
        if lattice.leq_ids(y, m):
            continue
        if not lattice.covers(y, lattice.meet_ids(m, y)):
            return False
    return True


@dataclass
class ComodernismReport:
    holds: bool
    # one qualifying left-modular coatom per interval (lo, hi) with lo < hi
    witnesses: dict = field(default_factory=dict)
    counterexample: tuple | None = None


def is_comodernistic(lattice: Lattice, *, max_n: int = 8) -> ComodernismReport:
    """Exhaustive check that every interval with at least two elements has a
    left-modular coatom.  Guarded by max_n (default 8); the interval count
    grows too quickly beyond that.

    Witness search prefers the coatoms of size |hi|-1 (the two runs), then
    the remaining ones by ascending step, which keeps witnesses deterministic.
    """
    if lattice.n > max_n:
        raise LatticeScaleError(
            f"comodernism check is exhaustive; n={lattice.n} exceeds bound {max_n}"
        )
    report = ComodernismReport(True)
    size = len(lattice.elements)
    for hi in range(size):
        for lo in lattice.ideal(hi):
            if lo == hi:
                continue
            cands = sorted(
                interval_coatoms(lattice, lo, hi),
                key=lambda c: (
                    lattice.size_of(c) != lattice.size_of(hi) - 1,
                    lattice.elements[c].step,
                    c,
                ),
            )
            witness = None
            for m in cands:
                if is_left_modular_coatom(lattice, lo, hi, m):
                    witness = m
                    break
            if witness is None:
                report.holds = False
                report.counterexample = (lo, hi)
                return report
            report.witnesses[(lo, hi)] = witness
    return report


# ---------------------------------------------------------------------------
# complements


def complements_of(lattice: Lattice, x: int) -> tuple[int, ...]:
    """All y with x v y = top and x ^ y = bottom."""
    top, bottom = lattice.top_id, lattice.bottom_id
    return tuple(
        y
        for y in range(len(lattice.elements))
        if lattice.join_ids(x, y) == top and lattice.meet_ids(x, y) == bottom
    )


def is_complemented(lattice: Lattice) -> bool:
    """Exhaustive: every element has at least one complement."""
    if lattice.n < 2:
        raise ValueError("complementation is considered for n >= 2")
    return all(complements_of(lattice, x) for x in range(len(lattice.elements)))


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

    @classmethod
    def from_text(cls, lattice: Lattice, text: str) -> "EdgeLabeling":
        """Parse the line format 'lowerId upperId label'."""
        labels = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'lowerId upperId label'")
            lo, hi, lab = (int(v) for v in parts)
            if (lo, hi) in labels:
                raise ValueError(f"line {lineno}: duplicate edge ({lo}, {hi})")
            labels[(lo, hi)] = lab
        return cls(lattice, labels)

    def word(self, chain: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.labels[(a, b)] for a, b in zip(chain, chain[1:]))


def lex_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a precedes b when a is a prefix of b or a is smaller at the first
    differing position."""
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) <= len(b)


@dataclass
class LabelingVerdict:
    is_er: bool
    is_el: bool | None  # None when only the ER property was examined
    rising_failures: tuple  # (lo, hi, number of strictly rising maximal chains)
    lex_failures: tuple  # (lo, hi, rising word, smaller competing word)
    ties: tuple  # (lo, hi, word shared by several maximal chains)


def _is_rising(word: tuple[int, ...]) -> bool:
    return all(a < b for a, b in zip(word, word[1:]))


def _scan_labeling(labeling: EdgeLabeling, check_lex: bool, max_n: int):
    lattice = labeling.lattice
    if lattice.n > max_n:
        raise LatticeScaleError(
            f"labeling verification is exhaustive; n={lattice.n} exceeds bound {max_n}"
        )
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
                    if w != rising[0] and not lex_leq(rising[0], w):
                        lex_failures.append((lo, hi, rising[0], w))
                        break
    is_er = not rising_failures
    is_el = (is_er and not lex_failures) if check_lex else None
    return LabelingVerdict(
        is_er, is_el, tuple(rising_failures), tuple(lex_failures), tuple(ties)
    )


def verify_er_labeling(labeling: EdgeLabeling, *, max_n: int = 7) -> LabelingVerdict:
    """Every interval must have exactly one maximal chain with strictly
    increasing labels."""
    return _scan_labeling(labeling, check_lex=False, max_n=max_n)


def verify_el_labeling(labeling: EdgeLabeling, *, max_n: int = 7) -> LabelingVerdict:
    """ER, plus the rising chain's label word must lexicographically precede
    the word of every other maximal chain of its interval.

    Duplicate label words are reported in ``ties`` and never resolved here.
    """
    return _scan_labeling(labeling, check_lex=True, max_n=max_n)
