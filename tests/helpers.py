"""Set-to-progression, canonical-order key, relabeling, member-set,
coatom-progression, cover test, cover-embedding, subset-meet,
coatom-meet-table, cross-cut subset-fold, interval-coatom,
cover-criterion, size-k scan, count generating-function, comodernism-scan,
id-based premise walk, max-keyed witness, per-n comodernism verdict,
interval count, closed-form witness, representative witness search,
witness-fill, all-pairs left-modularity, complement-scan, per-n
complement and coatom verdict, count-row Moebius and chain-row,
quotient-block pnk and chain-value, per-m work estimate, Moebius-support,
column-sweep unit stage, signed-dict homology route, label-word,
chain-listing labeling and labeling-file helpers that only the tests use."""

from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import combinations, islice, repeat
from math import isqrt
from operator import floordiv, mul

from aplattice import cost, structure
from aplattice.complexes import SimplicialComplex, chain_counts
from aplattice.homology import HomologyResult, smith_normal_form
from aplattice.lattice import (
    Lattice,
    _coatom_fields,
    _embed_fields,
    _project_fields,
    build,
    count_rows,
    sizes,
)
from aplattice.numtheory import divisors, is_squarefree, omega, prime_divisors, valid_n
from aplattice.progression import EMPTY, Progression, _join_fields, _leq_fields, _meet_fields
from aplattice.progression import _of_fields, leq
from aplattice.structure import (
    EdgeLabeling,
    LabelingVerdict,
    coatoms,
)


class NotAProgressionError(ValueError):
    """Raised by from_set when a set is not an arithmetic progression."""


def from_set(elements: Iterable[int]) -> Progression:
    """Canonical progression for a finite set of positive integers.

    Raises NotAProgressionError when the gaps are unequal (e.g. {1,2,4}),
    ValueError when a member is not a positive integer.
    """
    xs = sorted(set(elements))
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in xs):
        raise ValueError("members must be positive integers")
    if not xs:
        return EMPTY
    if len(xs) == 1:
        return Progression(xs[0], 0, 1)
    step = xs[1] - xs[0]
    for a, b in zip(xs, xs[1:]):
        if b - a != step:
            raise NotAProgressionError(f"not an arithmetic progression: {set(xs)}")
    return Progression(xs[0], step, len(xs))


def sort_key(p: Progression) -> tuple[int, int, int]:
    """(size, base, step): the canonical element order of the lattice layer."""
    return (p.length, p.base, p.step)


def element_set(lattice: Lattice, i: int) -> frozenset[int]:
    return frozenset(lattice.elements[i].elements())


def embed_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression in {1,..,host.length} to the corresponding subset of
    host: position j goes to the j-th member of host."""
    return _of_fields(_embed_fields(p, host))


def project_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression contained in host to {1,..,host.length} coordinates;
    the inverse of embed_progression."""
    if not leq(p, host):
        raise ValueError(f"{p} is not contained in {host}")
    return _of_fields(_project_fields(p, host))


def coatom_progressions(n: int) -> tuple[Progression, ...]:
    """The elements covered by the top of L(n), in canonical order: the
    triples of lattice._coatom_fields as Progressions."""
    return tuple(map(_of_fields, _coatom_fields(n)))


def covers(lattice: Lattice, upper: int, lower: int) -> bool:
    """Whether the element upper covers the element lower."""
    return lower in lattice.covers_down[upper]


def covers_by_embedding(lattice: Lattice) -> tuple[tuple[int, ...], ...]:
    """covers_down by embedding each coatom Progression of L(|y|) into y,
    one ``_embed_fields`` call per cover: the oracle for the closed-form
    covers of Lattice."""
    coatoms = [()] + [coatom_progressions(m) for m in range(1, lattice.n + 1)]
    return tuple(
        tuple(lattice.id_of[_embed_fields(c, f)] for c in coatoms[f[2]])
        for f in lattice._fields
    )


def covers_by_member_sets(lattice: Lattice) -> tuple[tuple[int, ...], ...]:
    """covers_down from member sets alone: x is covered by y when its set is
    a proper subset of y's and no element's set lies strictly between."""
    sets = [element_set(lattice, i) for i in range(len(lattice))]
    out = []
    for y, top in enumerate(sets):
        below = [x for x, s in enumerate(sets) if s < top]
        out.append(
            tuple(x for x in below if not any(sets[x] < sets[z] for z in below))
        )
    return tuple(out)


def meet_subset(lattice: Lattice, target: int, candidates):
    """The unique nonempty subset of the candidate ids (in their order) whose
    meet is the target id, or None when there is none: a search over every
    subset, the oracle for the coatom meet table."""
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


def coatom_meet_table(n: int) -> dict[Progression, tuple[Progression, ...]]:
    """Every progression in {1,..,n} expressible as a meet of coatoms, with its
    unique representing coatom set (the top, whose representation would be the
    empty meet, is excluded): the forward-construction oracle for the
    closed-form rule lattice._coatom_meet.

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


def crosscut_by_subsets(lattice: Lattice) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The faces by dimension of the cross-cut complex on the coatoms of
    L(n), n >= 4, by folding meet and join over every subset of coatom
    positions: a subset is a face unless its meet is the bottom and its join
    the top.  Asserts that the coatoms form an antichain.  The oracle for
    complexes.crosscut_complex."""
    cs = coatoms(lattice)
    for a, b in combinations(cs, 2):
        assert not lattice.leq_ids(a, b) and not lattice.leq_ids(b, a), (
            "coatoms must form an antichain"
        )
    faces_by_dim = []
    for size in range(1, len(cs) + 1):
        layer = []
        for combo in combinations(range(len(cs)), size):
            chosen = [cs[i] for i in combo]
            spanning = (
                reduce(lattice.meet_ids, chosen) == lattice.bottom_id
                and reduce(lattice.join_ids, chosen) == lattice.top_id
            )
            if not spanning:
                layer.append(combo)
        if not layer:
            break
        faces_by_dim.append(tuple(layer))
    return tuple(faces_by_dim)


def interval_coatoms(lattice: Lattice, lo: int, hi: int) -> tuple[int, ...]:
    """Elements covered by hi that lie above lo."""
    return tuple(c for c in lattice.covers_down[hi] if lattice.leq_ids(lo, c))


def is_left_modular_coatom(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """Cover-based criterion for a coatom m of [lo, hi]: m is left-modular in
    the interval iff every member y not below m covers m ^ y, tested on each
    member in turn.  Agrees with the definitional test wherever both run,
    and shares no code with the failure lists of structure.is_comodernistic."""
    if m not in interval_coatoms(lattice, lo, hi):
        raise ValueError("m must be a coatom of the interval")
    return all(
        lattice.leq_ids(y, m) or covers(lattice, y, lattice.meet_ids(m, y))
        for y in lattice.interval(lo, hi)
    )


def count_progressions_enumerated(lattice: Lattice, k: int) -> int:
    """The number of size-k elements, by direct scan of a built lattice: an
    oracle of count_progressions_formula."""
    valid_n(k, name="k")
    return sum(1 for f in lattice._fields if f[2] == k)


def gf_coefficients(max_n: int, max_k: int) -> list[list[int]]:
    """Coefficient table of the bivariate generating function of the counts.

    Expands (1/(1-z)^2) * (1 - z + zq + sum_{k>=2} (zq)^k / (1 - z^{k-1}))
    as an exact truncated power series; entry [n][k] is the number of
    progressions of size k in {1,..,n}: an oracle of count_progressions_formula
    and count_rows.
    """
    valid_n(max_n, name="max_n")
    valid_n(max_k, name="max_k")
    # inner factor: 1 - z + zq + sum_{k>=2} z^{k + j(k-1)} q^k over j >= 0
    inner = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    inner[0][0] += 1
    if max_n >= 1:
        inner[1][0] -= 1
        if max_k >= 1:
            inner[1][1] += 1
    for k in range(2, min(max_k, max_n) + 1):
        e = k
        while e <= max_n:
            inner[e][k] += 1
            e += k - 1
    # multiply by 1/(1-z)^2 = sum_m (m+1) z^m
    out = [[0] * (max_k + 1) for _ in range(max_n + 1)]
    for n in range(max_n + 1):
        row = out[n]
        for m in range(n + 1):
            w = m + 1
            src = inner[n - m]
            for k in range(max_k + 1):
                if src[k]:
                    row[k] += w * src[k]
    return out


def pnk_by_rows(n: int) -> list[int]:
    """M(0..n) by the p(n, k) recurrence as written, one dot product with
    each whole count row: the oracle for the differenced pnk engine."""
    values = [1]
    for row in islice(count_rows(n), 1, None):
        # values holds M(0..m-1), so map stops before p(m, m)
        values.append(-sum(map(mul, values, row)))
    return values


def chain_counts_by_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The chain rows (b(m, 1), .., b(m, m)) for m = 0..n by the recurrence
    b(m, k) = sum over i < m of p(m, i) * b(i, k-1) as written, one dot
    product per b(m, k) with a whole count row: the oracle for the packed
    quotient-block rows of complexes.chain_counts."""
    rows: list[tuple[int, ...]] = [()]
    cols: list[list[int]] = [[]]  # cols[k] holds b(k, k), b(k+1, k), ..
    for m, p in enumerate(islice(count_rows(n), 1, None), 1):
        cols.append([])
        # cols[k-1] holds b(k-1..m-1, k-1), so map stops before p(m, m)
        row = (1, *(sum(map(mul, p[k - 1 :], cols[k - 1])) for k in range(2, m + 1)))
        for k, b in enumerate(row, 1):
            cols[k].append(b)
        rows.append(row)
    return tuple(rows)


def _quotient_block_sum(values: list[int], prefix: list[int], big: int) -> int:
    """The sum over 1 <= j < big of (big//j) * values[j+1], for big >= 2, in
    O(isqrt(big)) terms, where prefix[x] = values[2] + .. + values[x+1] for
    x < big.  The terms j <= isqrt(big) are summed directly; the rest fall in
    blocks of equal quotient q = big//j, summed by parts over the prefix."""
    r = isqrt(big)
    quotients = map(floordiv, repeat(big), range(1, r + 1))
    direct = sum(map(mul, values[2 : r + 2], quotients))
    # Block q holds the j with big//(q+1) < j <= big//q, for q = 1..last,
    # which covers r < j < big.  By parts, the sum of
    # q * (prefix[big//q] - prefix[big//(q+1)]) is the sum of prefix[big//q]
    # less last * prefix[r]; block 1 stops at big-1, short of values[big+1].
    last = big // (r + 1)
    ends = map(floordiv, repeat(big), range(2, last + 1))
    blocks = prefix[big - 1] + sum(map(prefix.__getitem__, ends)) - last * prefix[r]
    return direct + blocks


def pnk_by_quotient_blocks(n: int) -> list[int]:
    """M(0..n) by M(N+1) = 1 - sum over 1 <= j < N of (N//j) M(j+1), each sum
    taken afresh in blocks of equal quotient over a running prefix sum: the
    oracle for the divisor walk of moebius._pnk_values."""
    values = [1, -1, 1]  # M(2) = 1: at m = 2 the sum over j is empty
    prefix = [0, 1]  # prefix[x] = M(2) + .. + M(x+1), for x < N
    for big in range(2, n):  # big is N = m - 1 for m = 3..n
        values.append(1 - _quotient_block_sum(values, prefix, big))
        prefix.append(prefix[-1] + values[-1])
    return values[: n + 1]


def chain_values_by_quotient_blocks(n: int, shift: int) -> list[int]:
    """B_0(t), .., B_n(t) at t = 2**shift by B_(N+1) = B_N + t (t + B_N +
    sum over 1 <= j < N of (N//j) B_(j+1)), each sum taken afresh in blocks
    of equal quotient: the oracle for the divisor walk of
    complexes._chain_values."""
    t = 1 << shift
    values = [1, t, (1 + 2 * t) << shift]  # B_0, B_1 and B_2 = t (1 + 2t)
    prefix = [0, values[2]]  # prefix[x] = B_2 + .. + B_(x+1), for x < N
    for big in range(2, n):  # big is N = m - 1 for m = 3..n
        block_sum = _quotient_block_sum(values, prefix, big)
        values.append(values[-1] + ((t + values[-1] + block_sum) << shift))
        prefix.append(prefix[-1] + values[-1])
    return values[: n + 1]


def _first_past_budget(counts: Iterable[int]) -> int:
    """The first count past the work budget, or else the last count."""
    for count in counts:
        if count > cost.BUDGET:
            break
    return count


def _face_rows(n: int):
    """(b(m, 2), .., b(m, m)) for m = 0..n, one chain_counts run per m: a
    chain of length d + 2 from the bottom to the top is a d-face."""
    for m in range(n + 1):
        yield chain_counts(m, last=True)[1:] if m else ()


def faces_by_rows(n: int) -> int:
    """Faces of the order complex of L(n), summed off one row per m: the
    oracle for cost.faces."""
    return _first_past_budget(map(sum, _face_rows(n)))


def nonzeros_by_rows(n: int) -> int:
    """Boundary non-zeros of that complex, d + 1 per d-face, one row per m:
    the oracle for cost.nonzeros."""
    rows = _face_rows(n)
    return _first_past_budget(sum(map(mul, row, range(1, n + 1))) for row in rows)


def definition_price_by_elements(n: int) -> int:
    """The definition engine's terms: the build of L(n), then |L(m)| for each
    m <= n by the size identity.  The oracle for cost.engine(n, "definition")."""
    built = cost.ELEMENT * cost.elements(n)
    if built > cost.BUDGET:
        return built
    return built + sum(cost.elements(m) for m in range(n + 1))


def mobius_support(lattice: Lattice) -> tuple[tuple[int, int], ...]:
    """All (id, mu(id, top)) pairs with nonzero value, ascending by id.

    Read off coatom_meet_table(n); defined for n >= 4.  Every value is +1 or
    -1, and the number of pairs is 2 ** (omega(n-1) + 2), both asserted here;
    test_moebius checks the values against the definitional recursion.
    """
    n = lattice.n
    if n < 4:
        raise ValueError("mobius_support is defined for n >= 4")
    table = coatom_meet_table(n)
    out = []
    for i, p in enumerate(lattice.elements):
        if i == lattice.top_id:
            out.append((i, 1))
            continue
        rep = table.get(p)
        if rep is not None:
            out.append((i, (-1) ** len(rep)))
    assert len(out) == 2 ** (omega(n - 1) + 2), "support size disagrees with 2^(omega+2)"
    assert all(v in (-1, 1) for _, v in out)
    return tuple(out)


def eliminate_units_by_sweep(cols: list[dict[int, int]]) -> list[int]:
    """The unit stage by column sweeps: each column in turn pivots on the
    unit in its shortest row, until a sweep finds no unit.  Same contract as
    homology._eliminate_units; the oracle for its global pivot order."""
    where: defaultdict[int, set[int]] = defaultdict(set)  # row -> live columns there
    for c, col in enumerate(cols):
        for r in col:
            where[r].add(c)
    pivots = []
    progress = True
    while progress:
        progress = False
        for c, col in enumerate(cols):
            r, size = None, 0  # the first unit of the column in a shortest row
            for i, v in col.items():
                if (v == 1 or v == -1) and (r is None or len(where[i]) < size):
                    r, size = i, len(where[i])
            if r is None:
                continue
            u = col.pop(r)
            for k in where.pop(r):
                if k == c:
                    continue
                other = cols[k]
                f = other.pop(r) * u  # u * u == 1, so this clears row r
                for i, v in col.items():
                    w = other.get(i, 0) - f * v
                    if w:
                        if i not in other:
                            where[i].add(k)
                        other[i] = w
                    else:
                        del other[i]
                        where[i].discard(k)
            for i in col:
                where[i].discard(c)
            col.clear()
            pivots.append(r)
            progress = True
    return pivots


def signed_boundary_matrix(
    complex: SimplicialComplex, d: int, cleared: frozenset[int] = frozenset()
) -> tuple[dict[int, int], ...]:
    """The d-th boundary map as row -> value dict columns, one per d-face
    whose index is not in `cleared`: removing the vertex at position i
    gives (-1)**i at the row of the (d-1)-face left.  The oracle for
    homology.boundary_matrix and the signs it implies."""
    rows = complex.faces(d - 1) if d else ((),)
    row_of = {f: i for i, f in enumerate(rows)}
    return tuple(
        {row_of[face[:i] + face[i + 1 :]]: (-1) ** i for i in range(d + 1)}
        for k, face in enumerate(complex.faces(d))
        if k not in cleared
    )


def peel_signed_units(cols: Sequence[dict[int, int]], nrows: int) -> list[int]:
    """The counter collapses on row -> value dict columns: pivot on every
    row whose one live entry is +-1 until none is left; a singleton that is
    not a unit stays.  Returns the pivot rows in elimination order; pivot
    columns are left empty in `cols`.  The same two counters per row as
    homology._peel_units, which reads boundary columns with no values."""
    count = [0] * nrows
    tot = [0] * nrows
    for c, col in enumerate(cols):
        for r in col:
            count[r] += 1
            tot[r] += c
    todo = [r for col in cols for r in col if count[r] == 1]
    pivots = []
    for r in todo:  # rows appended below are visited too
        if count[r] != 1:
            continue
        c = tot[r]
        col = cols[c]
        if col[r] not in (1, -1):
            continue
        for i in col:
            count[i] -= 1
            tot[i] -= c
            if count[i] == 1:
                todo.append(i)
        col.clear()
        pivots.append(r)
    return pivots


def homology_of_divisors(
    fvec: tuple[int, ...], divisors: Sequence[tuple[int, ...]]
) -> HomologyResult:
    """The reduced homology of a complex with f-vector `fvec` whose d-th
    boundary map has the elementary divisors divisors[d]."""
    ranks = [len(ds) for ds in divisors] + [0]
    return HomologyResult(
        tuple(fvec[d] - ranks[d] - ranks[d + 1] for d in range(len(fvec))),
        tuple(tuple(v for v in ds if v > 1) for ds in divisors[1:]) + ((),),
        rank_minus1=1 - ranks[0],
    )


def signed_homology(complex: SimplicialComplex) -> HomologyResult:
    """reduced_homology by the signed-dict route: each map, cleared by the
    unit pivot rows of the map above, assembled as dict columns
    (signed_boundary_matrix), collapsed in place (peel_signed_units), and
    the columns left put through smith_normal_form.  The oracle for the
    collapses of homology.reduced_homology on unsigned facet rows."""
    if complex.dim < 0:
        return HomologyResult((), (), rank_minus1=1)
    fvec = complex.f_vector()
    divisors = [()] * (complex.dim + 1)
    paired: list[int] = []
    for d in reversed(range(complex.dim + 1)):
        cols = signed_boundary_matrix(complex, d, frozenset(paired))
        paired = peel_signed_units(cols, fvec[d - 1] if d else 1)
        live = [col for col in cols if col]
        divisors[d] = (1,) * len(paired) + smith_normal_form(live, paired)
    return homology_of_divisors(fvec, divisors)


def comodernism_by_scan(lattice: Lattice) -> dict:
    """Witness of every interval (lo, hi) with lo < hi, searched in that
    interval itself: its coatoms of size |hi|-1 first, then by ascending
    step, then id, the first passing the cover criterion.  The oracle for
    is_comodernistic; None stands for an interval with no such coatom."""
    witnesses = {}
    for hi in range(len(lattice)):
        for lo in lattice.ideal(hi)[:-1]:
            cands = sorted(
                interval_coatoms(lattice, lo, hi),
                key=lambda c: (
                    lattice.size_of(c) != lattice.size_of(hi) - 1,
                    lattice.elements[c].step,
                    c,
                ),
            )
            witnesses[(lo, hi)] = next(
                (m for m in cands if is_left_modular_coatom(lattice, lo, hi, m)), None
            )
    return witnesses


def intervals_by_elements(lattice: Lattice) -> int:
    """The intervals [lo, hi] with lo < hi, |L(|hi|)| - 1 for each element hi
    walked.  The oracle for lattice.interval_counts."""
    size = sizes(lattice.n)
    return sum(size[k] - 1 for _, _, k in lattice._fields)


def cover_failures_by_ids(lattice: Lattice, c: int, members) -> tuple[int, ...]:
    """The member ids y not below c that do not cover c ^ y, read off the
    built meets and covers_down.  The oracle for structure._cover_failures,
    which decides the same on triples."""
    below = lattice.covers_down
    meets = (lattice.meet_ids(c, y) for y in members)
    return tuple(y for y, z in zip(members, meets) if z != y and z not in below[y])


def first_coatom_by_ids(lattice: Lattice, lo: int, hi: int, pick=min) -> int:
    """The coatom of [lo, hi] that `pick` (min, or max for a broken rule)
    takes by step, then base, read off covers_down."""
    fields = lattice._fields
    above = [c for c in lattice.covers_down[hi] if lattice.leq_ids(lo, c)]
    return pick(above, key=lambda c: (fields[c][1], fields[c][0]))


def last_coatom(lo: tuple, covers) -> tuple:
    """structure._first_coatom keyed by max: a witness that is not
    left-modular from [{}, {1,2,3,4}] on."""
    return max((c for c in covers if _leq_fields(lo, c)), key=lambda c: (c[1], c[0]))


def premises_by_ids(lattice: Lattice, m: int, r_m: int, pick=min):
    """(x, witness, members) of each premise at m by ascending x, as ids of
    the built lattice."""
    id_of = lattice.id_of
    firsts = [((0, 0, 0), (m, 0, 1))] + ([((m, 0, 1), (1, m - 1, 2))] if m > 1 else [])
    x_es = [(1, e, (m - 1) // e + 1) for e in divisors(m - 1)[:0:-1]] if m > 1 else []
    for x, least in [*firsts, *zip(x_es, x_es)]:
        x = id_of[x]
        witness = first_coatom_by_ids(lattice, x, r_m, pick)
        yield x, witness, lattice.interval(id_of[least], r_m)


def comodernism_failure_by_ids(lattice: Lattice, pick=min) -> tuple[int, int] | None:
    """The ids (x, R_m) of the first failing premise of a built lattice, or
    None: the premise walk on ids, through interval and covers_down.  The
    oracle for structure._comodernism_failure, which walks triples alone."""
    for m in range(1, lattice.n + 1):
        r_m = lattice.id_of[(1, 1, m) if m > 1 else (1, 0, 1)]
        for x, c, members in premises_by_ids(lattice, m, r_m, pick):
            if cover_failures_by_ids(lattice, c, members):
                return x, r_m
    return None


def comodernistic_of_n(lat: Lattice, pick=min) -> tuple[bool, str]:
    """The verdict and detail of `check comodernistic` for n, from the built
    L(n) and an id-based premise walk (its witness taken by `pick`), the
    intervals counted element by element.  The oracle for the range path of
    cli, which reads every n off one walk of triples."""
    failure = comodernism_failure_by_ids(lat, pick)
    if failure is None:
        return True, f"{intervals_by_elements(lat)} intervals witnessed"
    return False, f"counterexample interval {failure}"


def witness_closed_form(m: int, x: tuple) -> tuple:
    """The witness of [x, R_m], x < R_m = {1,..,m}, as a triple of L(m), by
    cases: EMPTY at m = 1, else the run {1,..,m-1} if x lies in it, else the
    run {2,..,m} if x lies in it, else {1, 1+p, .., m}, p the least prime of
    the step e of x = {1, 1+e, .., m}.  The oracle, with the search, for
    structure.comodernism_witness on [x, R_m]."""
    base, step, length = x
    if m == 1:
        return (0, 0, 0)
    if base > 1 or base + (length - 1) * step < m:  # x lies in a run
        return (1 if base + (length - 1) * step < m else 2, 1 if m > 2 else 0, m - 1)
    p = prime_divisors(step)[0]
    return (1, p, (m - 1) // p + 1)


def witnesses_by_search(lattice: Lattice, m: int) -> tuple[dict, tuple | None]:
    """The witness of every interval [x, R_m] with x below R_m = {1,..,m},
    as (base, step, length) triples: its first coatom passing the cover
    criterion, by ascending step (the two runs of size m-1 keep the step of
    R_m, every other coatom has a prime multiple of it), then id, read from
    one failure list per coatom over the whole ideal of R_m.  Returns
    (witnesses, None), or the witnesses found so far and the first x whose
    interval has none.  The oracle for witness_closed_form and
    structure.comodernism_witness, which name the same witness without a
    search."""
    fields, leq = lattice._fields, lattice.leq_ids
    r_m = lattice.id_of[(1, 1, m) if m > 1 else (1, 0, 1)]
    members = lattice.ideal(r_m)
    by_step = sorted(lattice.covers_down[r_m], key=lambda c: (fields[c][1], c))
    triples = [fields[y] for y in members]
    failures = [
        (c, [lattice.id_of[y] for y in structure._cover_failures(fields[c], triples)])
        for c in by_step
    ]
    witnesses = {}
    for lo in members[:-1]:
        for c, bad in failures:
            if leq(lo, c) and not any(leq(lo, y) for y in bad):
                witnesses[fields[lo]] = fields[c]
                break
        else:
            return witnesses, fields[lo]
    return witnesses, None


def witnesses_by_fill(lattice: Lattice) -> dict:
    """The witness of every interval (lo, hi), lo < hi, as a dict filled by
    ascending hi: each representative [x, R_|hi|] and its searched witness
    embedded into hi, in the order of the search.  The oracle for the values
    of structure.comodernism_witness."""
    index, out, searched = lattice.id_of, {}, {}
    for hi, host in enumerate(lattice._fields):
        if host[2]:
            if host[2] not in searched:
                searched[host[2]] = witnesses_by_search(lattice, host[2])[0]
            for x, w in searched[host[2]].items():
                out[(index[_embed_fields(x, host)], hi)] = index[_embed_fields(w, host)]
    return out


def left_modular_by_all_pairs(lattice: Lattice, lo: int, hi: int, m: int) -> bool:
    """(x v m) ^ y == x v (m ^ y) on every pair x < y of members of [lo, hi],
    by meets and joins of their triples: every member pair is tested for
    comparability and no pair is skipped.  The oracle for
    structure.is_left_modular_in_interval."""
    c, members = lattice._fields[m], [lattice._fields[i] for i in lattice.interval(lo, hi)]
    meets = [_meet_fields(c, y) for y in members]
    for i, x in enumerate(members):
        x_join_m = _join_fields(x, c)
        for y, m_meet_y in zip(members[i + 1 :], meets[i + 1 :]):
            if not _leq_fields(x, y):  # ids ascend, so y is never below x
                continue
            if _meet_fields(x_join_m, y) != _join_fields(x, m_meet_y):
                return False
    return True


def complements_by_scan(lattice: Lattice, x: int):
    """Every y with x v y = top and x ^ y = bottom, ascending, lazily: a join
    and a meet of triples with every element of the lattice.  The oracle for
    structure.complements_of and structure._uncomplemented."""
    fields = lattice._fields
    p, top = fields[x], fields[-1]
    return (
        y
        for y, q in enumerate(fields)
        if _join_fields(p, q) == top and _meet_fields(p, q) == (0, 0, 0)
    )


def first_uncomplemented_by_scan(lattice: Lattice) -> int | None:
    """The first id, ascending, for which the full scan finds no complement,
    or None."""
    return next(
        (x for x in range(len(lattice)) if next(complements_by_scan(lattice, x), None) is None),
        None,
    )


def first_uncomplemented_by_ids(lattice: Lattice) -> int | None:
    """The first id, ascending, with no complement among the ids that hold
    1, and n, exactly when it does not, by a join and a meet of ids with
    each, or None.  The per-n oracle for the triple scan of cli."""
    n, top = lattice.n, lattice.top_id
    ends = [(b == 1, b + (k - 1) * s == n) for b, s, k in lattice._fields]
    classes = defaultdict(list)
    for y, key in enumerate(ends):
        classes[key].append(y)
    for x, (first, last) in enumerate(ends):
        if not any(
            lattice.join_ids(x, y) == top and lattice.meet_ids(x, y) == 0
            for y in classes[(not first, not last)]
        ):
            return x
    return None


def semicomplement_by_ids(lattice: Lattice) -> Progression | None:
    """The closed-form witness {1 + (n-1)/p, .., n - (n-1)/p}, p the least
    prime whose square divides n-1, asserted by a join with every id to have
    the top as its only upper semicomplement; None when n-1 is squarefree.
    The oracle for structure.semicomplement_witness."""
    n = lattice.n
    if is_squarefree(n - 1):
        return None
    p = next(q for q in prime_divisors(n - 1) if (n - 1) % (q * q) == 0)
    step = (n - 1) // p
    witness = from_set(range(1 + step, n, step))
    w = lattice.id_of[witness]
    joins = [y for y in range(len(lattice)) if lattice.join_ids(w, y) == lattice.top_id]
    assert joins == [lattice.top_id], n
    return witness


def complemented_of_n(lat: Lattice) -> tuple[bool, str]:
    """The verdict and detail of `check complemented` for n, from the built
    L(n), with the complements and the witness checked on ids.  The oracle
    for the triple scan of cli."""
    n = lat.n
    have = first_uncomplemented_by_ids(lat) is None
    want = is_squarefree(n - 1)
    ok = have == want
    detail = f"complemented={have}, squarefree(n-1)={want}"
    if not want:
        witness = semicomplement_by_ids(lat)
        ok = ok and witness is not None
        detail += f", semicomplement witness {witness}"
    return ok, detail


def coatoms_of_n(lat: Lattice) -> tuple[bool, str]:
    """The verdict and detail of `check coatoms` for n, from the built L(n):
    its covers of the top against the ids below the top with no id between
    them and the top above them (ids ascend with size, so only larger ids
    can be).  The oracle for the triple scan of cli."""
    n = lat.n
    built = coatoms(lat)
    top = lat.top_id
    brute = tuple(
        i for i in range(top) if not any(lat.leq_ids(i, y) for y in range(top - 1, i, -1))
    )
    ok = built == brute
    detail = f"{len(built)} coatoms"
    if n >= 4:
        ok = ok and len(built) == omega(n - 1) + 2
        detail += f", omega(n-1)+2 = {omega(n - 1) + 2}"
    return ok, detail


def label_word(labeling: EdgeLabeling, chain: tuple[int, ...]) -> tuple[int, ...]:
    """The labels of the cover steps of a chain of ids, bottom up."""
    return tuple(labeling.labels[(a, b)] for a, b in zip(chain, chain[1:]))


def labeling_by_chains(labeling: EdgeLabeling, check_lex: bool) -> LabelingVerdict:
    """The verdict of structure.verify_el_labeling (check_lex) or
    verify_er_labeling by listing the maximal chains of every interval
    [lo, hi], lo < hi, by ascending (hi, lo), and their label words.  A lex
    failure names the smallest competing word.  The oracle for the word
    sweep."""
    lattice = labeling.lattice
    rising_failures, lex_failures, ties = [], [], []
    for hi in range(len(lattice)):
        for lo in lattice.ideal(hi)[:-1]:
            words = [label_word(labeling, c) for c in lattice.maximal_chains(lo, hi)]
            for w in sorted(set(words)):
                if words.count(w) > 1:
                    ties.append((lo, hi, w))
            rising = [w for w in words if all(a < b for a, b in zip(w, w[1:]))]
            if len(rising) != 1:
                rising_failures.append((lo, hi, len(rising)))
                continue
            smaller = [w for w in words if w < rising[0]]
            if check_lex and smaller:
                lex_failures.append((lo, hi, rising[0], min(smaller)))
    is_er = not rising_failures
    is_el = (is_er and not lex_failures) if check_lex else None
    return LabelingVerdict(
        is_er, is_el, tuple(rising_failures), tuple(lex_failures), tuple(ties)
    )


def edge_labeling_from_text(lattice: Lattice, text: str) -> EdgeLabeling:
    """Parse the line format 'lowerId upperId label'; '#' starts a comment
    line."""
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
    return EdgeLabeling(lattice, labels)


def ideal_isomorphism(lattice: Lattice, x: int) -> dict[int, int]:
    """Relabeling bijection from the ideal below x onto L(size of x).

    Keys are ids in `lattice`, values are ids in build(size_of(x)).
    Rejects the empty progression.
    """
    host = lattice.elements[x]
    if host.is_empty:
        raise ValueError("the empty progression has a one-point ideal; no relabeling")
    target = build(host.length)
    return {
        i: target.id_of[project_progression(lattice.elements[i], host)]
        for i in lattice.ideal(x)
    }
