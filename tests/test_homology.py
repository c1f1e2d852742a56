import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from aplattice import complexes as cx
from aplattice import homology as hm
from aplattice import numtheory as nt

from helpers import (
    eliminate_units_by_sweep,
    homology_of_divisors,
    peel_signed_units,
    signed_boundary_matrix,
    signed_homology,
)


def rational_rank(entries):
    """Independent oracle: Gaussian elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in entries]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rational_det(entries):
    rows = [[Fraction(v) for v in row] for row in entries]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def sparse(entries):
    """The row -> value dict columns of a dense row-major grid."""
    cols = len(entries[0]) if entries else 0
    return tuple(
        {i: row[j] for i, row in enumerate(entries) if row[j]} for j in range(cols)
    )


def signed(cols, d):
    """The row -> value dict view of the boundary columns `cols` of the
    d-th map: the facet at position j holds (-1)**(d - j)."""
    signs = [(-1) ** (d - j) for j in range(d + 1)]
    return tuple(dict(zip(col, signs)) for col in cols)


def unit_shadow(entries):
    """The +-1 columns with the signs of the nonzero entries of a grid."""
    return tuple(
        {r: 1 if v > 0 else -1 for r, v in col.items()} for col in sparse(entries)
    )


def determinantal_divisors(entries, rank):
    """d_k = gcd of the k x k minors, for k = 1..rank, via rational_det."""
    m, n = len(entries), len(entries[0])
    out = []
    for k in range(1, rank + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                minor = rational_det([[entries[i][j] for j in cs] for i in rs])
                g = gcd(g, int(minor))
        out.append(g)
    return out


def assert_snf_matches_oracles(entries):
    diag = hm.smith_normal_form(sparse(entries))
    rank = len(diag)
    assert rank == rational_rank(entries), entries
    assert all(d > 0 for d in diag), entries
    # s_1 * .. * s_k = d_k pins down every elementary divisor
    prod = 1
    for s, dk in zip(diag, determinantal_divisors(entries, rank)):
        prod *= s
        assert prod == dk, entries


def test_snf_worked_examples():
    assert hm.smith_normal_form(sparse(((2, 4), (6, 8)))) == (2, 4)
    assert hm.smith_normal_form(sparse(((0,) * 3,) * 2)) == ()
    eye = sparse(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert hm.smith_normal_form(eye) == (1, 1, 1)
    assert hm.smith_normal_form(({}, {}, {}, {})) == ()
    assert hm.smith_normal_form(()) == ()
    # the gcd/lcm sweep chains divisors left unchained by elimination
    def diag(*ds):
        return tuple({i: d} for i, d in enumerate(ds))

    assert hm.smith_normal_form(diag(6, 10, 15)) == (1, 30, 30)
    assert hm.smith_normal_form(diag(4, 6, 9, 2)) == (1, 2, 6, 36)


def small_random_grids():
    rng = random.Random(20240901)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        yield tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m))


def big_entry_grids():
    """Entries from 2**31 and from 2**63 upward, mixed with small ones and
    units, then one worked example."""
    rng = random.Random(31)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield tuple(
            tuple(
                rng.choice((-1, 1))
                * rng.choice(
                    (0, 1, rng.randint(2, 9), rng.randint(2**31, 2**33),
                     rng.randint(2**63, 2**66))
                )
                for _ in range(n)
            )
            for _ in range(m)
        )
    yield ((11, 7, 5), (2**35, 3, 2), (9, 2**34, 13))


def unitless_grids():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield tuple(
            tuple(rng.choice((0, 0, 1, -1)) * rng.randint(2, 30) for _ in range(n))
            for _ in range(m)
        )


def mixed_unit_grids():
    """(grid, number of top rows): the top rows carry units and the rest are
    even, with a 1 in the corner."""
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        top = rng.randint(1, m - 1)
        entries = [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(top)
        ] + [[2 * rng.randint(-6, 6) for _ in range(n)] for _ in range(m - top)]
        entries[0][0] = 1
        yield entries, top


def test_snf_on_random_matrices_against_rational_oracles():
    for entries in small_random_grids():
        m, n = len(entries), len(entries[0])
        diag = hm.smith_normal_form(sparse(entries))
        rank = len(diag)
        assert rank == rational_rank(entries), entries
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert all(d > 0 for d in diag)
        if diag:
            content = 0
            for row in entries:
                for v in row:
                    content = gcd(content, v)
            assert diag[0] == content, entries
        if m == n and rank == n:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(rational_det(entries)), entries


def test_snf_exact_beyond_64_bits():
    for entries in big_entry_grids():
        assert_snf_matches_oracles(entries)
    assert hm.smith_normal_form(sparse(((2**64, 0), (0, 3 * 2**64)))) == (
        2**64,
        3 * 2**64,
    )


def test_snf_without_unit_entries_skips_unit_stage():
    for entries in unitless_grids():
        columns = [dict(col) for col in sparse(entries)]
        assert peel_signed_units(columns, len(entries)) == []  # no pivot row
        assert hm._eliminate_units(columns) == []
        assert columns == list(sparse(entries))
        assert_snf_matches_oracles(entries)


def test_snf_mixed_units_hand_a_leftover_to_dense_stage():
    # the rows below the top ones are even, so the rank mod 2 stays below
    # the rational rank and units alone cannot finish the job
    checked = 0
    for entries, top in mixed_unit_grids():
        if rational_rank(entries) <= top:
            continue
        columns = [dict(col) for col in sparse(entries)]
        assert len(hm._eliminate_units(columns)) >= 1
        assert any(columns), entries
        assert all(v not in (1, -1) for col in columns for v in col.values())
        assert_snf_matches_oracles(entries)
        checked += 1
    assert checked >= 20


def test_smith_normal_form_rejects_malformed_columns():
    for columns in (
        ({0: 1}, {-1: 1}),  # a negative row
        ({0: 1, 1: 0},),  # an explicit zero
        (((0, 1),),),  # a column of (row, value) pairs
        (((0, 1), (0, 2)),),  # pairs with a row repeated
        ([(0, 1)],),  # a list of pairs, which dict() would accept
        ({0.5: 1},),  # a float row
        ({0: 1.5},),  # a float value
        ({"a": 1},),  # a str row
        ({0: "1"},),  # a str value
        ({0: True},),  # a bool value
        ({True: 1},),  # a bool row
    ):
        with pytest.raises(ValueError):
            hm.smith_normal_form(columns)
    assert sparse(((1, 2), (0, 3))) == ({0: 1}, {0: 2, 1: 3})


def test_boundary_matrix_examples(lat):
    triangle = cx.SimplicialComplex(3, (((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2))))
    assert hm.boundary_matrix(triangle, 0) == ((0,),) * 3
    b1 = hm.boundary_matrix(triangle, 1)
    assert b1 == ((0, 1), (0, 2), (1, 2))
    assert signed(b1, 1) == ({0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1})
    assert len(hm.smith_normal_form(signed(b1, 1))) == 2
    assert hm.boundary_matrix(triangle, 1, frozenset({0, 2})) == ((0, 2),)
    with pytest.raises(ValueError):
        hm.boundary_matrix(triangle, 2)

    points = cx.SimplicialComplex(3, (((0,), (1,), (2,)),))
    assert hm.boundary_matrix(points, 0) == ((0,),) * 3

    # the signs the facet order implies are those of the dict oracle, with
    # and without cleared faces
    for c in (RP2, cx.order_complex(lat(7)), cx.crosscut_complex(lat(8))):
        for d in range(c.dim + 1):
            for cleared in (frozenset(), frozenset(range(0, len(c.faces(d)), 3))):
                assert signed(hm.boundary_matrix(c, d, cleared), d) == (
                    signed_boundary_matrix(c, d, cleared)
                ), (c.f_vector(), d)


def assert_boundary_squares_to_zero(complex, label):
    """Compose each pair of consecutive boundary maps, in their signed view,
    column by column."""
    for d in range(1, complex.dim + 1):
        lower = signed(hm.boundary_matrix(complex, d - 1), d - 1)
        upper = signed(hm.boundary_matrix(complex, d), d)
        assert len(lower) == complex.f_vector()[d - 1]
        for col in upper:
            assert all(0 <= r < len(lower) for r in col), (label, d, col)
            image = {}
            for r, v in col.items():
                for i, w in lower[r].items():
                    image[i] = image.get(i, 0) + v * w
            assert not any(image.values()), (label, d, col)


@pytest.fixture(scope="module")
def order_complexes(lat):
    """n -> (the order complex of L(n), its reduced_homology, and the
    (d, cleared map, divisors) of each map reduced_homology reduced, from
    the top down) for n = 2..11, built once for the module; the faces stay
    decoded.  A cleared map is the tuple of facet-row columns boundary_matrix
    built; signed(map, d) is its signed view.  A map's divisors are the units
    of its counter collapses, then the divisors smith_normal_form found for
    the columns left."""
    boundary, peel = hm.boundary_matrix, hm._peel_units
    snf = hm.smith_normal_form
    maps = []

    def recorded_boundary(complex, d, cleared=frozenset()):
        cols = boundary(complex, d, cleared)
        maps.append((d, cols))
        return cols

    def recorded_peel(cols, nrows):
        pivots, live = peel(cols, nrows)
        maps[-1] += ((1,) * len(pivots),)
        return pivots, live

    def recorded_snf(columns, unit_rows=None):
        divisors = snf(columns, unit_rows)
        d, mat, units = maps[-1]
        maps[-1] = (d, mat, units + divisors)
        return divisors

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "boundary_matrix", recorded_boundary)
        mp.setattr(hm, "_peel_units", recorded_peel)
        mp.setattr(hm, "smith_normal_form", recorded_snf)
        for n in range(2, 12):
            c = cx.order_complex(lat(n))
            out[n] = (c, hm.reduced_homology(c), tuple(maps))
            maps.clear()
    return out


def test_boundary_squares_to_zero(lat, order_complexes):
    for n in range(2, 7):
        assert_boundary_squares_to_zero(order_complexes[n][0], ("order", n))
    assert_boundary_squares_to_zero(cx.crosscut_complex(lat(7)), ("crosscut", 7))


def test_boundary_squares_to_zero_large(lat, order_complexes):
    for n in (7, 8):
        assert_boundary_squares_to_zero(order_complexes[n][0], ("order", n))
        assert_boundary_squares_to_zero(cx.crosscut_complex(lat(n)), ("crosscut", n))


def test_homology_of_small_shapes():
    hollow = cx.SimplicialComplex(3, (((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2))))
    res = hm.reduced_homology(hollow)
    assert res.nonzero() == {1: (1, ())}
    point = cx.SimplicialComplex(1, (((0,),),))
    assert not hm.reduced_homology(point).nonzero()
    empty = cx.SimplicialComplex(0, ())
    res = hm.reduced_homology(empty)
    assert res.rank_minus1 == 1 and res.free_ranks == ()
    assert res.nonzero() == {-1: (1, ())} and str(res) == "H~_-1 = Z"
    assert res.as_dict() == {"-1": {"free_rank": 1, "torsion": []}}
    two_points = cx.SimplicialComplex(2, (((0,), (1,)),))
    assert hm.reduced_homology(two_points).nonzero() == {0: (1, ())}


@pytest.mark.parametrize(
    "vertex_count, faces",
    [
        (2, (((0,), (0,), (1,)),)),  # a repeated vertex once read as H~_0 = Z^2
        (2, (((0,),), ((0, 1),))),  # the edge's vertex (1,) is missing
        (1, (((0,), (5,)),)),  # a vertex outside range(vertex_count)
        (1, (((-1,), (0,)),)),  # a negative vertex
        (2, (((0,), (1,)), ((1, 0),))),  # not increasing
        (2, (((0, 1),),)),  # a 2-tuple in dimension 0
        (2, (((0,), (1,)), ())),  # an empty level once read as dimension 1
        (5, (((0,), (1,)),)),  # vertices 2..4 listed nowhere
        (2, (((0,), (0.5,)),)),  # a float vertex once hid the missing vertex 1
        (2, (((False,), (True,)),)),  # bool vertices once passed as 0 and 1
        (1, ((("a",),),)),  # a str vertex once raised TypeError
    ],
)
def test_malformed_faces_are_rejected(vertex_count, faces):
    with pytest.raises(ValueError):
        cx.SimplicialComplex(vertex_count, faces)


def two_complex(vertex_count, triangles, extra_edges=(), rng=None):
    """The 2-complex of `triangles`, their edges, `extra_edges` and every
    vertex; `rng` shuffles the faces of each dimension."""
    edges = {e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))}
    levels = [
        [(v,) for v in range(vertex_count)],
        sorted(edges.union(extra_edges)),
        sorted(set(triangles)),
    ]
    if rng:
        for level in levels:
            rng.shuffle(level)
    return cx.SimplicialComplex(vertex_count, tuple(map(tuple, levels)))


# the standard 6-vertex triangulation of RP^2
RP2 = two_complex(6, [
    (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
])


def test_projective_plane_detects_torsion():
    # H~_1 = Z/2 is the classic torsion case
    assert hm.reduced_homology(RP2).nonzero() == {1: (0, (2,))}


def uncleared_homology(complex):
    """Oracle: every boundary map, assembled as dict columns by the oracle
    signed_boundary_matrix, reduced on its own with all of its columns; no
    face is cleared and nothing collapsed first."""
    if complex.dim < 0:
        return hm.HomologyResult((), (), rank_minus1=1)
    divisors = [
        hm.smith_normal_form(signed_boundary_matrix(complex, d))
        for d in range(complex.dim + 1)
    ]
    return homology_of_divisors(complex.f_vector(), divisors)


def pseudo_projective_plane(k, ring, first):
    """Triangles of a disk whose boundary wraps k times around the cycle
    `ring`, on the new vertices first..first + k * len(ring): the cone of
    a degree-k map of the circle, so H~_1 = Z/k."""
    m = len(ring)
    inner = [first + j for j in range(k * m)]
    centre = first + k * m
    triangles = []
    for j in range(k * m):
        w0, w1 = ring[j % m], ring[(j + 1) % m]
        u0, u1 = inner[j], inner[(j + 1) % (k * m)]
        triangles += [
            tuple(sorted(t)) for t in ((w0, w1, u0), (w1, u0, u1), (u0, u1, centre))
        ]
    return triangles, centre + 1


def random_torsion_complex(rng):
    """A wedge at vertex 0 of pseudo-projective planes of random orders, with
    a few random extra edges and triangles, vertices relabelled at random."""
    triangles, size = [], 1
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(3, 4)
        ring = [0] + list(range(size, size + m - 1))
        more, size = pseudo_projective_plane(rng.randint(2, 6), ring, size + m - 1)
        triangles += more
    extra_edges = rng.sample(list(combinations(range(size), 2)), rng.randint(0, 3))
    triangles += rng.sample(list(combinations(range(size), 3)), rng.randint(0, 2))
    relabel = list(range(size))
    rng.shuffle(relabel)
    triangles = [tuple(sorted(relabel[v] for v in t)) for t in triangles]
    extra_edges = [tuple(sorted(relabel[v] for v in e)) for e in extra_edges]
    return two_complex(size, triangles, extra_edges, rng)


def test_pseudo_projective_planes():
    for k in range(1, 6):
        triangles, size = pseudo_projective_plane(k, [0, 1, 2], 3)
        expected = {1: (0, (k,))} if k > 1 else {}
        assert hm.reduced_homology(two_complex(size, triangles)).nonzero() == expected


def test_clearing_matches_the_uncleared_route(lat, order_complexes):
    for n in range(2, 11):
        c, res, _ = order_complexes[n]
        assert res == uncleared_homology(c), ("order", n)
    for n in range(4, 11):
        c = cx.crosscut_complex(lat(n))
        assert hm.reduced_homology(c) == uncleared_homology(c), ("crosscut", n)
    assert hm.reduced_homology(RP2) == uncleared_homology(RP2)
    rng = random.Random(909)
    with_torsion = 0
    for _ in range(60):
        c = random_torsion_complex(rng)
        res = hm.reduced_homology(c)
        assert res == uncleared_homology(c), c.faces_by_dim
        with_torsion += any(res.torsion)
    assert with_torsion >= 50


def test_reduced_homology_matches_the_signed_dict_route(order_complexes):
    # the collapses on unsigned facet rows against the signed-dict route
    # they replace, on the complexes whose maps they reduce
    for n in range(2, 12):
        c, res, _ = order_complexes[n]
        assert res == signed_homology(c), ("order", n)
    assert hm.reduced_homology(RP2) == signed_homology(RP2) == uncleared_homology(RP2)
    rng = random.Random(909)
    for _ in range(60):
        c = random_torsion_complex(rng)
        assert hm.reduced_homology(c) == signed_homology(c), c.faces_by_dim


def test_order_complex_homology_small(order_complexes):
    for n in range(4, 12):
        res = order_complexes[n][1]
        if nt.is_squarefree(n - 1):
            assert res.nonzero() == {nt.omega(n - 1): (1, ())}, n
        else:
            assert not res.nonzero(), n


def test_crosscut_homology_matches_and_covers_large_n(lat):
    # the cross-cut route stays cheap even where the order complex is big
    for n in range(4, 9):
        res = hm.reduced_homology(cx.crosscut_complex(lat(n)))
        if nt.is_squarefree(n - 1):
            assert res.nonzero() == {nt.omega(n - 1): (1, ())}, n
        else:
            assert not res.nonzero(), n
    assert not hm.reduced_homology(cx.crosscut_complex(lat(10))).nonzero()
    # worked by hand: 3 coatoms for n = 8, hollow triangle
    assert hm.reduced_homology(cx.crosscut_complex(lat(8))).nonzero() == {1: (1, ())}


def test_homology_result_rendering():
    res = hm.HomologyResult((0, 1, 0), ((), (), (3,)))
    assert str(res) == "H~_1 = Z, H~_2 = Z/3"
    assert res.as_dict()["1"] == {"free_rank": 1, "torsion": []}


def test_homology_result_is_a_frozen_named_tuple():
    assert hm.HomologyResult._fields == ("free_ranks", "torsion", "rank_minus1")
    assert hm.HomologyResult._field_defaults == {"rank_minus1": 0}
    res = hm.HomologyResult(torsion=((), (3,)), free_ranks=(1, 0))
    same = hm.HomologyResult((1, 0), ((), (3,)), 0)
    assert res == same == ((1, 0), ((), (3,)), 0)
    assert hash(res) == hash(same)
    assert res != hm.HomologyResult((1, 0), ((), (3,)), 1)
    free_ranks, torsion, rank_minus1 = res
    assert (free_ranks, torsion, rank_minus1) == ((1, 0), ((), (3,)), 0)
    assert repr(res) == (
        "HomologyResult(free_ranks=(1, 0), torsion=((), (3,)), rank_minus1=0)"
    )
    for name in (*res._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(res, name, 1)


def test_homology_result_text_of_the_fixtures(order_complexes):
    # str() and the key order of as_dict() as the library has always written
    # them, on the order complexes, RP^2 and the pseudo-projective planes
    folkman = {
        2: "H~_0 = Z", 3: "H~_1 = Z", 4: "H~_1 = Z", 6: "H~_1 = Z",
        7: "H~_2 = Z", 8: "H~_1 = Z", 11: "H~_2 = Z",
    }
    for n in range(2, 12):
        c, res, _ = order_complexes[n]
        text = folkman.get(n, "all reduced homology groups trivial")
        assert str(res) == text, n
        blob = {
            str(d): {"free_rank": int(text == f"H~_{d} = Z"), "torsion": []}
            for d in range(c.dim + 1)
        }
        assert json.dumps(res.as_dict()) == json.dumps(blob), n
    planes = [(RP2, 2)] + [
        (two_complex(size, triangles), k)
        for k in range(1, 6)
        for triangles, size in [pseudo_projective_plane(k, [0, 1, 2], 3)]
    ]
    for c, k in planes:
        res = hm.reduced_homology(c)
        text = f"H~_1 = Z/{k}" if k > 1 else "all reduced homology groups trivial"
        assert str(res) == text, k
        assert json.dumps(res.as_dict()) == json.dumps({
            "0": {"free_rank": 0, "torsion": []},
            "1": {"free_rank": 0, "torsion": [k] if k > 1 else []},
            "2": {"free_rank": 0, "torsion": []},
        })


def snf_by_sweep(mat):
    """smith_normal_form with the column-sweep unit stage of the tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "_eliminate_units", eliminate_units_by_sweep)
        return hm.smith_normal_form(mat)


def peel_then_snf(mat, nrows, unit_rows=None):
    """The divisors of the +-1 columns `mat` as reduced_homology finds them
    for one map: the counter collapses on their rows, then smith_normal_form
    on the columns left.  The pivot rows of both are appended to `unit_rows`
    if given."""
    pivots, live = hm._peel_units(tuple(map(tuple, mat)), nrows)
    if unit_rows is not None:
        unit_rows.extend(pivots)
    left = [col for col, alive in zip(mat, live) if alive]
    return (1,) * len(pivots) + hm.smith_normal_form(left, unit_rows)


def test_unit_stages_agree_on_random_snf_families():
    grids = [
        *small_random_grids(),
        *big_entry_grids(),
        *unitless_grids(),
        *(entries for entries, _ in mixed_unit_grids()),
    ]
    for entries in grids:
        mat = sparse(entries)
        assert hm.smith_normal_form(mat) == snf_by_sweep(mat), entries
        assert_markowitz_postcondition([dict(col) for col in mat], [], entries)
        # the counter collapses read only where the entries are, so they
        # run on the +-1 grid of the same shape
        units = unit_shadow(entries)
        assert peel_then_snf(units, len(entries)) == snf_by_sweep(units), entries
        assert_unit_postcondition(units, len(entries), entries)


def peel_checked(mat, nrows, label):
    """Run the counter stage on the rows of the +-1 columns `mat` and replay
    its pivots with a recount of each row's live columns: each pivot row
    holds exactly one live entry when it is taken, the replay leaves the
    columns the stage reports live, and no row is left with exactly one
    live entry.  Returns copies of the live columns and the pivot rows."""
    pivots, live = hm._peel_units(tuple(map(tuple, mat)), nrows)
    where = [set() for _ in range(nrows)]
    for c, col in enumerate(mat):
        for r in col:
            where[r].add(c)
    alive = [True] * len(mat)
    for r in pivots:
        assert len(where[r]) == 1, (label, r)
        (c,) = where[r]
        for i in mat[c]:
            where[i].discard(c)
        alive[c] = False
    assert alive == live, label
    assert not any(len(ks) == 1 for ks in where), label
    return [dict(col) for col, a in zip(mat, live) if a], pivots


def assert_markowitz_postcondition(cols, pivots, label):
    """After the Markowitz stage on `cols`, no live column holds +-1 or a
    pivot row of that stage or of `pivots`."""
    pivots = set(pivots).union(hm._eliminate_units(cols))
    for col in cols:
        assert not any(v in (1, -1) for v in col.values()), label
        assert pivots.isdisjoint(col), label


def assert_unit_postcondition(mat, nrows, label):
    """The +-1 columns `mat` after the counter stage, its postcondition
    (peel_checked); after the Markowitz stage on what is left, its own."""
    assert_markowitz_postcondition(*peel_checked(mat, nrows, label), label)


def test_unit_stage_returns_to_a_row_an_update_gave_a_unit():
    # row 0 (entries 2, 3, 2) has no unit and leaves the heap first; the
    # pivot on row 1, column 0 turns its entry in column 1 into 3 - 2 = 1
    mat = ({0: 2, 1: 1}, {0: 3, 1: 1}, {0: 2, 1: 2})
    cols = [dict(col) for col in mat]
    assert sorted(hm._eliminate_units(cols)) == [0, 1]
    assert_markowitz_postcondition([dict(col) for col in mat], [], "revisit")
    assert hm.smith_normal_form(mat) == snf_by_sweep(mat) == (1, 1)


def test_unit_stage_rekeys_a_row_whose_count_fell():
    # keys: row 0 (a) 3, row 1 (b) 2, row 2 1.  The fill-free pivot on row 2
    # drops a to 2 entries, below its key, so a is re-keyed to 2 and, tied
    # with b, taken first; with a left at key 3, b would be taken first
    mat = ({0: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 1: 3})
    cols = [dict(col) for col in mat]
    assert hm._eliminate_units(cols) == [2, 0]
    assert cols == [{}, {}, {1: 2}]
    assert_markowitz_postcondition([dict(col) for col in mat], [], "re-key")
    assert hm.smith_normal_form(mat) == snf_by_sweep(mat) == (1, 1, 2)


def test_counter_stage_collapses_a_cascade_and_leaves_a_cycle():
    # a hollow triangle on 0, 1, 2 with the tail 2-3-4: row 4 frees edge
    # (3, 4), which frees row 3 in edge (2, 3); rows 0, 1 and 2 are left
    # with two live entries each, so the triangle's edges stay
    graph = cx.SimplicialComplex(
        5, (tuple((v,) for v in range(5)), ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)))
    )
    cols = hm.boundary_matrix(graph, 1)
    assert cols == ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))
    assert hm._peel_units(cols, 5) == ([4, 3], [True, True, True, False, False])
    mat = signed(cols, 1)
    left, pivots = peel_checked(mat, 5, "cascade")
    assert pivots == [4, 3]
    assert left == list(mat[:3])
    assert peel_then_snf(mat, 5) == snf_by_sweep(mat) == (1, 1, 1, 1)
    assert hm.reduced_homology(graph).nonzero() == {1: (1, ())}


def test_smith_normal_form_keeps_the_callers_row_ids():
    # no list is indexed by row, so a row id of 10**12 costs nothing
    rows = []
    assert hm.smith_normal_form(({10**12: 1, 3: 2},), rows) == (1,)
    assert rows == [10**12]
    rows = []
    assert hm.smith_normal_form(({100: 1}, {7: 2, 100: 3}), rows) == (1, 2)
    assert rows == [100]  # a heap pivot: row 7 holds no unit
    # an increasing map of the row ids maps the pivot rows with it
    for entries in small_random_grids():
        mat = sparse(entries)
        spread = tuple({10**12 + 7 * r: v for r, v in col.items()} for col in mat)
        rows, spread_rows = [], []
        assert hm.smith_normal_form(mat, rows) == hm.smith_normal_form(
            spread, spread_rows
        ), entries
        assert spread_rows == [10**12 + 7 * r for r in rows], entries


def test_smith_normal_form_reads_a_one_shot_iterable_once():
    for entries in small_random_grids():
        mat = sparse(entries)
        assert hm.smith_normal_form(iter(mat)) == hm.smith_normal_form(mat), entries


def assert_unit_stages_agree(complex, label):
    """Reduce the boundary maps from the top down as reduced_homology does,
    cleared by the pivot rows of the global order, and require the same Smith
    form from the column sweep on every cleared map, and the postconditions
    of both unit stages on every map."""
    paired = []
    fvec = complex.f_vector()
    for d in reversed(range(complex.dim + 1)):
        mat = signed(hm.boundary_matrix(complex, d, frozenset(paired)), d)
        nrows = fvec[d - 1] if d else 1
        paired = []
        assert peel_then_snf(mat, nrows, paired) == snf_by_sweep(mat), (label, d)
        assert_unit_postcondition(mat, nrows, (label, d))


def test_unit_stages_agree_on_cleared_order_complex_maps(order_complexes):
    # the n range of test_order_complex_homology_small and check folkman, on
    # the cleared maps reduced_homology reduced there
    for n in range(2, 12):
        c, _, maps = order_complexes[n]
        fvec = c.f_vector()
        assert [d for d, _, _ in maps] == list(reversed(range(c.dim + 1))), n
        for d, cols, divisors in maps:
            mat = signed(cols, d)
            assert snf_by_sweep(mat) == divisors, (n, d)
            assert_unit_postcondition(mat, fvec[d - 1] if d else 1, ("order", n, d))


def test_unit_stages_agree_on_cleared_crosscut_maps(lat):
    for n in range(4, 11):
        assert_unit_stages_agree(cx.crosscut_complex(lat(n)), ("crosscut", n))


def half_filled_complexes():
    """The input shape of the benchmark's torsion workload, scaled down:
    every edge on 9-12 vertices and about half of all triangles."""
    rng = random.Random(24)
    for _ in range(30):
        v = rng.randint(9, 12)
        triangles = [t for t in combinations(range(v), 3) if rng.random() < 0.5]
        yield two_complex(v, triangles, combinations(range(v), 2), rng)


def test_unit_stages_agree_on_half_filled_complexes():
    # fill in nearly every Markowitz pivot, and now and then a non-unit entry
    # partway through
    for c in half_filled_complexes():
        assert hm.reduced_homology(c) == uncleared_homology(c), c.faces_by_dim
        assert_unit_stages_agree(c, c.faces_by_dim)


def test_unit_stages_agree_on_random_torsion_complexes():
    # the 60 inputs of test_clearing_matches_the_uncleared_route
    rng = random.Random(909)
    for _ in range(60):
        c = random_torsion_complex(rng)
        assert_unit_stages_agree(c, c.faces_by_dim)
