"""Seeded random Q-acyclic 2-complexes and their mod-q invariants.

A complex on v vertices has the full 1-skeleton.  Triangles are offered in
a seeded random order, and a triangle is kept only when its boundary is
independent, modulo a large prime, of the boundaries already kept.  The
offers stop once the kept boundaries span the cycle space, so H_1 is finite
and H_2 is zero (independence mod p implies independence over Q).

Boundaries are written in cycle coordinates: the edges {0, b} form a
spanning tree, and a cycle is determined by its coefficients on the other
edges {a, b} with 1 <= a < b.  The projected boundary matrix of the kept
triangles is square, its cokernel is H_1, and |H_1| = |det|.

Elimination works on float64 arrays with integer entries below 2**52, where
float arithmetic is exact; matrix products then go through BLAS.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

GENERATOR_PRIME = 1048573  # largest prime below 2**20
CHECK_PRIMES = (2, 3, 1048571)
_EXACT = 2.0**52
_BATCH = 64


def cycle_index(a: int, b: int, v: int) -> int:
    """Index of the non-tree edge {a, b}, 1 <= a < b < v, among the others."""
    return (a - 1) * (2 * v - 2 - a) // 2 + (b - a - 1)


def cycle_column(tri: tuple[int, int, int], v: int) -> tuple[tuple[int, int], ...]:
    """(index, sign) entries of the boundary of a < b < c in cycle coordinates."""
    a, b, c = tri
    if a == 0:  # {0, b} and {0, c} are tree edges
        return ((cycle_index(b, c, v), 1),)
    return (
        (cycle_index(b, c, v), 1),
        (cycle_index(a, c, v), -1),
        (cycle_index(a, b, v), 1),
    )


def greedy_independent(columns, size: int, p: int):
    """Keep each column that is independent mod p of the columns kept before.

    Returns (kept positions, product of the pivots mod p).  When the kept
    columns form a square invertible matrix, that product is its determinant
    mod p up to sign.

    The state is a basis of the functionals vanishing on the kept columns
    (rows of `ann`).  A column is independent iff some functional is nonzero
    on it; keeping it removes one functional.  Columns go in batches: a batch
    is tested against `ann` at once, resolved among itself in a small loop,
    and `ann` is then updated with one matrix product.  Entries of `ann` are
    reduced mod p only when they could leave the exact range.
    """
    if p * p * _BATCH * 4 > _EXACT:
        raise ValueError(f"modulus {p} too large for exact float64 elimination")
    ann = np.eye(size)
    bound = 1.0
    kept = []
    det = 1
    pos = 0
    while pos < len(columns) and ann.shape[0]:
        batch = columns[pos : pos + _BATCH]
        idx = np.zeros((len(batch), 3), dtype=np.int64)
        sgn = np.zeros((len(batch), 3))
        for j, col in enumerate(batch):
            for t, (c, s) in enumerate(col):
                idx[j, t] = c
                sgn[j, t] = s
        k = ann.shape[0]
        # values[j] = every functional evaluated on column j of the batch
        values = (ann[:, idx.ravel()] * sgn.ravel()).reshape(k, len(batch), 3)
        values = values.sum(axis=2).T.copy()
        pivots, factors = [], []
        for j in range(len(batch)):
            t = np.mod(values[j], p)
            nz = np.flatnonzero(t)
            if not nz.size:
                continue
            r = int(nz[0])
            det = det * int(t[r]) % p
            f = np.mod(t * pow(int(t[r]), -1, p), p)
            rest = values[j + 1 :]
            rest -= np.multiply.outer(np.mod(rest[:, r], p), f)
            pivots.append(r)
            factors.append(f)
            kept.append(pos + j)
        pos += len(batch)
        if not pivots:
            continue
        fac = np.array(factors).T  # k x kept-in-batch
        used = np.empty((len(pivots), size))
        for j, r in enumerate(pivots):
            used[j] = np.mod(ann[r] - fac[r, :j] @ used[:j], p)
        keep = np.ones(k, dtype=bool)
        keep[pivots] = False
        ann = ann[keep]
        ann -= fac[keep] @ used
        bound += len(pivots) * float(p) * p
        if bound * 4 > _EXACT:
            np.mod(ann, p, out=ann)
            bound = float(p)
    return kept, det


def generate(v: int, seed: int) -> tuple[list[tuple[int, int, int]], int]:
    """The kept triangles of the seeded complex on v vertices, in kept order,
    and the determinant of their boundary matrix mod GENERATOR_PRIME."""
    triangles = list(itertools.combinations(range(v), 3))
    random.Random(seed).shuffle(triangles)
    size = (v - 1) * (v - 2) // 2
    kept, det = greedy_independent(
        [cycle_column(t, v) for t in triangles], size, GENERATOR_PRIME
    )
    if len(kept) != size:
        raise AssertionError(f"v={v}: only {len(kept)} of {size} cycles killed")
    return [triangles[i] for i in kept], det


def invariants(triangles, v: int, primes=CHECK_PRIMES) -> dict[int, tuple[int, int]]:
    """prime q -> (rank of the boundary map mod q, |det| mod q up to sign).

    The determinant is 0 when the rank is short.
    """
    size = (v - 1) * (v - 2) // 2
    columns = [cycle_column(t, v) for t in triangles]
    out = {}
    for q in primes:
        kept, det = greedy_independent(columns, size, q)
        out[q] = (len(kept), det if len(kept) == size else 0)
    return out
