"""Relabeling and member-set helpers that only the tests use."""

from aplattice.lattice import Lattice, _embed_fields, build
from aplattice.progression import EMPTY, Progression, _of_fields


def element_set(lattice: Lattice, i: int) -> frozenset[int]:
    return frozenset(lattice.elements[i].elements())


def embed_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression in {1,..,host.length} to the corresponding subset of
    host: position j goes to the j-th member of host."""
    return _of_fields(_embed_fields(p, host))


def project_progression(p: Progression, host: Progression) -> Progression:
    """Map a progression contained in host to {1,..,host.length} coordinates;
    the inverse of embed_progression."""
    if p.is_empty:
        return EMPTY
    if host.step == 0:
        # host is a singleton; the only nonempty subset is host itself
        if p != host:
            raise ValueError(f"{p} is not contained in {host}")
        return Progression(1, 0, 1)
    offset = p.base - host.base
    if offset % host.step:
        raise ValueError(f"{p} is not contained in {host}")
    base = offset // host.step + 1
    if p.length == 1:
        return Progression(base, 0, 1)
    if p.step % host.step:
        raise ValueError(f"{p} is not contained in {host}")
    return Progression(base, p.step // host.step, p.length)


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
