import pytest

from aplattice import build


@pytest.fixture(scope="session")
def lat():
    """Session-wide cache of built lattices: lat(n) -> Lattice."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build(n)
        return cache[n]

    return get

