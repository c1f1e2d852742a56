import pytest

from aplattice import build
from aplattice.structure import _representative_witnesses


@pytest.fixture(scope="session")
def lat():
    """Session-wide cache of built lattices: lat(n) -> Lattice."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build(n)
        return cache[n]

    return get


@pytest.fixture
def cold_witnesses():
    """Empties the comodernism memo before and after the test, so that a
    patched search is reached and no result it found stays cached.  The
    value empties it again, for a patch made after a warming call."""
    _representative_witnesses.cache_clear()
    yield _representative_witnesses.cache_clear
    _representative_witnesses.cache_clear()
