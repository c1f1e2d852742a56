import pytest

from aplattice import build
from aplattice.structure import _WITNESSES


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
    _WITNESSES.clear()
    yield _WITNESSES.clear
    _WITNESSES.clear()
