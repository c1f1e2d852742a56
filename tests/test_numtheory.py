import pytest

from aplattice import numtheory as nt


def test_factorize_examples():
    assert nt.factorize(1) == ()
    assert nt.factorize(12) == ((2, 2), (3, 1))
    assert nt.factorize(30) == ((2, 1), (3, 1), (5, 1))


def test_factorize_invariants():
    for n in range(1, 500):
        fac = nt.factorize(n)
        prod = 1
        for p, e in fac:
            assert e >= 1
            prod *= p**e
        assert prod == n
        primes = [p for p, _ in fac]
        assert primes == sorted(set(primes))


@pytest.mark.parametrize("fn", [nt.factorize, nt.classical_mobius, nt.tau, nt.omega, nt.divisors, nt.is_squarefree])
def test_rejects_zero_and_junk(fn):
    for bad in (0, -3, 1.5, "7", True):
        with pytest.raises(ValueError):
            fn(bad)


def test_mobius_examples():
    assert nt.classical_mobius(1) == 1
    assert nt.classical_mobius(6) == 1
    assert nt.classical_mobius(12) == 0
    assert nt.classical_mobius(30) == -1


def test_tau_omega_divisors_examples():
    assert nt.tau(6) == 4
    assert nt.omega(8) == 1
    assert not nt.is_squarefree(4)
    assert nt.divisors(12) == (1, 2, 3, 4, 6, 12)
    assert nt.divisors(1) == (1,)


def test_mobius_summation_identity():
    # sum of mu over divisors vanishes except at m = 1
    assert sum(nt.classical_mobius(d) for d in nt.divisors(1)) == 1
    for m in range(2, 201):
        assert sum(nt.classical_mobius(d) for d in nt.divisors(m)) == 0


def test_abs_mobius_counts_squarefree_divisors():
    for m in range(1, 201):
        total = sum(abs(nt.classical_mobius(d)) for d in nt.divisors(m))
        assert total == 2 ** nt.omega(m)


def test_divisor_sum_equals_floor_sum():
    for m in range(1, 201):
        assert sum(nt.tau(k) for k in range(1, m + 1)) == sum(
            m // k for k in range(1, m + 1)
        )
