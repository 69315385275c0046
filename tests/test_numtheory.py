import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powercrit import (
    as_prime_power,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
)
from powercrit.numtheory import primes_upto


@pytest.mark.parametrize(
    "n,expected",
    [
        (100, [(2, 2), (5, 2)]),
        (1, []),
        (40320, [(2, 7), (3, 2), (5, 1), (7, 1)]),  # 8!
        (97, [(97, 1)]),
        (2**10, [(2, 10)]),
    ],
)
def test_factorize_cases(n, expected):
    assert factorize(n) == expected


@given(st.integers(1, 100_000))
def test_factorize_roundtrip(n):
    fact = factorize(n)
    prod = math.prod(p**e for p, e in fact)
    assert prod == n
    assert all(is_prime(p) and e >= 1 for p, e in fact)
    assert [p for p, _ in fact] == sorted({p for p, _ in fact})


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("n,expected", [(15, 8), (1, 1), (30, 8), (2, 1), (97, 96)])
def test_euler_phi_cases(n, expected):
    assert euler_phi(n) == expected


@given(st.integers(1, 10_000))
@settings(max_examples=200)
def test_euler_phi_matches_coprime_count(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_as_prime_power():
    pp = as_prime_power(25)
    assert (pp.p, pp.k) == (5, 2) and pp.is_proper and pp.p**pp.k == 25
    assert as_prime_power(15) is None
    one = as_prime_power(1)
    assert one is not None and one.is_one and not one.is_proper and (one.p, one.k) == (None, 0)
    assert as_prime_power(8).k == 3
    assert as_prime_power(97).k == 1


@pytest.mark.parametrize("r,m,expected", [(7, 5, 4), (2, 9, 6), (1, 11, 1), (1, 2, 1)])
def test_multiplicative_order_cases(r, m, expected):
    assert multiplicative_order(r, m) == expected


def test_multiplicative_order_rejects_noncoprime():
    with pytest.raises(ValueError, match="coprime"):
        multiplicative_order(6, 9)


def test_multiplicative_order_divides_totient():
    for m in range(2, 400):
        phi = euler_phi(m)
        for r in range(1, m):
            if math.gcd(r, m) == 1:
                t = multiplicative_order(r, m)
                assert phi % t == 0
                assert pow(r, t, m) == 1
                # minimality against direct iteration
                acc = 1
                for k in range(1, t):
                    acc = acc * r % m
                    assert acc != 1


def test_order_mod_p_divides_order_mod_prime_power():
    for p in primes_upto(100):
        for k in range(2, 5):
            m = p**k
            for r in (2, 3, 7, p + 1):
                if r % p == 0 or r >= m:
                    continue
                assert multiplicative_order(r, m) % multiplicative_order(r, p) == 0


# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to the
# twelve prime bases 2..37, and the least strong pseudoprimes to the bases
# 2..p for smaller p (Sorenson and Webster, Math. Comp. 86, 2017)
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]


@pytest.mark.parametrize(
    "n,expected",
    [(2, True), (1, False), (0, False), (169, False), (2**31 - 1, True), (2**32 + 1, False), (4294967311, True)]
    + [(399165290221, True), (798330580441, True)]
    + [(n, False) for n in STRONG_PSEUDOPRIMES],
)
def test_is_prime(n, expected):
    assert is_prime(n) is expected


@given(st.integers(2, 50_000))
@settings(max_examples=200)
def test_is_prime_matches_trial_division(n):
    naive = all(n % d for d in range(2, math.isqrt(n) + 1))
    assert is_prime(n) is naive


def test_is_prime_matches_the_sieve():
    assert [n for n in range(200_001) if is_prime(n)] == primes_upto(200_000)
