"""Exact elementary number theory on machine integers.

Primality, factorization, Euler's totient, prime-power recognition and
multiplicative orders modulo m.  is_prime runs Miller-Rabin on the
thirteen prime bases 2..41, which is exact below psi_13 =
3317044064679887385961981, the least strong pseudoprime to all of them
(Sorenson and Webster, Math. Comp. 86, 2017); above it, is_prime is a
strong probable-prime test.  Everything else here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Factorization",
    "PrimePower",
    "as_prime_power",
    "euler_phi",
    "factorize",
    "is_prime",
    "multiplicative_order",
    "primes_upto",
]

# (prime, exponent) pairs with primes strictly increasing.
Factorization = list[tuple[int, int]]

# Miller-Rabin witnesses, deterministic for all n < psi_13 (about 3.3 * 10**24).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """True iff n is prime (below psi_13; a strong probable prime above it)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Factorization:
    """Canonical prime factorization of n >= 1; factorize(1) == []."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: Factorization = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2 if d % 6 == 5 else 4  # 5, 7, 11, 13, ... (skip multiples of 2, 3)
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient, via the factorization product formula."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


@dataclass(frozen=True)
class PrimePower:
    """A value p**k, with k == 0 encoding the number 1 (p is then None).

    Treating 1 as a prime power keeps order-1 elements on the same code
    path as every other prime-power order; "proper" prime powers are the
    ones with k >= 1.
    """

    p: int | None
    k: int

    @property
    def is_one(self) -> bool:
        return self.k == 0

    @property
    def is_proper(self) -> bool:
        return self.k >= 1


_ONE = PrimePower(None, 0)


@lru_cache(maxsize=65536)
def as_prime_power(n: int) -> PrimePower | None:
    """PrimePower(p, k) iff n == p**k (n == 1 gives the k == 0 variant)."""
    if n < 1:
        raise ValueError(f"as_prime_power requires n >= 1, got {n}")
    if n == 1:
        return _ONE
    fact = factorize(n)
    if len(fact) != 1:
        return None
    p, k = fact[0]
    return PrimePower(p, k)


def multiplicative_order(r: int, m: int) -> int:
    """Least t >= 1 with r**t == 1 (mod m); requires gcd(r, m) == 1.

    Computed by starting from the totient of m and dividing out prime
    factors while the power stays 1, so it is fast even for large m.
    """
    if m < 2:
        raise ValueError(f"multiplicative_order requires modulus >= 2, got {m}")
    if math.gcd(r, m) != 1:
        raise ValueError(f"{r} is not coprime to {m}; multiplicative order undefined")
    t = euler_phi(m)
    for p, _ in factorize(t):
        while t % p == 0 and pow(r, t // p, m) == 1:
            t //= p
    return t


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, f in enumerate(sieve) if f]
