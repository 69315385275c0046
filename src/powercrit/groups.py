"""Finite groups with index-addressed elements and three storage backends.

Every group exposes its elements as the indices ``0 .. order-1`` with
index 0 the identity; the indexing per backend is frozen so reports are
reproducible bit for bit.  Backends:

* :class:`CayleyTableGroup` -- dense multiplication table (numpy), used
  for the cyclic, dihedral, generalized quaternion and direct-product
  families up to the materialization threshold;
* :class:`PermutationGroup` -- S_k for k <= 11, addressed by Lehmer rank
  in lexicographic one-line order.  Elements are decoded on demand and
  the group is never materialized, which is what makes scans over S_8
  and S_11 feasible;
* :class:`MetacyclicGroup` -- coordinate pairs (i, j) for the semidirect
  product of C_{p^a} by C_{q^b} acting as x -> x^r, with one modular
  multiplication per product.

Scans over large groups work on backend "words" (permutation tuples, or
plain indices where indices are already cheap) through the ``word_*``
methods; the index API is what the materialized analyses use.  Elements
adjacent in the power graph commute, so per-element queries walk
:meth:`Group.centralizer_words`, which the permutation and metacyclic
backends enumerate directly instead of scanning the whole group.

At or below the materialization threshold every group answers its
cyclic-subgroup lookups from one :class:`CyclicPoset`, which walks the
powers of each cyclic subgroup once rather than once per element.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError, ScaleError, SettingError
from .numtheory import factorize, is_prime

__all__ = [
    "CyclicPoset",
    "CyclicSubgroup",
    "Group",
    "CayleyTableGroup",
    "PermutationGroup",
    "MetacyclicGroup",
    "cyclic_subgroup",
    "exponent_and_pi",
    "generated_subgroup_words",
    "is_maximal_element",
    "is_power_of",
    "make_cyclic",
    "make_dihedral",
    "make_direct_product",
    "make_generalized_quaternion",
    "make_metacyclic",
    "make_symmetric",
    "max_materialize",
    "maximal_cyclic_subgroups",
    "spot_check_axioms",
]

DEFAULT_MAX_MATERIALIZE = 4096
# The metacyclic centralizer walk visits every acting exponent j < q^b,
# about half a second per walk at this many; above it a query is refused.
MAX_CENTRALIZER_WALK = 1 << 20


def max_materialize() -> int:
    """Materialization threshold; override with POWERCRIT_MAX_MATERIALIZE."""
    text = os.environ.get("POWERCRIT_MAX_MATERIALIZE")
    if text is None:
        return DEFAULT_MAX_MATERIALIZE
    try:
        return int(text)
    except ValueError:
        raise SettingError(
            f"POWERCRIT_MAX_MATERIALIZE must be an integer, got {text!r}"
        ) from None


class Group(ABC):
    """Finite group on element indices 0 .. order-1, identity at index 0.

    Queries are logically pure.  A group at or below the materialization
    threshold (read once, at construction) answers ``element_order``,
    ``powers``, ``members`` and ``cyclic_generators`` from its
    :class:`CyclicPoset`, built on first use and kept; a larger group
    walks the powers of the queried element on every call.
    """

    identity: int = 0

    def __init__(self, order: int, descriptor: str):
        self.order = order
        self.descriptor = descriptor
        self._materialized = order <= max_materialize()
        self._poset: CyclicPoset | None = None

    # -- index API ---------------------------------------------------------

    @abstractmethod
    def mul(self, a: int, b: int) -> int:
        """Product of two elements, by index."""

    @abstractmethod
    def inv(self, a: int) -> int:
        """Inverse of an element, by index."""

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result, base = self.identity, a
        while k:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return result

    def cyclic_poset(self) -> CyclicPoset:
        """The poset of cyclic subgroups, built on first call and kept."""
        if self._poset is None:
            self._poset = CyclicPoset(self)
        return self._poset

    def _materialized_poset(self) -> CyclicPoset | None:
        return self.cyclic_poset() if self._materialized else None

    def element_order(self, a: int) -> int:
        poset = self._materialized_poset()
        if poset is not None:
            return len(poset.powers[poset.sub_of[a]])
        return self.word_order(self.word_of(a))

    def powers(self, a: int) -> tuple[int, ...]:
        """(1, a, a^2, ...): the cyclic subgroup generated by a, in power order."""
        poset = self._materialized_poset()
        if poset is not None:
            return poset.powers_of(a)
        return tuple(self.index_of(w) for w in self.word_powers(self.word_of(a)))

    def members(self, a: int) -> frozenset[int]:
        """The cyclic subgroup generated by a, as a set of indices."""
        poset = self._materialized_poset()
        if poset is not None:
            return poset.members(poset.sub_of[a])
        return frozenset(self.powers(a))

    def cyclic_generators(self, a: int) -> frozenset[int]:
        """All elements generating the same cyclic subgroup as a."""
        poset = self._materialized_poset()
        if poset is not None:
            return poset.generators(poset.sub_of[a])
        return _generators(self.powers(a))

    def element_label(self, a: int) -> str:
        return str(a)

    def parse_element(self, text: str) -> int:
        try:
            a = int(text.strip())
        except ValueError:
            raise ValueError(f"element descriptor {text!r} is not an index") from None
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for order {self.order}")
        return a

    def is_cyclic(self) -> bool:
        """True iff some element generates the whole group."""
        return any(self.word_order(w) == self.order for _, w in self.scan())

    # -- word API (backend-internal element encodings) ----------------------

    # For index-addressed backends words *are* indices; PermutationGroup
    # overrides everything below with tuple words.

    def word_of(self, a: int):
        return a

    def index_of(self, w) -> int:
        return w

    def word_mul(self, u, v):
        return self.mul(u, v)

    def word_inv(self, u):
        return self.inv(u)

    def word_order(self, w) -> int:
        # words are indices here; a backend that can exceed the threshold
        # overrides this, since element_order falls back on it there
        return self.element_order(w)

    def word_pow(self, w, k: int):
        if k < 0:
            w, k = self.word_inv(w), -k
        result, base = self.word_of(self.identity), w
        while k:
            if k & 1:
                result = self.word_mul(result, base)
            k >>= 1
            if k:
                base = self.word_mul(base, base)
        return result

    def word_powers(self, w) -> list:
        """Like :meth:`powers` but on words, walked on every call."""
        e = self.word_of(self.identity)
        seq, x = [e], w
        while x != e:
            seq.append(x)
            x = self.word_mul(x, w)
        return seq

    def scan(self, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, object]]:
        """Iterate (index, word) over the rank range [lo, hi)."""
        hi = self.order if hi is None else hi
        return ((i, i) for i in range(lo, hi))

    def centralizer_words(self, w) -> Iterable:
        """The words of a set containing the centralizer C(w); by default
        every word of the group."""
        return (v for _, v in self.scan())


# ---------------------------------------------------------------------------
# Cayley-table backend
# ---------------------------------------------------------------------------


class CayleyTableGroup(Group):
    """Dense multiplication table; O(1) products, O(n^2) memory."""

    def __init__(self, table: np.ndarray, descriptor: str):
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("Cayley table must be square")
        super().__init__(n, descriptor)
        self._table = table
        # identity fixed at index 0 by every constructor in this module
        inv = np.argmin(table != 0, axis=1)
        self._inv = inv

    def mul(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])


def _scale_error(what: str, order, cap: int) -> ScaleError:
    return ScaleError(
        f"{what} of order {order} exceeds the materialization threshold {cap} "
        "(raise POWERCRIT_MAX_MATERIALIZE to override)"
    )


def _check_table_scale(order: int, what: str) -> None:
    cap = max_materialize()
    if order > cap:
        raise _scale_error(what, order, cap)


def _table_dtype(n: int):
    return np.uint16 if n <= 0xFFFF else np.uint32


def _sums_mod(n: int, dtype) -> np.ndarray:
    """Read-only n x n view with entry (i, j) = (i + j) % n, in `dtype`.

    Row i is the window [i, i + n) of 0..n-1 written twice, so no n x n
    temporary is ever allocated.
    """
    idx = np.arange(n, dtype=dtype)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([idx, idx]), n)[:n]


def _rotation_reflection_table(m: int, twist: int, dtype) -> np.ndarray:
    """Table on rotations 0..m-1 and reflections m..2m-1 with a^i b a^j b
    = a^(i - j + twist): dihedral for twist 0, quaternion for twist m/2."""
    sums = _sums_mod(m, dtype)
    table = np.empty((2 * m, 2 * m), dtype=dtype)
    table[:m, :m] = sums  # a^i a^j = a^(i + j)
    table[:m, m:] = sums  # a^i a^j b = a^(i + j) b
    table[:m, m:] += m
    table[m:, :m] = sums[:, (-np.arange(m)) % m]  # a^i b a^j = a^(i - j) b
    table[m:, :m] += m
    table[m:, m:] = sums[:, (twist - np.arange(m)) % m]
    return table


def make_cyclic(n: int) -> CayleyTableGroup:
    """Cyclic group of order n; index i is the i-th power of the generator."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    _check_table_scale(n, "cyclic group")
    table = np.array(_sums_mod(n, _table_dtype(n)), order="C")
    return CayleyTableGroup(table, f"C:{n}")


def make_dihedral(n: int) -> CayleyTableGroup:
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 reflections."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    _check_table_scale(2 * n, "dihedral group")
    return CayleyTableGroup(_rotation_reflection_table(n, 0, _table_dtype(2 * n)), f"D:{n}")


def make_generalized_quaternion(n: int) -> CayleyTableGroup:
    """Generalized quaternion group of order 2**n, n >= 3.

    Indices 0..m-1 are powers of the order-m rotation a (m = 2**(n-1));
    index m+i is a^i b, where b^2 = a^(m/2) and b a b^-1 = a^-1.
    """
    if n < 3:
        raise ValueError(f"generalized quaternion parameter must be >= 3, got {n}")
    # 2**n > cap iff n >= cap.bit_length() (cap >= 0), decided before 2**n
    # is computed: for n near 10**12 that power never finishes
    cap = max_materialize()
    if n >= max(cap, 0).bit_length():
        raise _scale_error("generalized quaternion group", f"2^{n}", cap)
    order = 2**n
    m = order // 2
    table = _rotation_reflection_table(m, m // 2, _table_dtype(order))
    return CayleyTableGroup(table, f"Q:{n}")


def make_direct_product(g: Group, h: Group) -> CayleyTableGroup:
    """Direct product, element index (a, b) -> a * |H| + b."""
    order = g.order * h.order
    _check_table_scale(order, "direct product")
    dtype = _table_dtype(order)
    tg, th = (
        f._table if isinstance(f, CayleyTableGroup)
        else np.array([[f.mul(a, b) for b in range(f.order)] for a in range(f.order)], dtype=dtype)
        for f in (g, h)
    )
    # entry ((a1, b1), (a2, b2)) = g[a1, a2] * |H| + h[b1, b2]
    table = np.empty((order, order), dtype=dtype)
    blocks = table.reshape(g.order, h.order, g.order, h.order)
    blocks[...] = th[None, :, None, :]
    blocks += (tg.astype(dtype) * h.order)[:, None, :, None]
    return CayleyTableGroup(table, f"{g.descriptor} x {h.descriptor}")


# ---------------------------------------------------------------------------
# Lazy permutation backend (S_k, k <= 11)
# ---------------------------------------------------------------------------

MAX_SYMMETRIC_DEGREE = 11


class PermutationGroup(Group):
    """S_k addressed by Lehmer rank; words are one-line tuples.

    Rank order is the lexicographic order of one-line notation, so rank 0
    is the identity and :mod:`itertools`' permutation stream enumerates
    the whole group in rank order at C speed.  Nothing of size k! is ever
    stored; index -> word decoding is cached only for small degrees.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= MAX_SYMMETRIC_DEGREE:
            raise ValueError(
                f"symmetric group degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {degree}"
            )
        super().__init__(factorial(degree), f"S:{degree}")
        self.degree = degree
        self._fact = [factorial(i) for i in range(degree + 1)]
        self._word_cache: dict[int, tuple[int, ...]] | None = {} if degree <= 8 else None

    # -- rank / unrank ------------------------------------------------------

    def word_of(self, a: int) -> tuple[int, ...]:
        if self._word_cache is not None:
            got = self._word_cache.get(a)
            if got is not None:
                return got
        if not 0 <= a < self.order:
            raise ValueError(f"rank {a} out of range for {self.descriptor}")
        syms = list(range(self.degree))
        out = []
        rest = a
        for i in range(self.degree - 1, -1, -1):
            d, rest = divmod(rest, self._fact[i])
            out.append(syms.pop(d))
        word = tuple(out)
        if self._word_cache is not None:
            self._word_cache[a] = word
        return word

    def index_of(self, w: tuple[int, ...]) -> int:
        # digit i of the Lehmer code: the symbols below w[i] not yet used
        rank = 0
        k = self.degree
        used = 0
        for i, v in enumerate(w):
            rank += (v - (used & ((1 << v) - 1)).bit_count()) * self._fact[k - 1 - i]
            used |= 1 << v
        return rank

    # -- word operations ------------------------------------------------------

    def word_mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        # (u * v)(i) = u(v(i)): apply v first.
        return tuple(u[x] for x in v)

    def word_inv(self, u: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * self.degree
        for i, v in enumerate(u):
            out[v] = i
        return tuple(out)

    def _cycles(self, w: tuple[int, ...]) -> list[list[int]]:
        """The cycles of w, fixed points included, each from its least point."""
        out = []
        seen = 0
        for i in range(self.degree):
            if not (seen >> i) & 1:
                cyc = [i]
                seen |= 1 << i
                j = w[i]
                while j != i:
                    cyc.append(j)
                    seen |= 1 << j
                    j = w[j]
                out.append(cyc)
        return out

    def word_order(self, w: tuple[int, ...]) -> int:
        return math.lcm(*map(len, self._cycles(w)))

    def word_pow(self, w: tuple[int, ...], k: int) -> tuple[int, ...]:
        out = [0] * self.degree
        for cyc in self._cycles(w):
            length = len(cyc)
            shift = k % length
            for t, c in enumerate(cyc):
                out[c] = cyc[(t + shift) % length]
        return tuple(out)

    def mul(self, a: int, b: int) -> int:
        return self.index_of(self.word_mul(self.word_of(a), self.word_of(b)))

    def inv(self, a: int) -> int:
        return self.index_of(self.word_inv(self.word_of(a)))

    def is_cyclic(self) -> bool:
        return self.degree <= 2

    # -- scanning -------------------------------------------------------------

    def scan(self, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, tuple[int, ...]]]:
        ranked = enumerate(itertools.permutations(range(self.degree)))
        return ranked if lo == 0 and hi is None else itertools.islice(ranked, lo, hi)

    def centralizer_words(self, w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Exactly C(w), the product over cycle lengths m of C_m wr S_{c_m}.

        A centralizing permutation carries point t of the m-cycle a of w
        to point t + s_a of the m-cycle pi(a).  The m-cycles with m > 1
        have at most 2^5 * 5! such arrangements, which are listed; the
        fixed points, permuted freely, are streamed.
        """
        by_length: dict[int, list[list[int]]] = {}
        for cyc in self._cycles(w):
            by_length.setdefault(len(cyc), []).append(cyc)
        fixed = [c[0] for c in by_length.pop(1, [])]
        arrangements = [
            [
                tuple(p for c, s in zip(perm, shifts) for p in c[s:] + c[:s])
                for perm in itertools.permutations(cycs)
                for shifts in itertools.product(range(m), repeat=len(cycs))
            ]
            for m, cycs in by_length.items()
        ]
        # images come listed by source point: the moving cycles, then `fixed`
        slot = [0] * self.degree
        for pos, p in enumerate([p for cycs in by_length.values() for c in cycs for p in c] + fixed):
            slot[p] = pos
        images = (
            head + tail
            for head in (sum(parts, ()) for parts in itertools.product(*arrangements))
            for tail in itertools.permutations(fixed)
        )
        if slot == list(range(self.degree)):
            return images
        return (tuple(map(im.__getitem__, slot)) for im in images)

    # -- cycle notation ---------------------------------------------------------

    def element_label(self, a: int) -> str:
        return self.word_label(self.word_of(a))

    def word_label(self, w: tuple[int, ...]) -> str:
        cycles = [cyc for cyc in self._cycles(w) if len(cyc) > 1]
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(c + 1) for c in cyc) + ")" for cyc in cycles)

    def parse_element(self, text: str) -> int:
        return self.index_of(self.parse_word(text))

    def parse_word(self, text: str) -> tuple[int, ...]:
        """Parse cycle notation like "(1 2 3)(4 5)"; points are 1-based."""
        t = text.strip()
        if t in ("()", "e", "id", ""):
            return tuple(range(self.degree))
        depth = 0
        cycles: list[list[int]] = []
        current = ""
        for ch in t:
            if ch == "(":
                if depth:
                    raise ValueError(f"nested parenthesis in cycle notation: {text!r}")
                depth, current = 1, ""
            elif ch == ")":
                if not depth:
                    raise ValueError(f"unbalanced parenthesis in cycle notation: {text!r}")
                depth = 0
                pts = [int(x) for x in current.replace(",", " ").split()]
                if pts:
                    cycles.append(pts)
            elif depth:
                current += ch
            elif not ch.isspace():
                raise ValueError(f"unexpected character {ch!r} in cycle notation: {text!r}")
        if depth:
            raise ValueError(f"unbalanced parenthesis in cycle notation: {text!r}")
        word = list(range(self.degree))
        used: set[int] = set()
        for cyc in cycles:
            for p in cyc:
                if not 1 <= p <= self.degree:
                    raise ValueError(f"point {p} out of range 1..{self.degree}")
                if p - 1 in used:
                    raise ValueError(f"point {p} repeated in cycle notation: {text!r}")
                used.add(p - 1)
            for i, p in enumerate(cyc):
                word[p - 1] = cyc[(i + 1) % len(cyc)] - 1
        return tuple(word)


def make_symmetric(k: int) -> PermutationGroup:
    """Symmetric group on k points, k <= 11."""
    return PermutationGroup(k)


# ---------------------------------------------------------------------------
# Metacyclic coordinate backend
# ---------------------------------------------------------------------------


class MetacyclicGroup(Group):
    """Semidirect product of C_{p^a} by C_{q^b} with x^y = x^r.

    Elements are coordinate pairs (i, j), i mod p^a and j mod q^b, stored
    as the index i * q^b + j.  Products cost one table lookup of r^j plus
    two modular reductions, so the backend works at any order without a
    table.
    """

    def __init__(self, p: int, a: int, q: int, b: int, r: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not is_prime(q):
            raise ValueError(f"q = {q} is not prime")
        if p == q:
            raise ValueError(f"p and q must be distinct primes, both are {p}")
        if a < 1 or b < 1:
            raise ValueError(f"exponents must be >= 1, got a={a}, b={b}")
        pa, qb = p**a, q**b
        if not 2 <= r < pa:
            raise ValueError(f"r must satisfy 2 <= r < p^a = {pa}, got {r}")
        if r % p == 0:
            raise ValueError(f"p = {p} divides r = {r}")
        if pow(r, qb, pa) != 1:
            raise ValueError(
                f"presentation not well defined: r^(q^b) = {r}^{qb} != 1 (mod {pa})"
            )
        super().__init__(pa * qb, f"M:{p},{a},{q},{b},{r}")
        self.p, self.a, self.q, self.b, self.r = p, a, q, b, r
        self.pa, self.qb = pa, qb
        # r^j depends only on j mod ord(r), a power of q dividing p - 1, so
        # one period is stored however large q^b is
        k, rk = 1, r
        while rk != 1:
            k, rk = k * q, pow(rk, q, pa)
        self._k = k
        self._rpow = [pow(r, j, pa) for j in range(k)]
        # conjugation acts as y^-1 x y = x^r, so commuting y^j past x^i
        # twists by r^(-j) = r^(k - j)
        self._act = [self._rpow[-j % k] for j in range(k)]

    @property
    def x(self) -> int:
        """Generator of the normal cyclic factor: the pair (1, 0)."""
        return self.qb

    @property
    def y(self) -> int:
        """Generator of the acting cyclic factor: the pair (0, 1)."""
        return 1

    def pair_of(self, idx: int) -> tuple[int, int]:
        return divmod(idx, self.qb)

    def index_of_pair(self, i: int, j: int) -> int:
        return (i % self.pa) * self.qb + (j % self.qb)

    def mul(self, u: int, v: int) -> int:
        i1, j1 = divmod(u, self.qb)
        i2, j2 = divmod(v, self.qb)
        return ((i1 + self._act[j1 % self._k] * i2) % self.pa) * self.qb + (j1 + j2) % self.qb

    def inv(self, u: int) -> int:
        i, j = divmod(u, self.qb)
        return (-self._rpow[j % self._k] * i) % self.pa * self.qb + (self.qb - j) % self.qb

    def word_order(self, w: int) -> int:
        t = self.qb // math.gcd(w % self.qb, self.qb)
        # w^t = (c, 0) lies in the normal factor C_{p^a}
        c = self.word_pow(w, t) // self.qb
        return t * (self.pa // math.gcd(c, self.pa))

    def word_pow(self, w: int, k: int) -> int:
        """(i, j)^k = (i (1 + r^-j + ... + r^(-j(k-1))), jk), the geometric
        sum built by doubling in O(log k) steps."""
        if k < 0:
            w, k = self.inv(w), -k
        pa = self.pa
        i, j = divmod(w, self.qb)
        c = self._act[j % self._k]
        # (s, ck) = (1 + c + ... + c^(n-1), c^n) for the bits of k read so far
        s, ck = 0, 1
        for bit in bin(k)[2:]:
            s, ck = s * (1 + ck) % pa, ck * ck % pa
            if bit == "1":
                s, ck = (s + ck) % pa, ck * c % pa
        return i * s % pa * self.qb + j * k % self.qb

    def centralizer_words(self, w: int) -> Iterator[int]:
        """Exactly C(w), solving the commuting condition one j' at a time.

        (i', j') commutes with (i, j) iff i (1 - r^-j') = i' (1 - r^-j)
        (mod p^a): a linear congruence in i' with gcd(1 - r^-j, p^a)
        solutions or none, so the cost is O(q^b + |C(w)|).
        """
        pa, qb = self.pa, self.qb
        if qb > MAX_CENTRALIZER_WALK:
            raise ScaleError(
                f"centralizer walk over q^b = {self.q}^{self.b} acting exponents "
                f"exceeds the limit {MAX_CENTRALIZER_WALK}"
            )
        i, j = divmod(w, qb)
        coef = (1 - self._act[j % self._k]) % pa
        g = math.gcd(coef, pa)
        step = pa // g
        inv = pow(coef // g, -1, step)
        for j2 in range(qb):
            rhs = i * (1 - self._act[j2 % self._k]) % pa
            if rhs % g:
                continue
            i0 = rhs // g * inv % step
            for i2 in range(i0, pa, step):
                yield i2 * qb + j2

    def is_cyclic(self) -> bool:
        # r >= 2 with r^(q^b) = 1 (mod p^a) forces a non-trivial action.
        return False

    def element_label(self, a: int) -> str:
        i, j = divmod(a, self.qb)
        return f"({i},{j})"

    def parse_element(self, text: str) -> int:
        t = text.strip()
        if t.startswith("(") and t.endswith(")"):
            parts = t[1:-1].split(",")
            if len(parts) != 2:
                raise ValueError(f"metacyclic element descriptor must be (i,j), got {text!r}")
            i, j = (int(x) for x in parts)
            if not (0 <= i < self.pa and 0 <= j < self.qb):
                raise ValueError(f"coordinates {text!r} out of range ({self.pa}, {self.qb})")
            return self.index_of_pair(i, j)
        return super().parse_element(text)


def make_metacyclic(p: int, a: int, q: int, b: int, r: int) -> MetacyclicGroup:
    """Metacyclic group on pairs (i, j) realizing x^y = x^r; order p^a * q^b."""
    return MetacyclicGroup(p, a, q, b, r)


# ---------------------------------------------------------------------------
# Shared group machinery
# ---------------------------------------------------------------------------


class CyclicPoset:
    """The cyclic subgroups of a group, each built once, ordered by inclusion.

    Walking the elements in index order, each element not yet seen
    generates a new cyclic subgroup and is its least generator.  Subgroup
    ids follow that walk: ``sub_of[a]`` is the id of <a>, ``least[s]`` the
    least generator of s, ``powers[s]`` its powers (1, g, g^2, ...) and
    ``exp_of[a]`` the k with a = g^k.  <g> of order o contains exactly one
    subgroup of each order d dividing o, namely <g^(o/d)>, so containment
    is read off each subgroup's powers at its divisor positions.

    ``rows[s]`` is the closed power-graph neighbourhood shared by every
    generator of s, as a bitmask: the members of s together with the
    generators of every subgroup above it.  ``masks[s]`` holds the members
    alone.  ``maxima`` lists the maximal subgroups by descending order,
    then least generator.
    """

    def __init__(self, group: Group):
        n = group.order
        sub_of = [-1] * n
        exp_of = [0] * n
        least: list[int] = []
        powers: list[tuple[int, ...]] = []
        gen_masks: list[int] = []
        for x in range(n):
            if sub_of[x] >= 0:
                continue
            pw = tuple(group.index_of(w) for w in group.word_powers(group.word_of(x)))
            units = _units(len(pw))
            for k in units:
                sub_of[pw[k]] = len(powers)
                exp_of[pw[k]] = k
            least.append(x)
            powers.append(pw)
            gen_masks.append(sum(1 << pw[k] for k in units))
        masks = [sum(1 << i for i in pw) for pw in powers]
        rows = list(masks)
        maximal = [True] * len(powers)
        for t, pw in enumerate(powers):
            o = len(pw)
            for k in range(2, o + 1):
                if o % k == 0:
                    below = sub_of[pw[k % o]]
                    rows[below] |= gen_masks[t]
                    maximal[below] = False
        self.sub_of = sub_of
        self.exp_of = exp_of
        self.least = least
        self.powers = powers
        self.masks = masks
        self.rows = rows
        self.maxima = sorted(
            (s for s, top in enumerate(maximal) if top),
            key=lambda s: (-len(powers[s]), least[s]),
        )
        self._members: list[frozenset[int] | None] = [None] * len(powers)
        self._generators: list[frozenset[int] | None] = [None] * len(powers)

    def powers_of(self, a: int) -> tuple[int, ...]:
        """(1, a, a^2, ...), re-indexed from the stored powers of <a>."""
        pw = self.powers[self.sub_of[a]]
        k = self.exp_of[a]
        if k == 1:
            return pw
        o = len(pw)
        return tuple(pw[j * k % o] for j in range(o))

    def members(self, s: int) -> frozenset[int]:
        got = self._members[s]
        if got is None:
            got = self._members[s] = frozenset(self.powers[s])
        return got

    def generators(self, s: int) -> frozenset[int]:
        got = self._generators[s]
        if got is None:
            got = self._generators[s] = _generators(self.powers[s])
        return got


@dataclass(frozen=True)
class CyclicSubgroup:
    """A cyclic subgroup: its least generator, order and member set."""

    generator: int
    order: int
    members: frozenset[int]


def cyclic_subgroup(group: Group, g: int) -> CyclicSubgroup:
    """The cyclic subgroup generated by g, with its least generator."""
    mem = group.members(g)
    gens = group.cyclic_generators(g)
    return CyclicSubgroup(generator=min(gens), order=len(mem), members=mem)


def is_power_of(group: Group, g: int, h: int) -> bool:
    """True iff g lies in the cyclic subgroup generated by h.

    Short-circuits on order divisibility before touching any powers.
    """
    if g == h or g == group.identity:
        return True
    og = group.element_order(g)
    oh = group.element_order(h)
    if oh % og:
        return False
    return g in group.members(h)


def maximal_cyclic_subgroups(group: Group) -> list[CyclicSubgroup]:
    """All cyclic subgroups maximal under inclusion: the maxima of the poset.

    Sorted by descending order then least generator.  Every element of the
    group lies in at least one of them.
    """
    poset = group._materialized_poset()
    if poset is None:
        raise ScaleError(
            f"maximal cyclic subgroup enumeration unsupported at order {group.order} "
            f"(threshold {max_materialize()})"
        )
    return [
        CyclicSubgroup(generator=poset.least[s], order=len(poset.powers[s]), members=poset.members(s))
        for s in poset.maxima
    ]


def is_maximal_element(group: Group, x: int) -> bool:
    """True iff no element generates a strictly larger cyclic subgroup over x.

    Read off the poset maxima at or below the materialization threshold.
    Otherwise one pass over C(x), which holds every cyclic overgroup of x;
    each candidate is screened by order divisibility before the
    membership lift.
    """
    poset = group._materialized_poset()
    if poset is not None:
        return poset.sub_of[x] in poset.maxima
    wx = group.word_of(x)
    pw = group.word_powers(wx)
    ox, gens = len(pw), _generators(pw)
    for w in group.centralizer_words(wx):
        ow = group.word_order(w)
        if ow > ox and ow % ox == 0 and group.word_pow(w, ow // ox) in gens:
            return False
    return True


def _units(o: int) -> list[int]:
    """The exponents k < o with gcd(k, o) = 1; [0] for o = 1."""
    return [k for k in range(o) if math.gcd(k, o) == 1]


def _generators(pw) -> frozenset:
    """The generators of a cyclic subgroup given as (1, g, g^2, ...)."""
    return frozenset(pw[k] for k in _units(len(pw)))


def exponent_and_pi(group: Group) -> tuple[frozenset[int], bool]:
    """(set of primes dividing the order, every-element-order-is-a-prime-power)."""
    pi = frozenset(p for p, _ in factorize(group.order))
    is_eppo = True
    for _, w in group.scan():
        o = group.word_order(w)
        f = factorize(o)
        if len(f) > 1:
            is_eppo = False
            break
    return pi, is_eppo


def generated_subgroup_words(group: Group, words: Iterable, cap: int = 100_000) -> frozenset:
    """Closure of the given words under multiplication, as a word set.

    In a finite group right-multiplication by the generators reaches the
    whole generated subgroup (inverses are positive powers).  Raises
    ResourceLimitError past `cap` elements.
    """
    gens = [w for w in words]
    e = group.word_of(group.identity)
    closed = {e}
    closed.update(gens)
    frontier = list(closed)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                prod = group.word_mul(f, g)
                if prod not in closed:
                    closed.add(prod)
                    nxt.append(prod)
                    if len(closed) > cap:
                        raise ResourceLimitError(
                            f"subgroup closure exceeded {cap} elements in {group.descriptor}"
                        )
        frontier = nxt
    return frozenset(closed)


def generated_subgroup(group: Group, generators: Iterable[int], cap: int = 100_000) -> frozenset[int]:
    """Closure of the given element indices under multiplication."""
    words = [group.word_of(i) for i in generators]
    sub = generated_subgroup_words(group, words, cap=cap)
    return frozenset(group.index_of(w) for w in sub)


def spot_check_axioms(group: Group, triples: int = 1000, seed: int = 0) -> None:
    """Identity and inverse laws on all elements; associativity sampled.

    Associativity is exhaustive for order <= 64, else checked on `triples`
    seeded random triples.  Raises AssertionError on any violation.
    """
    n = group.order
    e = group.identity
    for g in range(n):
        assert group.mul(e, g) == g == group.mul(g, e), f"identity law fails at {g}"
        gi = group.inv(g)
        assert group.mul(g, gi) == e == group.mul(gi, g), f"inverse law fails at {g}"
    if n <= 64:
        triple_iter: Iterable[tuple[int, int, int]] = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(seed)
        triple_iter = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(triples))
    for a, b, c in triple_iter:
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c)), (
            f"associativity fails at ({a}, {b}, {c})"
        )
