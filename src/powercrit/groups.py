"""Finite groups with index-addressed elements and four backends.

Every group exposes its elements as the indices ``0 .. order-1`` with
index 0 the identity; the indexing per backend is frozen so reports are
reproducible bit for bit.  No backend stores a multiplication table:

* :class:`RotationReflectionGroup` -- the cyclic, dihedral and
  generalized quaternion families on rotations and reflections, a
  product costing a few integer operations;
* :class:`DirectProductGroup` -- any two groups, composed factor by
  factor on the index a * |H| + b;
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
backends enumerate directly instead of scanning the whole group, each
word with its order; :meth:`Group.centralizer_order` counts the walk
without taking it.

At or below the materialization threshold every group answers its
cyclic-subgroup lookups from one :class:`CyclicPoset`, which walks the
powers of each cyclic subgroup once rather than once per element.  The
threshold bounds that poset, whose per-element lists grow with the order
n and whose k comparability masks take k^2 bits for k cyclic subgroups.
:class:`RotationReflectionGroup` and :class:`DirectProductGroup` refuse
larger orders however they are built, so past it every group is an S_k
or an M.  A backend needs only ``mul``: a generated subgroup is closed
under right multiplication, so no query takes an inverse.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator

from .errors import ResourceLimitError, ScaleError, SettingError
from .numtheory import factorize, is_prime

__all__ = [
    "CyclicPoset",
    "CyclicSubgroup",
    "CyclicWord",
    "Group",
    "DirectProductGroup",
    "PermutationGroup",
    "MetacyclicGroup",
    "RotationReflectionGroup",
    "exponent_and_pi",
    "generated_subgroup",
    "generated_subgroup_words",
    "is_maximal_element",
    "make_cyclic",
    "make_dihedral",
    "make_direct_product",
    "make_generalized_quaternion",
    "make_metacyclic",
    "make_symmetric",
    "max_materialize",
    "maximal_cyclic_subgroups",
    "metacyclic_violation",
    "parse_decimal",
]

# Bounds the cyclic-subgroup poset: lists over the n elements and one
# k-bit comparability mask per cyclic subgroup.
DEFAULT_MAX_MATERIALIZE = 4096
# Lazy walks (a metacyclic centralizer over j < q^b, the powers of one
# element) take about half a second at this length; longer ones are refused.
MAX_CENTRALIZER_WALK = 1 << 20
# Largest p^a, q^b in bits: primality tests and modular powers stay fast.
MAX_PRIME_POWER_BITS = 1024
# Largest subgroup a multiplicative closure may reach before it is refused.
MAX_GENERATED_SUBGROUP = 100_000


def parse_decimal(text: str) -> int:
    """`text` as a signed ASCII decimal between whitespace, the way the spec
    grammar reads integers: int() also takes other digits and underscores."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"invalid decimal integer {text!r}")
    return int(text)


def max_materialize() -> int:
    """Materialization threshold; override with POWERCRIT_MAX_MATERIALIZE."""
    text = os.environ.get("POWERCRIT_MAX_MATERIALIZE")
    if text is None:
        return DEFAULT_MAX_MATERIALIZE
    try:
        return parse_decimal(text)
    except ValueError:
        raise SettingError(
            f"POWERCRIT_MAX_MATERIALIZE must be an integer, got {text!r}"
        ) from None


class Group(ABC):
    """Finite group on element indices 0 .. order-1, identity at index 0.

    Queries are logically pure.  ``materialized`` says whether the order is
    at or below the materialization threshold, which is read here, once, at
    construction; power graphs of the group take their mode from it.  A
    materialized group answers ``element_order``, ``members`` and
    ``cyclic_generators`` from its :class:`CyclicPoset`, built on first use
    and kept; a larger group walks the powers of the queried element on
    every call, as ``powers`` does in every group.  :meth:`poset` is the
    one refusal of whole-group work past the threshold.  ``mul`` is the one
    abstract method: no query takes an inverse.
    """

    identity: int = 0

    def __init__(self, order: int, descriptor: str):
        self.order = order
        self.descriptor = descriptor
        self._threshold = max_materialize()
        self.materialized = order <= self._threshold
        self._poset: CyclicPoset | None = None

    # -- index API ---------------------------------------------------------

    @abstractmethod
    def mul(self, a: int, b: int) -> int:
        """Product of two elements, by index."""

    def cyclic_poset(self) -> CyclicPoset:
        """The poset of cyclic subgroups, built on first call and kept."""
        if self._poset is None:
            self._poset = CyclicPoset(self)
        return self._poset

    def poset(self, what: str, hint: str = "") -> CyclicPoset:
        """The kept poset, for `what`; refused past the threshold."""
        if not self.materialized:
            raise ScaleError(
                f"{what} needs materialized mode: order {self.order} exceeds threshold {self._threshold}{hint}"
            )
        return self.cyclic_poset()

    def _materialized_poset(self) -> CyclicPoset | None:
        return self.cyclic_poset() if self.materialized else None

    def element_order(self, a: int) -> int:
        poset = self._materialized_poset()
        if poset is not None:
            return len(poset.powers[poset.sub_of[a]])
        return self.word_order(self.word_of(a))

    def powers(self, a: int) -> tuple[int, ...]:
        """(1, a, a^2, ...): the cyclic subgroup generated by a, walked in power order."""
        return tuple(self.word_powers(a))

    def members(self, a: int) -> frozenset[int]:
        """The cyclic subgroup generated by a, as a set of indices."""
        poset = self._materialized_poset()
        if poset is not None:
            return frozenset(poset.powers[poset.sub_of[a]])
        return frozenset(self.powers(a))

    def cyclic_generators(self, a: int) -> frozenset[int]:
        """All elements generating the same cyclic subgroup as a."""
        poset = self._materialized_poset()
        if poset is not None:
            return frozenset(poset.gens[poset.sub_of[a]])
        return _generators(self.powers(a))

    def element_label(self, a: int) -> str:
        return str(a)

    def parse_element(self, text: str) -> int:
        try:
            a = parse_decimal(text)
        except ValueError:
            raise ValueError(f"element descriptor {text!r} is not an index") from None
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for order {self.order}")
        return a

    # -- word API (backend-internal element encodings) ----------------------

    # For index-addressed backends words *are* indices; PermutationGroup
    # overrides everything below with tuple words.

    def word_of(self, a: int):
        return a

    def index_of(self, w) -> int:
        return w

    def word_mul(self, u, v):
        return self.mul(u, v)

    def word_order(self, w) -> int:
        # words are indices here, and element_order reads the poset: S_k
        # and M, the only groups built past the threshold, override this
        return self.element_order(w)

    def word_pow(self, w, k: int):
        result, base = self.word_of(self.identity), w
        while k:
            if k & 1:
                result = self.word_mul(result, base)
            k >>= 1
            if k:
                base = self.word_mul(base, base)
        return result

    def word_powers(self, w) -> list:
        """Like :meth:`powers` but on words, walked on every call.  Above the
        threshold the order is read first, and a long walk refused."""
        if not self.materialized and (o := self.word_order(w)) > MAX_CENTRALIZER_WALK:
            raise ScaleError(f"walk over the {o} powers of an element exceeds the limit {MAX_CENTRALIZER_WALK}")
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

    def centralizer_words(self, w) -> Iterator[tuple]:
        """(word, order) for each word of a set containing the centralizer
        C(w); by default every word of the group."""
        return ((v, self.word_order(v)) for _, v in self.scan())

    def centralizer_order(self, w) -> int:
        """The number of words :meth:`centralizer_words` walks for w."""
        return self.order


# ---------------------------------------------------------------------------
# Backends multiplying by formula
# ---------------------------------------------------------------------------


class RotationReflectionGroup(Group):
    """C:n, D:n, Q:n on rotations a^i (index i < m) and, for D and Q,
    a^i b (index m + i), with a^i b a^j b = a^(i - j + twist): twist 0 for
    D, m/2 for Q."""

    def __init__(self, m: int, reflections: bool, twist: int, descriptor: str):
        super().__init__(2 * m if reflections else m, descriptor)
        if not self.materialized:
            what = "generalized quaternion" if twist else "dihedral" if reflections else "cyclic"
            order = f"2^{self.order.bit_length() - 1}" if twist else self.order
            raise _scale_error(f"{what} group", order, self._threshold)
        self.m, self.twist = m, twist

    def mul(self, a: int, b: int) -> int:
        m = self.m
        if a < m:
            return (a + b) % m if b < m else (a + b) % m + m  # a^i a^j (b)
        if b < m:
            return (a - b) % m + m  # a^i b a^j = a^(i - j) b
        return (a - b + self.twist) % m


# The bench tracer counts products through this name; it goes with the
# bench change that reads spans and counters from the package.
CayleyTableGroup = RotationReflectionGroup


class DirectProductGroup(Group):
    """G x H on indices a * |H| + b, multiplied factor by factor."""

    def __init__(self, g: Group, h: Group):
        super().__init__(g.order * h.order, f"{g.descriptor} x {h.descriptor}")
        if not self.materialized:
            raise _scale_error("direct product", self.order, self._threshold)
        self.g, self.h = g, h

    def mul(self, a: int, b: int) -> int:
        nh = self.h.order
        return self.g.mul(a // nh, b // nh) * nh + self.h.mul(a % nh, b % nh)


def _scale_error(what: str, order, cap: int) -> ScaleError:
    return ScaleError(
        f"{what} of order {order} exceeds the materialization threshold {cap} "
        "(raise POWERCRIT_MAX_MATERIALIZE to override)"
    )


def make_cyclic(n: int) -> RotationReflectionGroup:
    """Cyclic group of order n; index i is the i-th power of the generator."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    return RotationReflectionGroup(n, False, 0, f"C:{n}")


def make_dihedral(n: int) -> RotationReflectionGroup:
    """Dihedral group of order 2n: indices 0..n-1 rotations, n..2n-1 reflections."""
    if n < 1:
        raise ValueError(f"dihedral parameter must be >= 1, got {n}")
    return RotationReflectionGroup(n, True, 0, f"D:{n}")


def make_generalized_quaternion(n: int) -> RotationReflectionGroup:
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
    m = 2 ** (n - 1)
    return RotationReflectionGroup(m, True, m // 2, f"Q:{n}")


def make_direct_product(g: Group, h: Group) -> DirectProductGroup:
    """Direct product, element index (a, b) -> a * |H| + b."""
    return DirectProductGroup(g, h)


# ---------------------------------------------------------------------------
# Lazy permutation backend (S_k, k <= 11)
# ---------------------------------------------------------------------------

MAX_SYMMETRIC_DEGREE = 11


class PermutationGroup(Group):
    """S_k addressed by Lehmer rank; words are one-line tuples.

    Rank order is the lexicographic order of one-line notation, so rank 0
    is the identity and :mod:`itertools`' permutation stream enumerates
    the whole group in rank order at C speed.  Nothing of size k! is ever
    stored, and index -> word decoding keeps no cache.
    """

    def __init__(self, degree: int):
        if not 1 <= degree <= MAX_SYMMETRIC_DEGREE:
            raise ValueError(
                f"symmetric group degree must be in 1..{MAX_SYMMETRIC_DEGREE}, got {degree}"
            )
        super().__init__(factorial(degree), f"S:{degree}")
        self.degree = degree
        self._fact = [factorial(i) for i in range(degree + 1)]

    # -- rank / unrank ------------------------------------------------------

    def word_of(self, a: int) -> tuple[int, ...]:
        if not 0 <= a < self.order:
            raise ValueError(f"rank {a} out of range for {self.descriptor}")
        syms = list(range(self.degree))
        out = []
        rest = a
        for i in range(self.degree - 1, -1, -1):
            d, rest = divmod(rest, self._fact[i])
            out.append(syms.pop(d))
        return tuple(out)

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

    def powers(self, a: int) -> tuple[int, ...]:
        return tuple(map(self.index_of, self.word_powers(self.word_of(a))))

    def is_cyclic(self) -> bool:
        return self.degree <= 2

    # -- scanning -------------------------------------------------------------

    def scan(self, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, tuple[int, ...]]]:
        ranked = enumerate(itertools.permutations(range(self.degree)))
        return ranked if lo == 0 and hi is None else itertools.islice(ranked, lo, hi)

    def centralizer_words(self, w: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
        """Exactly C(w), the product over cycle lengths m of C_m wr S_{c_m},
        each word with its order.

        A centralizing permutation carries point t of the m-cycle a of w
        to point t + s_a of the m-cycle pi(a).  Its images on the moving
        points (the head) run through the arrangements of each cycle
        length in turn, as itertools.product orders them: each length's
        arrangements are listed once and every head so far is extended by
        each of them, so the heads are at most 2^5 * 5! in S_11.  For each
        head the fixed points (the tail) run through
        itertools.permutations.  A head's order is read off its shifts and
        each tail's order is worked out once per walk, so a word's order
        is the lcm of the two.
        """
        by_length: dict[int, list[list[int]]] = {}
        for cyc in self._cycles(w):
            by_length.setdefault(len(cyc), []).append(cyc)
        fixed = [c[0] for c in by_length.pop(1, [])]
        lcm = math.lcm
        heads = [((), 1)]
        for m, cycs in by_length.items():
            factor = list(_arrangements(m, cycs))
            heads = [(head + images, lcm(order, o)) for head, order in heads for images, o in factor]
        zeros = (0,) * len(fixed)
        tail_orders = (_wreath_order(pi, zeros, 1) for pi in itertools.permutations(range(len(fixed))))
        if len(heads) > 1:  # every head replays the same tail orders; C(1) streams its 11! once
            tail_orders = list(tail_orders)
        # images come listed by source point: the moving cycles, then `fixed`
        slot = [0] * self.degree
        for pos, p in enumerate([p for cycs in by_length.values() for c in cycs for p in c] + fixed):
            slot[p] = pos
        in_place = slot == list(range(self.degree))
        for head, head_order in heads:
            for tail, tail_order in zip(itertools.permutations(fixed), tail_orders):
                im = head + tail
                yield (im if in_place else tuple(map(im.__getitem__, slot))), lcm(head_order, tail_order)

    def centralizer_order(self, w: tuple[int, ...]) -> int:
        """|C(w)|: the product over cycle lengths m of m^c * c! for the c m-cycles of w."""
        counts = Counter(map(len, self._cycles(w)))
        return math.prod(m**c * factorial(c) for m, c in counts.items())

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
                try:
                    pts = [parse_decimal(x) for x in current.replace(",", " ").split()]
                except ValueError:
                    raise ValueError(f"cycle points must be integers: {text!r}") from None
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


def _wreath_order(perm, shifts, m: int) -> int:
    """The order of the arrangement carrying m-cycle a to m-cycle perm[a]
    shifted by shifts[a]: a cycle of perm of length l whose shifts sum to
    s makes cycles of length l * m / gcd(s, m).  With m = 1 it is the
    order of perm."""
    order, seen = 1, [False] * len(perm)
    for a, b in enumerate(perm):
        if not seen[a]:
            seen[a] = True
            length, s = 1, shifts[a]
            while b != a:
                seen[b] = True
                s += shifts[b]
                b = perm[b]
                length += 1
            n = length * m // math.gcd(s, m)
            order = order * n // math.gcd(order, n)
    return order


def _arrangements(m: int, cycs: list[list[int]]) -> Iterator[tuple[tuple[int, ...], int]]:
    """The elements of C_m wr S_c on the c m-cycles `cycs`, as images listed
    by source point, each with its order."""
    c = len(cycs)
    for perm in itertools.permutations(range(c)):
        for shifts in itertools.product(range(m), repeat=c):
            images = tuple(p for a, s in zip(perm, shifts) for p in cycs[a][s:] + cycs[a][:s])
            yield images, _wreath_order(perm, shifts, m)


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
        violation = metacyclic_violation(p, a, q, b, r)
        if violation is not None:
            raise ValueError(violation)
        pa, qb = p**a, q**b
        super().__init__(pa * qb, f"M:{p},{a},{q},{b},{r}")
        self.p, self.a, self.q, self.b, self.r = p, a, q, b, r
        self.pa, self.qb = pa, qb
        # r^j depends only on j mod ord(r), a power of q dividing p - 1, so
        # one period is stored however large q^b is
        k, rk = 1, r
        while rk != 1:
            k, rk = k * q, pow(rk, q, pa)
        if k > MAX_CENTRALIZER_WALK:
            raise ScaleError(f"storing the {k} powers of r = {r} exceeds the limit {MAX_CENTRALIZER_WALK}")
        self._k = k
        # conjugation acts as y^-1 x y = x^r, so commuting y^j past x^i
        # twists by r^(-j) = r^(k - j)
        self._act = [pow(r, -j % k, pa) for j in range(k)]

    def index_of_pair(self, i: int, j: int) -> int:
        return (i % self.pa) * self.qb + (j % self.qb)

    def mul(self, u: int, v: int) -> int:
        i1, j1 = divmod(u, self.qb)
        i2, j2 = divmod(v, self.qb)
        return ((i1 + self._act[j1 % self._k] * i2) % self.pa) * self.qb + (j1 + j2) % self.qb

    def word_order(self, w: int) -> int:
        t = self.qb // math.gcd(w % self.qb, self.qb)
        # w^t = (c, 0) lies in the normal factor C_{p^a}
        c = self.word_pow(w, t) // self.qb
        return t * (self.pa // math.gcd(c, self.pa))

    def word_pow(self, w: int, k: int) -> int:
        """(i, j)^k = (i (1 + r^-j + ... + r^(-j(k-1))), jk), the geometric
        sum built by doubling in O(log k) steps."""
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

    def centralizer_words(self, w: int) -> Iterator[tuple[int, int]]:
        """Exactly C(w), each word with its order, solving the commuting
        condition one j' at a time.

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
                v = i2 * qb + j2
                yield v, self.word_order(v)

    def centralizer_order(self, w: int) -> int:
        """|C(w)|: gcd(1 - r^-j, p^a) solutions i' for each j' that has any,
        and whether j' has any depends on j' mod ord(r) only."""
        i, j = divmod(w, self.qb)
        g = math.gcd((1 - self._act[j % self._k]) % self.pa, self.pa)
        solvable = sum(1 for t in range(self._k) if i * (1 - self._act[t]) % g == 0)
        return g * solvable * (self.qb // self._k)

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
            try:
                i, j = map(parse_decimal, parts)
            except ValueError:
                raise ValueError(f"metacyclic coordinates must be integers, got {text!r}") from None
            if not (0 <= i < self.pa and 0 <= j < self.qb):
                raise ValueError(f"coordinates {text!r} out of range ({self.pa}, {self.qb})")
            return self.index_of_pair(i, j)
        return super().parse_element(text)


def metacyclic_violation(p: int, a: int, q: int, b: int, r: int) -> str | None:
    """Why (p, a, q, b, r) presents no metacyclic group, or None if it does.

    Raises ScaleError when p^a or q^b would exceed MAX_PRIME_POWER_BITS,
    judged from bit lengths before any primality test or power.
    """
    if a < 1 or b < 1:
        return f"exponents must be >= 1, got a={a}, b={b}"
    for name, base, e in (("p^a", p, a), ("q^b", q, b)):
        if e * base.bit_length() > MAX_PRIME_POWER_BITS:
            raise ScaleError(f"{name} = {base}^{e} exceeds the limit of {MAX_PRIME_POWER_BITS} bits")
    if not is_prime(p):
        return f"p = {p} is not prime"
    if not is_prime(q):
        return f"q = {q} is not prime"
    if p == q:
        return f"p and q must be distinct primes, both are {p}"
    pa, qb = p**a, q**b
    if not 2 <= r < pa:
        return f"r must satisfy 2 <= r < p^a = {pa}, got {r}"
    if r % p == 0:
        return f"p = {p} divides r = {r}"
    if pow(r, qb, pa) != 1:
        return f"presentation not well defined: r^(q^b) = {r}^{qb} != 1 (mod {pa})"
    return None


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
    least generator of s, ``gens[s]`` all its generators and ``powers[s]``
    the powers (1, g, g^2, ...) of its least generator g.  <g>
    of order o contains exactly one subgroup of each order d dividing o,
    namely <g^(o/d)>, so containment is read off each subgroup's powers at
    its divisor positions.

    The k subgroups are the nodes of every materialized power-graph query.
    The members of <x> generate the subgroups of <x>, so N[x] is the union
    of the generator sets of the subgroups comparable with <x>.  ``comp[s]``
    is that comparability set as a k-bit mask: bit t is set iff t lies
    above or below s (s included).  ``maxima`` lists the maximal subgroups
    by descending order, then least generator, and ``maximal[s]`` says
    whether s is one of them.
    """

    def __init__(self, group: Group):
        n = group.order
        sub_of = [-1] * n
        least: list[int] = []
        gens: list[tuple[int, ...]] = []
        powers: list[tuple[int, ...]] = []
        units_of: dict[int, list[int]] = {}
        for x in range(n):
            if sub_of[x] >= 0:
                continue
            pw = group.powers(x)
            units = units_of.get(len(pw))
            if units is None:
                units = units_of[len(pw)] = _units(len(pw))
            for k in units:
                sub_of[pw[k]] = len(powers)
            least.append(x)
            gens.append(tuple(pw[k] for k in units))
            powers.append(pw)
        comp = [1 << s for s in range(len(powers))]
        maximal = [True] * len(powers)
        for t, pw in enumerate(powers):
            o, bit_t, down = len(pw), 1 << t, 0
            for k in range(2, o + 1):
                if o % k == 0:
                    below = sub_of[pw[k % o]]
                    down |= 1 << below
                    comp[below] |= bit_t
                    maximal[below] = False
            comp[t] |= down
        self.sub_of = sub_of
        self.least = least
        self.gens = gens
        self.powers = powers
        self.comp = comp
        self.full = (1 << len(powers)) - 1
        self.maximal = maximal
        self.maxima = sorted(
            (s for s, top in enumerate(maximal) if top),
            key=lambda s: (-len(powers[s]), least[s]),
        )

    # -- node masks -----------------------------------------------------------

    def mask_of(self, xs) -> int:
        """The nodes the elements xs generate, as a mask."""
        sub_of, out = self.sub_of, 0
        for x in xs:
            out |= 1 << sub_of[x]
        return out

    def nodes(self, mask: int) -> Iterator[int]:
        """The nodes of `mask`, lowest first."""
        while mask:
            bit = mask & -mask
            yield bit.bit_length() - 1
            mask ^= bit

    def meet(self, mask: int) -> int:
        """The nodes comparable with every node of `mask`, as a mask; all
        nodes for the empty mask.  On elements: the common neighbourhood
        of the union of the nodes' generator sets."""
        comp, out = self.comp, self.full
        while mask:  # nodes() inlined: meet is the closure kernel's inner loop
            bit = mask & -mask
            out &= comp[bit.bit_length() - 1]
            mask ^= bit
        return out

    def expand(self, mask: int) -> frozenset[int]:
        """The elements generating the nodes of `mask`."""
        return frozenset(itertools.chain.from_iterable(map(self.gens.__getitem__, self.nodes(mask))))


@dataclass(frozen=True, slots=True)
class CyclicSubgroup:
    """A cyclic subgroup, as its poset node holds it: least generator and
    order.  ``Group.members(generator)`` expands it."""

    generator: int
    order: int


class CyclicWord:
    """One fixed word w and its cyclic subgroup, for adjacency tests against w.

    Power-graph adjacency only asks whether one cyclic subgroup contains
    the other, so a word v of order ov is adjacent or equal to w iff it
    lies among the powers of w, or its power lifted to order(w) generates
    <w>.  Both tests short-circuit on order divisibility.
    """

    __slots__ = ("word", "order", "members", "gens")

    def __init__(self, group: Group, w):
        pw = group.word_powers(w)
        self.word = w
        self.order = len(pw)
        self.members = frozenset(pw)
        self.gens = _generators(pw)

    def adjacent_or_equal(self, group: Group, v, ov: int) -> bool:
        if ov <= self.order:
            return self.order % ov == 0 and v in self.members
        return ov % self.order == 0 and group.word_pow(v, ov // self.order) in self.gens


def maximal_cyclic_subgroups(group: Group) -> list[CyclicSubgroup]:
    """All cyclic subgroups maximal under inclusion: the maxima of the poset.

    Sorted by descending order then least generator.  Every element of the
    group lies in at least one of them.
    """
    poset = group.poset("maximal cyclic subgroup enumeration")
    return [CyclicSubgroup(poset.least[s], len(poset.powers[s])) for s in poset.maxima]


def is_maximal_element(group: Group, x: int) -> bool:
    """True iff no element generates a strictly larger cyclic subgroup over x,
    read off the poset's maximality flags; refused past the threshold, where
    an element report reads it as |N[x]| = o(x)."""
    poset = group.poset("element maximality test")
    return poset.maximal[poset.sub_of[x]]


def _units(o: int) -> list[int]:
    """The exponents k < o with gcd(k, o) = 1; [0] for o = 1."""
    return [k for k in range(o) if math.gcd(k, o) == 1]


def _generators(pw) -> frozenset:
    """The generators of a cyclic subgroup given as (1, g, g^2, ...)."""
    return frozenset(map(pw.__getitem__, _units(len(pw))))


def exponent_and_pi(group: Group) -> tuple[frozenset[int], bool]:
    """(set of primes dividing the order, every-element-order-is-a-prime-power),
    from the distinct orders of the poset's cyclic subgroups; refused past
    the threshold, where the answer would take a pass over the group."""
    poset = group.poset("prime-power element order test")
    pi = frozenset(p for p, _ in factorize(group.order))
    return pi, all(len(factorize(o)) <= 1 for o in set(map(len, poset.powers)))


def generated_subgroup_words(group: Group, words: Iterable) -> frozenset:
    """Closure of the given words under multiplication, as a word set.

    In a finite group right-multiplication by the generators reaches the
    whole generated subgroup (inverses are positive powers).  Raises
    ResourceLimitError past MAX_GENERATED_SUBGROUP elements.
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
                    if len(closed) > MAX_GENERATED_SUBGROUP:
                        raise ResourceLimitError(
                            f"subgroup closure exceeded {MAX_GENERATED_SUBGROUP} elements in {group.descriptor}"
                        )
        frontier = nxt
    return frozenset(closed)


def generated_subgroup(group: Group, generators: Iterable[int]) -> frozenset[int]:
    """Closure of the given element indices under multiplication."""
    sub = generated_subgroup_words(group, [group.word_of(i) for i in generators])
    return frozenset(group.index_of(w) for w in sub)
