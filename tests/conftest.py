"""Brute-force oracles and helpers shared across the test suite.

The brute_* oracles recompute graph facts straight from the definitions by
enumerating powers with repeated multiplication, independently of the
production shortcuts (order divisibility, bitset rows, generator lifts).
Beside them are the paths the package replaced, kept as oracles, and the
helpers no command calls.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
from collections import Counter
from typing import Iterable

import numpy as np

from powercrit import CyclicSubgroup, Group, PowerGraph
from powercrit.cli import cmd_analyze, cmd_census, cmd_export, cmd_verify
from powercrit.criticality import plain_critical_by_overgroups
from powercrit.errors import InternalConsistencyError
from powercrit.groups import CyclicWord, generated_subgroup_words
from powercrit.numtheory import as_prime_power, is_prime, multiplicative_order
from powercrit.report import analyze_group


def brute_powers(group: Group, x: int) -> list[int]:
    out = [group.identity]
    y = x
    while y != group.identity:
        out.append(y)
        y = group.mul(y, x)
    return out


def brute_adjacent_or_equal(group: Group, x: int, y: int) -> bool:
    return x == y or x in brute_powers(group, y) or y in brute_powers(group, x)


def brute_closed_neighborhood(group: Group, x: int) -> frozenset[int]:
    return frozenset(y for y in range(group.order) if brute_adjacent_or_equal(group, x, y))


def brute_twin_class(group: Group, x: int) -> frozenset[int]:
    nx = brute_closed_neighborhood(group, x)
    return frozenset(
        y for y in range(group.order) if brute_closed_neighborhood(group, y) == nx
    )


@functools.lru_cache(maxsize=2)
def _brute_neighborhoods(group: Group) -> tuple[frozenset[int], ...]:
    return tuple(brute_closed_neighborhood(group, x) for x in range(group.order))


def brute_closure(group: Group, xs) -> frozenset[int]:
    """N[N[xs]]: the common neighbourhood of xs (the whole group for no xs),
    then the common neighbourhood of that; closed neighbourhoods are kept
    for the last two groups."""
    nbs = _brute_neighborhoods(group)
    everything = frozenset(range(group.order))
    common = everything.intersection(*(nbs[x] for x in xs))
    return everything.intersection(*(nbs[z] for z in common))


def brute_edge_count(group: Group) -> int:
    n = group.order
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if brute_adjacent_or_equal(group, i, j)
    )


def brute_rows(group: Group) -> list[int]:
    """Closed-neighbourhood bitmasks built element by element: every power
    x of every y puts x in row y and y in row x."""
    n = group.order
    rows = [0] * n
    for y in range(n):
        bit_y = 1 << y
        mask = 0
        for x in brute_powers(group, y):
            mask |= 1 << x
            rows[x] |= bit_y
        rows[y] |= mask
    return rows


def brute_row_closure(rows: list[int], xs) -> int:
    """N[N[xs]] as a bitmask: the AND of the rows of xs, then the AND of
    the rows of every element in that common neighbourhood."""
    full = (1 << len(rows)) - 1
    common = full
    for x in xs:
        common &= rows[x]
    hat = full
    for z in range(len(rows)):
        if (common >> z) & 1:
            hat &= rows[z]
    return hat


def brute_twin_classes(rows: list[int]) -> tuple[frozenset[int], ...]:
    """Elements bucketed by equal rows, classes in least-member order."""
    buckets: dict[int, list[int]] = {}
    for x, row in enumerate(rows):
        buckets.setdefault(row, []).append(x)
    return tuple(frozenset(v) for v in buckets.values())


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, r) with n = p^r and r >= 1, by trial division; None otherwise."""
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    if p is None:
        return None
    r = 0
    while n % p == 0:
        n, r = n // p, r + 1
    return (p, r) if n == 1 else None


def brute_class_record(group: Group, rows: list[int], members) -> tuple:
    """The fields of a twin class's NClassRecord, as ``dataclasses.astuple``
    gives them, straight from the definitions on brute-force rows.

    A compound class other than the star class gets its parameters from
    its member orders: the root is the least member of largest order p^r,
    and the least member order is p^(s+1).
    """
    hat = brute_row_closure(rows, members)
    star = group.identity in members
    own = sum(1 << x for x in members)
    plain = len({frozenset(brute_powers(group, x)) for x in members}) == 1
    size = bin(hat).count("1")
    pp = _prime_power(size)
    critical = not star and hat == own | 1 << group.identity and pp is not None and pp[1] >= 2
    params = None
    if not plain and not star:
        orders = {x: len(brute_powers(group, x)) for x in members}
        top = max(orders.values())
        p, r = _prime_power(top)
        root = min(x for x, o in orders.items() if o == top)
        params = (p, r, _prime_power(min(orders.values()))[1] - 1, root)
    return (min(members), len(members), "plain" if plain else "compound", params, critical, size, star)


def brute_try_structure(group: Group, p: int, a: int, q: int, b: int):
    """(kernel generator, complement generator) or None, element by element:
    the kernel is the cyclic subgroup of the first element of order p^a,
    normal iff every conjugate of its generator stays in it; the
    complement, of the first element of order q^b, must fix no non-identity
    kernel element under conjugation."""
    pa, qb = p**a, q**b
    kernel_gen = next((g for g in range(group.order) if group.element_order(g) == pa), None)
    if kernel_gen is None:
        return None
    kernel = group.members(kernel_gen)
    for t in range(group.order):
        if group.mul(group.mul(group.inv(t), kernel_gen), t) not in kernel:
            return None
    comp_gen = next((g for g in range(group.order) if group.element_order(g) == qb), None)
    if comp_gen is None:
        return None
    identity = group.identity
    for h in group.members(comp_gen):
        if h == identity:
            continue
        hi = group.inv(h)
        for k in kernel:
            if k != identity and group.mul(group.mul(hi, k), h) == k:
                return None
    return kernel_gen, comp_gen


def _brute_subgroups(group: Group) -> dict[frozenset[int], list[int]]:
    # member set -> generators, both in index order
    subs: dict[frozenset[int], list[int]] = {}
    for g in range(group.order):
        subs.setdefault(frozenset(brute_powers(group, g)), []).append(g)
    return subs


def brute_diamond_classes(group: Group) -> tuple[frozenset[int], ...]:
    """Same-generator classes, bucketed by member set, in least-member order."""
    return tuple(frozenset(gens) for gens in _brute_subgroups(group).values())


def brute_maximal_cyclic_subgroups(group: Group) -> list[CyclicSubgroup]:
    """The O(k^2) scan: keep each cyclic subgroup no larger one contains."""
    subs = _brute_subgroups(group)
    by_size = sorted(subs, key=len, reverse=True)
    maximal = [
        CyclicSubgroup(generator=subs[m][0], order=len(m))
        for m in by_size
        if not any(m < t for t in by_size if len(t) > len(m))
    ]
    maximal.sort(key=lambda s: (-s.order, s.generator))
    return maximal


def brute_cyclic_partition(group: Group):
    """(components, None) or (None, (first, second, least shared element)),
    from the pairwise scan over the brute-force maximal cyclic subgroups."""
    maxes = brute_maximal_cyclic_subgroups(group)
    for i in range(len(maxes)):
        for j in range(i + 1, len(maxes)):
            first, second = (set(brute_powers(group, m.generator)) for m in (maxes[i], maxes[j]))
            shared = (first & second) - {group.identity}
            if shared:
                return None, (maxes[i], maxes[j], min(shared))
    return tuple(maxes), None


def isomorphism_invariant(group: Group) -> tuple:
    """Every field of the group's analysis that names no element, so equal
    on isomorphic groups: order, group kind, EPPO flag, prime set and star
    size; the multiset of (size, kind, is_critical, closure_size,
    is_star_class, (p, r, s)) over the twin classes; whether a cyclic
    partition exists and its component orders; and whether a Frobenius
    structure is found."""
    doc = analyze_group(group)
    classes = Counter(
        (
            c["size"],
            c["kind"],
            c["is_critical"],
            c["closure_size"],
            c["is_star_class"],
            None if c["params"] is None else (c["params"]["p"], c["params"]["r"], c["params"]["s"]),
        )
        for c in doc["classes"]
    )
    return (
        doc["order"],
        tuple(doc["group_kind"].values()),
        doc["is_eppo"],
        tuple(doc["pi"]),
        doc["star"]["size"],
        classes,
        doc["partition"]["exists"],
        doc["partition"]["component_orders"],
        doc["frobenius"] is not None,
    )


@functools.lru_cache(maxsize=2)
def product_table(group: Group) -> np.ndarray:
    """Every product mul(x, y), as a table; kept for the last two groups."""
    n = group.order
    return np.array([[group.mul(x, y) for y in range(n)] for x in range(n)])


def brute_hughes_thompson(group: Group, p: int, pool=None) -> frozenset[int]:
    """The subgroup generated by the pool's elements of order other than p
    (the whole group by default), every one of them kept as a generator and
    closed under the product table."""
    table = product_table(group)
    pool = range(group.order) if pool is None else pool
    gens = [x for x in pool if len(brute_powers(group, x)) != p]
    closed = frontier = {group.identity}
    while frontier and gens:
        frontier = set(table[np.ix_(sorted(frontier), gens)].ravel().tolist()) - closed
        closed = closed | frontier
    return frozenset(closed)


def brute_centralizer(group: Group, x: int) -> frozenset[int]:
    """C(x) straight from the definition: every y with xy = yx."""
    table = product_table(group)
    return frozenset(np.flatnonzero(table[x] == table[:, x]).tolist())


def eager_centralizer_words(group, w) -> list[tuple[int, ...]]:
    """C(w) in S_k as the words the lazy walk must yield, in its order: the
    arrangements of each cycle length listed whole, their product taken by
    itertools.product, and the fixed points streamed behind each head."""
    by_length: dict[int, list[list[int]]] = {}
    for cyc in group._cycles(w):
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
    slot = [0] * group.degree
    for pos, p in enumerate([p for cycs in by_length.values() for c in cycs for p in c] + fixed):
        slot[p] = pos
    return [
        tuple(map((head + tail).__getitem__, slot))
        for head in (sum(parts, ()) for parts in itertools.product(*arrangements))
        for tail in itertools.permutations(fixed)
    ]


def single_walk_twin_class(group, x: int) -> tuple[frozenset[int], int]:
    """The twin class of x != 1 with every prime-power candidate separated
    in one walk, and the number of centralizer words walked in all.

    N[x] comes from one walk over C(x).  The candidates, the powers of x
    below it and one generator per cyclic p-subgroup above it in N[x], are
    then all tested on each word of C(x0), x0 generating the least
    non-trivial subgroup of <x>, until none is left.
    """
    fx = CyclicWord(group, group.word_of(x))
    walked = 0
    nb = []
    for w, ow in group.centralizer_words(fx.word):
        walked += 1
        if fx.adjacent_or_equal(group, w, ow):
            nb.append((w, ow))
    twins = set(fx.gens)
    if len(nb) == group.order:
        twins.add(group.word_of(group.identity))
    pp = as_prime_power(fx.order)
    if pp is not None:
        live = [CyclicWord(group, group.word_pow(fx.word, pp.p**k)) for k in range(1, pp.k)]
        x0 = live[-1] if live else fx
        covered: set = set()
        for w, ow in nb:
            q = as_prime_power(ow)
            if ow > fx.order and q is not None and q.p == pp.p and w not in covered:
                live.append(CyclicWord(group, w))
                covered |= live[-1].gens
        for w, ow in group.centralizer_words(x0.word):
            walked += 1
            if not live:
                break
            ax = fx.adjacent_or_equal(group, w, ow)
            live = [f for f in live if f.adjacent_or_equal(group, w, ow) == ax]
        for f in live:
            twins |= f.gens
    return frozenset(map(group.index_of, twins)), walked


def integer_partitions(n: int, largest: int | None = None):
    """The partitions of n as non-increasing tuples: the cycle types of S_n."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for m in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - m, m):
            yield (m,) + rest


def cycle_type_label(parts) -> str:
    """The canonical representative of a cycle type, given longest cycle
    first: its cycles on the points 1, 2, ... in order, fixed points left out."""
    points = iter(range(1, sum(parts) + 1))
    return "".join("(" + " ".join(str(next(points)) for _ in range(m)) + ")" for m in parts if m > 1) or "()"


def cycle_type_element(group, parts) -> int:
    """An element of S_k with the given cycle lengths, on points 1, 2, ... in order."""
    return group.parse_element(cycle_type_label(parts))


# -- helpers no command calls -------------------------------------------------------
#
# Element powers, the group axioms, cyclic membership, enhanced adjacency
# and overgroup witnesses by subgroup closure, and the least Frobenius r
# for given (p, a, q, b).


def power(group: Group, a: int, k: int) -> int:
    """a^k by index, through the backend's word power."""
    return group.index_of(group.word_pow(group.word_of(a), k))


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


def enhanced_adjacent(graph: PowerGraph, x: int, y: int) -> bool:
    """True iff x and y together generate a cyclic subgroup."""
    if x == y:
        raise ValueError("enhanced adjacency is defined on distinct elements")
    if graph.adjacent_or_equal(x, y):
        return True  # power-graph edges are always enhanced edges
    g = graph.group
    sub = generated_subgroup_words(g, [g.word_of(x), g.word_of(y)])
    size = len(sub)
    return any(g.word_order(w) == size for w in sub)


def noncyclic_overgroup_witnesses(graph: PowerGraph, x: int) -> tuple[int, int]:
    """For a non-maximal plain critical x, two strict overgroup generators
    with a non-cyclic join.

    Built by the chain construction: pick y over x, find z over x outside
    N[y]; if their join is cyclic, replace y by a generator of the join
    (strictly higher) and repeat.  The chain is strictly increasing, so it
    terminates, and the returned pair is verified non-cyclic.  Raises
    ValueError when x is not plain critical or is maximal.
    """
    g = graph.group
    over = sorted(graph.strict_overgroups(x))
    if not over:
        raise ValueError(
            f"{g.element_label(x)} is maximal in {g.descriptor}; precondition violated"
        )
    if plain_critical_by_overgroups(graph, x) is not True:
        raise ValueError(
            f"{g.element_label(x)} is not plain critical in {g.descriptor}; precondition violated"
        )
    y = over[0]
    for _ in range(g.order):
        z = next(z for z in over if not graph.adjacent_or_equal(y, z))
        sub = generated_subgroup_words(g, [g.word_of(y), g.word_of(z)])
        size = len(sub)
        gen_words = [w for w in sub if g.word_order(w) == size]
        if not gen_words:
            return y, z
        y = min(g.index_of(w) for w in gen_words)
    raise InternalConsistencyError("overgroup chain failed to terminate")


def exists_for(p: int, a: int, q: int, b: int) -> int | None:
    """Least r making (p, a, q, b, r) a Frobenius tuple, if one exists.

    Existence is equivalent to q^b dividing p - 1.  The search checks
    well-definedness mod p^a, not just the order mod p: an order-q^b
    residue mod p may fail to lift, in which case the next candidate is
    tried (the unit group mod p^a is cyclic, so some r always works).
    """
    if not is_prime(p) or not is_prime(q):
        raise ValueError(f"p = {p} and q = {q} must be prime")
    if p == q:
        raise ValueError(f"p and q must be distinct, both are {p}")
    if a < 1 or b < 1:
        raise ValueError(f"exponents must be >= 1, got a={a}, b={b}")
    qb = q**b
    if (p - 1) % qb:
        return None
    pa = p**a
    for r in range(2, pa):
        if r % p and pow(r, qb, pa) == 1 and multiplicative_order(r, p) == qb:
            return r
    return None


# -- products from the int64 formulas --------------------------------------------
#
# Each oracle gives the product of element index arrays a and b (broadcast
# against each other) from the defining formula, in int64, where nothing
# can wrap.


def int64_cyclic(n: int, a, b):
    return (a + b) % n


def int64_dihedral(n: int, a, b):
    r1, f1, r2, f2 = a % n, a // n, b % n, b // n
    rot = (r1 + (1 - 2 * f1) * r2) % n
    return (f1 ^ f2) * n + rot


def int64_quaternion(n: int, a, b):
    m = 2 ** (n - 1)
    r1, f1, r2, f2 = a % m, a // m, b % m, b // m
    rot = (r1 + (1 - 2 * f1) * r2 + (f1 & f2) * (m // 2)) % m
    return (f1 ^ f2) * m + rot


def int64_table(group: Group):
    """The oracle reading the product table of `group`, for factors with no formula."""
    table = product_table(group).astype(np.int64)
    return lambda a, b: table[a, b]


def int64_direct_product(nh: int, g_oracle, h_oracle):
    """The oracle of G x H on index a * |H| + b, from one oracle per factor."""
    return lambda a, b: g_oracle(a // nh, b // nh) * nh + h_oracle(a % nh, b % nh)


def assert_products_match(group: Group, oracle) -> None:
    """Compare every product mul(x, y) with an int64 oracle."""
    n = group.order
    ids = np.arange(n, dtype=np.int64)
    assert np.array_equal(product_table(group), oracle(ids[:, None], ids[None, :]))


def assert_products_match_sampled(group: Group, oracle, generators, pairs: int = 20_000, seed: int = 0) -> None:
    """Compare, with an int64 oracle, every product of an element with a
    generator on either side, every inverse, and `pairs` seeded random
    products: the exhaustive check costs seconds per group at order 4096."""
    n = group.order
    ids = np.arange(n, dtype=np.int64)
    for g in generators:
        assert [group.mul(x, g) for x in range(n)] == oracle(ids, np.int64(g)).tolist(), f"x * {g}"
        assert [group.mul(g, x) for x in range(n)] == oracle(np.int64(g), ids).tolist(), f"{g} * x"
    inverses = np.array([group.inv(x) for x in range(n)], dtype=np.int64)
    assert np.all(oracle(ids, inverses) == 0) and np.all(oracle(inverses, ids) == 0)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, size=(2, pairs))
    assert [group.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == oracle(a, b).tolist()


# -- the payload schema interpreter ----------------------------------------------
#
# One recursive walk over document and schema together, keyword by keyword:
# the oracle of report.validate_document, which compiles each schema into
# closures instead.  Same keywords, same order of checks, same messages.

# Draft 7 type names as jsonschema applies them: a bool is no number, and
# an integral float is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (
        isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer()
    ),
}


def interpret_document(doc, schema: dict) -> None:
    """Raise InternalConsistencyError, naming the JSON path, where `doc` fails `schema`."""
    _check(doc, schema, None)


def _check(x, schema: dict, path) -> None:
    t = schema.get("type")
    if t is not None and not (
        _TYPES[t](x) if isinstance(t, str) else any(_TYPES[name](x) for name in t)
    ):
        _fail(path, f"{x!r} is not of type {t!r}")
    enum = schema.get("enum")
    if enum is not None and not any(
        v == x and isinstance(v, bool) == isinstance(x, bool) for v in enum
    ):
        _fail(path, f"{x!r} is not one of {enum!r}")
    if isinstance(x, dict):
        for key in schema.get("required", ()):
            if key not in x:
                _fail(path, f"required property {key!r} is missing")
        props = schema.get("properties", {})
        closed = schema.get("additionalProperties", True) is False
        for key, value in x.items():
            sub = props.get(key)
            if sub is not None:
                _check(value, sub, (path, key))
            elif closed:
                _fail(path, f"property {key!r} is not allowed")
    elif isinstance(x, list):
        if not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x)):
            _fail(path, f"length {len(x)} is out of range")
        items = schema.get("items")
        if items is not None:
            for i, value in enumerate(x):
                _check(value, items, (path, i))
    elif "minimum" in schema and _TYPES["number"](x) and x < schema["minimum"]:
        _fail(path, f"{x!r} is less than the minimum {schema['minimum']!r}")


def _fail(path, message: str):
    steps = []
    while path is not None:
        path, key = path
        steps.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    raise InternalConsistencyError(f"payload at ${''.join(reversed(steps))}: {message}")


# -- the argparse parser that cli.parse_args replaced, kept as its oracle ---------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powercrit",
        description="Power graphs of finite groups: twin classes, criticality, "
        "cyclic partitions and the metacyclic Frobenius census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify one group (or one element of it)")
    p.add_argument("spec", help="group spec, e.g. 'D:15', 'M:5,2,2,2,7', 'C:2 x C:3'")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering of the power graph")
    p.add_argument("--element", metavar="DESC", help="single-element report (works at lazy scale)")
    p.add_argument("--stable", action="store_true", help="drop timing for golden-file comparison")
    # Lazy queries walk a centralizer instead of the whole group, so there
    # is no scan left to spread over processes.  The flag is still accepted,
    # and ignored, so that existing command lines keep working.
    p.add_argument("--workers", type=int, default=0, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", help="enumerate metacyclic parameter tuples")
    p.add_argument("--max-order", type=int, default=100)
    p.add_argument("--verify-up-to", type=int, default=0,
                   help="rebuild groups up to this order and compare graph criticality")
    p.add_argument("--all-r", action="store_true", help="list every well-defined r, not just the least")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("closure", "criticality", "partitions", "theorems", "all"),
                   default="all")
    p.add_argument("--max-order", type=int, default=120,
                   help="largest group order; the closure, criticality and partitions family "
                   "stops at order 600 (C_n to n = 120, D_n to n = 60)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="export a graph as DOT or JSON")
    p.add_argument("spec")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--graph", choices=("power", "enhanced"), default="power")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p.set_defaults(func=cmd_export)
    return parser
