"""Plain/compound typing and criticality of twin classes, elements, groups.

A twin class is *plain* when all its members generate the same cyclic
subgroup and *compound* when at least two such subgroups occur inside it.
A class C not containing the identity is *critical* when its
neighbourhood closure is exactly C plus the identity and has prime-power
size p^r with r >= 2.  Compound parameters (p, r, s) are recovered twice,
from the class size and from the order profile, and any disagreement is
raised rather than repaired.

Materialized, the records come from one pass over the twin partition's
node masks, in class order, which the graph extends only as far as a
caller reads: the group fold stops at its first class that settles all
three flags, and an element query draws its own class alone.  Lazily, a
class's record is read off its members.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import InternalConsistencyError
from .groups import Group
from .numtheory import as_prime_power, euler_phi
from .power_graph import PowerGraph

__all__ = [
    "CompoundParams",
    "GroupKind",
    "NClassRecord",
    "class_records",
    "classify_class",
    "classify_element",
    "classify_group",
    "dihedral_plain_critical_profile",
    "nontrivial_records",
    "plain_critical_by_overgroups",
]


class CompoundParams(NamedTuple):
    """Parameters of a compound class: root order p^r, members of order >= p^(s+1)."""

    p: int
    r: int
    s: int
    root: int


class NClassRecord(NamedTuple):
    representative: int
    size: int
    kind: str  # "plain" | "compound"
    params: CompoundParams | None  # compound classes other than the star class
    is_critical: bool
    closure_size: int
    is_star_class: bool


@dataclass(frozen=True)
class GroupKind:
    is_critical_group: bool
    is_plain_group: bool
    is_compound_group: bool


def classify_class(graph: PowerGraph, members) -> NClassRecord:
    """Type the twin class `members` and decide whether it is critical;
    ValueError if `members` is not a closed-twin class."""
    g, members = graph.group, frozenset(members)
    x = min(members, default=-1)
    if not 0 <= x < g.order or graph.element_n_class(x) != members:
        raise ValueError(f"{sorted(members)} is not a closed-twin class of {g.descriptor}")
    return classify_element(graph, x) if graph.materialized else _class_record(graph, members)


def _class_record(graph: PowerGraph, members: frozenset[int]) -> NClassRecord:
    """The record of a twin class of a lazy graph, from its members."""
    g = graph.group
    rep, star = min(members), g.identity in members
    # a twin class is a union of same-generator classes and holds rep's,
    # so it spans one cyclic subgroup iff it has phi(o(rep)) members
    plain = len(members) == euler_phi(g.element_order(rep))
    # N[s] = G for every star vertex, so the closure of the star class
    # is the star class itself; avoids scanning huge groups.
    closure = members if star else graph.closure(members)
    tight = closure == members | {g.identity}
    return _record(g, rep, len(members), plain, star, len(closure), tight, lambda: members)


def _drawn_records(g: Group, masks: tuple[int, ...]) -> Iterator[NClassRecord]:
    """The records of the twin classes with node masks `masks`, in order,
    each read off per-node tables of the materialized poset.

    Twins share their comparability mask, so a class's common
    neighbourhood is the mask of its lowest node, and its closure the
    meet of that mask; both sizes are sums of the nodes' generator
    counts.  Only a non-star compound class is expanded, for its
    parameters.  The iterator holds the group and the masks, never a
    graph, so a graph that keeps it is freed with no cycle to collect.
    """
    poset = g.cyclic_poset()
    comp, least = poset.comp, poset.least
    weight = list(map(len, poset.gens))
    identity = poset.sub_of[g.identity]

    def weigh(mask: int) -> int:
        total = 0
        while mask:
            bit = mask & -mask
            total += weight[bit.bit_length() - 1]
            mask ^= bit
        return total

    for own in masks:
        low = (own & -own).bit_length() - 1
        plain, star = own == 1 << low, low == identity
        hat = poset.meet(comp[low])
        if star and hat != own:
            raise InternalConsistencyError(
                f"closure of the star class must be the star class, got {sorted(poset.expand(hat))}"
            )
        size = weight[low] if plain else weigh(own)
        tight = hat == own | 1 << identity
        yield _record(g, least[low], size, plain, star, weigh(hat), tight, functools.partial(poset.expand, own))


def _record(
    g: Group, rep: int, size: int, plain: bool, star: bool, closure_size: int, tight: bool, members
) -> NClassRecord:
    """A class record from its closure: `tight` says the closure is the class
    plus {1}, which a critical class needs before its size is factorized,
    and `members()` gives the class, called for a non-star compound one."""
    pp = as_prime_power(closure_size) if tight and not star else None
    is_critical = pp is not None and pp.k >= 2
    params = None
    if not (plain or star):
        params = _compound_params(g, members())
        if is_critical != (params.s == 0):
            raise InternalConsistencyError(
                f"compound class of {g.element_label(rep)}: closure test gives "
                f"critical={is_critical} but parameters give s={params.s}"
            )
    return NClassRecord(rep, size, "plain" if plain else "compound", params, is_critical, closure_size, star)


def _compound_params(g: Group, members: frozenset[int]) -> CompoundParams:
    orders = {m: g.element_order(m) for m in members}
    max_order = max(orders.values())
    root = min(m for m, o in orders.items() if o == max_order)
    pp = as_prime_power(max_order)
    if pp is None or pp.k < 2:
        raise InternalConsistencyError(
            f"compound class root {g.element_label(root)} has order {max_order}, "
            "which is not a prime power with exponent >= 2"
        )
    p, r = pp.p, pp.k
    assert p is not None
    # s from the class size: |C| = p^r - p^s
    residue = p**r - len(members)
    s_size: int | None = None
    if residue >= 1:
        rp = as_prime_power(residue)
        if rp is not None and (rp.is_one or rp.p == p):
            s_size = rp.k
    # s from the order profile: least member order is p^(s+1)
    mp = as_prime_power(min(orders.values()))
    s_prof = mp.k - 1 if mp is not None and not mp.is_one and mp.p == p else None
    if s_size is None or s_prof is None or s_size != s_prof or not 0 <= s_size <= r - 2:
        raise InternalConsistencyError(
            f"compound parameters disagree for class of {g.element_label(root)}: "
            f"size gives s={s_size}, order profile gives s={s_prof} (p={p}, r={r})"
        )
    expected = frozenset(z for z in g.members(root) if g.element_order(z) >= p ** (s_size + 1))
    if expected != members:
        raise InternalConsistencyError(
            f"class of {g.element_label(root)} does not match its parameter formula"
        )
    return CompoundParams(p=p, r=r, s=s_size, root=root)


def classify_element(graph: PowerGraph, x: int) -> NClassRecord:
    """Classify the twin class of one element; works at lazy scale.
    Materialized, x's class alone is drawn, not the classes before it
    (about 5 ms for the last class of D:2000)."""
    if graph.materialized:
        twin = graph.twin_partition()
        cid = twin.class_of[x]
        return next(_drawn_records(graph.group, twin.masks[cid : cid + 1]))
    return _class_record(graph, graph.element_n_class(x))


def class_records(graph: PowerGraph) -> list[NClassRecord]:
    """All twin-class records, in deterministic class order (kept by the graph)."""
    return graph.drawn_records(len(graph.twin_partition().masks), _drawn_records)[:]


def nontrivial_records(graph: PowerGraph) -> Iterator[NClassRecord]:
    """The records of the twin classes other than {1}, in class order,
    each drawn on first request and kept by the graph."""
    for cid, own in enumerate(graph.twin_partition().masks):
        if own != 1:  # node 0 is {1}
            yield graph.drawn_records(cid + 1, _drawn_records)[cid]


def classify_group(graph: PowerGraph) -> GroupKind:
    """Fold element classification over the whole group.

    The group is critical [plain, compound] when every non-identity
    element is.  Short-circuits as soon as all three flags are settled.
    A lazy graph is refused by its twin partition.
    """
    if graph.group.order == 1:
        return GroupKind(False, False, False)
    crit = plain = compound = True
    for rec in nontrivial_records(graph):
        crit = crit and rec.is_critical
        plain = plain and rec.kind == "plain"
        compound = compound and rec.kind == "compound"
        if not (crit or plain or compound):
            break
    return GroupKind(crit, plain, compound)


def plain_critical_by_overgroups(graph: PowerGraph, x: int) -> bool | None:
    """Overgroup criterion for plain criticality, usable at lazy scale.

    Returns None when the criterion does not apply (the order of x is a
    prime power, x generates the whole group, or phi(o(x)) + 1 is not a
    prime power p^r with r >= 2).  Otherwise x is plain critical iff for
    every strict cyclic overgroup generator y there is another one
    outside N[y].  Vacuously true for maximal x.
    """
    g = graph.group
    ox = g.element_order(x)
    if ox == g.order or not _plain_critical_order(ox):
        return None
    over = sorted(graph.strict_overgroups(x))
    for y in over:
        if all(graph.adjacent_or_equal(y, z) for z in over):
            return False
    return True


def dihedral_plain_critical_profile(n: int) -> bool:
    """Whether the dihedral group of order 2n contains plain critical elements.

    Purely arithmetic: n must not be a prime power and phi(n) + 1 must be
    a prime power p^r with r >= 2.
    """
    if n < 2:
        raise ValueError(f"dihedral parameter must be >= 2, got {n}")
    return _plain_critical_order(n)


def _plain_critical_order(o: int) -> bool:
    """o is not a prime power and phi(o) + 1 is a prime power p^r, r >= 2."""
    if as_prime_power(o) is not None:
        return False
    pp = as_prime_power(euler_phi(o) + 1)
    return pp is not None and pp.k >= 2
