"""Plain/compound typing and criticality of twin classes, elements, groups.

A twin class is *plain* when all its members generate the same cyclic
subgroup and *compound* when at least two such subgroups occur inside it.
A class C not containing the identity is *critical* when its
neighbourhood closure is exactly C plus the identity and has prime-power
size p^r with r >= 2.  Compound parameters (p, r, s) are recovered twice,
from the class size and from the order profile, and any disagreement is
raised rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


@dataclass(frozen=True)
class CompoundParams:
    """Parameters of a compound class: root order p^r, members of order >= p^(s+1)."""

    p: int
    r: int
    s: int
    root: int


@dataclass(frozen=True)
class NClassRecord:
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


def _class_record(graph: PowerGraph, cls) -> NClassRecord:
    """The record of a twin class, given by its id when materialized and by
    its members when lazy.  Materialized, it is read off the class's node
    mask, and only a non-star compound class is expanded, for its parameters.
    """
    g = graph.group
    if graph.materialized:
        poset = g.cyclic_poset()
        own = graph.twin_partition().masks[cls]
        # node ids follow least generators: the lowest node's is the least member
        low = (own & -own).bit_length() - 1
        rep, star = poset.least[low], low == poset.sub_of[g.identity]
        size = sum(len(poset.gens[s]) for s in poset.nodes(own))
        kind = "plain" if own == 1 << low else "compound"
        hat = graph.closure_mask(own)
        if star and hat != own:
            raise InternalConsistencyError(
                f"closure of the star class must be the star class, got {sorted(poset.expand(hat))}"
            )
        closure_size = sum(len(poset.gens[s]) for s in poset.nodes(hat))
        closure_is_class_and_identity = hat == own | 1 << poset.sub_of[g.identity]
    else:
        members = cls
        rep, star, size = min(members), g.identity in members, len(members)
        # a twin class is a union of same-generator classes and holds rep's,
        # so it spans one cyclic subgroup iff every member generates <rep>
        kind = "plain" if members <= g.cyclic_generators(rep) else "compound"
        # N[s] = G for every star vertex, so the closure of the star class
        # is the star class itself; avoids scanning huge groups.
        closure = members if star else graph.closure(members)
        closure_size = len(closure)
        closure_is_class_and_identity = closure == members | {g.identity}

    pp_closure = as_prime_power(closure_size)
    is_critical = (
        not star
        and closure_is_class_and_identity
        and pp_closure is not None
        and pp_closure.k >= 2
    )

    params = None
    if kind == "compound" and not star:
        if graph.materialized:
            members = poset.expand(own)
        params = _compound_params(g, members)
        if is_critical != (params.s == 0):
            raise InternalConsistencyError(
                f"compound class of {g.element_label(rep)}: closure test gives "
                f"critical={is_critical} but parameters give s={params.s}"
            )

    return NClassRecord(
        representative=rep,
        size=size,
        kind=kind,
        params=params,
        is_critical=is_critical,
        closure_size=closure_size,
        is_star_class=star,
    )


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
    Materialized, the kept record of x's class id is returned."""
    if graph.materialized:
        return graph.class_record(graph.twin_partition().class_of[x], _class_record)
    return _class_record(graph, graph.element_n_class(x))


def class_records(graph: PowerGraph) -> list[NClassRecord]:
    """All twin-class records, in deterministic class order (kept by the graph)."""
    return [graph.class_record(cid, _class_record) for cid in range(len(graph.twin_partition().masks))]


def nontrivial_records(graph: PowerGraph) -> Iterator[NClassRecord]:
    """The records of the twin classes other than {1}, in class order,
    each computed on first request and kept by the graph."""
    for cid, own in enumerate(graph.twin_partition().masks):
        if own != 1:  # node 0 is {1}
            yield graph.class_record(cid, _class_record)


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
