"""Cyclic partitions, the Hughes-Thompson subgroup and partition harnesses.

A partition of a non-trivial group is a set of non-trivial subgroups
covering it with pairwise trivial intersections.  When the components are
required to be cyclic the candidate set is forced: each maximal cyclic
subgroup M = <m> must equal the unique component containing m, so the
group admits a cyclic partition iff its maximal cyclic subgroups pairwise
intersect trivially.  Detection is therefore a closed computation, a
failure always comes with a concrete obstruction pair, and the theorem
harnesses take the partition found.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criticality import classify_group, nontrivial_records
from .groups import (
    CyclicSubgroup,
    Group,
    generated_subgroup,
    is_maximal_element,
    maximal_cyclic_subgroups,
)
from .numtheory import as_prime_power, is_prime
from .power_graph import PowerGraph

__all__ = [
    "PartitionResult",
    "Verdict",
    "check_main_corollary",
    "check_partition_implies_compound_critical",
    "check_plain_critical_maximal",
    "cyclic_partition",
    "hughes_thompson",
    "kegel_partitionable",
]


@dataclass(frozen=True)
class PartitionResult:
    """Either the (unique) cyclic partition or a certified obstruction.

    The obstruction is a pair of maximal cyclic subgroups together with a
    shared non-identity element.
    """

    components: tuple[CyclicSubgroup, ...] | None
    obstruction: tuple[CyclicSubgroup, CyclicSubgroup, int] | None

    @property
    def is_partition(self) -> bool:
        return self.components is not None

    @property
    def is_trivial(self) -> bool:
        return self.components is not None and len(self.components) == 1


def cyclic_partition(group: Group) -> PartitionResult:
    """Detect the cyclic partition of a group, or report an obstruction.

    The maximal cyclic subgroups cover the group, so they intersect
    pairwise trivially iff their non-identity members add up to |G| - 1.
    Only a failed count runs the pairwise scan, to name the first
    overlapping pair and their least shared element.
    """
    if group.order < 2:
        raise ValueError("partitions are defined for non-trivial groups")
    maxes = maximal_cyclic_subgroups(group)
    if sum(m.order - 1 for m in maxes) == group.order - 1:
        return PartitionResult(tuple(maxes), None)
    # a maximal node's comparability mask is its down-set: the cyclic
    # subgroups it contains, numbered by least generator
    poset = group.cyclic_poset()
    non_identity = ~(1 << poset.sub_of[group.identity])
    downs = [poset.comp[poset.sub_of[m.generator]] & non_identity for m in maxes]
    k = len(maxes)
    i, j = next((i, j) for i in range(k) for j in range(i + 1, k) if downs[i] & downs[j])
    shared = downs[i] & downs[j]
    return PartitionResult(None, (maxes[i], maxes[j], poset.least[next(poset.nodes(shared))]))


def hughes_thompson(group: Group, p: int, within=None) -> frozenset[int]:
    """Subgroup generated by all elements whose order differs from p.

    `within` restricts the generating pool to a subgroup's member set
    (closure then stays inside it).  The breadth-first closure is capped,
    raising ResourceLimitError past 10^5 elements.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if within is None:
        group.poset("Hughes-Thompson subgroup over the full group", "; pass an explicit member pool")
        pool = range(group.order)
    else:
        pool = sorted(within)
    # one generator per cyclic subgroup, its least: a pool that meets a
    # subgroup holds all its generators, so the least one is in the pool
    gens = [x for x in pool if group.element_order(x) != p and x == min(group.cyclic_generators(x))]
    return generated_subgroup(group, gens)


def kegel_partitionable(pgroup: Group) -> bool:
    """Whether a p-group admits a non-trivial partition.

    By Kegel's criterion this happens iff the Hughes-Thompson subgroup is
    proper.  Groups of prime order are special-cased to False: they have
    no non-trivial proper subgroups, hence only the trivial partition,
    even though their Hughes-Thompson subgroup is trivial.
    """
    pp = as_prime_power(pgroup.order)
    if pp is None or not pp.is_proper:
        raise ValueError(f"order {pgroup.order} is not a proper prime power; p-group required")
    if pgroup.order == pp.p:
        return False
    return len(hughes_thompson(pgroup, pp.p)) != pgroup.order


@dataclass(frozen=True)
class Verdict:
    """Outcome of a hypothesis-conclusion harness on one group."""

    applicable: bool
    passed: bool | None
    detail: str = ""


def _obstruction_text(group: Group, part: PartitionResult) -> str:
    a, b, shared = part.obstruction
    return (
        f"no cyclic partition: subgroups of orders {a.order} and {b.order} share "
        f"element {group.element_label(shared)}"
    )


def _partition_with_exponent_two(group: Group, part: PartitionResult) -> str:
    if not part.is_partition:
        return _obstruction_text(group, part)
    if part.is_trivial:
        return "only the trivial partition"
    for c in part.components:
        pp = as_prime_power(c.order)
        if pp is None or pp.k < 2:
            return f"component of order {c.order} is not a prime power with exponent >= 2"
    return ""


def check_partition_implies_compound_critical(graph: PowerGraph, part: PartitionResult) -> Verdict:
    """A non-trivial cyclic partition `part` of ``graph.group`` into prime-power
    components of exponent >= 2 must force a compound critical group."""
    why = _partition_with_exponent_two(graph.group, part)
    if why:
        return Verdict(False, None, why)
    kind = classify_group(graph)
    if kind.is_critical_group and kind.is_compound_group:
        return Verdict(True, True, "compound critical as required")
    for rec in nontrivial_records(graph):
        if not rec.is_critical or rec.kind != "compound":
            return Verdict(
                True,
                False,
                f"class of {graph.group.element_label(rec.representative)} is {rec.kind}, "
                f"critical={rec.is_critical}",
            )
    return Verdict(True, False, "group flags disagree with per-class records")


def check_plain_critical_maximal(graph: PowerGraph, part: PartitionResult) -> Verdict:
    """Given a cyclic partition `part` of ``graph.group``, plain critical elements are maximal."""
    group = graph.group
    if not part.is_partition:
        return Verdict(False, None, _obstruction_text(group, part))
    for rec in nontrivial_records(graph):
        # all members of a plain class generate the same cyclic subgroup,
        # so the representative settles maximality
        if rec.kind == "plain" and rec.is_critical and not is_maximal_element(group, rec.representative):
            return Verdict(
                True,
                False,
                f"plain critical {group.element_label(rec.representative)} is not maximal",
            )
    return Verdict(True, True, "every plain critical element is maximal")


def check_main_corollary(group: Group, part: PartitionResult) -> Verdict:
    """A non-trivial cyclic partition `part` of `group` into prime-power components of
    exponent >= 2 must exhibit a Frobenius structure with cyclic kernel C_{p^a} (p odd)
    and cyclic complement C_{q^b}, a, b >= 2."""
    from .frobenius import recognize_critical_structure

    why = _partition_with_exponent_two(group, part)
    if why:
        return Verdict(False, None, why)
    fs = recognize_critical_structure(group)
    if fs is None:
        return Verdict(True, False, "no Frobenius structure with cyclic prime-power kernel found")
    if fs.a < 2 or fs.b < 2 or fs.p % 2 == 0:
        return Verdict(
            True, False, f"structure (p,a,q,b)=({fs.p},{fs.a},{fs.q},{fs.b}) violates the conclusion"
        )
    return Verdict(True, True, f"Frobenius with (p,a,q,b)=({fs.p},{fs.a},{fs.q},{fs.b})")
