"""The metacyclic Frobenius family: validation, recognition and census.

Parameter tuples (p, a, q, b, r) describe the semidirect product of
C_{p^a} by C_{q^b} acting as x -> x^r.  Flags are arithmetic:

* well_defined  -- the presentation gives a group of order p^a * q^b;
* eppo          -- q^b equals the multiplicative order of r mod p^a
                   (every element order is then a prime power);
* frobenius     -- q^b equals the multiplicative order of r mod p
                   (the action is fixed-point-free);
* critical      -- frobenius with a >= 2 and b >= 2.

The census enumerates all tuples up to a given group order and, on
request, rebuilds each group and compares the arithmetic critical flag
against the graph-computed group classification — in both truth values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator

from .criticality import classify_group
from .errors import ScaleError
from .groups import (
    CyclicSubgroup,
    Group,
    make_metacyclic,
    max_materialize,
    metacyclic_violation,
)
from .numtheory import factorize, primes_upto
from .partitions import Verdict
from .power_graph import PowerGraph

__all__ = [
    "CensusEntry",
    "FrobeniusStructure",
    "MetacyclicParams",
    "ParamFlags",
    "census",
    "census_tuples",
    "check_census_bounds",
    "eppo_metacyclic_equivalence_check",
    "recognize_critical_structure",
    "validate",
]


# A census to this order takes about half a minute: every r < p^a is
# tried, for the tuples with q | p - 1 alone.
MAX_CENSUS_ORDER = 100_000


@dataclass(frozen=True)
class MetacyclicParams:
    p: int
    a: int
    q: int
    b: int
    r: int

    @property
    def order(self) -> int:
        return self.p**self.a * self.q**self.b


@dataclass(frozen=True)
class ParamFlags:
    well_defined: bool
    eppo: bool
    frobenius: bool
    critical: bool
    reason: str = ""


def validate(params: MetacyclicParams) -> ParamFlags:
    """All four flags for a parameter tuple; invalid input names its violation."""
    p, a, q, b, r = params.p, params.a, params.q, params.b, params.r
    violation = metacyclic_violation(p, a, q, b, r)
    if violation is not None:
        return ParamFlags(False, False, False, False, violation)
    # q is prime, so r has order q^b modulo m = p^a (eppo) or m = p
    # (frobenius) iff r^(q^b) = 1 and r^(q^(b-1)) != 1 mod m; nothing is factored
    qb, pa = q**b, p**a
    eppo = pow(r, qb, pa) == 1 and pow(r, qb // q, pa) != 1
    frob = pow(r, qb, p) == 1 and pow(r, qb // q, p) != 1
    return ParamFlags(True, eppo, frob, frob and a >= 2 and b >= 2)


@dataclass(frozen=True)
class FrobeniusStructure:
    """Cyclic kernel of order p^a and cyclic complement of order q^b."""

    kernel: CyclicSubgroup
    complement: CyclicSubgroup
    p: int
    a: int
    q: int
    b: int


def recognize_critical_structure(group: Group) -> FrobeniusStructure | None:
    """Recognize a Frobenius group with cyclic Sylow kernel and complement.

    Succeeds iff the order is p^a * q^b with a, b >= 2, the kernel-prime
    Sylow subgroup is cyclic and normal (hence unique), some Sylow
    subgroup for the other prime is cyclic, and conjugation of the
    complement on the kernel is fixed-point-free.  Both are read off the
    orders of the cyclic subgroups.
    """
    group.poset("structure recognition")
    fact = factorize(group.order)
    if len(fact) != 2:
        return None
    for (p, a), (q, b) in ((fact[0], fact[1]), (fact[1], fact[0])):
        if a < 2 or b < 2:
            continue
        found = _try_structure(group, p, a, q, b)
        if found is not None:
            return found
    return None


def _try_structure(group: Group, p: int, a: int, q: int, b: int) -> FrobeniusStructure | None:
    # A cyclic Sylow p-subgroup is normal iff no conjugate differs from it,
    # i.e. iff it is the only cyclic subgroup of order p^a.  The complement
    # acts fixed-point-freely iff no q-element commutes with a p-element,
    # i.e. iff no element order is divisible by pq.
    poset = group.cyclic_poset()
    orders = [len(pw) for pw in poset.powers]
    kernels = [s for s, o in enumerate(orders) if o == p**a]
    complement = next((s for s, o in enumerate(orders) if o == q**b), None)
    if len(kernels) != 1 or complement is None or any(o % (p * q) == 0 for o in orders):
        return None
    return FrobeniusStructure(
        kernel=CyclicSubgroup(poset.least[kernels[0]], p**a),
        complement=CyclicSubgroup(poset.least[complement], q**b),
        p=p,
        a=a,
        q=q,
        b=b,
    )


def check_census_bounds(max_order: int, verify_up_to: int = 0) -> None:
    """Raise what :func:`census` would raise for these bounds, before any work.

    A negative or zero order is a ValueError, as is a negative
    verification bound; an order past MAX_CENSUS_ORDER, or a verified
    entry past the materialization threshold, is a ScaleError.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if max_order > MAX_CENSUS_ORDER:
        raise ScaleError(f"census to order {max_order} exceeds the limit {MAX_CENSUS_ORDER}")
    if verify_up_to < 0:
        raise ValueError(f"verify_up_to must be >= 0, got {verify_up_to}")
    cap = max_materialize()
    orders = (p**a * q**b for p, a, q, b in census_tuples(min(max_order, verify_up_to)))
    first = min((order for order in orders if order > cap), default=None)
    if first is not None:
        raise ScaleError(f"census verification of order {first} exceeds threshold {cap}")


def census_tuples(max_order: int) -> Iterator[tuple[int, int, int, int]]:
    """The (p, a, q, b) with p^a * q^b <= max_order that have census entries.

    The units mod p^a form a cyclic group of order p^(a-1) (p - 1) for odd
    p, so some r in [2, p^a) has r^(q^b) = 1 iff q divides p - 1; mod 2^a
    the units form a 2-group, and no odd q^b has such an r.  Every such r
    is well defined, so a tuple has entries iff p is odd and q | p - 1.
    """
    for p in primes_upto(max_order // 2)[1:]:
        for q, _ in factorize(p - 1):
            pa, a = p, 1
            while pa * q <= max_order:
                qb, b = q, 1
                while pa * qb <= max_order:
                    yield p, a, q, b
                    qb, b = qb * q, b + 1
                pa, a = pa * p, a + 1


@dataclass(frozen=True)
class CensusEntry:
    params: MetacyclicParams
    flags: ParamFlags
    graph_is_critical: bool | None = None
    graph_agrees: bool | None = None


def census(max_order: int, verify_up_to: int = 0, all_r: bool = False) -> list[CensusEntry]:
    """Enumerate metacyclic parameter tuples with group order <= max_order.

    Per (p, a, q, b) the canonical entry carries the least well-defined r;
    with all_r every well-defined r is listed (distinct r can present
    isomorphic groups — entries are reported raw).  Orders up to
    verify_up_to are rebuilt and their graph-computed criticality compared
    with the arithmetic flag.  Output is sorted by ascending group order,
    then lexicographically by (p, a, q, b, r).
    """
    check_census_bounds(max_order, verify_up_to)
    entries: list[CensusEntry] = []
    for p, a, q, b in census_tuples(max_order):
        pa, qb = p**a, q**b
        rs = [r for r in range(2, pa) if pow(r, qb, pa) == 1]
        for r in rs if all_r else rs[:1]:
            params = MetacyclicParams(p, a, q, b, r)
            entries.append(CensusEntry(params, validate(params)))
    entries.sort(key=lambda e: (e.params.order, e.params.p, e.params.a, e.params.q, e.params.b, e.params.r))
    if verify_up_to:
        verified = []
        for e in entries:
            if e.flags.well_defined and e.params.order <= verify_up_to:
                m = e.params
                group = make_metacyclic(m.p, m.a, m.q, m.b, m.r)
                is_crit = classify_group(PowerGraph(group)).is_critical_group
                e = dataclasses.replace(
                    e, graph_is_critical=is_crit, graph_agrees=is_crit == e.flags.critical
                )
            verified.append(e)
        entries = verified
    return entries


def eppo_metacyclic_equivalence_check(
    params: MetacyclicParams,
    graph: PowerGraph | None = None,
    flags: ParamFlags | None = None,
) -> Verdict:
    """For EPPO tuples with a, b >= 2: frobenius flag iff graph-critical.

    `graph`, the power graph of the tuple's group, is built here unless
    given.  `flags` may be supplied explicitly so harness self-tests can
    feed a deliberately wrong flag and watch the check fail.
    """
    flags = flags if flags is not None else validate(params)
    if not (flags.well_defined and flags.eppo and params.a >= 2 and params.b >= 2):
        return Verdict(False, None, "requires a well-defined EPPO tuple with a, b >= 2")
    if graph is None:
        graph = PowerGraph(make_metacyclic(params.p, params.a, params.q, params.b, params.r))
    is_crit = classify_group(graph).is_critical_group
    return Verdict(
        True,
        flags.frobenius == is_crit,
        f"frobenius flag {flags.frobenius}, graph-critical {is_crit}",
    )
