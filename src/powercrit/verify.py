"""Property suites checking the library's structural invariants.

Each suite sweeps a built-in family of groups (cyclic, dihedral,
symmetric, generalized quaternion, the metacyclic census family, and
small elementary abelian products) and records every violation with the
group spec and offending element.  The suites back both the `verify` CLI
command and the acceptance tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .criticality import (
    class_records,
    classify_group,
    dihedral_plain_critical_profile,
    plain_critical_by_overgroups,
)
from .frobenius import (
    census,
    eppo_metacyclic_equivalence_check,
    recognize_critical_structure,
)
from .groups import (
    Group,
    exponent_and_pi,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
)
from .numtheory import as_prime_power, euler_phi, factorize
from .partitions import (
    check_main_corollary,
    check_partition_implies_compound_critical,
    check_plain_critical_maximal,
    cyclic_partition,
    hughes_thompson,
    kegel_partitionable,
)
from .power_graph import PowerGraph

__all__ = ["SuiteResult", "builtin_family", "run_suites", "SUITE_NAMES"]

SUITE_NAMES = ("closure", "criticality", "partitions", "theorems")

CLOSURE_ORDER_CAP = 200
CLOSURE_SUBSETS = 200
KEGEL_ORDER_CAP = 256


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str | Callable[[], str]) -> None:
        """Count one check; record `message` (called first, if callable) on failure."""
        self.checks += 1
        if not ok:
            self.failures.append(message() if callable(message) else message)


def builtin_family(max_order: int) -> list[Group]:
    """The test family: every group the property suites sweep."""
    groups: list[Group] = []
    for n in range(1, min(120, max_order) + 1):
        groups.append(make_cyclic(n))
    for n in range(2, min(60, max_order // 2) + 1):
        groups.append(make_dihedral(n))
    for k in range(2, 6):
        if math.factorial(k) <= max_order:
            groups.append(make_symmetric(k))
    for n in range(3, 6):
        if 2**n <= max_order:
            groups.append(make_generalized_quaternion(n))
    for entry in census(min(600, max_order), all_r=True):
        m = entry.params
        groups.append(make_metacyclic(m.p, m.a, m.q, m.b, m.r))
    for p in (2, 3, 5, 7):
        if p * p <= max_order:
            groups.append(make_direct_product(make_cyclic(p), make_cyclic(p)))
    return groups


# ---------------------------------------------------------------------------
# closure suite: Moore-closure laws on random subsets
# ---------------------------------------------------------------------------


def suite_closure(family: list[Group], subsets: int = CLOSURE_SUBSETS) -> SuiteResult:
    res = SuiteResult("closure")
    rng = random.Random(0xC0FFEE)
    for group in family:
        n = group.order
        if n > CLOSURE_ORDER_CAP:
            continue
        graph = PowerGraph(group)
        star = graph.star_vertices()
        for _ in range(subsets):
            size = rng.randint(0, min(n, 12))
            xs = frozenset(rng.sample(range(n), size))
            hat = graph.closure(xs)
            res.check(xs <= hat, lambda: f"{group.descriptor}: closure not extensive on {sorted(xs)}")
            res.check(
                graph.closure(hat) == hat,
                lambda: f"{group.descriptor}: closure not idempotent on {sorted(xs)}",
            )
            extra = rng.randint(0, min(n - size, 4))
            ys = xs | frozenset(rng.sample(range(n), min(n, size + extra)))
            res.check(
                hat <= graph.closure(ys),
                lambda: f"{group.descriptor}: closure not monotone on {sorted(xs)} vs {sorted(ys)}",
            )
            if xs:
                res.check(
                    hat >= (xs | star),
                    lambda: f"{group.descriptor}: closure misses the star set on {sorted(xs)}",
                )
    return res


# ---------------------------------------------------------------------------
# criticality suite: per-element and per-group classification laws
# ---------------------------------------------------------------------------


def suite_criticality(family: list[Group]) -> SuiteResult:
    res = SuiteResult("criticality")
    for group in family:
        graph = PowerGraph(group)
        records = class_records(graph)
        star = graph.star_vertices()
        twin = graph.twin_partition()
        any_critical = any(rec.is_critical for rec in records)
        if any_critical:
            res.check(
                star == frozenset({group.identity}),
                f"{group.descriptor}: critical element exists but the star set is {sorted(star)}",
            )
        for rec in records:
            rep = rec.representative
            label = group.element_label(rep)
            if rec.is_critical:
                proper_pp = as_prime_power(group.element_order(rep))
                res.check(
                    (rec.kind == "compound") == (proper_pp is not None and proper_pp.is_proper),
                    f"{group.descriptor}: critical {label} kind/order mismatch",
                )
            if rec.kind == "compound" and rec.is_critical and not rec.is_star_class:
                res.check(
                    rec.params is not None and rec.params.s == 0,
                    f"{group.descriptor}: compound critical class of {label} has s != 0",
                )
            if rec.kind == "plain" and rec.is_critical:
                o = group.element_order(rep)
                pp = as_prime_power(rec.closure_size)
                res.check(
                    pp is not None
                    and pp.k >= 2
                    and rec.size == rec.closure_size - 1
                    and as_prime_power(o) is None
                    and euler_phi(o) == rec.closure_size - 1,
                    f"{group.descriptor}: plain critical class of {label} violates its size profile",
                )
        # the generator partition refines the twin partition, with totient sizes
        for dclass in graph.diamond_partition().classes:
            rep = min(dclass)
            res.check(
                dclass <= twin.class_containing(rep),
                f"{group.descriptor}: diamond class of {group.element_label(rep)} "
                "crosses twin classes",
            )
            res.check(
                len(dclass) == euler_phi(group.element_order(rep)),
                f"{group.descriptor}: diamond class of {group.element_label(rep)} "
                "has the wrong size",
            )
        kind = classify_group(graph)
        if kind.is_critical_group:
            res.check(
                kind.is_compound_group,
                f"{group.descriptor}: critical group is not compound",
            )
            _check_order_p_lifting(res, group)
        res.check(
            not (kind.is_plain_group and kind.is_critical_group),
            f"{group.descriptor}: classified as a plain critical group",
        )
        _check_overgroup_oracle(res, group, graph, records, twin)
        if group.order <= CLOSURE_ORDER_CAP:
            erows = graph.enhanced_rows()
            res.check(
                all((erows[x] >> y) & 1 for x in range(group.order) for y in graph.closed_neighborhood(x)),
                f"{group.descriptor}: power-graph edge missing from the enhanced graph",
            )
    for n in range(2, 61):
        dg = make_dihedral(n)
        dgraph = PowerGraph(dg)
        swept = any(
            rec.kind == "plain" and rec.is_critical for rec in class_records(dgraph)
        )
        res.check(
            dihedral_plain_critical_profile(n) == swept,
            f"D:{n}: arithmetic profile disagrees with the class sweep",
        )
    return res


def _check_order_p_lifting(res: SuiteResult, group: Group) -> None:
    # critical groups: p^2 divides the order and every order-p element
    # is a power of an order-p^2 element
    for p, e in factorize(group.order):
        res.check(
            e >= 2,
            f"{group.descriptor}: critical but {p}^2 does not divide the order",
        )
        order_p = [x for x in range(group.order) if group.element_order(x) == p]
        order_p2 = [y for y in range(group.order) if group.element_order(y) == p * p]
        for x in order_p:
            res.check(
                any(x in group.members(y) for y in order_p2),
                f"{group.descriptor}: order-{p} element {group.element_label(x)} "
                f"is not a power of an order-{p * p} element",
            )


def _check_overgroup_oracle(res, group, graph, records, twin) -> None:
    # the overgroup criterion agrees with direct classification wherever
    # it applies; representatives cover every class
    for rec in records:
        verdict = plain_critical_by_overgroups(graph, rec.representative)
        if verdict is None:
            continue
        expected = rec.kind == "plain" and rec.is_critical
        res.check(
            verdict == expected,
            f"{group.descriptor}: overgroup criterion says {verdict} for "
            f"{group.element_label(rec.representative)}, classes say {expected}",
        )


# ---------------------------------------------------------------------------
# partitions suite
# ---------------------------------------------------------------------------


def suite_partitions(family: list[Group]) -> SuiteResult:
    res = SuiteResult("partitions")
    for group in family:
        if group.order < 2:
            continue
        part = cyclic_partition(group)
        # both graph checks below need a cyclic partition; they share one graph
        graph = PowerGraph(group) if part.is_partition else None
        if part.is_partition:
            covered: set[int] = set()
            ok = True
            for i, comp in enumerate(part.components):
                if comp.order < 2:
                    ok = False
                covered |= comp.members
                for other in part.components[i + 1 :]:
                    if (comp.members & other.members) != {group.identity}:
                        ok = False
            res.check(
                ok and covered == set(range(group.order)),
                f"{group.descriptor}: reported cyclic partition is not a partition",
            )
            res.check(
                check_plain_critical_maximal(group, graph).passed is True,
                f"{group.descriptor}: plain critical element is not maximal",
            )
        pp = as_prime_power(group.order)
        if pp is not None and pp.is_proper and group.order <= KEGEL_ORDER_CAP:
            brute = part.is_partition and not part.is_trivial
            res.check(
                kegel_partitionable(group) == brute,
                f"{group.descriptor}: Hughes-Thompson criterion disagrees with "
                "the cyclic-partition brute force",
            )
        v44 = check_partition_implies_compound_critical(group, graph)
        if v44.applicable:
            res.check(v44.passed is True, f"{group.descriptor}: {v44.detail}")
        vmc = check_main_corollary(group)
        if vmc.applicable:
            res.check(vmc.passed is True, f"{group.descriptor}: {vmc.detail}")
        # dihedral groups over an odd rotation order are Frobenius, so
        # their cyclic partition must be found
        desc = group.descriptor
        if desc.startswith("D:"):
            n = int(desc[2:])
            if n >= 3 and n % 2 == 1:
                res.check(
                    part.is_partition and not part.is_trivial,
                    f"{desc}: expected a non-trivial cyclic partition",
                )
    return res


# ---------------------------------------------------------------------------
# theorems suite: the census cross-check and its by-products
# ---------------------------------------------------------------------------


def suite_theorems(max_order: int) -> SuiteResult:
    res = SuiteResult("theorems")
    entries = census(max_order, verify_up_to=max_order, all_r=True)
    eppo_not_frobenius = 0
    for entry in entries:
        m = entry.params
        tag = f"M:{m.p},{m.a},{m.q},{m.b},{m.r}"
        res.check(
            entry.graph_agrees is True,
            f"{tag}: graph criticality {entry.graph_is_critical} vs "
            f"arithmetic flag {entry.flags.critical}",
        )
        if entry.flags.eppo and not entry.flags.frobenius:
            eppo_not_frobenius += 1
        if entry.flags.eppo and m.a >= 2 and m.b >= 2:
            v = eppo_metacyclic_equivalence_check(m, flags=entry.flags)
            res.check(v.applicable and v.passed is True, f"{tag}: {v.detail}")
        if not entry.flags.critical:
            continue
        group = make_metacyclic(m.p, m.a, m.q, m.b, m.r)
        fs = recognize_critical_structure(group)
        res.check(
            fs is not None and (fs.p, fs.a, fs.q, fs.b) == (m.p, m.a, m.q, m.b),
            f"{tag}: builder/recognizer round-trip failed",
        )
        graph = PowerGraph(group)
        res.check(
            graph.star_vertices() == frozenset({group.identity}),
            f"{tag}: critical group has star vertices beyond the identity",
        )
        _, is_eppo = exponent_and_pi(group)
        res.check(is_eppo, f"{tag}: critical group contains a non-prime-power order")
        sizes = sorted(len(c) for c in graph.twin_partition().classes)
        pa, qb = m.p**m.a, m.q**m.b
        expected = sorted([1, pa - 1] + [qb - 1] * pa)
        res.check(
            sizes == expected,
            f"{tag}: twin class census {sizes} != expected {expected}",
        )
        if fs is not None:
            for sub, prime in ((fs.kernel, fs.p), (fs.complement, fs.q)):
                ht = hughes_thompson(group, prime, within=sub.members)
                res.check(
                    ht == sub.members,
                    f"{tag}: Hughes-Thompson subgroup of a Sylow subgroup is proper",
                )
    # no EPPO-but-not-Frobenius tuple is expected in range; report either way
    res.check(
        eppo_not_frobenius == 0,
        f"census found {eppo_not_frobenius} EPPO tuples that are not Frobenius",
    )
    return res


# ---------------------------------------------------------------------------


def run_suites(names, max_order: int) -> list[SuiteResult]:
    requested = list(SUITE_NAMES) if "all" in names else list(names)
    family = None
    results = []
    for name in requested:
        if name == "theorems":
            results.append(suite_theorems(max_order))
            continue
        if family is None:
            family = builtin_family(max_order)
        if name == "closure":
            results.append(suite_closure(family))
        elif name == "criticality":
            results.append(suite_criticality(family))
        elif name == "partitions":
            results.append(suite_partitions(family))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results
