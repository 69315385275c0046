"""Property suites checking the library's structural invariants.

Each suite sweeps a built-in family of groups (cyclic, dihedral,
symmetric, generalized quaternion, the metacyclic census family, and
small elementary abelian products) and records every violation with the
group spec and offending element.  The closure, criticality and
partitions suites share one walk of the family, with one power graph per
group, and the theorems suite reads the walk's verdicts on its metacyclic
groups.  The partitions suite derives each group's cyclic partition once,
hands it to the theorem harnesses, and checks it with one count.  The
closure suite draws the subsets random.Random.sample would from one
seeded generator, and keeps each common neighbourhood's closure for the
group it checks.  The suites back both the `verify` CLI command and the
acceptance tests.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import and_, or_
from typing import Callable, Collection, Iterable, Iterator

from .criticality import (
    class_records,
    classify_group,
    dihedral_plain_critical_profile,
    plain_critical_by_overgroups,
)
from .frobenius import (
    MetacyclicParams,
    census,
    check_census_bounds,
    eppo_metacyclic_equivalence_check,
    recognize_critical_structure,
)
from .groups import (
    Group,
    MetacyclicGroup,
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

    def check(self, ok: bool, message: str) -> None:
        """Count one check; record `message` on failure."""
        self.checks += 1
        if not ok:
            self.failures.append(message)


def builtin_family(max_order: int) -> list[Group]:
    """The test family: every group the property suites sweep."""
    return list(_family(max_order))


def _family(max_order: int) -> Iterator[Group]:
    """The groups of :func:`builtin_family`, built one at a time."""
    for n in range(1, min(120, max_order) + 1):
        yield make_cyclic(n)
    for n in range(2, min(60, max_order // 2) + 1):
        yield make_dihedral(n)
    for k in range(2, 6):
        if math.factorial(k) <= max_order:
            yield make_symmetric(k)
    for n in range(3, 6):
        if 2**n <= max_order:
            yield make_generalized_quaternion(n)
    for entry in census(min(600, max_order), all_r=True):
        m = entry.params
        yield make_metacyclic(m.p, m.a, m.q, m.b, m.r)
    for p in (2, 3, 5, 7):
        if p * p <= max_order:
            yield make_direct_product(make_cyclic(p), make_cyclic(p))


# ---------------------------------------------------------------------------
# closure suite: Moore-closure laws on random subsets
# ---------------------------------------------------------------------------


@cache
def _pool_limit(k: int) -> int:
    """The largest population random.Random.sample(population, k) draws
    from a shuffled pool rather than a set of picks."""
    return 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))


def _sampler(bits, n: int) -> Callable[[int], Collection[int]]:
    """k -> the set random.Random.sample(range(n), k) returns, from the same
    bits: a shuffled pool up to the pool limit, else repeats redrawn, each
    index by randbelow's rejection.  Each pool slot's rejection width and
    the pool to copy are tabled once per group.
    """
    slots = [(last, (last + 1).bit_length()) for last in range(n - 1, -1, -1)]
    base = list(range(n))

    def sample(k: int) -> Collection[int]:
        if n <= _pool_limit(k):
            pool, out = base[:], []
            for last, width in slots[:k]:
                j = bits(width)
                while j > last:
                    j = bits(width)
                out.append(pool[j])
                pool[j] = pool[last]
            return out
        chosen: set[int] = set()
        width = n.bit_length()
        while len(chosen) < k:
            j = bits(width)
            if j < n:
                chosen.add(j)
        return chosen

    return sample


def _subset_pairs(bits, n: int, subsets: int) -> Iterator[tuple[Collection[int], Collection[int]]]:
    """The closure suite's `subsets` draws on a group of order n, as pairs
    (xs, more): the sets random.Random's calls size = randrange(min(n, 12)
    + 1), sample(range(n), size), extra = randrange(min(n - size, 4) + 1)
    and sample(range(n), min(n, size + extra)) return from the same bits."""
    sample = _sampler(bits, n)
    top = min(n, 12)
    width = (top + 1).bit_length()
    for _ in range(subsets):
        size = bits(width)
        while size > top:
            size = bits(width)
        xs = sample(size)
        room = min(n - size, 4)
        extra = bits((room + 1).bit_length())
        while extra > room:
            extra = bits((room + 1).bit_length())
        yield xs, sample(min(n, size + extra))


def _check_closure(res: SuiteResult, graph: PowerGraph, bits, subsets: int) -> None:
    """The Moore-closure laws on random subsets, as node-mask algebra.

    A closure is a union of whole generator sets, so an element set lies
    inside it iff the nodes the set generates do.  Each subset's node mask
    and common neighbourhood are folded from per-element tables, and the
    second meet of the closure kernel is kept per common neighbourhood for
    this group only.  Idempotence is checked once per distinct closure.
    """
    group = graph.group
    n = group.order
    if n > CLOSURE_ORDER_CAP:
        return
    poset = group.cyclic_poset()
    bit_of = [1 << s for s in poset.sub_of]
    comp_of = [poset.comp[s] for s in poset.sub_of]
    full, closure_of_meet, fail = poset.full, cache(poset.meet), res.failures.append
    star = poset.mask_of(graph.star_vertices())
    idempotent: dict[int, bool] = {}
    nonempty = 0
    for xs, more in _subset_pairs(bits, n, subsets):
        xm = reduce(or_, map(bit_of.__getitem__, xs), 0)
        m = reduce(and_, map(comp_of.__getitem__, xs), full)
        hat = closure_of_meet(m)
        if xm & ~hat:
            fail(f"{group.descriptor}: closure not extensive on {sorted(xs)}")
        fixed = idempotent.get(hat)
        if fixed is None:
            fixed = idempotent[hat] = graph.closure_mask(hat) == hat
        if not fixed:
            fail(f"{group.descriptor}: closure not idempotent on {sorted(xs)}")
        if hat & ~closure_of_meet(reduce(and_, map(comp_of.__getitem__, more), m)):
            fail(f"{group.descriptor}: closure not monotone on {sorted(xs)} vs {sorted({*xs, *more})}")
        if xs:
            nonempty += 1
            if (xm | star) & ~hat:
                fail(f"{group.descriptor}: closure misses the star set on {sorted(xs)}")
    res.checks += 3 * subsets + nonempty


def suite_closure(family: list[Group], subsets: int = CLOSURE_SUBSETS) -> SuiteResult:
    return _walk(family, ["closure"], subsets)[0]


# ---------------------------------------------------------------------------
# criticality suite: per-element and per-group classification laws
# ---------------------------------------------------------------------------


def _check_criticality(res: SuiteResult, graph: PowerGraph) -> None:
    group = graph.group
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
    # the generator partition (one class per node) refines the twin
    # partition, with totient sizes
    poset = twin.poset
    for s, rep in enumerate(poset.least):
        res.check(
            bool((twin.masks[twin.class_of[rep]] >> s) & 1),
            f"{group.descriptor}: diamond class of {group.element_label(rep)} "
            "crosses twin classes",
        )
        res.check(
            len(poset.gens[s]) == euler_phi(len(poset.powers[s])),
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
    _check_overgroup_oracle(res, graph, records)
    if group.order <= CLOSURE_ORDER_CAP:
        # every element's enhanced row must hold its power-graph row N[x]
        erows, rows = graph.enhanced_rows(), graph.node_rows()
        res.check(
            all(erow & rows[s] == rows[s] for erow, s in zip(erows, poset.sub_of)),
            f"{group.descriptor}: power-graph edge missing from the enhanced graph",
        )


def _has_plain_critical_class(graph: PowerGraph) -> bool:
    return any(rec.kind == "plain" and rec.is_critical for rec in class_records(graph))


def _check_dihedral_sweep(res: SuiteResult, swept: dict[int, bool]) -> None:
    """The arithmetic profile of D:2 .. D:60 against their class sweeps:
    read from `swept` where the walk filed them, else built here."""
    for n in range(2, 61):
        plain = swept.get(n)
        if plain is None:
            plain = _has_plain_critical_class(PowerGraph(make_dihedral(n)))
        res.check(
            dihedral_plain_critical_profile(n) == plain,
            f"D:{n}: arithmetic profile disagrees with the class sweep",
        )


def suite_criticality(family: list[Group]) -> SuiteResult:
    return _walk(family, ["criticality"])[0]


def _check_order_p_lifting(res: SuiteResult, group: Group) -> None:
    # critical groups: p^2 divides the order and every order-p element
    # is a power of an order-p^2 element y, that is, generates <y^p>
    poset = group.cyclic_poset()
    for p, e in factorize(group.order):
        res.check(
            e >= 2,
            f"{group.descriptor}: critical but {p}^2 does not divide the order",
        )
        lifted = poset.mask_of(pw[p] for pw in poset.powers if len(pw) == p * p)
        for x in range(group.order):
            if group.element_order(x) != p:
                continue
            res.check(
                bool(lifted >> poset.sub_of[x] & 1),
                f"{group.descriptor}: order-{p} element {group.element_label(x)} "
                f"is not a power of an order-{p * p} element",
            )


def _check_overgroup_oracle(res: SuiteResult, graph: PowerGraph, records) -> None:
    # the overgroup criterion agrees with direct classification wherever
    # it applies; representatives cover every class
    group = graph.group
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


def _check_partitions(res: SuiteResult, graph: PowerGraph) -> None:
    group = graph.group
    if group.order < 2:
        return
    part = cyclic_partition(group)
    if part.is_partition:
        members = [group.members(c.generator) for c in part.components]
        hits = Counter(x for m in members for x in m)
        hits[group.identity] -= len(members) - 1  # the identity lies in every component
        res.check(
            all(c.order >= 2 and len(m) == c.order for c, m in zip(part.components, members))
            and hits == Counter(range(group.order)),
            f"{group.descriptor}: reported cyclic partition is not a partition",
        )
        res.check(
            check_plain_critical_maximal(graph, part).passed is True,
            f"{group.descriptor}: plain critical element is not maximal",
        )
    pp = as_prime_power(group.order)
    if pp is not None and pp.is_proper and group.order <= KEGEL_ORDER_CAP:
        res.check(
            kegel_partitionable(group) == (part.is_partition and not part.is_trivial),
            f"{group.descriptor}: Hughes-Thompson criterion disagrees with "
            "the cyclic-partition brute force",
        )
    for v in (check_partition_implies_compound_critical(graph, part), check_main_corollary(group, part)):
        if v.applicable:
            res.check(v.passed is True, f"{group.descriptor}: {v.detail}")
    # dihedral groups over an odd rotation order are Frobenius, so
    # their cyclic partition must be found
    desc = group.descriptor
    if desc.startswith("D:") and (n := int(desc[2:])) >= 3 and n % 2 == 1:
        res.check(
            part.is_partition and not part.is_trivial,
            f"{desc}: expected a non-trivial cyclic partition",
        )


def suite_partitions(family: list[Group]) -> SuiteResult:
    return _walk(family, ["partitions"])[0]


# ---------------------------------------------------------------------------
# one walk of the family for the per-group suites
# ---------------------------------------------------------------------------


def _walk(
    family: Iterable[Group],
    names,
    subsets: int = CLOSURE_SUBSETS,
    verdicts: dict[MetacyclicParams, bool] | None = None,
) -> list[SuiteResult]:
    """Run the per-group suites `names` in one pass over `family`.

    Each group gets one PowerGraph, shared by the suites' checks and
    dropped before the next group is built, so its twin partition, class
    records and closures are derived once.  Each suite keeps its own
    result and check order; the closure subsets come from one generator
    across the family.  With `verdicts`, the graph criticality of every
    metacyclic group walked is filed there under its parameters; the
    criticality suite's dihedral sweep reads whether each D:n walked has
    a plain critical class, and builds only the D:n the family left out.
    """
    bits = random.Random(0xC0FFEE).getrandbits
    per_group = {
        "closure": lambda res, graph: _check_closure(res, graph, bits, subsets),
        "criticality": _check_criticality,
        "partitions": _check_partitions,
    }
    for name in names:
        if name not in per_group:
            raise ValueError(f"unknown suite {name!r}")
    suites = [(SuiteResult(name), per_group[name]) for name in names]
    swept: dict[int, bool] | None = {} if "criticality" in names else None
    for graph in map(PowerGraph, family):
        for res, check in suites:
            check(res, graph)
        g = graph.group
        if verdicts is not None and isinstance(g, MetacyclicGroup):
            verdicts[MetacyclicParams(g.p, g.a, g.q, g.b, g.r)] = classify_group(graph).is_critical_group
        if swept is not None and g.descriptor.startswith("D:"):
            swept[int(g.descriptor[2:])] = _has_plain_critical_class(graph)
        del graph, g  # with its memos and group, before the next group's graph
    results = [res for res, _ in suites]
    for res in results:
        if res.name == "criticality":
            _check_dihedral_sweep(res, swept)
    return results


# ---------------------------------------------------------------------------
# theorems suite: the census cross-check and its by-products
# ---------------------------------------------------------------------------


def suite_theorems(max_order: int, verdicts: dict[MetacyclicParams, bool] | None = None) -> SuiteResult:
    """The census cross-check to `max_order`: each tuple's arithmetic
    critical flag against the graph's classification of its group, and
    the paper's theorems on the critical tuples.

    A tuple's classification is read from `verdicts` (filed by the family
    walk) when it is there.  Other tuples, and the critical ones, whose
    groups are rebuilt for the theorems anyway, are classified here, and
    their graphs go on to the EPPO check.
    """
    res = SuiteResult("theorems")
    check_census_bounds(max_order, max_order)
    verdicts = verdicts or {}
    eppo_not_frobenius = 0
    for entry in census(max_order, all_r=True):
        m = entry.params
        tag = f"M:{m.p},{m.a},{m.q},{m.b},{m.r}"
        is_critical = None if entry.flags.critical else verdicts.get(m)
        graph = None
        if is_critical is None:
            group = make_metacyclic(m.p, m.a, m.q, m.b, m.r)
            graph = PowerGraph(group)
            is_critical = classify_group(graph).is_critical_group
        res.check(
            is_critical == entry.flags.critical,
            f"{tag}: graph criticality {is_critical} vs arithmetic flag {entry.flags.critical}",
        )
        if entry.flags.eppo and not entry.flags.frobenius:
            eppo_not_frobenius += 1
        if entry.flags.eppo and m.a >= 2 and m.b >= 2:
            v = eppo_metacyclic_equivalence_check(m, graph, flags=entry.flags)
            res.check(v.applicable and v.passed is True, f"{tag}: {v.detail}")
        if not entry.flags.critical:
            continue
        fs = recognize_critical_structure(group)
        res.check(
            fs is not None and (fs.p, fs.a, fs.q, fs.b) == (m.p, m.a, m.q, m.b),
            f"{tag}: builder/recognizer round-trip failed",
        )
        res.check(
            graph.star_vertices() == frozenset({group.identity}),
            f"{tag}: critical group has star vertices beyond the identity",
        )
        _, is_eppo = exponent_and_pi(group)
        res.check(is_eppo, f"{tag}: critical group contains a non-prime-power order")
        sizes = sorted(rec.size for rec in class_records(graph))
        pa, qb = m.p**m.a, m.q**m.b
        expected = sorted([1, pa - 1] + [qb - 1] * pa)
        res.check(
            sizes == expected,
            f"{tag}: twin class census {sizes} != expected {expected}",
        )
        if fs is not None:
            for sub, prime in ((fs.kernel, fs.p), (fs.complement, fs.q)):
                members = group.members(sub.generator)
                res.check(
                    hughes_thompson(group, prime, within=members) == members,
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
    """The requested suites, in request order; "all" runs every suite.

    The closure, criticality and partitions suites share one walk of the
    built-in family; the theorems suite runs on the census and reads the
    walk's verdicts for the metacyclic groups it walked.
    """
    requested = list(SUITE_NAMES) if "all" in names else list(names)
    walked = [name for name in requested if name != "theorems"]
    # every suite rejects the bound the census rejects, before any work; the
    # walk files its metacyclic groups' verdicts for the census cross-check
    check_census_bounds(max_order, max_order)
    verdicts = {} if "theorems" in requested else None
    # groups are built as the walk reaches them and dropped after it, with
    # their posets
    by_name = {res.name: res for res in _walk(_family(max_order), walked, verdicts=verdicts)} if walked else {}
    if "theorems" in requested:
        by_name["theorems"] = suite_theorems(max_order, verdicts)
    return [by_name[name] for name in requested]
