import itertools
import math
import random
import weakref

import pytest

from powercrit import CyclicPoset, MetacyclicParams, PowerGraph, census, make_cyclic, make_dihedral
from powercrit import partitions, verify
from powercrit.groupspec import parse_group_spec
from powercrit.partitions import PartitionResult, cyclic_partition
from powercrit.verify import (
    SUITE_NAMES,
    SuiteResult,
    _check_criticality,
    _pool_limit,
    _sampler,
    builtin_family,
    run_suites,
    suite_closure,
    suite_theorems,
)


def test_builtin_family_respects_max_order():
    family = builtin_family(50)
    assert family and all(g.order <= 50 for g in family)
    descriptors = {g.descriptor for g in family}
    assert "C:50" in descriptors and "D:25" in descriptors and "S:4" in descriptors
    assert "Q:5" in descriptors and "C:7 x C:7" in descriptors
    assert any(d.startswith("M:") for d in descriptors)


def test_run_suites_all_names():
    results = run_suites(["all"], 48)
    assert [r.name for r in results] == list(SUITE_NAMES)
    for res in results:
        assert res.checks > 0 and res.passed, (res.name, res.failures[:3])


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["bogus"], 24)


def _recording_pairs(monkeypatch):
    """Patch the closure suite's draws to record each group's (n, bits,
    [(xs, more), ...]) as they are yielded."""
    drawn = []
    pairs = verify._subset_pairs

    def recording(bits, n, subsets):
        drawn.append((n, bits, []))
        for pair in pairs(bits, n, subsets):
            drawn[-1][2].append(pair)
            yield pair

    monkeypatch.setattr(verify, "_subset_pairs", recording)
    return drawn


def test_closure_suite_failure_text(monkeypatch):
    drawn = _recording_pairs(monkeypatch)
    monkeypatch.setattr(CyclicPoset, "meet", lambda poset, m: 0)
    res = suite_closure([make_cyclic(5)], subsets=20)
    # with every closure empty, extensivity and the star law fail on each
    # non-empty xs, and idempotence and monotonicity hold
    expected = []
    [(n, _, pairs)] = drawn
    for xs in (sorted(xs) for xs, _ in pairs):
        if xs:
            expected += [f"C:5: closure not extensive on {xs}", f"C:5: closure misses the star set on {xs}"]
    assert n == 5 and len(pairs) == 20 and expected and res.failures == expected
    assert res.checks == 3 * 20 + len(expected) // 2


def test_closure_walk_draws_what_the_stdlib_draws(monkeypatch):
    # every subset of the closure walk to order 300, as a set, against
    # random.Random's own randrange and sample calls on the same seed; the
    # walk's generator ends where the stdlib's does
    drawn = _recording_pairs(monkeypatch)
    [res] = verify._walk(verify._family(300), ["closure"])
    assert (res.checks, res.failures) == (252954, [])
    stdlib = random.Random(0xC0FFEE)
    for n, _, pairs in drawn:
        assert len(pairs) == verify.CLOSURE_SUBSETS
        for xs, more in pairs:
            size = stdlib.randrange(min(n, 12) + 1)
            assert set(xs) == set(stdlib.sample(range(n), size)), n
            extra = stdlib.randrange(min(n - size, 4) + 1)
            assert set(more) == set(stdlib.sample(range(n), min(n, size + extra))), n
    assert len(drawn) == 323 and 2 * sum(len(pairs) for _, _, pairs in drawn) == 129200
    assert len({bits for _, bits, _ in drawn}) == 1
    assert drawn[0][1].__self__.getrandbits(32) == stdlib.getrandbits(32)


def test_criticality_suite_tests_every_element_inside_the_enhanced_graph(monkeypatch):
    # generators of one cyclic subgroup share their power-graph row, but
    # each element's enhanced row is tested: an edge dropped at any
    # generator, the least one or not, fails the check
    group = make_dihedral(15)
    poset = group.cyclic_poset()
    message = "D:15: power-graph edge missing from the enhanced graph"
    enhanced = PowerGraph.enhanced_rows
    res = SuiteResult("criticality")
    _check_criticality(res, PowerGraph(group))
    assert res.passed
    non_least = [x for gens in poset.gens for x in gens if x != min(gens)]
    assert len(non_least) == 11
    for x in non_least:
        y = poset.least[poset.sub_of[x]]

        def dropped(graph, x=x, y=y):
            rows = enhanced(graph)
            return rows[:x] + [rows[x] & ~(1 << y)] + rows[x + 1 :]

        monkeypatch.setattr(PowerGraph, "enhanced_rows", dropped)
        res = SuiteResult("criticality")
        _check_criticality(res, PowerGraph(group))
        assert res.failures == [message], x


def test_theorems_suite_reads_the_walk_verdicts():
    # a verdict filed by the walk replaces the rebuild of that tuple; the
    # critical tuples are classified on their own rebuilt graphs
    entries = census(60, all_r=True)
    assert not any(e.flags.critical for e in entries)
    honest = {e.params: False for e in entries}
    assert suite_theorems(60, honest).failures == suite_theorems(60).failures == []
    m = entries[0].params
    flipped = dict(honest)
    flipped[m] = True
    tag = f"M:{m.p},{m.a},{m.q},{m.b},{m.r}"
    assert suite_theorems(60, flipped).failures == [f"{tag}: graph criticality True vs arithmetic flag False"]
    critical = MetacyclicParams(5, 2, 2, 2, 7)
    assert suite_theorems(100, {critical: False}).passed


@pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE, 2**40 + 7])
def test_sampler_draws_what_the_stdlib_draws(seed):
    # the same set and the same bits as random.Random.sample: after every
    # draw both generators must be at the same point
    ours, stdlib = random.Random(seed), random.Random(seed)
    for n in range(1, 201):
        sample = _sampler(ours.getrandbits, n)
        for k in range(min(n, 16) + 1):
            assert set(sample(k)) == set(stdlib.sample(range(n), k)), (n, k)
            assert ours.getrandbits(32) == stdlib.getrandbits(32), (n, k)


def test_sampler_sweep_covers_both_stdlib_branches():
    # random.Random.sample shuffles a pool for n up to this size, and
    # redraws repeats into a set above it
    for k in range(17):
        assert _pool_limit(k) == (21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))), k
        assert 1 <= _pool_limit(k) < 200, k
    assert {_pool_limit(k) for k in range(17)} == {21, 85}


def test_dihedral_sweep_reads_the_walked_verdicts(monkeypatch):
    # a filed verdict replaces the build of its D:n and keeps the failure
    # text; an unfiled D:n is built
    builds = []
    build = PowerGraph.__init__
    monkeypatch.setattr(PowerGraph, "__init__", lambda graph, *a, **kw: builds.append(None) or build(graph, *a, **kw))
    profile = verify.dihedral_plain_critical_profile
    swept = {n: profile(n) for n in range(2, 61)}
    swept[15] = not swept[15]
    res = SuiteResult("criticality")
    verify._check_dihedral_sweep(res, swept)
    assert (res.checks, res.failures, builds) == (59, ["D:15: arithmetic profile disagrees with the class sweep"], [])
    del swept[15]
    res = SuiteResult("criticality")
    verify._check_dihedral_sweep(res, swept)
    assert (res.checks, res.failures, len(builds)) == (59, [], 1)


def test_suite_check_counts_are_pinned():
    # a change in the subset draws or in the family shows up here
    results = run_suites(["all"], 120)
    counts = {res.name: (res.checks, len(res.failures)) for res in results}
    assert counts == {
        "closure": (208236, 0),
        "criticality": (10500, 0),
        "partitions": (546, 0),
        "theorems": (91, 0),
    }


def test_family_walk_builds_one_graph_per_group(monkeypatch):
    # the closure, criticality and partitions suites share one graph per
    # family group, and each graph and its group are dropped before the
    # next is built; the dihedral sweep reads D:2 .. D:30 from the walk and
    # builds D:31 .. D:60, which the family leaves out, the same way
    alive = []
    build = PowerGraph.__init__

    def counting(graph, *args, **kwargs):
        assert all(ref() is None for ref in alive), "an earlier graph or group is still alive"
        build(graph, *args, **kwargs)
        alive.extend((weakref.ref(graph), weakref.ref(graph.group)))

    monkeypatch.setattr(PowerGraph, "__init__", counting)
    results = run_suites(["closure", "criticality", "partitions"], 60)
    monkeypatch.undo()
    assert [res.name for res in results] == ["closure", "criticality", "partitions"]
    assert all(res.passed for res in results)
    assert len(alive) == 2 * (len(builtin_family(60)) + 30)


def test_all_suites_build_no_graph_for_walked_census_tuples(monkeypatch):
    # the walk files a verdict for each of the 76 census tuples to 120, so
    # the theorems suite builds graphs only for its 2 critical tuples,
    # whose EPPO checks reuse them, on top of the family; the dihedral
    # sweep reads D:2 .. D:60 from the walk
    builds = []
    build = PowerGraph.__init__

    def counting(graph, *args, **kwargs):
        builds.append(None)
        build(graph, *args, **kwargs)

    monkeypatch.setattr(PowerGraph, "__init__", counting)
    results = run_suites(["all"], 120)
    monkeypatch.undo()
    assert all(res.passed for res in results)
    assert len(census(120, all_r=True)) == 76 and len(builtin_family(120)) == 266
    assert len(builds) == 266 + 2 == 268


def _pairwise_partition(group, components) -> bool:
    """The pairwise scan the suite's count replaced: the components meet
    pairwise in the identity and together cover the group."""
    members = [group.members(c.generator) for c in components]
    pairwise = all(a & b == {group.identity} for a, b in itertools.combinations(members, 2))
    return pairwise and frozenset().union(*members) == frozenset(range(group.order))


def test_partitions_walk_derives_one_partition_per_group(monkeypatch):
    # the suite and its three theorem harnesses read one derivation per
    # group of order >= 2; each partition found also passes the pairwise
    # scan, and the suite's count accepted every one of them
    found = []

    def recording(group):
        found.append((group.descriptor, cyclic_partition(group)))
        return found[-1][1]

    for module in (verify, partitions):
        monkeypatch.setattr(module, "cyclic_partition", recording)
    (res,) = run_suites(["partitions"], 300)
    monkeypatch.undo()
    assert res.passed, res.failures[:3]
    family = builtin_family(300)
    assert [d for d, _ in found] == [g.descriptor for g in family if g.order >= 2]
    assert len(found) == 408 and len(family) == 409
    for group, (_, part) in zip(family[1:], found):
        if part.is_partition:
            assert _pairwise_partition(group, part.components), group.descriptor


@pytest.mark.parametrize("spec", ["D:15", "S:4", "M:5,2,2,2,7"])
def test_partition_count_rejects_an_overlap_and_a_gap(monkeypatch, spec):
    # a repeated component shares its non-identity elements and keeps the
    # sum of |M| - 1 at |G| - 1; a dropped one leaves elements uncovered
    group = parse_group_spec(spec)
    comps = cyclic_partition(group).components
    i, j = next((i, j) for i, j in itertools.combinations(range(len(comps)), 2) if comps[i].order == comps[j].order)
    overlap = comps[:j] + (comps[i],) + comps[j + 1 :]
    assert sum(c.order - 1 for c in overlap) == group.order - 1
    for mutant in (overlap, comps[:-1]):
        assert not _pairwise_partition(group, mutant)
        monkeypatch.setattr(verify, "cyclic_partition", lambda g: PartitionResult(mutant, None))
        res = SuiteResult("partitions")
        verify._check_partitions(res, PowerGraph(group))
        assert f"{group.descriptor}: reported cyclic partition is not a partition" in res.failures
