import math
import random
import weakref

import pytest

from powercrit import MetacyclicParams, PowerGraph, census, make_cyclic, make_dihedral
from powercrit import verify
from powercrit.verify import (
    SUITE_NAMES,
    SuiteResult,
    _below,
    _check_criticality,
    _sample,
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


def test_check_builds_callable_message_only_on_failure():
    res = SuiteResult("t")
    res.check(True, lambda: pytest.fail("message built for a passing check"))
    res.check(False, lambda: "lazy")
    res.check(False, "eager")
    assert res.checks == 3 and res.failures == ["lazy", "eager"]


def test_closure_suite_failure_text(monkeypatch):
    draws = []
    sample = verify._sample

    def recording(bits, n, k):
        draws.append(sample(bits, n, k))
        return draws[-1]

    monkeypatch.setattr(verify, "_sample", recording)
    monkeypatch.setattr(PowerGraph, "closure_mask", lambda graph, mask: 0)
    res = suite_closure([make_cyclic(5)], subsets=20)
    # two draws per subset: xs, then the part added to its superset; with
    # every closure empty, extensivity and the star law fail on each
    # non-empty xs
    expected = []
    for xs in map(sorted, draws[::2]):
        if xs:
            expected += [f"C:5: closure not extensive on {xs}", f"C:5: closure misses the star set on {xs}"]
    assert len(draws) == 40 and expected and res.failures == expected


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
    # the same set and the same bits as random.Random.sample and randint:
    # after every draw both generators must be at the same point
    ours, stdlib = random.Random(seed), random.Random(seed)
    bits = ours.getrandbits
    for m in range(300):
        assert _below(bits, m + 1) == stdlib.randint(0, m), m
        assert ours.getrandbits(32) == stdlib.getrandbits(32), m
    for n in range(1, 201):
        for k in range(min(n, 16) + 1):
            assert _sample(bits, n, k) == frozenset(stdlib.sample(range(n), k)), (n, k)
            assert ours.getrandbits(32) == stdlib.getrandbits(32), (n, k)


def test_sampler_sweep_covers_both_stdlib_branches():
    # random.Random.sample shuffles a pool for n up to this size, and
    # redraws repeats into a set above it
    def pool_limit(k):
        return 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))

    for k in range(17):
        assert 1 <= pool_limit(k) < 200, k
    assert {pool_limit(k) for k in range(17)} == {21, 85}


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
    # next is built; the dihedral sweep D:2 .. D:60 builds its own the
    # same way
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
    assert len(alive) == 2 * (len(builtin_family(60)) + 59)


def test_all_suites_build_no_graph_for_walked_census_tuples(monkeypatch):
    # the walk files a verdict for each of the 76 census tuples to 120, so
    # the theorems suite builds graphs only for its 2 critical tuples,
    # whose EPPO checks reuse them, on top of the family and the dihedral
    # sweep
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
    assert len(builds) == 266 + 59 + 2 == 327
