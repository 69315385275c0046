"""Acceptance criteria, one test per criterion, at their stated budgets."""

import time

from conftest import brute_rows, enhanced_adjacent, is_power_of, noncyclic_overgroup_witnesses
from powercrit import (
    PowerGraph,
    census,
    class_records,
    classify_element,
    classify_group,
    is_maximal_element,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
    plain_critical_by_overgroups,
)
from powercrit.criticality import classify_class
from powercrit.verify import builtin_family, run_suites


def finish(criterion: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{criterion} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"PASS {criterion} ({elapsed:.2f}s, budget {budget_s:.0f}s)")


def test_criterion_1_minimum_critical_group():
    started = time.perf_counter()
    group = make_metacyclic(5, 2, 2, 2, 7)
    assert group.order == 100
    kind = classify_group(PowerGraph(group))
    assert kind.is_critical_group
    assert not any(e.flags.critical for e in census(99, all_r=True))
    finish("criterion 1: minimum critical group has order 100", started, 5.0)


def test_criterion_2_main_theorem_cross_check():
    started = time.perf_counter()
    entries = census(1200, verify_up_to=1200, all_r=True)
    assert entries, "census must not be empty"
    disagreements = [e for e in entries if e.graph_agrees is not True]
    assert disagreements == []
    critical_orders = sorted({e.params.order for e in entries if e.flags.critical})
    assert critical_orders == [100, 500, 676, 1156]
    # builder/recognizer round-trip on every critical entry in range
    from powercrit import recognize_critical_structure

    for e in entries:
        if e.flags.critical:
            m = e.params
            fs = recognize_critical_structure(make_metacyclic(m.p, m.a, m.q, m.b, m.r))
            assert fs is not None and (fs.p, fs.a, fs.q, fs.b) == (m.p, m.a, m.q, m.b)
    finish(
        f"criterion 2: Main Theorem cross-check on {len(entries)} tuples <= 1200",
        started,
        600.0,
    )


def test_criterion_3_golden_examples():
    started = time.perf_counter()

    d30 = make_dihedral(15)
    rec = classify_element(PowerGraph(d30), 1)
    assert rec.kind == "plain" and rec.is_critical
    assert rec.size == 8 and rec.closure_size == 9

    s4 = make_symmetric(4)
    graph4 = PowerGraph(s4)
    rec = classify_element(graph4, s4.parse_element("(1 2 3 4)"))
    assert rec.kind == "compound" and rec.is_critical
    assert (rec.params.p, rec.params.r, rec.params.s) == (2, 2, 0)
    assert not classify_group(graph4).is_critical_group

    for p, n in ((2, 3), (3, 2), (5, 2)):
        g = make_cyclic(p**n)
        graph = PowerGraph(g)
        assert graph.star_vertices() == frozenset(range(g.order))
        assert len(graph.diamond_partition().classes) == n + 1

    assert len(PowerGraph(make_cyclic(6)).star_vertices()) == 3

    q8 = make_generalized_quaternion(3)
    star = PowerGraph(q8).star_vertices()
    involutions = [x for x in range(8) if q8.element_order(x) == 2]
    assert star == frozenset({q8.identity, involutions[0]}) and len(involutions) == 1

    finish("criterion 3: golden examples", started, 30.0)


def test_criterion_4_s8_stretch():
    started = time.perf_counter()
    s8 = make_symmetric(8)
    graph = PowerGraph(s8)
    sigma = s8.parse_element("(1 2 3)(4 5 6 7 8)")
    assert is_maximal_element(s8, sigma)
    # the overgroup-criterion route (vacuous for a maximal element)
    assert plain_critical_by_overgroups(graph, sigma) is True
    # confirmed by the lazy scan oracle
    rec = classify_element(graph, sigma)
    assert rec.kind == "plain" and rec.is_critical
    assert rec.size == 8 and rec.closure_size == 9
    finish("criterion 4: S_8 stretch test", started, 60.0)


def test_criterion_5_s11_example():
    started = time.perf_counter()
    s11 = make_symmetric(11)
    graph = PowerGraph(s11)
    sigma = s11.parse_element("(1 2 3)(4 5 6 7 8)")

    overgroups = graph.strict_overgroups(sigma)
    assert overgroups, "sigma must be non-maximal in S_11"
    assert all(s11.element_order(y) == 30 for y in overgroups)
    assert len(overgroups) == 24

    cls = graph.element_n_class(sigma)
    assert cls == s11.cyclic_generators(sigma)
    rec = classify_class(graph, cls)
    assert rec.kind == "plain" and rec.is_critical
    assert rec.size == 8 and rec.closure_size == 9

    y, z = noncyclic_overgroup_witnesses(graph, sigma)
    assert is_power_of(s11, sigma, y) and y != sigma
    assert is_power_of(s11, sigma, z) and z != sigma
    assert not enhanced_adjacent(graph, y, z)

    finish("criterion 5: S_11 example", started, 1800.0)


def test_criterion_6_property_suites():
    started = time.perf_counter()
    results = run_suites(["closure", "criticality", "partitions"], 600)
    for res in results:
        assert res.passed, f"suite {res.name}: {res.failures[:5]}"
        assert res.checks > 0
    finish(
        "criterion 6: property suites over the built-in family "
        f"({sum(r.checks for r in results)} checks)",
        started,
        600.0,
    )


def test_criterion_7_oracle_equivalences():
    started = time.perf_counter()
    checked = 0
    for group in builtin_family(600):
        if not 2 <= group.order <= 200:
            continue
        mat = PowerGraph(group)
        lazy = PowerGraph(group, materialize=False)
        n = group.order
        rows = brute_rows(group)
        for x in range(n):
            row = rows[x]
            assert mat.closed_neighborhood(x) == frozenset(y for y in range(n) if (row >> y) & 1)
            for y in range(n):
                assert lazy.adjacent_or_equal(x, y) == mat.adjacent_or_equal(x, y) == bool((row >> y) & 1), (
                    group.descriptor,
                    x,
                    y,
                )
            assert lazy.element_n_class(x) == mat.twin_partition().class_containing(x)
        checked += 1
        # overgroup criterion vs direct classification, all applicable reps
        for rec in class_records(mat):
            verdict = plain_critical_by_overgroups(mat, rec.representative)
            if verdict is not None:
                assert verdict == (rec.kind == "plain" and rec.is_critical)
    assert checked > 150
    finish(f"criterion 7: oracle equivalences on {checked} groups <= 200", started, 300.0)
