"""The cyclic-subgroup poset against the element-by-element oracles."""

import random

import pytest

from conftest import (
    brute_class_record,
    brute_cyclic_partition,
    brute_diamond_classes,
    brute_maximal_cyclic_subgroups,
    brute_powers,
    brute_row_closure,
    brute_rows,
    brute_twin_classes,
)
from powercrit import (
    PowerGraph,
    class_records,
    cyclic_partition,
    make_metacyclic,
    maximal_cyclic_subgroups,
    parse_group_spec,
)
from powercrit import power_graph
from powercrit.verify import builtin_family


def as_mask(members) -> int:
    return sum(1 << x for x in members)


def assert_node_graph_matches_rows(g, rng: random.Random, subsets: int) -> None:
    """Every materialized query of the node-level graph against the
    element-by-element rows."""
    rows = brute_rows(g)
    graph = PowerGraph(g)
    full = (1 << g.order) - 1
    twin = graph.twin_partition()
    assert twin.classes == brute_twin_classes(rows)
    assert all(x in twin.classes[twin.class_of[x]] for x in range(g.order))
    assert graph.star_vertices() == frozenset(x for x, row in enumerate(rows) if row == full)
    assert [as_mask(graph.closed_neighborhood(x)) for x in range(g.order)] == rows
    poset = g.cyclic_poset()
    for m in poset.comp:
        assert list(poset.nodes(m)) == [s for s in range(len(poset.comp)) if m >> s & 1]
    node_rows = graph.node_rows()
    assert [node_rows[s] for s in poset.sub_of] == rows
    assert power_graph._rows(graph, "power") == rows
    samples = [frozenset()] + [
        frozenset(rng.sample(range(g.order), rng.randint(1, min(g.order, 5)))) for _ in range(subsets)
    ]
    for xs in list(twin.classes) + samples:
        assert as_mask(graph.closure(xs)) == brute_row_closure(rows, xs), (g.descriptor, sorted(xs))
    got = [tuple(r) for r in class_records(graph)]
    assert got == [brute_class_record(g, rows, members) for members in twin.classes]


SPECS = [
    "C:1",
    "C:12",
    "C:64",
    "D:12",
    "D:15",
    "Q:4",
    "C:2 x C:4",
    "C:3 x C:3",
    "C:2 x D:6",
    "C:2 x M:3,1,2,1,2",
    "M:5,2,2,2,7",
    "M:7,1,3,1,2",
    "M:3,1,2,2,2",
    "M:3,2,2,1,8",
    "S:4",
    "S:5",
]


@pytest.mark.parametrize("spec", SPECS)
def test_poset_matches_brute_force(spec):
    g = parse_group_spec(spec)
    graph = PowerGraph(g)
    assert_node_graph_matches_rows(g, random.Random(spec), 30)
    assert graph.diamond_partition().classes == brute_diamond_classes(g)
    assert maximal_cyclic_subgroups(g) == brute_maximal_cyclic_subgroups(g)
    if g.order >= 2:
        part = cyclic_partition(g)
        assert (part.components, part.obstruction) == brute_cyclic_partition(g)
    for x in range(g.order):
        pw = tuple(brute_powers(g, x))
        assert g.powers(x) == pw
        assert g.element_order(x) == len(pw)
        assert g.members(x) == frozenset(pw)
        assert g.cyclic_generators(x) == frozenset(
            y for y in pw if frozenset(brute_powers(g, y)) == frozenset(pw)
        )


def test_node_graph_matches_brute_rows_on_builtin_family():
    rng = random.Random(300)
    for g in builtin_family(300):
        assert_node_graph_matches_rows(g, rng, 3)


def test_census_groups_cover_both_partition_outcomes():
    outcomes = {
        cyclic_partition(make_metacyclic(*params)).is_partition
        for params in [(5, 2, 2, 2, 7), (7, 1, 3, 1, 2), (3, 1, 2, 2, 2), (3, 2, 2, 1, 8)]
    }
    assert outcomes == {True, False}
