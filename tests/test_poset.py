"""The cyclic-subgroup poset against the element-by-element oracles."""

import pytest

from conftest import (
    brute_cyclic_partition,
    brute_diamond_classes,
    brute_maximal_cyclic_subgroups,
    brute_powers,
    brute_rows,
)
from powercrit import (
    PowerGraph,
    cyclic_partition,
    make_metacyclic,
    maximal_cyclic_subgroups,
    parse_group_spec,
)

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
    assert graph._rows == brute_rows(g)
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


def test_census_groups_cover_both_partition_outcomes():
    outcomes = {
        cyclic_partition(make_metacyclic(*params)).is_partition
        for params in [(5, 2, 2, 2, 7), (7, 1, 3, 1, 2), (3, 1, 2, 2, 2), (3, 2, 2, 1, 8)]
    }
    assert outcomes == {True, False}
