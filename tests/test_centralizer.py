"""Centralizer enumeration against the definition, and the lazy queries
that walk centralizers against the materialized graph."""

from collections import Counter
from math import factorial, prod

import pytest

from conftest import brute_centralizer, cycle_type_element, integer_partitions
from powercrit import (
    PowerGraph,
    census,
    classify_element,
    make_cyclic,
    make_dihedral,
    make_metacyclic,
    make_symmetric,
)


def centralizer(group, x) -> frozenset[int]:
    words = list(group.centralizer_words(group.word_of(x)))
    assert len(set(words)) == len(words), "an element was enumerated twice"
    return frozenset(map(group.index_of, words))


def centralizer_order(parts) -> int:
    """|C(x)| in S_n for x of cycle type parts: prod of m^c_m * c_m!."""
    return prod(m**c * factorial(c) for m, c in Counter(parts).items())


@pytest.mark.parametrize("degree", [5, 6])
def test_permutation_centralizers_match_definition(degree):
    g = make_symmetric(degree)
    for x in range(g.order):
        assert centralizer(g, x) == brute_centralizer(g, x), g.element_label(x)


def test_metacyclic_centralizers_match_definition():
    checked = 0
    for entry in census(200, all_r=True):
        if not entry.flags.well_defined:
            continue
        m = entry.params
        g = make_metacyclic(m.p, m.a, m.q, m.b, m.r)
        for x in range(g.order):
            assert centralizer(g, x) == brute_centralizer(g, x), (g.descriptor, g.element_label(x))
        checked += 1
    assert checked > 100


def test_default_centralizer_is_the_whole_group():
    for g in (make_cyclic(6), make_dihedral(5)):
        assert sorted(g.centralizer_words(g.word_of(1))) == list(range(g.order))


@pytest.mark.parametrize("degree", [8, 9, 10])
def test_permutation_centralizer_orders(degree):
    g = make_symmetric(degree)
    for parts in integer_partitions(degree):
        x = cycle_type_element(g, parts)
        size = sum(1 for _ in g.centralizer_words(g.word_of(x)))
        assert size == centralizer_order(parts), parts


def test_permutation_centralizer_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for degree in (8, 9, 10):
        sym = combinatorics.SymmetricGroup(degree)
        for parts in integer_partitions(degree):
            points = iter(range(degree))
            cycles = [[next(points) for _ in range(m)] for m in parts]
            x = combinatorics.Permutation(cycles, size=degree)
            assert sym.centralizer(x).order() == centralizer_order(parts), parts


def test_lazy_classify_matches_materialized_at_order_6250(monkeypatch):
    # <(1,0)> is a cyclic 5-group of order 3125 whose 3124 non-identity
    # elements form one compound class; the lazy twin filter and closure
    # handle it one cyclic subgroup at a time
    spec = (5, 5, 2, 1, 3124)
    lazy_group = make_metacyclic(*spec)
    lazy = PowerGraph(lazy_group)
    assert lazy.mode == "lazy"
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "6250")
    mat_group = make_metacyclic(*spec)
    mat = PowerGraph(mat_group)
    assert mat.mode == "materialized"
    for text in ("(1,0)", "(0,1)"):
        x = lazy_group.parse_element(text)
        assert classify_element(lazy, x) == classify_element(mat, x), text
