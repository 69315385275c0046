"""Centralizer enumeration against the definition, and the lazy queries
that walk centralizers against the materialized graph."""

import random
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
from powercrit.report import element_report


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
    assert not lazy.materialized
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "6250")
    mat_group = make_metacyclic(*spec)
    mat = PowerGraph(mat_group)
    assert mat.materialized
    for text in ("(1,0)", "(0,1)"):
        x = lazy_group.parse_element(text)
        assert classify_element(lazy, x) == classify_element(mat, x), text


def test_element_report_walks_each_centralizer_once(monkeypatch):
    # an element query walks C(x) once for N[x]; a prime-power x walks the
    # centralizer of its least non-trivial power once more for its twins.
    # Members of x's twin class share N[x], so a class whose least member
    # is not x walks no more than x itself
    def walks(group, x) -> int:
        calls = []
        walk = group.centralizer_words
        monkeypatch.setattr(group, "centralizer_words", lambda w: calls.append(w) or walk(w))
        element_report(group, x)
        monkeypatch.undo()
        return len(calls)

    s8 = make_symmetric(8)
    points = [str(p) for p in random.Random(9).sample(range(1, 9), 8)]
    mixed = s8.parse_element(f"({' '.join(points[:3])})({' '.join(points[3:])})")
    octo = s8.parse_element(f"({' '.join(points)})")
    m = make_metacyclic(5, 5, 2, 1, 3124)
    cases = [(s8, mixed, 1), (s8, octo, 2), (m, m.parse_element("(1,0)"), 2)]
    for group, x, want in list(cases):
        twins = PowerGraph(group).element_n_class(x)
        assert min(twins) != max(twins) and not PowerGraph(group).materialized
        cases.append((group, max(twins), want))
    for group, x, want in cases:
        assert walks(group, x) == want, (group.descriptor, group.element_label(x))
