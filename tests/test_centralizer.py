"""Centralizer enumeration against the definition, and the lazy queries
that walk centralizers against the materialized graph."""

import random
from collections import Counter
from math import factorial, prod

import pytest

from conftest import (
    brute_centralizer,
    cycle_type_element,
    eager_centralizer_words,
    integer_partitions,
    single_walk_twin_class,
)
from powercrit import (
    PowerGraph,
    census,
    classify_element,
    make_cyclic,
    make_dihedral,
    make_metacyclic,
    make_symmetric,
)
from powercrit import groups
from powercrit.report import element_report


def centralizer(group, x) -> frozenset[int]:
    """C(x) as walked, with each yielded order and the walk's length checked."""
    w = group.word_of(x)
    pairs = list(group.centralizer_words(w))
    words = [v for v, _ in pairs]
    assert len(set(words)) == len(words), "an element was enumerated twice"
    assert [o for _, o in pairs] == list(map(group.word_order, words))
    assert len(words) == group.centralizer_order(w)
    return frozenset(map(group.index_of, words))


def walks(monkeypatch, group, query) -> list[int]:
    """The number of words each centralizer walk of `query()` reads."""
    counts: list[int] = []
    walk = group.centralizer_words

    def spy(w):
        counts.append(0)
        k = len(counts) - 1
        for item in walk(w):
            counts[k] += 1
            yield item

    with monkeypatch.context() as patch:
        patch.setattr(group, "centralizer_words", spy)
        query()
    return counts


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
        assert sorted(v for v, _ in g.centralizer_words(g.word_of(1))) == list(range(g.order))
        assert g.centralizer_order(g.word_of(1)) == g.order


@pytest.mark.parametrize("degree", range(1, 9))
def test_lazy_centralizer_walk_matches_the_eager_lists(degree):
    # the heads are listed in the order the eager lists give, and each
    # word comes with its order
    g = make_symmetric(degree)
    for parts in integer_partitions(degree):
        w = g.word_of(cycle_type_element(g, parts))
        pairs = list(g.centralizer_words(w))
        eager = eager_centralizer_words(g, w)
        assert [v for v, _ in pairs] == eager, parts
        assert [o for _, o in pairs] == list(map(g.word_order, eager)), parts
        assert len(pairs) == g.centralizer_order(w) == centralizer_order(parts), parts


@pytest.mark.parametrize(
    "degree,element,calls",
    [(7, "(1 2)(3 4 5)", 2 + 3 + 2), (8, "(1 2)(3 4)(5 6 7)", 8 + 3 + 1), (11, "(1 2)(3 4)", 8 + factorial(7))],
)
def test_centralizer_walk_works_out_each_order_once(monkeypatch, degree, element, calls):
    # one call per arrangement of each cycle length and one per fixed-point
    # tail, however many heads replay the tails
    g = make_symmetric(degree)
    w = g.parse_word(element)
    counted = []
    order = groups._wreath_order

    def spy(perm, shifts, m):
        counted.append(m)
        return order(perm, shifts, m)

    monkeypatch.setattr(groups, "_wreath_order", spy)
    assert sum(1 for _ in g.centralizer_words(w)) == g.centralizer_order(w)
    assert len(counted) == calls


@pytest.mark.parametrize("degree", [8, 9, 10])
def test_permutation_centralizer_orders(degree):
    g = make_symmetric(degree)
    for parts in integer_partitions(degree):
        w = g.word_of(cycle_type_element(g, parts))
        size = sum(1 for _ in g.centralizer_words(w))
        assert size == g.centralizer_order(w) == centralizer_order(parts), parts


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


def twin_oracle_cases():
    """(group, element) for every non-identity cycle type of S_5 to S_8, 200
    seeded random non-identity elements of S_8 and the two metacyclic
    elements of the order-6250 test above."""
    for degree in (5, 6, 7, 8):
        g = make_symmetric(degree)
        for parts in integer_partitions(degree):
            if parts[0] > 1:
                yield g, cycle_type_element(g, parts)
    s8 = make_symmetric(8)
    rng = random.Random(22)
    for _ in range(200):
        yield s8, rng.randrange(1, s8.order)
    m = make_metacyclic(5, 5, 2, 1, 3124)
    for text in ("(1,0)", "(0,1)"):
        yield m, m.parse_element(text)


def test_twin_classes_match_the_single_walk_oracle(monkeypatch):
    # each candidate is separated inside its own centralizer, smallest
    # first; the oracle separates all of them in one walk over the largest.
    # Both count the words of the N[x] walk too.  The identity is left
    # out: its class is the star set, found without a walk
    octo = None
    for group, x in twin_oracle_cases():
        graph = PowerGraph(group, materialize=False)
        twins = []
        counts = walks(monkeypatch, group, lambda: twins.append(graph.element_n_class(x)))
        want, oracle_words = single_walk_twin_class(group, x)
        label = (group.descriptor, group.element_label(x))
        assert twins == [want], label
        assert sum(counts) <= oracle_words, label
        if label == ("S:8", "(1 2 3 4 5 6 7 8)"):
            octo = (sum(counts), oracle_words)
    assert octo == (28, 158)


def test_element_report_walks_each_centralizer_once(monkeypatch):
    # an element query walks C(x) once for N[x]; a prime-power x walks the
    # centralizer of each power below it that is still a twin candidate,
    # smallest first, until that power is separated.  Both powers of the
    # 8-cycle are separated inside C(x^2), of 32 words, where one walk over
    # C(x^4) read 163 of its 384.  Members of x's twin class share N[x], so a
    # class whose least member is not x walks no more than x itself
    s8 = make_symmetric(8)
    points = [str(p) for p in random.Random(9).sample(range(1, 9), 8)]
    mixed = s8.parse_element(f"({' '.join(points[:3])})({' '.join(points[3:])})")
    octo = s8.parse_element(f"({' '.join(points)})")
    m = make_metacyclic(5, 5, 2, 1, 3124)
    cases = [(s8, mixed, [15], [15]), (s8, octo, [8, 18], [8, 20])]
    cases.append((m, m.parse_element("(1,0)"), [3125, 3125], [3125, 3125]))
    for group, x, want, twin_want in cases:
        twins = PowerGraph(group).element_n_class(x)
        assert min(twins) != max(twins) and not PowerGraph(group).materialized
        for y, counts in ((x, want), (max(twins), twin_want)):
            assert walks(monkeypatch, group, lambda: element_report(group, y)) == counts, (
                group.descriptor,
                group.element_label(y),
            )
