import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_products_match,
    assert_products_match_sampled,
    brute_powers,
    cycle_type_element,
    int64_cyclic,
    int64_dihedral,
    int64_direct_product,
    int64_quaternion,
    int64_table,
    integer_partitions,
    is_power_of,
    power,
    spot_check_axioms,
)
from powercrit import (
    Group,
    ScaleError,
    census,
    exponent_and_pi,
    generated_subgroup,
    is_maximal_element,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
    max_materialize,
    maximal_cyclic_subgroups,
    parse_group_spec,
)
from powercrit.numtheory import as_prime_power, is_prime
from powercrit.verify import builtin_family

AXIOM_SAMPLE = [
    make_cyclic(1),
    make_cyclic(12),
    make_dihedral(4),
    make_dihedral(15),
    make_generalized_quaternion(3),
    make_generalized_quaternion(4),
    make_symmetric(4),
    make_metacyclic(5, 2, 2, 2, 7),
    make_direct_product(make_cyclic(5), make_cyclic(5)),
    make_direct_product(make_cyclic(2), make_metacyclic(3, 1, 2, 1, 2)),
]


@pytest.mark.parametrize("group", AXIOM_SAMPLE, ids=lambda g: g.descriptor)
def test_axioms(group):
    spot_check_axioms(group)


@pytest.mark.parametrize("group", AXIOM_SAMPLE, ids=lambda g: g.descriptor)
def test_lagrange(group):
    for g in range(group.order):
        assert group.order % group.element_order(g) == 0


def test_constructor_orders():
    assert make_dihedral(15).order == 30
    assert make_symmetric(4).order == 24
    assert make_cyclic(1).order == 1
    assert make_generalized_quaternion(3).order == 8
    assert make_direct_product(make_cyclic(2), make_cyclic(3)).order == 6


# -- products against the int64 formulas -------------------------------------------


def _product_oracle(g, h):
    formulas = {"C": int64_cyclic, "D": int64_dihedral, "Q": int64_quaternion}

    def oracle(f):
        fam, _, n = f.descriptor.partition(":")
        if fam in formulas:
            return lambda a, b: formulas[fam](int(n), a, b)
        return int64_table(f)

    return int64_direct_product(h.order, oracle(g), oracle(h))


@pytest.mark.parametrize("n", [1, 2, 3, 12, 97, 256])
def test_cyclic_and_dihedral_tables_match_int64_formulas(n):
    assert_products_match(make_cyclic(n), lambda a, b: int64_cyclic(n, a, b))
    assert_products_match(make_dihedral(n), lambda a, b: int64_dihedral(n, a, b))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_quaternion_tables_match_int64_formulas(n):
    assert_products_match(make_generalized_quaternion(n), lambda a, b: int64_quaternion(n, a, b))


def test_product_tables_match_int64_formulas():
    m6 = make_metacyclic(3, 1, 2, 1, 2)
    for g, h in (
        (make_cyclic(3), make_dihedral(4)),
        (make_generalized_quaternion(3), make_cyclic(5)),
        (make_dihedral(3), make_dihedral(5)),
        (make_cyclic(2), m6),  # a factor with no formula of its own
        (m6, make_cyclic(4)),
    ):
        assert_products_match(make_direct_product(g, h), _product_oracle(g, h))


def test_tables_at_order_4096_match_int64_formulas():
    # generators: a (index 1) and, with reflections, b (index m)
    assert_products_match_sampled(make_cyclic(4096), lambda a, b: int64_cyclic(4096, a, b), [1])
    assert_products_match_sampled(make_dihedral(2048), lambda a, b: int64_dihedral(2048, a, b), [1, 2048])
    q12 = make_generalized_quaternion(12)
    assert_products_match_sampled(q12, lambda a, b: int64_quaternion(12, a, b), [1, 2048])
    c64, c2, d1024 = make_cyclic(64), make_cyclic(2), make_dihedral(1024)
    # a generator of either factor, paired with the identity of the other
    assert_products_match_sampled(make_direct_product(c64, c64), _product_oracle(c64, c64), [64, 1])
    assert_products_match_sampled(make_direct_product(c2, d1024), _product_oracle(c2, d1024), [2048, 1, 1024])


def test_cli_import_does_not_load_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, powercrit.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("spec", ["C:4096", "D:2000", "Q:11", "C:2 x D:1000", "M:17,2,2,2,38"])
def test_building_a_group_at_the_threshold_allocates_little(spec):
    tracemalloc.start()
    try:
        group = parse_group_spec(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order >= 1000 and peak < 1 << 20


def test_constructor_bounds():
    with pytest.raises(ValueError):
        make_cyclic(0)
    with pytest.raises(ValueError):
        make_generalized_quaternion(2)
    with pytest.raises(ValueError):
        make_symmetric(12)
    with pytest.raises(ScaleError):
        make_cyclic(5000)


# -- metacyclic backend --------------------------------------------------------


def test_metacyclic_builder_examples():
    g = make_metacyclic(5, 2, 2, 2, 7)
    x, y = g.index_of_pair(1, 0), g.index_of_pair(0, 1)
    assert g.order == 100
    assert g.element_order(x) == 25
    assert g.element_order(y) == 4
    # conjugation x^y = x^7
    conj = g.mul(g.mul(g.inv(y), x), y)
    assert conj == power(g, x, 7)
    # at a = 3 the automorphism x -> x^7 has order 20, not 4; the order-4
    # action is generated by 7^5 = 57 (mod 125)
    with pytest.raises(ValueError, match="not well defined"):
        make_metacyclic(5, 3, 2, 2, 7)
    assert make_metacyclic(5, 3, 2, 2, 57).order == 500


@pytest.mark.parametrize(
    "params,match",
    [
        ((4, 2, 2, 2, 7), "p = 4 is not prime"),
        ((5, 2, 9, 2, 7), "q = 9 is not prime"),
        ((5, 2, 5, 2, 7), "distinct"),
        ((5, 0, 2, 2, 7), ">= 1"),
        ((5, 2, 2, 2, 1), "2 <= r"),
        ((5, 2, 2, 2, 25), "2 <= r"),
        ((5, 2, 2, 2, 10), "divides r"),
        ((5, 2, 2, 2, 3), "not well defined"),
    ],
)
def test_metacyclic_validation_errors(params, match):
    with pytest.raises(ValueError, match=match):
        make_metacyclic(*params)


def test_metacyclic_order_formula_matches_iteration():
    for params in [(5, 2, 2, 2, 7), (3, 1, 2, 1, 2), (5, 1, 2, 2, 2), (7, 1, 3, 1, 2)]:
        g = make_metacyclic(*params)
        for a in range(g.order):
            # naive order by iterated multiplication
            k, y = 1, a
            while y != g.identity:
                y = g.mul(y, a)
                k += 1
            assert g.element_order(a) == k


def test_metacyclic_word_pow_matches_binary_exponentiation():
    checked = 0
    for entry in census(200, all_r=True):
        if not entry.flags.well_defined:
            continue
        m = entry.params
        g = make_metacyclic(m.p, m.a, m.q, m.b, m.r)
        for x in range(g.order):
            o = len(brute_powers(g, x))
            assert g.word_order(x) == o, (g.descriptor, g.element_label(x))
            for k in range(o):
                assert g.word_pow(x, k) == Group.word_pow(g, x, k), (g.descriptor, x, k)
            assert g.word_pow(x, -1) == g.inv(x)
        checked += 1
    assert checked > 100


def test_metacyclic_pair_descriptors():
    g = make_metacyclic(5, 2, 2, 2, 7)
    assert g.element_label(g.index_of_pair(1, 0)) == "(1,0)"
    assert g.parse_element("(1,0)") == g.index_of_pair(1, 0)
    assert g.parse_element("(3,2)") == g.index_of_pair(3, 2)
    with pytest.raises(ValueError):
        g.parse_element("(25,0)")


# -- permutation backend ----------------------------------------------------------


def test_rank_unrank_roundtrip_exhaustive():
    s4 = make_symmetric(4)
    words = [s4.word_of(a) for a in range(24)]
    assert len(set(words)) == 24
    assert words == sorted(words)  # lexicographic rank order
    for a, w in enumerate(words):
        assert s4.index_of(w) == a


@given(st.integers(0, 362_879))
@settings(max_examples=150)
def test_rank_unrank_roundtrip_s9(a):
    s9 = make_symmetric(9)
    assert s9.index_of(s9.word_of(a)) == a


def test_permutation_orders():
    s8 = make_symmetric(8)
    sigma = s8.parse_element("(1 2 3)(4 5 6 7 8)")
    assert s8.element_order(sigma) == 15
    assert s8.element_order(s8.identity) == 1
    assert s8.element_label(sigma) == "(1 2 3)(4 5 6 7 8)"


def test_permutation_word_pow_matches_repeated_mul():
    s5 = make_symmetric(5)
    w = s5.parse_word("(1 2 3 4)(5)")
    acc = s5.word_of(s5.identity)
    for k in range(12):
        assert s5.word_pow(w, k) == acc
        acc = s5.word_mul(acc, w)
    assert s5.word_pow(w, -1) == s5.word_inv(w)


def test_cycle_notation_parse_errors():
    s4 = make_symmetric(4)
    with pytest.raises(ValueError, match="out of range"):
        s4.parse_element("(1 5)")
    with pytest.raises(ValueError, match="repeated"):
        s4.parse_element("(1 2)(2 3)")
    with pytest.raises(ValueError, match="parenthesis"):
        s4.parse_element("(1 2")
    assert s4.parse_element("()") == s4.identity
    assert s4.parse_element("(1, 2, 3)") == s4.parse_element("(1 2 3)")


def test_scan_matches_ranks():
    s5 = make_symmetric(5)
    full = list(s5.scan())
    assert len(full) == 120
    assert all(s5.index_of(w) == r for r, w in full)
    part = list(s5.scan(30, 75))
    assert [r for r, _ in part] == list(range(30, 75))
    assert all(s5.index_of(w) == r for r, w in part)


# -- cyclic subgroup machinery ------------------------------------------------------


def test_cyclic_subgroup_examples():
    s4 = make_symmetric(4)
    four_cycle = s4.parse_element("(1 2 3 4)")
    labels = {s4.element_label(m) for m in s4.members(four_cycle)}
    assert labels == {"()", "(1 2 3 4)", "(1 3)(2 4)", "(1 4 3 2)"}

    g = make_cyclic(9)
    assert g.members(g.identity) == frozenset({0})

    d30 = make_dihedral(15)
    assert len(d30.members(1)) == d30.element_order(1) == 15


def test_is_power_of():
    s4 = make_symmetric(4)
    t = s4.parse_element("(1 2)")
    c = s4.parse_element("(1 2 3 4)")
    assert not is_power_of(s4, t, c)
    assert is_power_of(s4, c, c)
    assert is_power_of(s4, s4.identity, c)
    assert is_power_of(s4, s4.parse_element("(1 3)(2 4)"), c)


def test_is_power_of_matches_brute_membership():
    from conftest import brute_powers

    for g in (make_symmetric(4), make_dihedral(10), make_metacyclic(3, 1, 2, 1, 2)):
        for h in range(g.order):
            members = set(brute_powers(g, h))
            for x in range(g.order):
                assert is_power_of(g, x, h) == (x in members), (g.descriptor, x, h)
                if is_power_of(g, x, h):
                    assert g.element_order(h) % g.element_order(x) == 0


def test_maximal_cyclic_subgroups():
    c6 = make_cyclic(6)
    assert [s.order for s in maximal_cyclic_subgroups(c6)] == [6]

    q8 = make_generalized_quaternion(3)
    subs = maximal_cyclic_subgroups(q8)
    assert [s.order for s in subs] == [4, 4, 4]
    union = frozenset().union(*(q8.members(s.generator) for s in subs))
    assert union == frozenset(range(8))

    m = make_metacyclic(5, 2, 2, 2, 7)
    counts = Counter(s.order for s in maximal_cyclic_subgroups(m))
    assert counts == {25: 1, 4: 25}

    with pytest.raises(ScaleError):
        maximal_cyclic_subgroups(make_symmetric(8))


def test_is_maximal_element():
    s8 = make_symmetric(8)
    assert is_maximal_element(s8, s8.parse_element("(1 2 3)(4 5 6 7 8)"))
    s5 = make_symmetric(5)
    assert not is_maximal_element(s5, s5.parse_element("(1 2 3)"))
    c15 = make_cyclic(15)
    assert is_maximal_element(c15, 1)
    assert not is_maximal_element(c15, 5)
    d30 = make_dihedral(15)
    assert is_maximal_element(d30, 1)


def test_exponent_and_pi():
    pi, eppo = exponent_and_pi(make_metacyclic(5, 2, 2, 2, 7))
    assert (pi, eppo) == (frozenset({2, 5}), True)
    pi, eppo = exponent_and_pi(make_cyclic(6))
    assert (pi, eppo) == (frozenset({2, 3}), False)
    pi, eppo = exponent_and_pi(make_symmetric(4))
    assert (pi, eppo) == (frozenset({2, 3}), True)


def test_exponent_and_pi_poset_read_matches_element_scan(monkeypatch):
    # the poset read of each materialized group against orders from
    # repeated multiplication, and against the lazy path's element scan
    # on a copy built above the threshold where the backend allows one
    family = builtin_family(300)
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "0")
    for group in family:
        pi, eppo = exponent_and_pi(group)
        assert pi == {p for p in range(2, group.order + 1) if group.order % p == 0 and is_prime(p)}
        brute = all(as_prime_power(len(brute_powers(group, x))) is not None for x in range(group.order))
        assert eppo == brute, group.descriptor
        if group.descriptor[0] in "MS":
            lazy = parse_group_spec(group.descriptor)
            assert lazy.order > max_materialize()  # so the lazy path runs
            assert exponent_and_pi(lazy) == (pi, eppo), group.descriptor


def test_is_cyclic_poset_read_matches_element_scan():
    # materialized C, D, Q and products read the largest maximal cyclic
    # subgroup; S and M keep their own answers; all against the orders
    # from repeated multiplication
    for group in builtin_family(300):
        scan = any(len(brute_powers(group, x)) == group.order for x in range(group.order))
        assert group.is_cyclic() == scan, group.descriptor


SMALL_PRODUCTS = [
    ("C:2", "C:6"),
    ("C:3", "C:3"),
    ("C:4", "D:3"),
    ("D:4", "Q:3"),
    ("Q:3", "C:6"),
    ("S:3", "C:4"),
    ("C:5", "S:3"),
]


def test_word_powers_match_the_mul_walk_and_word_pow():
    groups = [make_cyclic(n) for n in range(1, 61)]
    groups += [make_dihedral(n) for n in range(2, 41)]
    groups += [make_generalized_quaternion(n) for n in range(3, 9)]
    groups += [make_direct_product(parse_group_spec(a), parse_group_spec(b)) for a, b in SMALL_PRODUCTS]
    for group in groups:
        for x in range(group.order):
            pw = brute_powers(group, x)
            assert group.word_powers(x) == pw, (group.descriptor, x)
            assert group.powers(x) == tuple(power(group, x, k) for k in range(len(pw))), (group.descriptor, x)
    # the generators at the threshold: a rotation of order 4096 or 2000, a reflection
    c, d = make_cyclic(4096), make_dihedral(2000)
    for group, x in ((c, 1), (d, 1), (d, 2000), (d, 3999)):
        assert group.word_powers(x) == brute_powers(group, x), (group.descriptor, x)


def test_symmetric_element_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    # S_k up to 6 reads orders off its poset, S_7 and S_8 walk words
    for degree in range(1, 9):
        g = make_symmetric(degree)
        for parts in integer_partitions(degree):
            points = iter(range(degree))
            cycles = [[next(points) for _ in range(m)] for m in parts]
            expected = combinatorics.Permutation(cycles, size=degree).order()
            x = cycle_type_element(g, parts)
            assert g.element_order(x) == len(g.powers(x)) == expected, parts


@pytest.mark.parametrize("spec", ["S:3 x C:4", "D:4 x Q:3", "C:4 x D:3", "Q:3 x S:3"])
def test_direct_product_element_orders_match_sympy(spec):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from sympy.combinatorics.group_constructs import DirectProduct
    from sympy.combinatorics.named_groups import CyclicGroup, DihedralGroup, SymmetricGroup

    perm = combinatorics.Permutation
    # Q_8 on 8 points, from generators independent of the rotation-reflection indexing
    q8 = combinatorics.PermutationGroup([perm([[0, 1, 3, 6], [2, 5, 7, 4]]), perm([[0, 2, 3, 7], [1, 4, 6, 5]])])
    named = {"S:3": SymmetricGroup(3), "C:4": CyclicGroup(4), "D:3": DihedralGroup(3), "D:4": DihedralGroup(4), "Q:3": q8}
    left, right = spec.split(" x ")
    expected = Counter(x.order() for x in DirectProduct(named[left], named[right]).elements)
    g = parse_group_spec(spec)
    assert Counter(map(g.element_order, range(g.order))) == expected
    assert Counter(len(g.powers(x)) for x in range(g.order)) == expected


def test_generated_subgroup():
    s4 = make_symmetric(4)
    sub = generated_subgroup(s4, [s4.parse_element("(1 2)"), s4.parse_element("(3 4)")])
    assert len(sub) == 4  # C2 x C2
    full = generated_subgroup(s4, [s4.parse_element("(1 2)"), s4.parse_element("(1 2 3 4)")])
    assert len(full) == 24
