"""Isomorphism invariance: isomorphic groups have isomorphic power graphs,
so every analysis field that names no element agrees between them."""

import random
from collections import defaultdict

import pytest

from conftest import cycle_type_label, integer_partitions, isomorphism_invariant
from powercrit import census, make_metacyclic, multiplicative_order
from powercrit.groupspec import parse_group_spec
from powercrit.report import element_report

ISOMORPHIC = [
    ("D:3", "S:3"),
    ("C:6", "C:2 x C:3"),
    ("D:2", "C:2 x C:2"),
    ("C:15", "C:3 x C:5"),
    ("D:5 x C:3", "C:3 x D:5"),
    ("M:5,1,2,1,4", "D:5"),
    ("M:3,1,2,1,2", "S:3"),
    ("Q:3 x C:3", "C:3 x Q:3"),
]

# pairs of the same order that are not isomorphic, and which the
# invariant tells apart
DISTINCT = [
    ("D:4", "Q:3"),
    ("C:2 x C:4", "D:4"),
    ("C:8", "Q:3"),
    ("D:6", "C:12"),
    ("C:2 x C:2 x C:2", "C:2 x C:4"),
]


def _invariant(spec: str) -> tuple:
    return isomorphism_invariant(parse_group_spec(spec))


@pytest.mark.parametrize("first, second", ISOMORPHIC, ids=" ~ ".join)
def test_isomorphic_specs_agree(first, second):
    assert _invariant(first) == _invariant(second)


@pytest.mark.parametrize("first, second", DISTINCT, ids=" / ".join)
def test_invariant_separates_non_isomorphic_specs(first, second):
    assert _invariant(first) != _invariant(second)


def test_direct_product_is_commutative_and_associative():
    factors = ["C:2", "C:3", "C:4", "D:3", "Q:3"]
    for a, b in [("C:2", "D:3"), ("C:4", "C:3"), ("Q:3", "C:3"), ("D:3", "C:4")]:
        assert _invariant(f"{a} x {b}") == _invariant(f"{b} x {a}"), (a, b)
    for a, b, c in zip(factors, factors[1:], factors[2:]):
        assert _invariant(f"{a} x {b} x {c}") == _invariant(f"{c} x {a} x {b}"), (a, b, c)


def test_census_entries_agree_within_each_isomorphism_class():
    # for odd p the units mod p^a are cyclic, so r and r' of the same
    # multiplicative order generate the same subgroup and y -> y^u maps
    # M:p,a,q,b,r onto M:p,a,q,b,r'
    classes = defaultdict(list)
    for entry in census(1200, all_r=True):
        m = entry.params
        classes[m.p, m.a, m.q, m.b, multiplicative_order(m.r, m.p**m.a)].append(m)
    compared = 0
    for key, members in classes.items():
        if len(members) < 2:
            continue
        first = isomorphism_invariant(make_metacyclic(*key[:4], members[0].r))
        for m in members[1:]:
            assert isomorphism_invariant(make_metacyclic(m.p, m.a, m.q, m.b, m.r)) == first, (key, m.r)
            compared += 1
    assert compared == 367



@pytest.mark.parametrize("degree", [7, 8, 9])
def test_element_payloads_are_conjugation_invariant(degree):
    # the canonical representative writes its cycles on the points 1, 2, ...
    # in order; writing them on a shuffled order instead conjugates it, and
    # conjugates agree on every field but the element's label
    group = parse_group_spec(f"S:{degree}")
    rng = random.Random(degree)
    for parts in integer_partitions(degree):
        points = iter(rng.sample(range(1, degree + 1), degree))
        conjugate = "".join("(" + " ".join(str(next(points)) for _ in range(m)) + ")" for m in parts if m > 1)
        first = element_report(group, cycle_type_label(parts))
        second = element_report(group, conjugate or "()")
        del first["element"], second["element"]
        assert first == second, (parts, conjugate)
