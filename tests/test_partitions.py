from collections import Counter

import pytest

from conftest import brute_hughes_thompson, exists_for
from powercrit import (
    PowerGraph,
    as_prime_power,
    check_main_corollary,
    check_partition_implies_compound_critical,
    check_plain_critical_maximal,
    cyclic_partition,
    factorize,
    hughes_thompson,
    kegel_partitionable,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
    maximal_cyclic_subgroups,
    recognize_critical_structure,
)
from powercrit.verify import builtin_family


def test_cyclic_partition_d30():
    part = cyclic_partition(make_dihedral(15))
    assert part.is_partition and not part.is_trivial
    assert Counter(c.order for c in part.components) == {2: 15, 15: 1}


def test_cyclic_partition_metacyclic():
    part = cyclic_partition(make_metacyclic(5, 2, 2, 2, 7))
    assert Counter(c.order for c in part.components) == {4: 25, 25: 1}
    assert all(as_prime_power(c.order).k >= 2 for c in part.components)


def test_cyclic_partition_trivial_for_cyclic_groups():
    part = cyclic_partition(make_cyclic(12))
    assert part.is_partition and part.is_trivial
    assert part.components[0].order == 12


def test_cyclic_partition_s4_is_pgl2_3():
    # S4 = PGL(2,3) admits a cyclic partition: three C4, four C3, six C2
    part = cyclic_partition(make_symmetric(4))
    assert part.is_partition and not part.is_trivial
    assert Counter(c.order for c in part.components) == {4: 3, 3: 4, 2: 6}


def test_cyclic_partition_obstruction_c2xc4():
    g = make_direct_product(make_cyclic(2), make_cyclic(4))
    part = cyclic_partition(g)
    assert not part.is_partition
    a, b, shared = part.obstruction
    assert shared != g.identity
    assert shared in g.members(a.generator) and shared in g.members(b.generator)
    maxes = maximal_cyclic_subgroups(g)
    assert a in maxes and b in maxes


def test_cyclic_partition_obstruction_q8():
    q8 = make_generalized_quaternion(3)
    part = cyclic_partition(q8)
    assert not part.is_partition
    _, _, shared = part.obstruction
    assert q8.element_order(shared) == 2  # the unique involution blocks it


def test_cyclic_partition_rejects_trivial_group():
    with pytest.raises(ValueError):
        cyclic_partition(make_cyclic(1))


# -- Hughes-Thompson subgroup -------------------------------------------------------


def test_hughes_thompson_examples():
    q8 = make_generalized_quaternion(3)
    assert hughes_thompson(q8, 2) == frozenset(range(8))
    c3c3 = make_direct_product(make_cyclic(3), make_cyclic(3))
    assert hughes_thompson(c3c3, 3) == frozenset({0})
    c9 = make_cyclic(9)
    assert hughes_thompson(c9, 3) == frozenset(range(9))
    with pytest.raises(ValueError, match="not prime"):
        hughes_thompson(c9, 6)


def test_hughes_thompson_within_subgroup():
    m = make_metacyclic(5, 2, 2, 2, 7)
    kernel = m.members(m.index_of_pair(1, 0))
    assert hughes_thompson(m, 5, within=kernel) == kernel


def test_hughes_thompson_matches_brute_closure():
    # one least generator per cyclic subgroup closes to the same subgroup
    # as every element of order other than p
    for group in builtin_family(64):
        for p, _ in factorize(group.order):
            assert hughes_thompson(group, p) == brute_hughes_thompson(group, p), (group.descriptor, p)
    m = make_metacyclic(5, 2, 2, 2, 7)
    fs = recognize_critical_structure(m)
    for sub, prime in ((fs.kernel, fs.p), (fs.complement, fs.q)):
        members = m.members(sub.generator)
        assert len(members) == sub.order
        assert hughes_thompson(m, prime, within=members) == brute_hughes_thompson(m, prime, members) == members


# -- Kegel criterion -----------------------------------------------------------------


def test_kegel_examples():
    assert kegel_partitionable(make_direct_product(make_cyclic(3), make_cyclic(3)))
    assert not kegel_partitionable(make_generalized_quaternion(3))
    assert not kegel_partitionable(make_cyclic(5))  # prime order special case
    assert not kegel_partitionable(make_cyclic(25))
    assert not kegel_partitionable(make_cyclic(125))
    assert kegel_partitionable(make_dihedral(4))  # dihedral 2-group
    with pytest.raises(ValueError, match="p-group"):
        kegel_partitionable(make_cyclic(6))


def test_kegel_matches_partition_brute_force():
    pgroups = [
        make_cyclic(4), make_cyclic(8), make_cyclic(16), make_cyclic(9),
        make_cyclic(27), make_cyclic(49), make_cyclic(121),
        make_generalized_quaternion(3), make_generalized_quaternion(4),
        make_generalized_quaternion(5),
        make_dihedral(2), make_dihedral(4), make_dihedral(8), make_dihedral(16),
        make_direct_product(make_cyclic(2), make_cyclic(2)),
        make_direct_product(make_cyclic(3), make_cyclic(3)),
        make_direct_product(make_cyclic(5), make_cyclic(5)),
        make_direct_product(make_cyclic(7), make_cyclic(7)),
        make_direct_product(make_cyclic(2), make_cyclic(4)),
        make_direct_product(make_cyclic(2), make_direct_product(make_cyclic(2), make_cyclic(2))),
    ]
    for g in pgroups:
        assert g.order <= 256
        part = cyclic_partition(g)
        brute = part.is_partition and not part.is_trivial
        assert kegel_partitionable(g) == brute, g.descriptor


# -- theorem harnesses ------------------------------------------------------------------


def _compound_critical(group):
    return check_partition_implies_compound_critical(PowerGraph(group), cyclic_partition(group))


def _plain_critical_maximal(group):
    return check_plain_critical_maximal(PowerGraph(group), cyclic_partition(group))


def _main_corollary(group):
    return check_main_corollary(group, cyclic_partition(group))


def test_partition_implies_compound_critical():
    v = _compound_critical(make_metacyclic(5, 2, 2, 2, 7))
    assert v.applicable and v.passed is True
    v = _compound_critical(make_metacyclic(5, 3, 2, 2, 57))
    assert v.applicable and v.passed is True
    v = _compound_critical(make_dihedral(15))
    assert not v.applicable  # order-2 components have exponent 1
    v = _compound_critical(make_cyclic(12))
    assert not v.applicable and "trivial" in v.detail


def test_plain_critical_maximal():
    assert _plain_critical_maximal(make_dihedral(15)).passed is True
    assert _plain_critical_maximal(make_dihedral(30)).passed is True
    # S4 partitions (PGL(2,3)) and has no plain critical elements: vacuous pass
    v = _plain_critical_maximal(make_symmetric(4))
    assert v.applicable and v.passed is True
    v = _plain_critical_maximal(make_generalized_quaternion(3))
    assert not v.applicable and "no cyclic partition" in v.detail


def test_main_corollary():
    v = _main_corollary(make_metacyclic(5, 2, 2, 2, 7))
    assert v.applicable and v.passed is True and "(5,2,2,2)" in v.detail
    r = exists_for(13, 2, 2, 2)
    assert r is not None
    v = _main_corollary(make_metacyclic(13, 2, 2, 2, r))
    assert v.applicable and v.passed is True and "(13,2,2,2)" in v.detail
    v = _main_corollary(make_cyclic(6))
    assert not v.applicable
