import pytest

from conftest import exists_for, noncyclic_overgroup_witnesses, power
from powercrit import (
    CyclicPoset,
    PowerGraph,
    ScaleError,
    class_records,
    classify_class,
    classify_element,
    classify_group,
    dihedral_plain_critical_profile,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
    parse_group_spec,
    plain_critical_by_overgroups,
)

S4 = make_symmetric(4)
D30 = make_dihedral(15)
M100 = make_metacyclic(5, 2, 2, 2, 7)


def record_of(group, graph, descriptor):
    return classify_element(graph, group.parse_element(descriptor))


# -- class classification --------------------------------------------------------


def test_s4_four_cycle_class_compound_critical():
    rec = record_of(S4, PowerGraph(S4), "(1 2 3 4)")
    assert rec.kind == "compound"
    assert rec.size == 3
    assert rec.is_critical
    assert (rec.params.p, rec.params.r, rec.params.s) == (2, 2, 0)


def test_d30_order15_class_plain_critical():
    graph = PowerGraph(D30)
    rec = classify_element(graph, 1)  # rotation of order 15
    assert rec.kind == "plain"
    assert rec.size == 8
    assert rec.closure_size == 9
    assert rec.is_critical
    assert rec.params is None


def test_s4_three_cycle_class_plain_not_critical():
    rec = record_of(S4, PowerGraph(S4), "(1 2 3)")
    assert rec.kind == "plain" and rec.size == 2
    assert rec.closure_size == 3  # 3^1, exponent too small for criticality
    assert not rec.is_critical


def test_star_class_never_critical():
    for n in (8, 9, 25):
        g = make_cyclic(n)
        graph = PowerGraph(g)
        rec = classify_element(graph, g.identity)
        assert rec.is_star_class and rec.kind == "compound" and not rec.is_critical
        assert rec.size == n  # the whole group is the star class
    c6 = make_cyclic(6)
    rec = classify_element(PowerGraph(c6), c6.identity)
    assert rec.is_star_class and rec.size == 3 and not rec.is_critical


def test_identity_never_critical():
    for g in (S4, D30, M100, make_generalized_quaternion(3)):
        rec = classify_element(PowerGraph(g), g.identity)
        assert not rec.is_critical


def test_metacyclic_kernel_class():
    graph = PowerGraph(M100)
    order5 = power(M100, M100.index_of_pair(1, 0), 5)
    rec = classify_element(graph, order5)
    assert rec.kind == "compound" and rec.is_critical
    assert (rec.params.p, rec.params.r, rec.params.s) == (5, 2, 0)
    assert rec.size == 24


def test_q16_compound_class_with_nonzero_s():
    # order-4 rotation class in Q_16: six elements of order 4 or 8 sharing
    # the rotation subgroup, parameters (2, 3, 1), not critical
    q16 = make_generalized_quaternion(4)
    rec = classify_element(PowerGraph(q16), 1)
    assert rec.kind == "compound" and not rec.is_critical
    assert (rec.params.p, rec.params.r, rec.params.s) == (2, 3, 1)
    assert rec.size == 2**3 - 2**1


def test_classify_class_rejects_non_class():
    for graph in (PowerGraph(S4), PowerGraph(S4, materialize=False)):
        for members in (frozenset({0, 5}), frozenset({100}), frozenset({-1}), frozenset()):
            with pytest.raises(ValueError, match="not a closed-twin class"):
                classify_class(graph, members)


@pytest.mark.parametrize("spec,compounds", [("D:2000", 0), ("M:5,2,2,2,7", 26), ("Q:4", 1)])
def test_record_loop_expands_only_non_star_compound_classes(spec, compounds, monkeypatch):
    """Records are read off node masks: the only element set built is a
    non-star compound class's own, once, to check its parameters."""
    expanded = []
    expand = CyclicPoset.expand
    monkeypatch.setattr(CyclicPoset, "expand", lambda poset, mask: expanded.append(mask) or expand(poset, mask))
    graph = PowerGraph(parse_group_spec(spec))
    classify_group(graph)
    records = class_records(graph)
    twin = graph.twin_partition()
    compound = [own for own, r in zip(twin.masks, records) if r.kind == "compound" and not r.is_star_class]
    assert len(compound) == compounds
    assert sorted(expanded) == sorted(compound)
    assert "classes" not in vars(twin)  # expanded only on first read


def test_lazy_classify_matches_materialized():
    for g in (S4, D30, M100):
        mat = PowerGraph(g)
        lazy = PowerGraph(g, materialize=False)
        for members in mat.twin_partition().classes:
            rep = min(members)
            a, b = classify_element(mat, rep), classify_element(lazy, rep)
            assert (a.size, a.kind, a.is_critical, a.closure_size, a.params) == (
                b.size,
                b.kind,
                b.is_critical,
                b.closure_size,
                b.params,
            )


# -- group classification ------------------------------------------------------------


def test_classify_group_flags():
    from powercrit import GroupKind

    assert classify_group(PowerGraph(M100)) == GroupKind(True, False, True)
    c2c2 = make_direct_product(make_cyclic(2), make_cyclic(2))
    kind = classify_group(PowerGraph(c2c2))
    assert (kind.is_critical_group, kind.is_plain_group, kind.is_compound_group) == (
        False,
        True,
        False,
    )
    kind = classify_group(PowerGraph(S4))
    assert not (kind.is_critical_group or kind.is_plain_group or kind.is_compound_group)
    kind = classify_group(PowerGraph(make_generalized_quaternion(3)))
    assert not (kind.is_critical_group or kind.is_plain_group or kind.is_compound_group)
    trivial = classify_group(PowerGraph(make_cyclic(1)))
    assert not (trivial.is_critical_group or trivial.is_plain_group or trivial.is_compound_group)


def test_nontrivial_records_skip_only_the_identity_class():
    from powercrit.criticality import nontrivial_records

    for group in (make_cyclic(1), make_cyclic(12), D30, make_generalized_quaternion(4), S4, M100):
        graph = PowerGraph(group)
        classes = graph.twin_partition().classes
        records = nontrivial_records(graph)
        assert iter(records) is records  # a generator, so classify_group can stop early
        assert list(records) == [r for r, c in zip(class_records(graph), classes) if c != {group.identity}]


def test_classify_group_unsupported_lazy():
    with pytest.raises(ScaleError):
        classify_group(PowerGraph(make_symmetric(8)))


# -- overgroup criterion ------------------------------------------------------------------


def test_overgroup_criterion_examples():
    assert plain_critical_by_overgroups(PowerGraph(D30), 1) is True  # maximal, vacuous
    c30 = make_cyclic(30)
    assert plain_critical_by_overgroups(PowerGraph(c30), 1) is None  # generates the group
    s8 = make_symmetric(8)
    sigma = s8.parse_element("(1 2 3)(4 5 6 7 8)")
    assert plain_critical_by_overgroups(PowerGraph(s8), sigma) is True
    # prime-power order: criterion does not apply
    assert plain_critical_by_overgroups(PowerGraph(D30), 5) is None


def test_overgroup_criterion_agrees_with_classification():
    for g in (D30, make_dihedral(30), make_cyclic(30), make_cyclic(60), S4):
        graph = PowerGraph(g)
        for rec in class_records(graph):
            verdict = plain_critical_by_overgroups(graph, rec.representative)
            if verdict is None:
                continue
            assert verdict == (rec.kind == "plain" and rec.is_critical), (
                g.descriptor,
                g.element_label(rec.representative),
            )


# -- witnesses -----------------------------------------------------------------------------


def test_witnesses_precondition_maximal():
    with pytest.raises(ValueError, match="maximal"):
        noncyclic_overgroup_witnesses(PowerGraph(D30), 1)


def test_witnesses_precondition_not_critical():
    s5 = make_symmetric(5)
    graph = PowerGraph(s5)
    x = s5.parse_element("(1 2 3)")  # not plain critical, has overgroups
    with pytest.raises(ValueError, match="not plain critical"):
        noncyclic_overgroup_witnesses(graph, x)


# -- dihedral profile ---------------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(15, True), (9, False), (30, True), (4, False), (6, False)])
def test_dihedral_profile_cases(n, expected):
    assert dihedral_plain_critical_profile(n) is expected


def test_dihedral_profile_matches_sweep():
    for n in range(2, 31):
        graph = PowerGraph(make_dihedral(n))
        swept = any(r.kind == "plain" and r.is_critical for r in class_records(graph))
        assert dihedral_plain_critical_profile(n) == swept, n


# -- order-500 family member ----------------------------------------------------------------


def test_order_500_family_member_is_compound_critical():
    r = exists_for(5, 3, 2, 2)
    assert r == 57
    g = make_metacyclic(5, 3, 2, 2, r)
    kind = classify_group(PowerGraph(g))
    assert kind.is_critical_group and kind.is_compound_group
