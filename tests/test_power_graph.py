import itertools
import random
import time
from dataclasses import astuple

import pytest

from conftest import (
    brute_adjacent_or_equal,
    brute_closed_neighborhood,
    brute_closure,
    brute_edge_count,
    brute_rows,
    brute_twin_class,
    brute_twin_classes,
    centralizer_is_maximal,
    cycle_type_element,
    enhanced_adjacent,
    integer_partitions,
)
from powercrit import (
    CyclicPoset,
    Group,
    PowerGraph,
    ScaleError,
    census,
    classify_element,
    euler_phi,
    is_maximal_element,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
    make_metacyclic,
    make_symmetric,
    maximal_cyclic_subgroups,
)
from powercrit import power_graph
from powercrit.groupspec import parse_group_spec
from powercrit.power_graph import export_dot, export_json_graph
from powercrit.report import element_report
from powercrit.verify import builtin_family

S4 = make_symmetric(4)
D30 = make_dihedral(15)
Q8 = make_generalized_quaternion(3)
M100 = make_metacyclic(5, 2, 2, 2, 7)


def labels(group, members):
    return {group.element_label(m) for m in members}


# -- closed neighbourhoods ---------------------------------------------------


def test_identity_neighborhood_is_whole_group():
    for g in (S4, D30, Q8, make_cyclic(12)):
        assert PowerGraph(g).closed_neighborhood(g.identity) == frozenset(range(g.order))


def test_generator_neighborhood_in_cyclic_group():
    c6 = make_cyclic(6)
    pg = PowerGraph(c6)
    assert pg.closed_neighborhood(1) == frozenset(range(6))
    # non-generators of a non-prime-power cyclic group see less
    assert pg.closed_neighborhood(2) == brute_closed_neighborhood(c6, 2)


def test_s4_neighborhood_example():
    pg = PowerGraph(S4)
    x = S4.parse_element("(1 3)(2 4)")
    nb = pg.closed_neighborhood(x)
    assert labels(S4, nb) == {"()", "(1 3)(2 4)", "(1 2 3 4)", "(1 4 3 2)"}


def test_neighborhoods_match_brute_force_on_s4():
    pg = PowerGraph(S4)
    for x in range(24):
        assert pg.closed_neighborhood(x) == brute_closed_neighborhood(S4, x)


# -- common neighbourhood / closure ---------------------------------------------


def test_closure_examples():
    pg = PowerGraph(D30)
    order15 = {x for x in range(30) if D30.element_order(x) == 15 and D30.members(x) == D30.members(1)}
    cls = pg.twin_partition().class_containing(1)
    assert cls == frozenset(order15)
    hat = pg.closure(cls)
    assert hat == cls | {D30.identity}
    assert len(hat) == 9

    pg4 = PowerGraph(S4)
    hat4 = pg4.closure({S4.parse_element("(1 2 3 4)")})
    assert labels(S4, hat4) == {"()", "(1 2 3 4)", "(1 4 3 2)", "(1 3)(2 4)"}

    # closure of the empty set is the star set
    assert pg4.closure(frozenset()) == pg4.star_vertices()
    pg6 = PowerGraph(make_cyclic(6))
    assert pg6.closure(frozenset()) == pg6.star_vertices()


def pairwise_adjacent(graph, xs) -> bool:
    return all(graph.adjacent_or_equal(x, y) for x, y in itertools.combinations(xs, 2))


def assert_lazy_closures(lazy, subsets, expected) -> None:
    """A lazy closure equals the expected one on each pairwise-adjacent
    subset and refuses every other subset."""
    for xs, want in zip(subsets, expected):
        if pairwise_adjacent(lazy, xs):
            assert lazy.closure(xs) == want, (lazy.group.descriptor, sorted(xs))
        else:
            with pytest.raises(ScaleError, match="^closure of a set that is not pairwise adjacent needs materialized"):
                lazy.closure(xs)


def test_lazy_closure_matches_materialized():
    rng = random.Random(11)
    for g in (S4, D30, Q8):
        mat = PowerGraph(g)
        lazy = PowerGraph(g, materialize=False)
        subsets = [frozenset(rng.sample(range(g.order), rng.randint(1, 6))) for _ in range(40)]
        # a pair that is not adjacent, and every N[x], some of them
        # pairwise adjacent sets of more than two elements
        subsets.append(frozenset({S4.parse_element("(1 2)"), S4.parse_element("(3 4)")}) if g is S4 else subsets[0])
        subsets += [mat.closed_neighborhood(x) for x in range(g.order)]
        assert_lazy_closures(lazy, subsets, [mat.closure(xs) for xs in subsets])
        assert any(pairwise_adjacent(mat, xs) and len(xs) > 2 for xs in subsets)


def test_lazy_closure_refuses_a_set_that_is_not_pairwise_adjacent():
    # (1 2) and (1 3) are not adjacent, so their closure lies in no N[x]
    # of theirs; it is refused before any centralizer is walked
    for k in (10, 11):
        sk = make_symmetric(k)
        pair = {sk.parse_element("(1 2)"), sk.parse_element("(1 3)")}
        message = f"^closure of a set that is not pairwise adjacent needs materialized mode: order {sk.order} exceeds"
        started = time.perf_counter()
        with pytest.raises(ScaleError, match=message):
            PowerGraph(sk).closure(pair)
        assert time.perf_counter() - started < 1.0


def test_lazy_closure_drops_the_identity():
    # N[1] = G changes no intersection; anchored on the identity, the pass
    # over C(1) would walk all 39,916,800 elements of S_11
    s11 = make_symmetric(11)
    sigma = s11.parse_element("(1 2 3)(4 5 6 7 8)")
    started = time.perf_counter()
    assert PowerGraph(s11).closure({s11.identity, sigma}) == PowerGraph(s11).closure({sigma})
    assert time.perf_counter() - started < 1.0
    lazy = PowerGraph(S4, materialize=False)
    assert lazy.closure({S4.identity}) == lazy.star_vertices() == PowerGraph(S4).star_vertices()


def test_moore_closure_laws_quick():
    rng = random.Random(7)
    for g in (S4, make_cyclic(12), D30):
        pg = PowerGraph(g)
        star = pg.star_vertices()
        for _ in range(60):
            xs = frozenset(rng.sample(range(g.order), rng.randint(0, min(g.order, 6))))
            hat = pg.closure(xs)
            assert xs <= hat
            assert pg.closure(hat) == hat
            ys = xs | frozenset(rng.sample(range(g.order), 2))
            assert hat <= pg.closure(ys)
            if xs:
                assert hat >= xs | star


@pytest.mark.parametrize("spec", ["C:12", "D:15", "Q:3", "S:4", "C:3 x C:3", "M:5,2,2,2,7"])
def test_closure_matches_brute_force(spec, monkeypatch):
    g = parse_group_spec(spec)
    rng = random.Random(spec)
    subsets = [frozenset()] + [frozenset({x}) for x in range(g.order)]
    subsets += [frozenset(rng.sample(range(g.order), rng.randint(2, min(g.order, 8)))) for _ in range(40)]
    expected = [brute_closure(g, xs) for xs in subsets]
    poset = g.cyclic_poset()
    # the common neighbourhood N[X] is the meet of X's nodes; N[{}] = G
    whole = frozenset(range(g.order))
    common = [poset.expand(poset.meet(poset.mask_of(xs))) for xs in subsets]
    assert common == [whole.intersection(*(brute_closed_neighborhood(g, x) for x in xs)) for xs in subsets]
    pg = PowerGraph(g)
    assert [pg.closure(xs) for xs in subsets] == expected
    assert [poset.expand(pg.closure_mask(poset.mask_of(xs))) for xs in subsets] == expected
    # lazily, a twin class reads its common neighbourhood off the record
    # kept for the member queried; with the records full, N[min] is
    # filtered instead
    twins = brute_twin_classes(brute_rows(g))
    for cap in (4096, 4):
        monkeypatch.setattr(power_graph, "_CACHE_CAP", cap)
        lazy = PowerGraph(g, materialize=False)
        for cls in twins:
            assert lazy.element_n_class(max(cls)) == cls
            assert lazy.closure(cls) == brute_closure(g, cls)
        assert_lazy_closures(lazy, subsets, expected)
        assert len(lazy._neighborhoods) <= cap


# -- star vertices ----------------------------------------------------------------


def test_star_vertices_families():
    # prime-power cyclic groups: everything is a star vertex
    for n, classes in ((8, 4), (9, 3), (25, 3)):
        pg = PowerGraph(make_cyclic(n))
        assert pg.star_vertices() == frozenset(range(n))
        assert len(pg.diamond_partition().classes) == classes
    # cyclic non-prime-power: identity plus generators
    c6 = make_cyclic(6)
    assert PowerGraph(c6).star_vertices() == frozenset({0, 1, 5})
    # generalized quaternion: identity plus the unique involution
    star = PowerGraph(Q8).star_vertices()
    assert star == frozenset({x for x in range(8) if Q8.element_order(x) <= 2})
    assert len(star) == 2
    assert PowerGraph(S4).star_vertices() == frozenset({S4.identity})


@pytest.mark.parametrize("spec", ["S:1", "S:2", "S:3", "M:5,2,2,2,7"])
def test_lazy_star_vertices_match_the_materialized_ones(monkeypatch, spec):
    # past the threshold the star set is read off the group's class, with
    # no poset and no scan; the materialized graph reads it off the poset
    want = PowerGraph(parse_group_spec(spec)).star_vertices()
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "0")
    lazy = parse_group_spec(spec)
    assert not lazy.materialized
    assert PowerGraph(lazy).star_vertices() == want
    assert lazy._poset is None


# -- twin and diamond partitions ----------------------------------------------------


def test_twin_partition_metacyclic_profile():
    pg = PowerGraph(M100)
    sizes = sorted(len(c) for c in pg.twin_partition().classes)
    assert sizes == [1] + [3] * 25 + [24]


def test_twin_partition_matches_brute_force():
    for g in (S4, Q8, make_cyclic(20)):
        pg = PowerGraph(g)
        twin = pg.twin_partition()
        for x in range(g.order):
            assert twin.class_containing(x) == brute_twin_class(g, x)


def test_diamond_partition_properties():
    pg = PowerGraph(S4)
    diamond = pg.diamond_partition()
    three_cycle = S4.parse_element("(1 2 3)")
    assert diamond.class_containing(three_cycle) == {
        three_cycle,
        S4.parse_element("(1 3 2)"),
    }
    for cls in diamond.classes:
        rep = min(cls)
        assert len(cls) == euler_phi(S4.element_order(rep))
        assert cls <= pg.twin_partition().class_containing(rep)


def test_twin_partition_unsupported_lazy():
    with pytest.raises(ScaleError, match="element_n_class"):
        PowerGraph(make_symmetric(8)).twin_partition()


# -- element_n_class ---------------------------------------------------------------


def test_element_n_class_lazy_s8():
    s8 = make_symmetric(8)
    pg = PowerGraph(s8)
    assert not pg.materialized
    sigma = s8.parse_element("(1 2 3)(4 5 6 7 8)")
    cls = pg.element_n_class(sigma)
    assert cls == s8.cyclic_generators(sigma)
    assert len(cls) == 8
    assert pg.element_n_class(s8.identity) == frozenset({s8.identity})
    # octo^4 = (1 5)(2 6)(3 7)(4 8) is separated from octo only outside
    # C(octo), e.g. by (1 2 5 6)(3 4 7 8), whose square it is
    octo = s8.parse_element("(1 2 3 4 5 6 7 8)")
    assert pg.element_n_class(octo) == s8.cyclic_generators(octo)


def test_element_query_expands_only_its_class(monkeypatch):
    d2000 = make_dihedral(2000)
    graph = PowerGraph(d2000)
    assert graph.materialized
    # every class queried is plain, so its record is read off node masks alone
    expanded = []
    expand = CyclicPoset.expand
    monkeypatch.setattr(CyclicPoset, "expand", lambda poset, mask: expanded.append(mask) or expand(poset, mask))
    for x in (1, 7, 1000, 2000):
        assert classify_element(graph, x).kind == "plain"
    assert expanded == []
    assert graph.element_n_class(1) == d2000.cyclic_generators(1)
    assert "classes" not in vars(graph.twin_partition())
    # an element report reads maximality off the poset, so N[x] is not built
    expanded.clear()
    for x in (0, 1, 500, 2000):
        assert element_report(d2000, x)["is_maximal"] == (x not in (0, 500))
    assert expanded == []


def test_lazy_element_report_sizes_n_x_without_decoding(monkeypatch):
    # is_maximal compares o(x) with the number of kept words of N[x]: on
    # S:9 "(1 2)" the query decodes only its twin class and closure (7
    # words), where decoding N[x] took 1,576 more
    s9 = make_symmetric(9)
    x = s9.parse_element("(1 2)")
    decoded = []
    index_of = s9.index_of
    monkeypatch.setattr(s9, "index_of", lambda w: decoded.append(w) or index_of(w))
    assert element_report(s9, x)["is_maximal"] is False
    assert len(decoded) < 16
    graph = PowerGraph(s9)
    assert not graph.materialized
    decoded.clear()
    size = graph.closed_neighborhood_size(x)
    assert decoded == []
    assert size == len(graph.closed_neighborhood(x)) == len(decoded) == 1576


def test_lazy_element_report_reads_one_kept_n_x(monkeypatch):
    # the twin class of (1,0) is its 4,110 generators, more than the 4,096
    # records a graph keeps: the report walks <x> once for N[x] and filters
    # C(x) once, and the closure walks the two cyclic subgroups of N[x]
    group = parse_group_spec("M:4111,1,2,1,4110")
    walks, filters = [], []
    word_powers, common = Group.word_powers, PowerGraph._common
    monkeypatch.setattr(Group, "word_powers", lambda g, w: walks.append(w) or word_powers(g, w))
    monkeypatch.setattr(PowerGraph, "_common", lambda graph, reps, pairs: filters.append(reps) or common(graph, reps, pairs))
    doc = element_report(group, group.parse_element("(1,0)"))
    assert (doc["n_class_size"], doc["closure_size"], doc["kind"], doc["is_maximal"]) == (4110, 4111, "plain", True)
    assert len(walks) <= 3
    assert len(filters) == 1


def test_plain_classes_and_maximality_are_read_without_a_walk():
    # a twin class holds its least member's generators, so it is plain iff
    # it has phi(o(rep)) members; an element is maximal iff |N[x]| = o(x)
    for group in builtin_family(120):
        graph = PowerGraph(group)
        for members in graph.twin_partition().classes:
            rep = min(members)
            plain = len(members) == euler_phi(group.element_order(rep))
            assert plain == (members <= group.cyclic_generators(rep)), (group.descriptor, rep)
        for x in range(group.order):
            want = is_maximal_element(group, x)
            assert element_report(group, x)["is_maximal"] == want == centralizer_is_maximal(group, x), (
                group.descriptor,
                x,
            )


def test_element_n_class_identity_is_star_set():
    for g in (S4, make_cyclic(6), Q8):
        pg_lazy = PowerGraph(g, materialize=False)
        assert pg_lazy.element_n_class(g.identity) == PowerGraph(g).star_vertices()


def test_lazy_matches_materialized():
    for g in (S4, D30, Q8, make_cyclic(20), M100):
        mat = PowerGraph(g)
        lazy = PowerGraph(g, materialize=False)
        for x in range(g.order):
            assert lazy.closed_neighborhood(x) == mat.closed_neighborhood(x)
            assert lazy.element_n_class(x) == mat.twin_partition().class_containing(x)
        for x in range(g.order):
            for y in range(g.order):
                assert lazy.adjacent_or_equal(x, y) == mat.adjacent_or_equal(x, y)


def test_lazy_adjacency_matches_brute_force():
    g = D30
    lazy = PowerGraph(g, materialize=False)
    for x in range(g.order):
        for y in range(g.order):
            assert lazy.adjacent_or_equal(x, y) == brute_adjacent_or_equal(g, x, y)


def assert_lazy_matches_materialized_cycle_types(degree: int) -> None:
    # one element per cycle type; the lazy graph walks centralizers, the
    # materialized one reads the poset of all degree! elements
    sk = make_symmetric(degree)
    mat = PowerGraph(sk, materialize=True)
    lazy = PowerGraph(sk, materialize=False)
    for parts in integer_partitions(degree):
        x = cycle_type_element(sk, parts)
        assert lazy.closed_neighborhood(x) == mat.closed_neighborhood(x), parts
        assert lazy.closed_neighborhood_size(x) == mat.closed_neighborhood_size(x) == len(mat.closed_neighborhood(x))
        assert lazy.element_n_class(x) == mat.element_n_class(x), parts
        assert classify_element(lazy, x) == classify_element(mat, x), parts
        assert lazy.strict_overgroups(x) == mat.strict_overgroups(x), parts
        assert centralizer_is_maximal(sk, x) == (not mat.strict_overgroups(x)), parts


def test_lazy_matches_materialized_s7_cycle_types():
    assert_lazy_matches_materialized_cycle_types(7)


def test_lazy_matches_materialized_s8_cycle_types():
    # the twin candidates of S_8's 2-elements are separated in the
    # centralizers of x's powers, up to C_2 wr S_4 of order 384
    assert_lazy_matches_materialized_cycle_types(8)


def test_element_report_maximality_matches_the_centralizer_walk(monkeypatch):
    # element_report reads maximality off the N[x] it built; the oracle
    # walks C(x) for a strict overgroup, and the poset maxima of a
    # materialized copy decide the census groups too
    for k in (7, 8):
        sk = make_symmetric(k)
        for parts in integer_partitions(k):
            x = cycle_type_element(sk, parts)
            assert element_report(sk, x)["is_maximal"] == centralizer_is_maximal(sk, x), parts
    entries = census(200, all_r=True)
    materialized = [make_metacyclic(*astuple(e.params)) for e in entries]
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "0")
    for group in materialized:
        lazy = parse_group_spec(group.descriptor)
        for label in ("(1,0)", "(0,1)"):
            x = lazy.parse_element(label)
            want = is_maximal_element(group, x)
            assert element_report(lazy, x)["is_maximal"] == centralizer_is_maximal(lazy, x) == want, (
                group.descriptor,
                label,
            )


# -- enhanced power graph ---------------------------------------------------------------


def test_enhanced_adjacent():
    pg = PowerGraph(S4)
    a, b = S4.parse_element("(1 2)"), S4.parse_element("(3 4)")
    assert not enhanced_adjacent(pg, a, b)  # joint subgroup is C2 x C2
    c, d = S4.parse_element("(1 2 3 4)"), S4.parse_element("(1 3)(2 4)")
    assert enhanced_adjacent(pg, c, d)
    with pytest.raises(ValueError):
        enhanced_adjacent(pg, a, a)


def test_enhanced_adjacent_resource_cap(monkeypatch):
    from powercrit import ResourceLimitError, groups

    monkeypatch.setattr(groups, "MAX_GENERATED_SUBGROUP", 5)
    pg = PowerGraph(S4)
    a, b = S4.parse_element("(1 2)"), S4.parse_element("(1 2 3 4)")
    with pytest.raises(ResourceLimitError, match="closure exceeded 5 elements"):
        enhanced_adjacent(pg, a, b)


def test_enhanced_rows_match_pairwise_tests():
    for g in (S4, D30, Q8):
        pg = PowerGraph(g)
        erows = pg.enhanced_rows()
        for x in range(g.order):
            for y in range(x + 1, g.order):
                assert bool((erows[x] >> y) & 1) == enhanced_adjacent(pg, x, y)


def test_power_graph_subset_of_enhanced():
    for g in (S4, D30, Q8, M100):
        pg = PowerGraph(g)
        erows = pg.enhanced_rows()
        rows = brute_rows(g)
        # one n-bit N[x] row per cyclic subgroup, shared by its generators
        node_rows = pg.node_rows()
        assert [node_rows[s] for s in g.cyclic_poset().sub_of] == rows
        for x in range(g.order):
            nb = pg.closed_neighborhood(x)
            assert nb == frozenset(y for y in range(g.order) if (rows[x] >> y) & 1)
            assert all((erows[x] >> y) & 1 for y in nb)


def test_graph_takes_its_mode_from_the_group(monkeypatch):
    # the group reads the threshold once, when it is built; a later change
    # of the setting moves neither the group nor the graphs built on it
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "10")
    lazy_group = make_symmetric(4)
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "100")
    mat_group = make_symmetric(4)
    monkeypatch.setenv("POWERCRIT_MAX_MATERIALIZE", "0")
    message = "^maximal cyclic subgroup enumeration needs materialized mode: order 24 exceeds threshold 10$"
    with pytest.raises(ScaleError, match=message):
        maximal_cyclic_subgroups(lazy_group)
    # a graph's refusal names the threshold its group was built at, too
    with pytest.raises(ScaleError, match="^twin partition needs materialized mode: order 24 exceeds threshold 10;"):
        PowerGraph(lazy_group).twin_partition()
    assert (lazy_group.materialized, mat_group.materialized) == (False, True)
    assert not PowerGraph(lazy_group).materialized
    assert PowerGraph(mat_group).materialized
    assert len(maximal_cyclic_subgroups(mat_group)) == 13
    # the oracle tests still force a mode
    assert PowerGraph(lazy_group, materialize=True).materialized
    assert not PowerGraph(mat_group, materialize=False).materialized


def test_node_mask_queries_need_materialized_mode():
    # S4 is within the threshold, so the refusal names the forced mode
    lazy = PowerGraph(S4, materialize=False)
    for query in (lazy.node_rows, lambda: lazy.closure_mask(1), lazy.twin_partition):
        with pytest.raises(ScaleError, match="needs materialized mode: this graph was built lazily; use per-element"):
            query()


# -- exports -----------------------------------------------------------------------------


def test_export_json_complete_graph():
    pg = PowerGraph(make_cyclic(8))
    doc = export_json_graph(pg, "power")
    assert len(doc["vertices"]) == 8
    assert len(doc["edges"]) == 28  # complete graph on 8 vertices
    assert doc["edges"] == sorted(doc["edges"])


def test_export_json_edge_count_matches_brute_force():
    doc = export_json_graph(PowerGraph(S4), "power")
    assert len(doc["edges"]) == brute_edge_count(S4)
    assert doc["vertices"][0] == {"id": 0, "order": 1}


def test_export_dot_deterministic():
    pg = PowerGraph(make_cyclic(8))
    one = "".join(export_dot(pg, "power"))
    two = "".join(export_dot(PowerGraph(make_cyclic(8)), "power"))
    assert one == two
    assert "0 -- 1;" in one
    assert one.count(" -- ") == 28
    enhanced = "".join(export_dot(PowerGraph(make_dihedral(3)), "enhanced"))
    assert enhanced.startswith('graph "enhanced(D:3)"')


def joined_dot(graph, kind):
    """The DOT text built whole, as one string, and edges read one bit at a time."""
    rows = power_graph._rows(graph, kind)
    g = graph.group
    lines = [f'graph "{kind}({g.descriptor})" {{', "  node [shape=ellipse, style=filled];"]
    for cid, members in enumerate(graph.twin_partition().classes):
        color = power_graph._PALETTE[cid % len(power_graph._PALETTE)]
        lines += [f"  subgraph cluster_{cid} {{", f'    label="class {cid}";']
        for x in sorted(members):
            lbl = g.element_label(x).replace('"', r"\"")
            lines.append(f'    {x} [label="{lbl} : {g.element_order(x)}", fillcolor="{color}"];')
        lines.append("  }")
    for i, row in enumerate(rows):
        lines += [f"  {i} -- {j};" for j in range(i + 1, g.order) if (row >> j) & 1]
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", ["C:1", "C:8", "D:15", "S:4", "Q:5", "C:2 x C:4", "M:5,2,2,2,7", "C:3 x S:3"])
@pytest.mark.parametrize("kind", ["power", "enhanced"])
def test_streamed_dot_matches_the_joined_text(spec, kind):
    # every line newline-terminated, and the same bytes as the text built whole
    graph = PowerGraph(parse_group_spec(spec))
    lines = list(export_dot(graph, kind))
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert "".join(lines) == joined_dot(graph, kind)
