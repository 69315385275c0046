"""Power-graph adjacency, neighbourhood closure and twin partitions.

Two operating modes:

* materialized (order <= the threshold): every query runs on the k
  nodes of the group's cyclic-subgroup poset
  (:class:`~powercrit.groups.CyclicPoset`).  N[x] is the union of the
  generator sets of the subgroups comparable with <x>, so it is one k-bit
  comparability mask shared by the generators of <x>.  Closed twins are
  the subgroups with equal masks, star vertices generate the subgroups
  whose mask is full, and the one closure kernel, ``closure_mask``, takes
  N[N[X]] as two meets over node masks, kept by no memo; a common
  neighbourhood is the first meet alone (``CyclicPoset.meet``).  A
  partition is one node mask per class, and DOT export expands all
  classes.  The class records come from one pass over the twin masks, in
  class order, which the graph keeps and draws from only as far as a
  caller reads (:meth:`PowerGraph.drawn_records`).
* lazy (any order): per-element queries answered on backend words.
  Adjacency against a fixed element x is the one lazy kernel,
  :class:`~powercrit.groups.CyclicWord`: it short-circuits on order
  divisibility and then costs one set lookup, either the other element
  among the powers of x or its power lifted to order(x) among the
  generators of x's cyclic subgroup.  The graph keeps one record per
  element x queried: <x>, N[x] as (word, order) pairs and, once found,
  x's twin class, whose closure reads its common neighbourhood N[x] off
  the record.  A lazy closure needs a pairwise-adjacent set.  Star
  vertices are read off a materialized group's poset and, past the
  threshold, off the group's class, with no scan.

Adjacent elements commute, so N[x] and the cyclic overgroups of x lie
inside the centralizer C(x), and a word separating x from a power c of
x inside C(c).  Lazy queries pass over
:meth:`~powercrit.groups.Group.centralizer_words`, which yields each word
with its order, rather than the whole group: in S_11,
C((1 2 3)(4 5 6 7 8)) has 90 elements out of 39,916,800, walked only
for N[x] and for the twin powers of x.  A backend without a centralizer
enumeration falls back on one pass over the group.

``PowerGraph`` keeps what cli, report, criticality, partitions and verify
call, and is no stable API.  Some of its paths are reached by no command,
only by tests and ``bench/tracer.py``: ``diamond_partition``, the
materialized branch of ``element_n_class`` (through
``criticality.classify_class``), the materialized ``closure`` of an
element set, where commands call ``closure_mask`` on node masks, lazy
``adjacent_or_equal``, and the lazy ``closure`` of any set other than a
kept twin class.  The test oracles live in ``tests/conftest.py``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import ScaleError
from .groups import CyclicPoset, CyclicWord, Group
from .numtheory import as_prime_power

__all__ = [
    "PowerGraph",
    "TwinPartition",
    "export_dot",
    "export_json_graph",
]


# records kept per lazy graph, one per element queried
_CACHE_CAP = 4096


class _Kept(NamedTuple):
    """A lazy record of x: <x>, N[x] as (word, order) pairs, x's twin class."""

    fx: CyclicWord
    nb: list
    twins: frozenset | None = None


@dataclass(frozen=True)
class TwinPartition:
    """A partition of the group into unions of poset nodes: one node mask per
    class, the element -> class map, and the classes' elements on first read."""

    masks: tuple[int, ...]
    class_of: tuple[int, ...]
    poset: CyclicPoset

    @functools.cached_property
    def classes(self) -> tuple[frozenset[int], ...]:
        return tuple(map(self.poset.expand, self.masks))

    def class_containing(self, x: int) -> frozenset[int]:
        return self.poset.expand(self.masks[self.class_of[x]])


class PowerGraph:
    """Adjacency oracle for the power graph of a finite group.

    Logically read-only after construction; lazy queries memoize only.
    The mode is the group's ``materialized`` unless `materialize` forces one.
    """

    def __init__(self, group: Group, materialize: bool | None = None):
        self.group = group
        self.materialized = group.materialized if materialize is None else bool(materialize)
        self._poset: CyclicPoset | None = None
        self._twin: TwinPartition | None = None
        self._records: list = []
        self._draw: Iterator | None = None
        self._neighborhoods: dict[int, _Kept] = {}
        if self.materialized:
            self._poset = group.cyclic_poset()

    # -- construction -------------------------------------------------------

    def _require_materialized(self, what: str) -> CyclicPoset:
        if self._poset is None:
            hint = "; use per-element operations such as element_n_class instead"
            # past its threshold the group refuses, naming the threshold it read
            self.group.poset(what, hint)
            raise ScaleError(f"{what} needs materialized mode: this graph was built lazily{hint}")
        return self._poset

    def _neighborhood(self, x: int) -> _Kept:
        """The record of x, N[x] found in one lazy pass over C(x), kept with
        the graph."""
        kept = self._neighborhoods.get(x)
        if kept is None:
            fx = CyclicWord(self.group, self.group.word_of(x))
            kept = _Kept(fx, self._common([fx], self.group.centralizer_words(fx.word)))
            if len(self._neighborhoods) < _CACHE_CAP:
                self._neighborhoods[x] = kept
        return kept

    # -- adjacency ------------------------------------------------------------

    def adjacent_or_equal(self, x: int, y: int) -> bool:
        poset = self._poset
        if poset is not None:
            return bool((poset.comp[poset.sub_of[x]] >> poset.sub_of[y]) & 1)
        g = self.group
        fx = kept.fx if (kept := self._neighborhoods.get(x)) else CyclicWord(g, g.word_of(x))
        wy = g.word_of(y)
        return fx.adjacent_or_equal(g, wy, g.word_order(wy))

    # -- neighbourhoods and closure ---------------------------------------------

    def closed_neighborhood(self, x: int) -> frozenset[int]:
        """N[x]: x together with everything adjacent to it; lazily, one
        pass over C(x), kept with the graph."""
        poset = self._poset
        if poset is not None:
            return poset.expand(poset.comp[poset.sub_of[x]])
        return frozenset(self.group.index_of(w) for w, _ in self._neighborhood(x).nb)

    def closed_neighborhood_size(self, x: int) -> int:
        """|N[x]|: |G| for x = 1, unwalked; else summed over the nodes
        comparable with <x>, or lazily the kept words, none decoded."""
        poset = self._poset
        if x == self.group.identity:
            return self.group.order
        if poset is not None:
            return sum(len(poset.gens[s]) for s in poset.nodes(poset.comp[poset.sub_of[x]]))
        return len(self._neighborhood(x).nb)

    def closure(self, xs) -> frozenset[int]:
        """The closed neighbourhood of the common neighbourhood of xs.

        This is a Moore closure: extensive, monotone and idempotent.  In
        lazy mode the input must be pairwise adjacent, as every twin class
        is; then xs lies in its own common neighbourhood, so the whole
        computation happens inside N[x0] for any x0 in xs.  A twin class
        kept by :meth:`element_n_class` reads its common neighbourhood N[x]
        off that record, and any other set filters the kept N[min(xs)]; a
        set that is not pairwise adjacent is refused, and C(x) is never
        walked a second time.  The identity is dropped first: N[1] = G.

        Materialized, it is :meth:`closure_mask` of xs's nodes, expanded.
        """
        poset = self._poset
        if poset is not None:
            return poset.expand(self.closure_mask(poset.mask_of(xs)))
        g = self.group
        xs = frozenset(xs) - {g.identity}
        if not xs:
            return self.star_vertices()
        kept = self._neighborhoods
        common = next((k.nb for x in xs if (k := kept.get(x)) and k.twins == xs), None)
        if common is None:
            reps = self._subgroup_reps(map(g.word_of, sorted(xs)))
            if not all(a.adjacent_or_equal(g, b.word, b.order) for a, b in itertools.combinations(reps, 2)):
                self._require_materialized("closure of a set that is not pairwise adjacent")
            common = self._common(reps, self._neighborhood(min(xs)).nb)
        return frozenset(map(g.index_of, self._universal(common)))

    def closure_mask(self, mask: int) -> int:
        """The closure of a node mask: the nodes comparable with every node
        of its common neighbourhood meet(mask)."""
        poset = self._require_materialized("closure on node masks")
        return poset.meet(poset.meet(mask))

    def _subgroup_reps(self, words) -> list[CyclicWord]:
        """One fixed element per cyclic subgroup the words generate, the
        largest subgroups first."""
        g = self.group
        reps: list[CyclicWord] = []
        covered: set = set()
        for w in words:
            if w not in covered:
                f = CyclicWord(g, w)
                covered |= f.gens
                reps.append(f)
        reps.sort(key=lambda f: -f.order)
        return reps

    def _common(self, reps: list[CyclicWord], pairs) -> list[tuple]:
        """The (word, order) pairs adjacent or equal to every fixed element in `reps`."""
        g = self.group
        return [(w, ow) for w, ow in pairs if all(f.adjacent_or_equal(g, w, ow) for f in reps)]

    def _universal(self, pairs: list[tuple]) -> list:
        """The words of the (word, order) pairs adjacent or equal to every
        word among them.

        Adjacent elements have comparable orders, so a word whose order is
        incomparable with another word's is dropped untested; the rest are
        tested once per cyclic subgroup.
        """
        g = self.group
        distinct = {o for _, o in pairs}
        verdicts: dict = {}
        out = []
        for w, o in pairs:
            if any(o % d and d % o for d in distinct):
                continue
            ok = verdicts.get(w)
            if ok is None:
                f = CyclicWord(g, w)
                ok = all(f.adjacent_or_equal(g, v, ov) for v, ov in pairs)
                verdicts.update(dict.fromkeys(f.gens, ok))
            if ok:
                out.append(w)
        return out

    # -- star vertices -----------------------------------------------------------

    def star_vertices(self) -> frozenset[int]:
        """Elements whose closed neighbourhood is the whole group: the
        generators of the full-mask nodes of the graph's or the group's
        poset.  Past the threshold only S_k and M are built.  Only cyclic
        and generalized quaternion groups have star vertices beyond 1, and
        of S_k and M only S_1 and S_2 are either: cyclic of prime-power
        order, where every element is one."""
        g = self.group
        poset = self._poset or (g.cyclic_poset() if g.materialized else None)
        if poset is not None:
            return poset.expand(sum(1 << s for s, c in enumerate(poset.comp) if c == poset.full))
        return frozenset(range(g.order)) if g.is_cyclic() else frozenset({g.identity})

    # -- twin partitions -----------------------------------------------------------

    def twin_partition(self) -> TwinPartition:
        """Partition into closed-twin classes (equal N[x]): nodes with equal masks."""
        if self._twin is None:
            poset = self._require_materialized("twin partition")
            # nodes are walked in id order, i.e. by least generator, so the
            # classes come out ordered by least member
            cids: dict[int, int] = {}
            cid_of_node = [cids.setdefault(c, len(cids)) for c in poset.comp]
            masks = [0] * len(cids)
            for s, cid in enumerate(cid_of_node):
                masks[cid] |= 1 << s
            class_of = tuple(map(cid_of_node.__getitem__, poset.sub_of))
            self._twin = TwinPartition(tuple(masks), class_of, poset)
        return self._twin

    def diamond_partition(self) -> TwinPartition:
        """Partition into classes generating the same cyclic subgroup: the nodes."""
        poset = self._require_materialized("diamond partition")
        return TwinPartition(tuple(1 << s for s in range(len(poset.gens))), tuple(poset.sub_of), poset)

    def element_n_class(self, x: int) -> frozenset[int]:
        """The closed-twin class of x.

        N[c] depends only on <c>.  A twin c of x lies in N[x], so <c> and
        <x> are comparable.  Every generator of <x> is a twin, and the
        identity is one iff N[x] is the whole group.  Any other twin needs
        every power of the larger of c and x adjacent to the smaller, which
        in a cyclic group forces o(c) and o(x) to be powers of one prime
        p, and the subgroups of a cyclic p-group form a chain.  A candidate
        c above x has N[c] inside N[x], so its separators lie among the
        kept words of N[x]; one per cyclic subgroup is tested there.  The
        powers below x are left to :meth:`_twin_powers`.  The class is kept
        in x's record, beside the N[x] its members share.
        """
        if self._poset is not None:
            return self.twin_partition().class_containing(x)
        g = self.group
        if x == g.identity:
            return self.star_vertices()
        fx, nb, _ = kept = self._neighborhood(x)
        twins = set(fx.gens)
        if len(nb) == g.order:
            twins.add(g.word_of(g.identity))
        pp = as_prime_power(fx.order)
        if pp is not None:
            above = self._subgroup_reps(
                w
                for w, ow in nb
                if ow > fx.order and (q := as_prime_power(ow)) is not None and q.p == pp.p
            )
            below = [CyclicWord(g, g.word_pow(fx.word, pp.p**k)) for k in range(1, pp.k)]
            for f in above:
                if all(f.adjacent_or_equal(g, w, ow) for w, ow in nb):
                    twins |= f.gens
            for f in below[: self._twin_powers(fx, below)]:
                twins |= f.gens
        members = frozenset(map(g.index_of, twins))
        if x in self._neighborhoods:
            self._neighborhoods[x] = kept._replace(twins=members)
        return members

    def _twin_powers(self, fx: CyclicWord, below: list[CyclicWord]) -> int:
        """How many of the powers `below` of fx, x^p first and down the
        chain of its subgroups, are twins of fx: they form a prefix.

        In a cyclic p-group N[fx] lies in N[c], and N[c] in N[c'] for c'
        below c.  So a power is a twin only if every power above it is, and
        a word separating c from fx is one adjacent to c and not to fx,
        which commutes with c.  Each live power c is tested over C(c), the
        smallest centralizer first, until its first separator, and each word
        also against the live powers below c: a word adjacent to the lowest
        of them separates every power from the first one it is adjacent to
        downward.  The centralizers grow down the chain, so one of the order
        of the last walked in full is that one, and is not walked again.
        """
        g = self.group
        live, walked = len(below), 0
        for i, c in enumerate(below):
            if i >= live:
                break
            size = g.centralizer_order(c.word)
            if size == walked:
                continue
            for w, ow in g.centralizer_words(c.word):
                if below[live - 1].adjacent_or_equal(g, w, ow) and not fx.adjacent_or_equal(g, w, ow):
                    live = next(j for j in range(i, live) if below[j].adjacent_or_equal(g, w, ow))
                    if live == i:
                        break
            else:
                walked = size
        return live

    def node_rows(self) -> list[int]:
        """N[x] as an n-bit row for each node, shared by its generators: the
        OR of the generator bitmasks of the nodes comparable with it."""
        poset = self._require_materialized("power-graph rows")
        gen_bits = [sum(1 << x for x in gens) for gens in poset.gens]
        # generator sets of distinct nodes are disjoint, so the sum is the OR
        return [sum(map(gen_bits.__getitem__, poset.nodes(c))) for c in poset.comp]

    # -- enhanced power graph ----------------------------------------------------

    def enhanced_rows(self) -> list[int]:
        """Closed-neighbourhood bitmasks of the enhanced power graph.

        Two elements are enhanced-adjacent iff some cyclic subgroup
        contains both, i.e. iff they share a maximal cyclic subgroup, so
        the rows come from one sweep over those subgroups.
        """
        poset = self._require_materialized("enhanced power graph rows")
        erows = [0] * self.group.order
        for s in poset.maxima:
            mask = sum(1 << m for m in poset.powers[s])
            for m in poset.powers[s]:
                erows[m] |= mask
        return erows

    # -- derived queries -----------------------------------------------------------

    def drawn_records(self, stop: int, draw) -> list:
        """The twin-class records kept with the graph, at least the first
        `stop` of them.  They come in class order from the one iterator
        ``draw(group, masks)`` made on first request, which is drawn from
        only as far as a caller asks.  A draw that raises is finished, so
        it is dropped, and the next request draws again from the class
        that raised."""
        kept = self._records
        if len(kept) < stop:
            if self._draw is None:
                self._draw = draw(self.group, self.twin_partition().masks[len(kept) :])
            try:
                kept.extend(itertools.islice(self._draw, stop - len(kept)))
            except BaseException:
                self._draw = None
                raise
        return kept

    def strict_overgroups(self, x: int) -> frozenset[int]:
        """Elements y whose cyclic subgroup strictly contains the one of x."""
        g = self.group
        ox = g.element_order(x)
        return frozenset(y for y in self.closed_neighborhood(x) if g.element_order(y) > ox)


# -- exports -------------------------------------------------------------------

_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def _rows(graph: PowerGraph, kind: str) -> list[int]:
    """One n-bit closed-neighbourhood row per element, for exports only."""
    if kind == "enhanced":
        return graph.enhanced_rows()
    node_rows = graph.node_rows()
    return [node_rows[s] for s in graph.group.cyclic_poset().sub_of]


def _edge_list(rows: list[int]) -> Iterator[tuple[int, int]]:
    """The edges (i, j), i < j, of the rows' graph, in row order."""
    for i, row in enumerate(rows):
        # the row's bits above i, lowest first, as binary digits
        for j, digit in enumerate(bin(row >> (i + 1))[:1:-1], i + 1):
            if digit == "1":
                yield i, j


def export_json_graph(graph: PowerGraph, kind: str = "power") -> dict:
    """Edge-list export: {vertices: [{id, order}], edges: [[i, j]]}, sorted."""
    rows = _rows(graph, kind)
    g = graph.group
    return {
        "vertices": [{"id": i, "order": g.element_order(i)} for i in range(g.order)],
        "edges": [[i, j] for i, j in _edge_list(rows)],
    }


def export_dot(graph: PowerGraph, kind: str = "power") -> Iterator[str]:
    """DOT rendering with twin classes as same-colour clusters, yielded
    one newline-terminated line at a time.

    Vertex ordering, cluster numbering and colours are all deterministic,
    so identical invocations give byte-identical output.
    """
    rows = _rows(graph, kind)
    g = graph.group
    twin = graph.twin_partition()
    yield f'graph "{kind}({g.descriptor})" {{\n'
    yield "  node [shape=ellipse, style=filled];\n"
    for cid, members in enumerate(twin.classes):
        color = _PALETTE[cid % len(_PALETTE)]
        yield f"  subgraph cluster_{cid} {{\n"
        yield f'    label="class {cid}";\n'
        for x in sorted(members):
            lbl = g.element_label(x).replace('"', r"\"")
            yield f'    {x} [label="{lbl} : {g.element_order(x)}", fillcolor="{color}"];\n'
        yield "  }\n"
    for i, j in _edge_list(rows):
        yield f"  {i} -- {j};\n"
    yield "}\n"
