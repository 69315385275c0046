"""Power-graph adjacency, neighbourhood closure and twin partitions.

Two operating modes:

* materialized (order <= the threshold): one Python-int bitmask per
  vertex, bit y of row x set iff y lies in the closed neighbourhood of x.
  N[x] depends only on <x>, so the rows are read off the group's
  cyclic-subgroup poset (:class:`~powercrit.groups.CyclicPoset`), one row
  per cyclic subgroup shared by its generators; the same-generator
  (diamond) partition is the poset's nodes.  All the set algebra (common
  neighbourhoods, closures, star vertices, twin classes) is then bitwise.
* lazy (any order): per-element queries answered by a single pass over
  the group working on backend words.  Adjacency against a fixed element
  x short-circuits on order divisibility and then costs one set lookup:
  either the scanned element lies among the powers of x, or its power
  lifted to order(x) must be a generator of x's cyclic subgroup.

Lazy scans can be partitioned across worker processes by rank ranges;
partial results merge by union (neighbourhoods) or intersection
(surviving twin-class candidates).
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

from .errors import ScaleError
from .groups import Group, generated_subgroup_words, max_materialize
from .numtheory import as_prime_power, factorize

PARALLEL_MIN_ORDER = 1 << 20

__all__ = [
    "PowerGraph",
    "TwinPartition",
    "export_dot",
    "export_json_graph",
]


class _Fixed:
    """Precomputed data for adjacency tests against one fixed element."""

    __slots__ = ("order", "members", "gens")

    def __init__(self, group: Group, w):
        pw = group.word_powers(w)
        o = len(pw)
        self.order = o
        self.members = frozenset(pw)
        if o == 1:
            self.gens = self.members
        else:
            self.gens = frozenset(pw[k] for k in range(o) if math.gcd(k, o) == 1)

    def adjacent_or_equal(self, group: Group, w, ow: int) -> bool:
        if ow <= self.order:
            return self.order % ow == 0 and w in self.members
        return ow % self.order == 0 and group.word_pow(w, ow // self.order) in self.gens


@dataclass(frozen=True)
class TwinPartition:
    """A partition of the group into classes plus the element -> class map."""

    classes: tuple[frozenset[int], ...]
    class_of: tuple[int, ...]

    def class_containing(self, x: int) -> frozenset[int]:
        return self.classes[self.class_of[x]]


class PowerGraph:
    """Adjacency oracle for the power graph of a finite group.

    Read-only after construction; safe to share across workers.
    """

    def __init__(
        self,
        group: Group,
        materialize: bool | None = None,
        workers: int = 1,
        enhanced_cap: int = 100_000,
    ):
        self.group = group
        self.workers = max(1, workers)
        self.enhanced_cap = enhanced_cap
        if materialize is None:
            materialize = group.order <= max_materialize()
        self.materialized = bool(materialize)
        self._rows: list[int] | None = None
        self._erows: list[int] | None = None
        self._twin: TwinPartition | None = None
        self._diamond: TwinPartition | None = None
        self._fixed_cache: dict[int, _Fixed] = {}
        self._class_records: dict[int, object] = {}
        if self.materialized:
            poset = group.cyclic_poset()
            self._rows = [poset.rows[s] for s in poset.sub_of]
            self._full = (1 << group.order) - 1

    @property
    def mode(self) -> str:
        return "materialized" if self.materialized else "lazy"

    # -- construction -------------------------------------------------------

    def _require_materialized(self, what: str):
        if not self.materialized:
            raise ScaleError(
                f"{what} needs materialized mode (order {self.group.order}, "
                f"threshold {max_materialize()}); use per-element operations "
                "such as element_n_class instead"
            )
        return self._rows

    def _fixed(self, x: int) -> _Fixed:
        fx = self._fixed_cache.get(x)
        if fx is None:
            fx = _Fixed(self.group, self.group.word_of(x))
            if len(self._fixed_cache) < 4096:
                self._fixed_cache[x] = fx
        return fx

    # -- adjacency ------------------------------------------------------------

    def adjacent_or_equal(self, x: int, y: int) -> bool:
        if self._rows is not None:
            return bool((self._rows[x] >> y) & 1)
        g = self.group
        fx = self._fixed(x)
        wy = g.word_of(y)
        return fx.adjacent_or_equal(g, wy, g.word_order(wy))

    def adjacent(self, x: int, y: int) -> bool:
        """Power-graph adjacency; defined on distinct elements."""
        return x != y and self.adjacent_or_equal(x, y)

    # -- neighbourhoods and closure ---------------------------------------------

    def closed_neighborhood(self, x: int) -> frozenset[int]:
        """N[x]: x together with everything adjacent to it."""
        if self._rows is not None:
            return _bits_to_set(self._rows[x])
        return frozenset(self._neighborhood_scan(x))

    def _neighborhood_scan(self, x: int) -> list[int]:
        g = self.group
        if self.workers > 1 and g.order >= PARALLEL_MIN_ORDER:
            blocks = g.scan_blocks(self.workers * 4)
            payloads = [(g.descriptor, x, lo, hi) for lo, hi in blocks]
            out: list[int] = []
            for part in self._pool_map(_neighborhood_block, payloads):
                out.extend(part)
            return out
        return _neighborhood_block((g, x, 0, g.order))

    def common_neighborhood(self, xs) -> frozenset[int]:
        """Intersection of closed neighbourhoods; the whole group for empty input."""
        xs = frozenset(xs)
        if self._rows is not None:
            m = self._full
            for x in xs:
                m &= self._rows[x]
            return _bits_to_set(m)
        if not xs:
            raise ScaleError(
                "common neighbourhood of the empty set is the whole group; "
                "not representable in lazy mode"
            )
        g = self.group
        fixed = [self._fixed(x) for x in xs]
        out = []
        for rank, w in g.scan():
            ow = g.word_order(w)
            if all(f.adjacent_or_equal(g, w, ow) for f in fixed):
                out.append(rank)
        return frozenset(out)

    def closure(self, xs, _candidates: frozenset[int] | None = None) -> frozenset[int]:
        """The closed neighbourhood of the common neighbourhood of xs.

        This is a Moore closure: extensive, monotone and idempotent.  In
        lazy mode, whenever the input is pairwise adjacent (every twin
        class is), the whole computation happens inside N[x0] for any
        x0 in xs, avoiding a second full scan.
        """
        xs = frozenset(xs)
        if self._rows is not None:
            m = self._full
            for x in xs:
                m &= self._rows[x]
            out = self._full
            rest = m
            while rest:
                bit = rest & -rest
                out &= self._rows[bit.bit_length() - 1]
                rest ^= bit
            return _bits_to_set(out)
        if not xs:
            return self.star_vertices()
        g = self.group
        fixed = {x: self._fixed(x) for x in xs}
        pairwise = all(
            fixed[x].adjacent_or_equal(g, g.word_of(y), fixed[y].order)
            for x in xs
            for y in xs
            if x < y
        )
        if pairwise:
            cands = _candidates if _candidates is not None else self.closed_neighborhood(min(xs))
            cand_fixed = [(c, self._fixed(c)) for c in sorted(cands)]
            in_x = [
                (c, fc)
                for c, fc in cand_fixed
                if all(f.adjacent_or_equal(g, g.word_of(c), fc.order) for f in fixed.values())
            ]
            hat = [
                c
                for c, fc in cand_fixed
                if all(f.adjacent_or_equal(g, g.word_of(c), fc.order) for _, f in in_x)
            ]
            return frozenset(hat)
        nx = self.common_neighborhood(xs)
        fixed_nx = [self._fixed(z) for z in nx]
        out = []
        for rank, w in g.scan():
            ow = g.word_order(w)
            if all(f.adjacent_or_equal(g, w, ow) for f in fixed_nx):
                out.append(rank)
        return frozenset(out)

    # -- star vertices -----------------------------------------------------------

    def star_vertices(self) -> frozenset[int]:
        """Elements whose closed neighbourhood is the whole group."""
        if self._rows is not None:
            full = self._full
            return frozenset(x for x in range(self.group.order) if self._rows[x] == full)
        return self._star_lazy()

    def _star_lazy(self) -> frozenset[int]:
        # Classification shortcut: the star set exceeds {1} only in cyclic
        # groups (all of G for prime-power order, else 1 plus the
        # generators) and in generalized quaternion 2-groups (1 plus the
        # unique involution).
        g = self.group
        if g.is_cyclic():
            if as_prime_power(g.order) is not None:
                return frozenset(range(g.order))
            gen = next(rank for rank, w in g.scan() if g.word_order(w) == g.order)
            return frozenset({g.identity}) | g.cyclic_generators(gen)
        fact = factorize(g.order)
        if len(fact) == 1 and fact[0][0] == 2 and g.order >= 8:
            involutions = [rank for rank, w in g.scan() if g.word_order(w) == 2]
            if len(involutions) == 1:
                return frozenset({g.identity, involutions[0]})
        return frozenset({g.identity})

    # -- twin partitions -----------------------------------------------------------

    def twin_partition(self) -> TwinPartition:
        """Partition of the group into closed-twin classes (equal N[x])."""
        if self._twin is None:
            rows = self._require_materialized("twin partition")
            buckets: dict[int, list[int]] = {}
            for x in range(self.group.order):
                buckets.setdefault(rows[x], []).append(x)
            self._twin = _partition_from_buckets(buckets, self.group.order)
        return self._twin

    def diamond_partition(self) -> TwinPartition:
        """Partition into classes generating the same cyclic subgroup."""
        if self._diamond is None:
            self._require_materialized("diamond partition")
            poset = self.group.cyclic_poset()
            # subgroup ids follow the least generator, as class order must
            classes = tuple(poset.generators(s) for s in range(len(poset.powers)))
            self._diamond = TwinPartition(classes=classes, class_of=tuple(poset.sub_of))
        return self._diamond

    def element_n_class(self, x: int, _neighborhood: frozenset[int] | None = None) -> frozenset[int]:
        """The closed-twin class of x, computed with one filtering pass.

        Candidates start as N[x]; scanning z through the group discards
        any candidate whose adjacency-or-equality to z differs from x's.
        Candidates generating the same cyclic subgroup as x have the same
        closed neighbourhood and can never be discarded, so the scan stops
        once every other candidate is gone.
        """
        if self._rows is not None:
            return self.twin_partition().class_containing(x)
        g = self.group
        if x == g.identity:
            return self.star_vertices()
        nb = _neighborhood if _neighborhood is not None else self.closed_neighborhood(x)
        fx = self._fixed(x)
        diamonds: list[int] = []
        others: list[tuple[int, _Fixed]] = []
        for c in sorted(nb):
            fc = self._fixed(c)
            if fc.members == fx.members:
                diamonds.append(c)
            else:
                others.append((c, fc))
        if others:
            survivors = self._nclass_filter(x, fx, others)
        else:
            survivors = []
        return frozenset(diamonds) | frozenset(survivors)

    def _nclass_filter(self, x: int, fx: _Fixed, others: list[tuple[int, _Fixed]]) -> list[int]:
        g = self.group
        if self.workers > 1 and g.order >= PARALLEL_MIN_ORDER:
            blocks = g.scan_blocks(self.workers * 4)
            ranks = tuple(c for c, _ in others)
            payloads = [(g.descriptor, x, ranks, lo, hi) for lo, hi in blocks]
            alive: set[int] = set(ranks)
            for part in self._pool_map(_nclass_block, payloads):
                alive &= set(part)
            return sorted(alive)
        return _nclass_block((g, x, others, 0, g.order))

    # -- enhanced power graph ----------------------------------------------------

    def enhanced_adjacent(self, x: int, y: int) -> bool:
        """True iff x and y together generate a cyclic subgroup."""
        if x == y:
            raise ValueError("enhanced adjacency is defined on distinct elements")
        if self.adjacent_or_equal(x, y):
            return True  # power-graph edges are always enhanced edges
        g = self.group
        sub = generated_subgroup_words(g, [g.word_of(x), g.word_of(y)], cap=self.enhanced_cap)
        size = len(sub)
        return any(g.word_order(w) == size for w in sub)

    def enhanced_rows(self) -> list[int]:
        """Closed-neighbourhood bitmasks of the enhanced power graph.

        Two elements are enhanced-adjacent iff some cyclic subgroup
        contains both, i.e. iff they share a maximal cyclic subgroup, so
        the rows come from one sweep over those subgroups.
        """
        if self._erows is None:
            self._require_materialized("enhanced power graph rows")
            poset = self.group.cyclic_poset()
            erows = [0] * self.group.order
            for s in poset.maxima:
                mask = poset.masks[s]
                for m in poset.powers[s]:
                    erows[m] |= mask
            self._erows = erows
        return self._erows

    # -- derived queries -----------------------------------------------------------

    def class_record(self, cid: int, classify):
        """The record of twin class `cid`, computed by `classify(graph, members)`
        on first request and kept with the graph."""
        rec = self._class_records.get(cid)
        if rec is None:
            rec = self._class_records[cid] = classify(self, self.twin_partition().classes[cid])
        return rec

    def strict_overgroups(self, x: int, _neighborhood: frozenset[int] | None = None) -> frozenset[int]:
        """Elements y whose cyclic subgroup strictly contains the one of x."""
        nb = _neighborhood if _neighborhood is not None else self.closed_neighborhood(x)
        g = self.group
        ox = g.element_order(x)
        return frozenset(y for y in nb if g.element_order(y) > ox)

    # -- plumbing ------------------------------------------------------------------

    def _pool_map(self, fn, payloads):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(self.workers) as pool:
            return pool.map(fn, payloads)


# -- scan kernels (top level so worker processes can import them) -------------


def _rebuild(group_or_descriptor) -> Group:
    if isinstance(group_or_descriptor, Group):
        return group_or_descriptor
    from .groupspec import parse_group_spec

    return parse_group_spec(group_or_descriptor)


def _neighborhood_block(args) -> list[int]:
    group, x, lo, hi = args
    g = _rebuild(group)
    fx = _Fixed(g, g.word_of(x))
    ox, members, gens = fx.order, fx.members, fx.gens
    word_order, word_pow = g.word_order, g.word_pow
    out = []
    for rank, w in g.scan(lo, hi):
        ow = word_order(w)
        if ow <= ox:
            if ox % ow == 0 and w in members:
                out.append(rank)
        elif ow % ox == 0 and word_pow(w, ow // ox) in gens:
            out.append(rank)
    return out


def _nclass_block(args) -> list[int]:
    group, x, others, lo, hi = args
    g = _rebuild(group)
    fx = _Fixed(g, g.word_of(x))
    if others and isinstance(others[0], int):
        live = [(c, _Fixed(g, g.word_of(c))) for c in others]
    else:
        live = list(others)
    word_order, word_pow = g.word_order, g.word_pow
    ox, mem_x, gens_x = fx.order, fx.members, fx.gens
    for _, w in g.scan(lo, hi):
        ow = word_order(w)
        if ow <= ox:
            ax = ox % ow == 0 and w in mem_x
        else:
            ax = ow % ox == 0 and word_pow(w, ow // ox) in gens_x
        kill = None
        for idx, (_, fy) in enumerate(live):
            oy = fy.order
            if ow <= oy:
                ay = oy % ow == 0 and w in fy.members
            else:
                ay = ow % oy == 0 and word_pow(w, ow // oy) in fy.gens
            if ay != ax:
                if kill is None:
                    kill = set()
                kill.add(idx)
        if kill:
            live = [item for i, item in enumerate(live) if i not in kill]
            if not live:
                break
    return [c for c, _ in live]


def _partition_from_buckets(buckets: dict, order: int) -> TwinPartition:
    # Iteration over buckets follows first insertion, i.e. least member.
    classes = tuple(frozenset(v) for v in buckets.values())
    class_of = [0] * order
    for cid, members in enumerate(classes):
        for x in members:
            class_of[x] = cid
    return TwinPartition(classes=classes, class_of=tuple(class_of))


def _bits_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return frozenset(out)


# -- exports -------------------------------------------------------------------

_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def _edge_list(rows: list[int]) -> list[list[int]]:
    edges = []
    for i, row in enumerate(rows):
        rest = row >> (i + 1)
        j = i + 1
        while rest:
            if rest & 1:
                edges.append([i, j])
            rest >>= 1
            j += 1
    return edges


def export_json_graph(graph: PowerGraph, kind: str = "power") -> dict:
    """Edge-list export: {vertices: [{id, order}], edges: [[i, j]]}, sorted."""
    rows = graph.enhanced_rows() if kind == "enhanced" else graph._require_materialized("graph export")
    g = graph.group
    return {
        "vertices": [{"id": i, "order": g.element_order(i)} for i in range(g.order)],
        "edges": _edge_list(rows),
    }


def export_dot(graph: PowerGraph, kind: str = "power") -> str:
    """DOT rendering with twin classes as same-colour clusters.

    Vertex ordering, cluster numbering and colours are all deterministic,
    so identical invocations give byte-identical output.
    """
    rows = graph.enhanced_rows() if kind == "enhanced" else graph._require_materialized("graph export")
    g = graph.group
    twin = graph.twin_partition()
    lines = [f'graph "{kind}({g.descriptor})" {{']
    lines.append("  node [shape=ellipse, style=filled];")
    for cid, members in enumerate(twin.classes):
        color = _PALETTE[cid % len(_PALETTE)]
        lines.append(f"  subgraph cluster_{cid} {{")
        lines.append(f'    label="class {cid}";')
        for x in sorted(members):
            lbl = g.element_label(x).replace('"', r"\"")
            lines.append(f'    {x} [label="{lbl} : {g.element_order(x)}", fillcolor="{color}"];')
        lines.append("  }")
    for i, j in _edge_list(rows):
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
