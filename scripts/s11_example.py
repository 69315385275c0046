#!/usr/bin/env python3
"""The S_11 showcase: (1 2 3)(4 5 6 7 8) is plain critical yet non-maximal.

Runs the lazy per-element pipeline, which walks the 90-element
centralizer of sigma rather than the 39,916,800 permutations of S_11:
closed neighbourhood, twin class, criticality, strict overgroups, and a
verified pair of overgroup generators whose join is not cyclic.

Usage:
    python scripts/s11_example.py
"""

from __future__ import annotations

import time

from powercrit import PowerGraph, make_symmetric, noncyclic_overgroup_witnesses
from powercrit.criticality import classify_class


def main() -> None:
    s11 = make_symmetric(11)
    graph = PowerGraph(s11)
    sigma = s11.parse_element("(1 2 3)(4 5 6 7 8)")
    print(f"group {s11.descriptor}, order {s11.order}")
    print(f"sigma = {s11.element_label(sigma)}, order {s11.element_order(sigma)}")

    t0 = time.perf_counter()
    nb = graph.closed_neighborhood(sigma)
    print(f"|N[sigma]| = {len(nb)}  ({time.perf_counter() - t0:.1f}s)")

    over = graph.strict_overgroups(sigma)
    print(f"strict overgroup generators: {len(over)} -> sigma is {'non-' if over else ''}maximal")

    t0 = time.perf_counter()
    cls = graph.element_n_class(sigma)
    rec = classify_class(graph, cls)
    print(
        f"twin class size {rec.size}, kind {rec.kind}, critical {rec.is_critical}, "
        f"closure size {rec.closure_size}  ({time.perf_counter() - t0:.1f}s)"
    )

    y, z = noncyclic_overgroup_witnesses(graph, sigma)
    print(f"witnesses with non-cyclic join: y = {s11.element_label(y)}, z = {s11.element_label(z)}")
    print(f"enhanced-adjacent(y, z) = {graph.enhanced_adjacent(y, z)}")


if __name__ == "__main__":
    main()
