"""Brute-force oracles shared across the test suite.

Everything here recomputes graph facts straight from the definitions by
enumerating powers with repeated multiplication, independently of the
production shortcuts (order divisibility, bitset rows, generator lifts).
"""

from __future__ import annotations

from powercrit import CyclicSubgroup, Group


def brute_powers(group: Group, x: int) -> list[int]:
    out = [group.identity]
    y = x
    while y != group.identity:
        out.append(y)
        y = group.mul(y, x)
    return out


def brute_adjacent_or_equal(group: Group, x: int, y: int) -> bool:
    return x == y or x in brute_powers(group, y) or y in brute_powers(group, x)


def brute_closed_neighborhood(group: Group, x: int) -> frozenset[int]:
    return frozenset(y for y in range(group.order) if brute_adjacent_or_equal(group, x, y))


def brute_twin_class(group: Group, x: int) -> frozenset[int]:
    nx = brute_closed_neighborhood(group, x)
    return frozenset(
        y for y in range(group.order) if brute_closed_neighborhood(group, y) == nx
    )


def brute_edge_count(group: Group) -> int:
    n = group.order
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if brute_adjacent_or_equal(group, i, j)
    )


def brute_rows(group: Group) -> list[int]:
    """Closed-neighbourhood bitmasks built element by element: every power
    x of every y puts x in row y and y in row x."""
    n = group.order
    rows = [0] * n
    for y in range(n):
        bit_y = 1 << y
        mask = 0
        for x in brute_powers(group, y):
            mask |= 1 << x
            rows[x] |= bit_y
        rows[y] |= mask
    return rows


def _brute_subgroups(group: Group) -> dict[frozenset[int], list[int]]:
    # member set -> generators, both in index order
    subs: dict[frozenset[int], list[int]] = {}
    for g in range(group.order):
        subs.setdefault(frozenset(brute_powers(group, g)), []).append(g)
    return subs


def brute_diamond_classes(group: Group) -> tuple[frozenset[int], ...]:
    """Same-generator classes, bucketed by member set, in least-member order."""
    return tuple(frozenset(gens) for gens in _brute_subgroups(group).values())


def brute_maximal_cyclic_subgroups(group: Group) -> list[CyclicSubgroup]:
    """The O(k^2) scan: keep each cyclic subgroup no larger one contains."""
    subs = _brute_subgroups(group)
    by_size = sorted(subs, key=len, reverse=True)
    maximal = [
        CyclicSubgroup(generator=subs[m][0], order=len(m), members=m)
        for m in by_size
        if not any(m < t for t in by_size if len(t) > len(m))
    ]
    maximal.sort(key=lambda s: (-s.order, s.generator))
    return maximal


def brute_cyclic_partition(group: Group):
    """(components, None) or (None, (first, second, least shared element)),
    from the pairwise scan over the brute-force maximal cyclic subgroups."""
    maxes = brute_maximal_cyclic_subgroups(group)
    for i in range(len(maxes)):
        for j in range(i + 1, len(maxes)):
            shared = (maxes[i].members & maxes[j].members) - {group.identity}
            if shared:
                return None, (maxes[i], maxes[j], min(shared))
    return tuple(maxes), None
