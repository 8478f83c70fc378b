"""Covering sequences: validation, brute-force search, and construction.

A covering sequence for a connected pattern is a radius budget
(r1, ..., r_tau) such that some ordering of the pattern's nodes can be
peeled off one by one while each peeled node stays within distance r_i of
everything not yet peeled, measured inside the still-remaining induced
subgraph.  These budgets drive the recursion depth and reach of the
pooling encoder.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import (
    INFINITY,
    Graph,
    UnsupportedSizeError,
    bfs_layers,
    bits_of,
    component_mask,
    is_connected,
    layer_sizes,
)

ADMITS_MAX_NODES = 16


def covering_distance(
    g: Graph, v: int, members: Iterable[int]
) -> int | float:
    """Max shortest-path distance from v to ``members``, inside the induced subgraph.

    Returns INFINITY when the induced subgraph does not connect v to all of
    ``members``.  Requires v to be a member itself.
    """
    if not 0 <= v < g.node_count:
        raise ValueError(f"node {v} out of range")
    mask = 0
    for u in members:
        if not 0 <= u < g.node_count:
            raise ValueError(f"node {u} out of range")
        mask |= 1 << u
    if not (mask >> v) & 1:
        raise ValueError(f"node {v} is not in the member set")
    layers = bfs_layers(g.adjacency, mask, v)
    return len(layers) - 1 if sum(layers) == mask else INFINITY


def _covers(adjacency: tuple[int, ...], mask: int, v: int, radius: int) -> bool:
    # True iff every node of ``mask`` lies within ``radius`` of v inside mask.
    return sum(bfs_layers(adjacency, mask, v, radius)) == mask


def is_vertex_covering_sequence(
    h: Graph, order: Sequence[int], radii: Sequence[int]
) -> bool:
    """Check the peeling condition for ``order`` against the budget ``radii``."""
    k = h.node_count
    if len(order) != k or sorted(order) != list(range(k)):
        raise ValueError("order must be a permutation of the pattern's nodes")
    expected = max(k - 1, 0)  # a 0-node pattern takes the empty budget
    if len(radii) != expected:
        raise ValueError(f"radius budget has length {len(radii)}, expected {expected}")
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    mask = (1 << k) - 1
    for v, r in zip(order[:-1], radii):
        if not _covers(h.adjacency, mask, v, r):
            return False
        mask &= ~(1 << v)
    # the final singleton step is vacuous: distance 0
    return True


def admits(h: Graph, radii: Sequence[int]) -> tuple[int, ...] | None:
    """Witness ordering satisfying ``radii``, or None if there is none.

    Exhaustive search with memoization over remaining-node subsets.  When
    ``radii`` is longer than node_count - 1 (a budget padded with trailing
    zeros for a mixed-size pattern family), only the prefix that the pattern
    can consume is checked.
    """
    if not is_connected(h):
        raise ValueError("pattern must be connected")
    k = h.node_count
    if k > ADMITS_MAX_NODES:
        raise UnsupportedSizeError(
            f"admits supports at most {ADMITS_MAX_NODES} nodes, got {k}"
        )
    if len(radii) < k - 1:
        raise ValueError(
            f"radius budget has length {len(radii)}, expected at least {k - 1}"
        )
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    budget = tuple(radii[: k - 1])
    adjacency = h.adjacency
    memo: dict[int, tuple[int, ...] | None] = {}

    def search(mask: int) -> tuple[int, ...] | None:
        if mask & (mask - 1) == 0:  # one node, or none in a 0-node pattern
            return (mask.bit_length() - 1,) if mask else ()
        if mask in memo:
            return memo[mask]
        step = k - mask.bit_count()
        result = None
        for v in bits_of(mask):
            if _covers(adjacency, mask, v, budget[step]):
                tail = search(mask & ~(1 << v))
                if tail is not None:
                    result = (v,) + tail
                    break
        memo[mask] = result
        return result

    return search((1 << k) - 1)


def default_covering_sequence(k: int) -> tuple[int, ...]:
    """The budget (k-1, k-2, ..., 1) that every connected k-node graph admits."""
    if k < 2:
        raise ValueError("pattern must have at least 2 nodes")
    return tuple(range(k - 1, 0, -1))


def min_r1_covering_sequence(h: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Covering sequence with the smallest feasible first radius.

    The first node must leave the rest connected, so it is the non-cut
    node with the least (eccentricity, index), and its radius is its
    eccentricity.  The rest is then connected, and a union-find over its
    edges in (u, v) order spans it with a tree whose leaves are peeled
    least (in-tree eccentricity, index) first.  Tree distances upper-bound
    distances in the induced subgraphs, so the output always validates.
    """
    n = h.node_count
    if n < 2:
        raise ValueError("pattern must have at least 2 nodes")
    if not is_connected(h):
        raise ValueError("pattern must be connected")
    adjacency = h.adjacency
    full = (1 << n) - 1

    def non_cut(u: int) -> bool:
        rest = full & ~(1 << u)
        return component_mask(adjacency, rest, (u + 1) % n) == rest

    steps = [min(
        (len(sizes) - 1, v) for v, sizes in enumerate(layer_sizes(adjacency)) if non_cut(v)
    )]
    first = steps[0][1]
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    tree = [0] * n
    for u, v in h.edges():
        if first in (u, v):
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            tree[u] |= 1 << v
            tree[v] |= 1 << u
    mask = full & ~(1 << first)
    while mask & (mask - 1):
        steps.append(min(
            (len(bfs_layers(tree, mask, v)) - 1, v)
            for v in bits_of(mask)
            if (tree[v] & mask).bit_count() == 1
        ))
        mask &= ~(1 << steps[-1][1])
    radii, order = zip(*steps)
    return radii, order + (mask.bit_length() - 1,)


def family_covering_sequence(patterns: Sequence[Graph]) -> tuple[int, ...]:
    """Coordinate-wise max of per-pattern sequences, padded with trailing zeros.

    Every pattern in the family admits the result: padding adds radius-0
    levels (no-ops in the encoder) and raising radii coordinate-wise never
    invalidates a witness ordering.
    """
    if not patterns:
        raise ValueError("pattern family must be nonempty")
    # Patterns of fewer than two nodes admit every budget, so add no radii.
    sequences = [min_r1_covering_sequence(p)[0] for p in patterns if p.node_count > 1]
    if not sequences:
        raise ValueError("pattern family needs a pattern with at least 2 nodes")
    length = max(map(len, sequences))
    return tuple(
        max((s[i] if i < len(s) else 0) for s in sequences) for i in range(length)
    )
