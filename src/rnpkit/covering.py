"""Covering sequences: validation, brute-force search, and construction.

A covering sequence for a connected pattern is a radius budget
(r1, ..., r_tau) such that some ordering of the pattern's nodes can be
peeled off one by one while each peeled node stays within distance r_i of
everything not yet peeled, measured inside the still-remaining induced
subgraph.  These budgets drive the recursion depth and reach of the
pooling encoder.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .graphs import (
    INFINITY,
    Graph,
    UnsupportedSizeError,
    all_pairs_shortest_paths,
    bfs_layers,
    bits_of,
    is_connected,
)

ADMITS_MAX_NODES = 16


def covering_distance(
    g: Graph, v: int, members: Iterable[int]
) -> int | float:
    """Max shortest-path distance from v to ``members``, inside the induced subgraph.

    Returns INFINITY when the induced subgraph does not connect v to all of
    ``members``.  Requires v to be a member itself.
    """
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
    return sum(bfs_layers(adjacency, mask, v)[: radius + 1]) == mask


def is_vertex_covering_sequence(
    h: Graph, order: Sequence[int], radii: Sequence[int]
) -> bool:
    """Check the peeling condition for ``order`` against the budget ``radii``."""
    k = h.node_count
    if len(order) != k or sorted(order) != list(range(k)):
        raise ValueError("order must be a permutation of the pattern's nodes")
    if len(radii) != k - 1:
        raise ValueError(
            f"radius budget has length {len(radii)}, expected {k - 1}"
        )
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
        if mask & (mask - 1) == 0:
            return (mask.bit_length() - 1,)
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


def minimum_spanning_tree(
    h: Graph, weight: Callable[[int, int], int]
) -> tuple[tuple[int, int], ...]:
    """Kruskal MST with deterministic ties: edges sorted by (weight, u, v)."""
    n = h.node_count
    edges = sorted(h.edges(), key=lambda e: (weight(e[0], e[1]), e[0], e[1]))
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
            if len(tree) == n - 1:
                break
    if len(tree) != max(0, n - 1):
        raise ValueError("graph is not connected")
    return tuple(tree)


def _tree_eccentricities(tree_adj: dict[int, set[int]]) -> dict[int, int]:
    rows = [sum(1 << w for w in tree_adj.get(u, ())) for u in range(max(tree_adj) + 1)]
    within = sum(1 << v for v in tree_adj)
    return {v: len(bfs_layers(tuple(rows), within, v)) - 1 for v in tree_adj}


def min_r1_covering_sequence(h: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Covering sequence with the smallest feasible first radius.

    Picks as the first node a minimum-eccentricity node that can be a leaf
    of a spanning tree (forced by weighting its incident edges heavily in
    an MST), then peels leaves off the remaining tree, recording each
    leaf's in-tree eccentricity.  Tree distances upper-bound distances in
    the induced subgraphs, so the output always validates.
    """
    n = h.node_count
    if n < 2:
        raise ValueError("pattern must have at least 2 nodes")
    if not is_connected(h):
        raise ValueError("pattern must be connected")
    dist = all_pairs_shortest_paths(h)
    ecc = [int(max(row)) for row in dist]
    tau = n - 1
    first = None
    tree: tuple[tuple[int, int], ...] = ()
    for u in sorted(range(n), key=lambda v: (ecc[v], v)):
        tree = minimum_spanning_tree(
            h, lambda a, b: 1 + tau * ((a == u) or (b == u))
        )
        if sum(1 for e in tree if u in e) == 1:
            first = u
            break
    # a connected graph always has a node that some spanning tree keeps as
    # a leaf (any non-cut node), so the loop cannot fall through
    assert first is not None
    radii = [ecc[first]]
    order = [first]
    tree_adj: dict[int, set[int]] = {v: set() for v in range(n) if v != first}
    for u, v in tree:
        if first in (u, v):
            continue
        tree_adj[u].add(v)
        tree_adj[v].add(u)
    while len(tree_adj) > 1:
        tree_ecc = _tree_eccentricities(tree_adj)
        leaf = min(
            (v for v in tree_adj if len(tree_adj[v]) <= 1),
            key=lambda v: (tree_ecc[v], v),
        )
        radii.append(tree_ecc[leaf])
        order.append(leaf)
        for w in tree_adj.pop(leaf):
            tree_adj[w].discard(leaf)
    order.append(next(iter(tree_adj)))
    return tuple(radii), tuple(order)


def family_covering_sequence(patterns: Sequence[Graph]) -> tuple[int, ...]:
    """Coordinate-wise max of per-pattern sequences, padded with trailing zeros.

    Every pattern in the family admits the result: padding adds radius-0
    levels (no-ops in the encoder) and raising radii coordinate-wise never
    invalidates a witness ordering.
    """
    if not patterns:
        raise ValueError("pattern family must be nonempty")
    sequences = []
    for p in patterns:
        if p.node_count == 1:
            sequences.append(())
        else:
            sequences.append(min_r1_covering_sequence(p)[0])
    length = max(len(s) for s in sequences)
    if not length:
        raise ValueError("pattern family needs a pattern with at least 2 nodes")
    return tuple(
        max((s[i] if i < len(s) else 0) for s in sequences) for i in range(length)
    )
