"""1-WL color refinement, the message-passing expressiveness baseline."""

from __future__ import annotations

import hashlib

from .graphs import Graph, bits_of


def _initial_colors(g: Graph) -> list[bytes]:
    return [
        hashlib.sha256(b"wl0:%d" % a).digest() for a in g.attributes
    ]


def _neighbor_lists(g: Graph) -> list[list[int]]:
    return [list(bits_of(row)) for row in g.adjacency]


def _refine_once(neighbors: list[list[int]], colors: list[bytes]) -> list[bytes]:
    sha256 = hashlib.sha256
    return [
        sha256(b"wl:" + colors[v] + b"|" + b"".join(sorted([colors[u] for u in nbrs]))).digest()
        for v, nbrs in enumerate(neighbors)
    ]


def _partition(colors: list[bytes]) -> tuple[int, ...]:
    # class index per node, numbered by first appearance
    seen: dict[bytes, int] = {}
    return tuple(seen.setdefault(c, len(seen)) for c in colors)


def wl_refine(g: Graph) -> dict[str, int]:
    """Stable color histogram with canonical, cross-graph comparable ids.

    Colors are digests of their full derivation, so two nodes (in any two
    graphs) get the same id iff their refinement trees agree to the same
    depth.  Refinement runs for 2n rounds: the partition itself stabilizes
    within n rounds, but the extra rounds keep histograms of two n-node
    graphs comparable even when their partitions freeze at different times.
    """
    colors = _initial_colors(g)
    neighbors = _neighbor_lists(g)
    for _ in range(2 * g.node_count):
        colors = _refine_once(neighbors, colors)
    histogram: dict[str, int] = {}
    for c in colors:
        key = c.hex()
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def wl_stabilization_rounds(g: Graph) -> int:
    """Rounds until the induced partition stops refining (at most n)."""
    if g.node_count == 0:
        return 0
    colors = _initial_colors(g)
    neighbors = _neighbor_lists(g)
    part = _partition(colors)
    rounds = 0
    while True:
        colors = _refine_once(neighbors, colors)
        rounds += 1
        new_part = _partition(colors)
        if new_part == part:
            return rounds
        part = new_part


def wl_distinguish(g1: Graph, g2: Graph) -> bool:
    """True iff 1-WL refinement separates the two graphs."""
    return wl_refine(g1) != wl_refine(g2)
