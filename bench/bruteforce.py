"""Independent subgraph counts for spot-checking `rnpkit experiment` output.

This module shares no code with rnpkit: graphs are plain edge lists, and
every count comes from trying each vertex subset in each of its orders.
That is slow, but plainly right for the 3- and 4-node patterns the
benchmark uses.
"""

from __future__ import annotations

from itertools import combinations, permutations


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the `<n> <m>` header and m `<u> <v>` lines of a pattern file."""
    lines = [line.split() for line in text.splitlines()]
    lines = [tokens for tokens in lines if tokens and not tokens[0].startswith("#")]
    n, m = (int(x) for x in lines[0])
    edges = [(int(u), int(v)) for u, v in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"expected {m} edges, found {len(edges)}")
    return n, edges


def _order_masks(adj: list[set[int]], nodes: tuple[int, ...]) -> list[int]:
    # One bitmask per ordering of `nodes`: bit i is set when the i-th pair
    # of positions is joined by an edge.
    pairs = list(combinations(range(len(nodes)), 2))
    masks = []
    for order in permutations(nodes):
        mask = 0
        for i, (a, b) in enumerate(pairs):
            if order[b] in adj[order[a]]:
                mask |= 1 << i
        masks.append(mask)
    return masks


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def subgraph_counts(
    n: int, edges: list[tuple[int, int]], patterns: list[tuple[int, list[tuple[int, int]]]]
) -> list[tuple[int, int]]:
    """(induced, non-induced) count of each pattern in the host graph.

    Induced: subsets whose induced graph equals the pattern in some order.
    Non-induced: orders that carry every pattern edge onto a host edge,
    summed over subsets and divided by the pattern's automorphisms.
    """
    adj = _adjacency(n, edges)
    own = []
    automorphisms = []
    for k, pattern_edges in patterns:
        masks = _order_masks(_adjacency(k, pattern_edges), tuple(range(k)))
        own.append(masks[0])
        automorphisms.append(masks.count(masks[0]))
    induced = [0] * len(patterns)
    embeddings = [0] * len(patterns)
    for k in {k for k, _ in patterns}:
        for subset in combinations(range(n), k):
            masks = _order_masks(adj, subset)
            for j, (size, _) in enumerate(patterns):
                if size == k:
                    induced[j] += own[j] in masks
                    embeddings[j] += sum(1 for mask in masks if own[j] & ~mask == 0)
    return [(induced[j], embeddings[j] // automorphisms[j]) for j in range(len(patterns))]


_REFERENCE_HOST = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6),
                   (5, 6), (5, 7), (6, 7), (0, 7), (2, 5)]
_REFERENCE_PATTERNS = [(3, [(0, 1), (0, 2), (1, 2)]), (4, [(0, 1), (1, 2), (2, 3), (0, 3)])]


def reference_job() -> None:
    """A fixed pure-Python job of a few milliseconds: two patterns in one 8-node graph.

    Its code never changes with rnpkit, so its time measures how fast the
    host runs Python at the moment it runs.
    """
    subgraph_counts(8, _REFERENCE_HOST, _REFERENCE_PATTERNS)
