"""Exact subgraph counting: brute-force oracles and a census for batches.

The oracles are the ground truth the encoder is checked against, so
they favour exactness and independence over speed: induced counts come
from explicit vertex-subset enumeration, non-induced counts from an
injective-homomorphism count divided by the pattern's automorphism
count.  One backtracking matcher, ``graphs._embeddings``, tests each
subset for isomorphism and counts both the homomorphisms and the
automorphisms.  ``PatternCensus`` counts a fixed list of patterns in
many hosts from one connected-subset enumeration per host, for all
pattern sizes at once, weighing each labelled subgraph it finds with the
same matcher.  It serves both ``rnpkit count`` and ``rnpkit experiment``;
the oracles are its fallback for the patterns it does not enumerate and
the tests' reference for it.  Attribute matching is exact equality
throughout.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .graphs import (
    Graph,
    UnsupportedSizeError,
    _embeddings,
    _induced_rows,
    bits_of,
    is_connected,
)

MAX_PATTERN_NODES = 8
MAX_HOST_NODES = 64
MAX_HISTOGRAM_PATTERN_NODES = 5
_ID_SHIFT = MAX_HISTOGRAM_PATTERN_NODES * (MAX_HISTOGRAM_PATTERN_NODES - 1) // 2


def _check_pattern_size(h: Graph) -> None:
    if h.node_count > MAX_PATTERN_NODES:
        raise UnsupportedSizeError(
            f"pattern has {h.node_count} nodes, limit is {MAX_PATTERN_NODES}"
        )


def _check_host_size(g: Graph) -> None:
    if g.node_count > MAX_HOST_NODES:
        raise UnsupportedSizeError(
            f"host has {g.node_count} nodes, limit is {MAX_HOST_NODES}"
        )


def _check_sizes(g: Graph, h: Graph) -> None:
    _check_pattern_size(h)
    _check_host_size(g)


def count_induced(g: Graph, h: Graph) -> int:
    """Number of vertex subsets of g whose induced subgraph is isomorphic to h."""
    _check_sizes(g, h)
    k = h.node_count
    if k > g.node_count:
        return 0
    if k == 0:
        return 1
    h_edges = h.edge_count
    h_degrees = sorted(row.bit_count() for row in h.adjacency)
    h_attrs = sorted(h.attributes)
    count = 0
    for subset in combinations(range(g.node_count), k):
        if sorted(g.attributes[v] for v in subset) != h_attrs:
            continue
        rows = _induced_rows(g, subset)
        if sum(r.bit_count() for r in rows) != 2 * h_edges:
            continue
        if sorted(r.bit_count() for r in rows) != h_degrees:
            continue
        attrs = tuple(g.attributes[v] for v in subset)
        if _embeddings(h.adjacency, h.attributes, rows, attrs, True, first=True):
            count += 1
    return count


def automorphism_count(h: Graph) -> int:
    """Number of attribute- and adjacency-preserving self-bijections of h."""
    _check_pattern_size(h)
    return _embeddings(h.adjacency, h.attributes, h.adjacency, h.attributes, True)


def count_noninduced(g: Graph, h: Graph) -> int:
    """Number of (vertex set, edge set) subgraphs of g isomorphic to h."""
    _check_sizes(g, h)
    if h.node_count > g.node_count:
        return 0
    if h.node_count == 0:
        return 1
    embeddings = _embeddings(h.adjacency, h.attributes, g.adjacency, g.attributes, False)
    return embeddings // automorphism_count(h)


def _connected_census(
    g: Graph, sizes: Iterable[int], ids: Sequence[int], width: int
) -> dict[int, dict[int, int]]:
    """Tallies, one per size in ``sizes`` (1 to MAX_HISTOGRAM_PATTERN_NODES),
    of g's connected induced subgraphs, keyed by one int that packs the
    labelled subgraph with its nodes in the order ESU adds them.  The
    back-mask of position i holds the earlier positions adjacent to it and
    sits at bit i(i-1)/2, below _ID_SHIFT; its node v's id ``ids[v]``, of
    ``width`` bits, sits at bit _ID_SHIFT + i * width.

    ESU (Wernicke 2006, "Efficient detection of network motifs") reaches
    each connected subset exactly once: a subset grows from its smallest
    node, and each added node brings in only its neighbours above that
    node which are not yet in or next to the subset.  The tree does not
    depend on the sizes, so each size is tallied at its own depth of one
    enumeration.  The key grows with the subset, one back-mask and id per node.
    """
    adjacency = g.adjacency
    tallies: dict[int, dict[int, int]] = {k: {} for k in sizes}
    deepest = max(tallies, default=0)
    position = [0] * g.node_count  # a subset node -> its bit in the back-masks
    # labels[i][v]: v's id, shifted to position i
    labels = [[x << _ID_SHIFT + i * width for x in ids] for i in range(deepest)]

    def extend(extension: int, closed: int, above: int, members: int,
               key: int, i: int) -> None:
        # closed: the subset and all its neighbours; i: the position of
        # each node added here
        tally = tallies.get(i + 1)
        last = i + 1 == deepest
        bit = 1 << i
        offset = i * (i - 1) // 2
        label = labels[i]
        while extension:
            low = extension & -extension
            extension ^= low
            w = low.bit_length() - 1
            adj_w = adjacency[w]
            # w's back-mask; bits_of inlined, as a call per added node
            # made the census about 20% slower on 14-node hosts
            mask = 0
            adjacent = adj_w & members
            while adjacent:
                low_u = adjacent & -adjacent
                mask |= position[low_u.bit_length() - 1]
                adjacent ^= low_u
            grown = key | mask << offset | label[w]
            if tally is not None:
                tally[grown] = tally.get(grown, 0) + 1
            if not last:
                position[w] = bit
                extend(extension | (adj_w & ~closed & above), closed | adj_w, above,
                       members | low, grown, i + 1)

    for v in range(g.node_count):
        if 1 in tallies:
            tallies[1][labels[0][v]] = tallies[1].get(labels[0][v], 0) + 1
        if deepest > 1:
            position[v] = 1
            above = -1 << (v + 1)
            extend(adjacency[v] & above, adjacency[v] | 1 << v, above, 1 << v, labels[0][v], 1)
    return tallies


def _key_rows(back: int, size: int) -> tuple[int, ...]:
    """Adjacency rows of the labelled graph on ``size`` nodes whose packed
    back-masks are ``back``."""
    rows = [0] * size
    for j in range(1, size):
        mask = rows[j] = (back >> j * (j - 1) // 2) & ((1 << j) - 1)
        for i in bits_of(mask):
            rows[i] |= 1 << j
    return tuple(rows)


class PatternCensus:
    """Counts of a fixed list of patterns in many hosts, in one mode.

    A connected pattern h of 1 to MAX_HISTOGRAM_PATTERN_NODES nodes can
    only match a connected vertex subset of its own size, so one ESU
    census per host, tallying each size at its own depth, serves every
    pattern.  h's count is the sum over the census's labelled subgraphs K
    of tally[K] * term(K, h), h's maps onto K (induced or not, as the
    mode) over its automorphism count: 1 or 0 as K is or is not
    isomorphic to h when induced, h's non-induced count in K otherwise.
    Attributes get ids in order of first appearance, of (ids - 1).bit_length()
    bits in a host's keys.  Terms are kept for the life of the object, per K
    under its key in a table per (size, id width), so no key names two
    subgraphs; the size cap bounds them (at most 1, 1, 4, 38 and 728
    labelled connected graphs on 1 to 5 nodes for an unattributed host).
    Other patterns go to the oracles.
    """

    def __init__(self, patterns: Sequence[Graph], mode: str = "induced"):
        if mode not in ("induced", "noninduced"):
            raise ValueError("mode must be 'induced' or 'noninduced'")
        for h in patterns:
            _check_pattern_size(h)
        self._patterns = tuple(patterns)
        self._induced = mode == "induced"
        self._oracle_count = count_induced if self._induced else count_noninduced
        # pattern size -> indices of the patterns the census counts
        self._by_size: dict[int, list[int]] = {}
        self._automorphisms: dict[int, int] = {}
        self._oracle: list[int] = []
        for i, h in enumerate(self._patterns):
            if 1 <= h.node_count <= MAX_HISTOGRAM_PATTERN_NODES and is_connected(h):
                self._by_size.setdefault(h.node_count, []).append(i)
                self._automorphisms[i] = automorphism_count(h)
            else:
                self._oracle.append(i)
        self._ids: dict[int, int] = {}  # attribute -> id
        # (size, id width) -> census key -> one term per pattern of its size
        self._terms: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}

    def counts(self, g: Graph) -> tuple[int, ...]:
        """One count per pattern, equal to count_induced / count_noninduced."""
        if self._patterns:
            _check_host_size(g)
        counts = [0] * len(self._patterns)
        width, tallies = self._census(g)
        for size, tally in tallies.items():
            members = self._by_size[size]
            known = self._terms.setdefault((size, width), {})
            for key, seen in tally.items():
                terms = known.get(key)
                if terms is None:
                    subgraph = self._decode(key, size, width)
                    terms = known[key] = tuple(self._term(i, subgraph) for i in members)
                for i, term in zip(members, terms):
                    counts[i] += seen * term
        for i in self._oracle:
            counts[i] = self._oracle_count(g, self._patterns[i])
        return tuple(counts)

    def _census(self, g: Graph) -> tuple[int, dict[int, dict[int, int]]]:
        """The id width of g's keys, and g's tallies per pattern size."""
        labels = [self._ids.setdefault(x, len(self._ids)) for x in g.attributes]
        width = (len(self._ids) - 1).bit_length()
        return width, _connected_census(g, self._by_size, labels, width)

    def _decode(self, key: int, size: int, width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The adjacency rows and attributes of the labelled subgraph ``key`` names."""
        values, ids = list(self._ids), key >> _ID_SHIFT
        return _key_rows(key, size), tuple(
            values[ids >> i * width & (1 << width) - 1] for i in range(size))

    def _term(self, i: int, subgraph: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        h = self._patterns[i]
        embeddings = _embeddings(h.adjacency, h.attributes, *subgraph, self._induced)
        return embeddings // self._automorphisms[i]
