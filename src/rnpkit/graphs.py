"""Attributed simple undirected graphs and exact small-graph machinery.

Adjacency is stored as one integer bitmask per node, which keeps
neighbourhood expansion, induced subgraphs and isomorphism backtracking
fast at the desk scale this package targets.  Graphs of any size are
accepted, and `gen`, `encode`, `wl` and pattern-free experiments run on
hosts wider than 64 nodes; only subgraph counting caps its hosts, at
``counting.MAX_HOST_NODES`` = 64 nodes.  Graph values are immutable and
hashable; every function in this module is pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable, Sequence

INFINITY = math.inf


class ParseError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedSizeError(ValueError):
    """Input exceeds the size limit of an exact small-graph routine."""


def _byte_table(offset: int) -> tuple[tuple[int, ...], ...]:
    # byte value -> the positions of its set bits at byte ``offset`` of a mask;
    # the bytes with a bit set are those without it, each extended by its position.
    table: list[tuple[int, ...]] = [()]
    for position in range(8 * offset, 8 * offset + 8):
        table += [bits + (position,) for bits in table]
    return tuple(table)


# One table per byte offset of a 64-bit mask: every node set of a counting
# host (at most 64 nodes) is looked up a byte at a time.
_BYTE_TABLES = tuple(_byte_table(offset) for offset in range(8))


def bits_of(mask: int) -> list[int]:
    """The set bit positions of ``mask`` (nonnegative, any width), ascending."""
    positions: list[int] = []
    if mask.bit_length() > 64:
        # Wider than the tables, and often sparse: one step per set bit.
        while mask:
            low = mask & -mask
            positions.append(low.bit_length() - 1)
            mask ^= low
        return positions
    offset = 0
    while mask:
        byte = mask & 255
        if byte:
            positions += _BYTE_TABLES[offset][byte]
        mask >>= 8
        offset += 1
    return positions


def component_mask(adjacency: tuple[int, ...], within: int, v: int) -> int:
    """Connected component of ``v`` inside the node set ``within``."""
    return sum(bfs_layers(adjacency, within, v))


class Graph:
    """Simple undirected graph with one nonnegative integer attribute per node.

    An immutable value: equal and equally hashed when its three fields are
    equal.  A plain class, not a dataclass: importing ``dataclasses`` also
    imports ``inspect``, ``ast``, ``dis`` and ``tokenize``, which every
    command would pay for at start-up.
    """

    __slots__ = ("node_count", "adjacency", "attributes")

    node_count: int
    adjacency: tuple[int, ...]
    attributes: tuple[int, ...]

    def __init__(self, node_count: int, adjacency: Iterable[int],
                 attributes: Iterable[int]):
        set_field = object.__setattr__
        set_field(self, "node_count", node_count)
        set_field(self, "adjacency", adjacency := tuple(adjacency))
        set_field(self, "attributes", attributes := tuple(attributes))
        n = node_count
        if n < 0:
            raise ValueError("node_count must be nonnegative")
        if len(adjacency) != n:
            raise ValueError("adjacency must have one row per node")
        if len(attributes) != n:
            raise ValueError("attributes must have one entry per node")
        full = (1 << n) - 1
        for v, row in enumerate(adjacency):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references nodes out of range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at node {v}")
            for u in bits_of(row):
                if not (adjacency[u] >> v) & 1:
                    raise ValueError(f"asymmetric edge ({v}, {u})")
        for v, x in enumerate(attributes):
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"attribute at node {v} must be a nonnegative integer")

    def _key(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        return self.node_count, self.adjacency, self.attributes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Graph(node_count={self.node_count!r}, adjacency={self.adjacency!r}, "
                f"attributes={self.attributes!r})")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Graph, self._key()

    @staticmethod
    def from_edges(
        node_count: int,
        edges: Iterable[tuple[int, int]] = (),
        attributes: Iterable[int] | None = None,
    ) -> "Graph":
        rows = [0] * node_count
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        attrs = tuple(attributes) if attributes is not None else (0,) * node_count
        return Graph(node_count, tuple(rows), attrs)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return bits_of(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.node_count)
            for v in bits_of(self.adjacency[u])
            if u < v
        ]


def permuted(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel ``g`` so that old node ``v`` becomes ``perm[v]``."""
    p = list(perm)
    if sorted(p) != list(range(g.node_count)):
        raise ValueError("perm must be a permutation of the node indices")
    rows = [0] * g.node_count
    attrs = [0] * g.node_count
    for v in range(g.node_count):
        attrs[p[v]] = g.attributes[v]
        for u in bits_of(g.adjacency[v]):
            rows[p[v]] |= 1 << p[u]
    return Graph(g.node_count, tuple(rows), tuple(attrs))


def _induced_rows(g: Graph, nodes: Sequence[int]) -> tuple[int, ...]:
    # Adjacency rows of the subgraph induced on ``nodes``; row i is nodes[i].
    rows = []
    for u in nodes:
        row = 0
        adj_u = g.adjacency[u]
        for j, v in enumerate(nodes):
            row |= ((adj_u >> v) & 1) << j
        rows.append(row)
    return tuple(rows)


def bfs_layers(
    adjacency: Sequence[int], within: int, v: int, radius: int | None = None
) -> list[int]:
    """Masks of the nodes at distance 0, 1, 2, ... from ``v`` inside ``within``.

    With ``radius``, only the layers at distance at most ``radius``.
    """
    layers = [1 << v]
    seen = frontier = 1 << v
    while radius is None or len(layers) <= radius:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(frontier)
    return layers


def layer_sizes(
    adjacency: Sequence[int], radius: int | None = None
) -> list[tuple[int, ...]]:
    """Every node's BFS layer sizes: entry v counts the nodes at distance
    0, 1, 2, ... from v, as ``bfs_layers`` over the whole graph gives them.

    With ``radius``, only the layers at distance at most ``radius``.  All
    balls grow together, one round per radius: ball_{k+1}(v) is ball_k(v)
    joined with ball_k(u) of every neighbour u, so a sweep costs about
    sum_v deg(v) * ecc(v) mask ORs instead of one BFS per node.  A ball
    that stops growing is its node's component and stays as it is.
    """
    n = len(adjacency)
    if radius == 0:
        return [(1,)] * n
    # Round 1 takes no ORs: ball_1(v) is v and its neighbours.
    neighbours, balls, counts, sizes, growing = [], [], [], [], []
    for v, row in enumerate(adjacency):
        near = bits_of(row)
        neighbours.append(near)
        balls.append(row | 1 << v)
        counts.append(len(near) + 1)  # ball sizes
        sizes.append((1, len(near)) if near else (1,))
        if 0 < len(near) < n - 1:  # the balls that can grow
            growing.append(v)
    rounds = n if radius is None else radius - 1  # an eccentricity is below n
    while growing and rounds:
        rounds -= 1
        grown = balls.copy()  # ball_{k+1}, read from ball_k alone
        still = []
        for v in growing:
            ball = balls[v]
            for u in neighbours[v]:
                ball |= balls[u]
            count = ball.bit_count()
            if count != counts[v]:
                grown[v] = ball
                sizes[v] += (count - counts[v],)
                counts[v] = count
                if count < n:  # a ball of all n nodes cannot grow
                    still.append(v)
        balls, growing = grown, still
    return sizes


def is_connected(g: Graph) -> bool:
    if g.node_count <= 1:
        return True
    full = (1 << g.node_count) - 1
    return component_mask(g.adjacency, full, 0) == full


@lru_cache(maxsize=1 << 12)
def _search_plan(
    adj: tuple[int, ...], colors: tuple[Hashable, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[Hashable, ...]]:
    # A search order in which each node touches as many already-ordered
    # nodes as possible, so the search prunes early; on ties, a node next
    # to an ordered node of low degree comes first, since that image's
    # short row leaves few candidates and a wrong image fails before the
    # leaves of high-degree nodes are permuted.  For each search position
    # the earlier positions adjacent to it, and its colour.
    # The next node comes off a heap of (-ordered neighbours, least degree
    # of an ordered neighbour, -degree, node).  Ordering a node pushes a
    # new entry for each unordered neighbour, whose count it raises, so a
    # node's one live entry is the one with its current count.
    n = len(adj)
    degree = [row.bit_count() for row in adj]
    touched = [0] * n  # ordered neighbours
    least = [n] * n  # the least degree of a node's ordered neighbours
    position = [-1] * n
    heap = [(0, n, -d, u) for u, d in enumerate(degree)]
    heapify(heap)
    order: list[int] = []
    back: list[tuple[int, ...]] = []
    while heap:
        count, _, _, best = heappop(heap)
        if -count != touched[best]:
            continue  # stale, or its node already ordered
        earlier = []
        for v in bits_of(adj[best]):
            if position[v] >= 0:
                earlier.append(position[v])
            else:
                touched[v] += 1
                least[v] = min(least[v], degree[best])
                heappush(heap, (-touched[v], least[v], -degree[v], v))
        position[best] = len(order)
        back.append(tuple(sorted(earlier)))
        order.append(best)
    return tuple(order), tuple(back), tuple(colors[u] for u in order)


def _cell_masks(colors: Iterable[Hashable]) -> dict:
    """The mask of the nodes of each colour."""
    cells: dict = {}
    for w, color in enumerate(colors):
        cells[color] = cells.get(color, 0) | 1 << w
    return cells


def _search(back: Sequence[tuple[int, ...]], masks: Sequence[int],
            adj_t: Sequence[int], induced: bool, first: bool) -> int:
    """Maps of a planned pattern into t: search position i goes to an
    unused node of ``masks[i]`` adjacent to the images of ``back[i]`` (and,
    induced, to no other image).  Its candidates are the row of the image
    of its first earlier neighbour, or the whole mask if it has none.

    The search backtracks over a stack of each position's untried
    candidates, not over Python frames, so a pattern of any size fits.
    """
    k = len(back)
    if not k:
        return 1
    image = [0] * k  # image[i]: the node search position i is mapped to
    # Below the current position i, each position's untried candidates and
    # the images of its back, as masks.
    stack_left = [0] * k
    stack_need = [0] * k
    total = 0
    i = used = need = 0  # used: the images of the positions below i
    left = masks[0]
    while True:
        while left:
            bit = left & -left
            left ^= bit
            w = bit.bit_length() - 1
            if adj_t[w] & (used if induced else need) == need:
                break
        else:
            if not i:
                return total
            i -= 1
            left = stack_left[i]
            need = stack_need[i]
            used ^= 1 << image[i]
            continue
        if i + 1 == k:
            total += 1
            if first:
                return total
            continue
        stack_left[i] = left
        stack_need[i] = need
        image[i] = w
        used |= bit
        i += 1
        need = 0
        for x in back[i]:
            need |= 1 << image[x]
        left = masks[i] & ~used
        if need:
            left &= adj_t[image[back[i][0]]]


def _embeddings(
    adj_p: tuple[int, ...],
    colors_p: Sequence[Hashable],
    adj_t: tuple[int, ...],
    colors_t: Sequence[Hashable],
    induced: bool,
    first: bool = False,
) -> int:
    """Number of colour-preserving injective maps of p's nodes into t's.

    Induced mode counts isomorphisms (every node pair keeps its edge
    state); otherwise every p-edge lands on a t-edge (monomorphisms).
    ``first`` stops at the first map.  Colours are any hashable values.
    p is planned once per (adj_p, colours), and the plan cached; t's nodes
    are grouped into (colour, degree) cells, which a pattern node's image
    must lie in (non-induced: any cell of its colour and at least its
    degree).  Pass the recurring graph first.
    """
    keys_p = tuple(zip(colors_p, map(int.bit_count, adj_p)))  # (colour, degree)
    keys_t = list(zip(colors_t, map(int.bit_count, adj_t)))
    if induced and sorted(keys_p) != sorted(keys_t):
        return 0
    _, back, keys = _search_plan(adj_p, keys_p)
    cells = _cell_masks(keys_t)
    if induced:
        masks = [cells[key] for key in keys]
    else:
        masks = [sum(cell for (c, d), cell in cells.items() if c == color and d >= degree)
                 for color, degree in keys]
    return _search(back, masks, adj_t, induced, first)


class IsomorphismClasses:
    """An index of the attribute-preserving isomorphism classes of the
    graphs it is shown, numbered from 0 in order of first appearance.

    Each node's invariant is its attribute and BFS layer sizes (its
    distance histogram, which splits most regular graphs where 1-WL is
    blind), interned as a small int in order of first appearance.  A
    graph's sorted ids are its key; keys match only at equal n, where the
    nodes out of reach add nothing.  The key only picks a bucket of
    earlier classes: a class is found by the exact search with the ids as
    colours, in bucket order, from the class's own plan, made at its first
    test and kept out of ``_search_plan``'s cache, which then holds none of
    the index's graphs; the equal key already makes the colour-multiset check.
    """

    def __init__(self) -> None:
        self._invariant_ids: dict[tuple, int] = {}
        # key -> [[class, representative's rows, its ids, its plan or None]]
        self._buckets: dict[tuple[int, ...], list[list]] = {}
        self._size = 0

    def classify(self, g: Graph) -> tuple[int, int]:
        """``g``'s class, a new one if no earlier graph is isomorphic to it,
        and the exact tests that failed against other classes in its bucket."""
        ids = self._invariant_ids
        colors = tuple(ids.setdefault(x, len(ids))
                       for x in zip(g.attributes, layer_sizes(g.adjacency)))
        bucket = self._buckets.setdefault(tuple(sorted(colors)), [])
        if bucket:
            cells = _cell_masks(colors)
            for tests_failed, entry in enumerate(bucket):
                if entry[3] is None:
                    entry[3] = _search_plan.__wrapped__(entry[1], entry[2])[1:]
                back, keys = entry[3]
                if _search(back, [cells[x] for x in keys], g.adjacency, True, True):
                    return entry[0], tests_failed
        bucket.append([self._size, g.adjacency, colors, None])
        self._size += 1
        return self._size - 1, len(bucket) - 1


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Attribute-preserving isomorphism test: ``h`` joins ``g``'s class in a new index."""
    classes = IsomorphismClasses()
    return classes.classify(g)[0] == classes.classify(h)[0]


def _integer(token: str) -> int:
    """``token`` as an integer: an optional ``-``, then ASCII digits only."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format (see ``serialize_graph``).

    Format: header line ``<n> <m>``, then m edge lines ``<u> <v>`` with
    u < v, then optional ``attr <u> <x>`` lines.  ``#`` starts a comment.
    Of the lines that are neither blank nor comments, the first is the
    header, the next m the edges and the rest the attributes; a missing
    line is reported one past the last line.
    """
    lines = text.splitlines()
    end = len(lines) + 1
    content = [(lineno, tokens) for lineno, tokens in enumerate(map(str.split, lines), start=1)
               if tokens and not tokens[0].startswith("#")]
    if not content:
        raise ParseError(end, "missing header line")
    (lineno, tokens), body = content[0], content[1:]
    if len(tokens) != 2:
        raise ParseError(lineno, "header must be '<node count> <edge count>'")
    try:
        node_count, edge_count = _integer(tokens[0]), _integer(tokens[1])
    except ValueError:
        raise ParseError(lineno, "header values must be integers") from None
    if node_count < 0 or edge_count < 0:
        raise ParseError(lineno, "header values must be nonnegative")
    try:
        rows = [0] * node_count
    except (OverflowError, MemoryError):  # more nodes than a list holds
        raise ParseError(lineno, f"node count {node_count} is too large") from None
    for lineno, tokens in body[:edge_count]:
        if len(tokens) != 2:
            raise ParseError(lineno, "edge line must be '<u> <v>'")
        try:
            u, v = _integer(tokens[0]), _integer(tokens[1])
        except ValueError:
            raise ParseError(lineno, "edge endpoints must be integers") from None
        if u == v:
            raise ParseError(lineno, f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ParseError(lineno, f"edge ({u}, {v}) out of range")
        if u > v:
            raise ParseError(lineno, f"edge endpoints must satisfy u < v, got {u} {v}")
        if (rows[u] >> v) & 1:
            raise ParseError(lineno, f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if len(body) < edge_count:
        raise ParseError(end, f"expected {edge_count} edge lines, found {len(body)}")
    attrs = [0] * node_count
    assigned: set[int] = set()
    for lineno, tokens in body[edge_count:]:
        if tokens[0] != "attr" or len(tokens) != 3:
            raise ParseError(lineno, "expected 'attr <node> <value>'")
        try:
            u, x = _integer(tokens[1]), _integer(tokens[2])
        except ValueError:
            raise ParseError(lineno, "attribute line values must be integers") from None
        if not 0 <= u < node_count:
            raise ParseError(lineno, f"attribute node {u} out of range")
        if x < 0:
            raise ParseError(lineno, f"attribute for node {u} must be nonnegative")
        if u in assigned:
            raise ParseError(lineno, f"attribute for node {u} assigned twice")
        assigned.add(u)
        attrs[u] = x
    return Graph(node_count, tuple(rows), tuple(attrs))


def serialize_graph(g: Graph) -> str:
    """Canonical text form; ``parse_graph`` round-trips it exactly."""
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.extend(
        f"attr {v} {x}" for v, x in enumerate(g.attributes) if x != 0
    )
    return "\n".join(lines) + "\n"
