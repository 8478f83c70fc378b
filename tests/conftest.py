"""Shared test helpers: deterministic random graphs, exhaustive corpora and oracles."""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from itertools import combinations, permutations

from hypothesis import strategies as st

import rnpkit
from rnpkit import INFINITY, Graph, SplitMix64, UnsupportedSizeError, erdos_renyi
from rnpkit.counting import MAX_HISTOGRAM_PATTERN_NODES
from rnpkit.generators import _PAIRING_MAX_ATTEMPTS
from rnpkit.graphs import ParseError, _induced_rows, _integer, bfs_layers, bits_of

_SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(rnpkit.__file__)))


def cli_env(hash_seed: str) -> dict[str, str]:
    """Environment for a ``python -m rnpkit.cli`` child process.

    The absolute source directory goes first on PYTHONPATH, so the child
    imports the package under test from any working directory, whatever
    (possibly relative) PYTHONPATH the test run itself was given.
    """
    python_path = os.pathsep.join(
        part for part in (_SOURCE_DIR, os.environ.get("PYTHONPATH")) if part
    )
    return {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": python_path}


def seeded_graph(n: int, p: float, seed: int) -> Graph:
    return erdos_renyi(n, p, seed)


def reference_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """ER oracle: the definition, one ``SplitMix64.random()`` draw per
    pair in lexicographic order, the pair an edge when the draw is below p."""
    rng = SplitMix64(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def seeded_connected_graph(n: int, seed: int, p: float = 0.5) -> Graph:
    """First connected draw from a seeded stream of density-p graphs."""
    from rnpkit import is_connected

    rng = SplitMix64(seed)
    for _ in range(10_000):
        g = erdos_renyi(n, p, rng.next_u64())
        if is_connected(g):
            return g
    raise AssertionError("could not draw a connected graph")


def seeded_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    SplitMix64(seed).shuffle(perm)
    return perm


def rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph.

    Both are strongly regular with parameters (16, 6, 2, 2), so they share
    their 1-WL certificate and memo key; only the rook's graph has a K4.
    """
    cells = [(i, j) for i in range(4) for j in range(4)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    rook, shrikhande = [], []
    for (a, b), (c, d) in combinations(cells, 2):
        edge = (4 * a + b, 4 * c + d)
        if a == c or b == d:
            rook.append(edge)
        if ((c - a) % 4, (d - b) % 4) in steps:
            shrikhande.append(edge)
    return Graph.from_edges(16, rook), Graph.from_edges(16, shrikhande)


def cfi_pair(base: Graph) -> tuple[Graph, Graph]:
    """The untwisted and twisted Cai-Fuerer-Immerman graphs of ``base``
    (Cai, Fuerer & Immerman 1992).

    Each base vertex gets one middle node per even subset of its edges and
    two end nodes, 0 and 1, per incident edge; a middle node is joined to
    end 1 of the edges in its subset and to end 0 of the rest.  Across each
    base edge the two vertices' ends are joined straight (0 to 0, 1 to 1),
    except on the first edge of the twisted graph, where they cross.  For a
    connected base the two graphs are not isomorphic, and 1-WL does not
    separate them.
    """
    edges = [(u, v) for u in range(base.node_count) for v in bits_of(base.adjacency[u]) if u < v]
    ends: dict[tuple[int, int], int] = {}  # (vertex, edge index) -> its end 0; end 1 follows
    gadgets: list[tuple[int, int]] = []
    nodes = 0
    for v in range(base.node_count):
        incident = [i for i, e in enumerate(edges) if v in e]
        for i in incident:
            ends[v, i] = nodes
            nodes += 2
        for size in range(0, len(incident) + 1, 2):
            for subset in combinations(incident, size):
                gadgets += [(nodes, ends[v, i] + (i in subset)) for i in incident]
                nodes += 1
    pair = []
    for twist in (0, 1):
        across = [(ends[u, i] + b, ends[v, i] + (b ^ (twist and i == 0)))
                  for i, (u, v) in enumerate(edges) for b in (0, 1)]
        pair.append(Graph.from_edges(nodes, gadgets + across))
    return pair[0], pair[1]


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shift = a.node_count
    rows = list(a.adjacency) + [row << shift for row in b.adjacency]
    return Graph(a.node_count + b.node_count, tuple(rows), a.attributes + b.attributes)


def _check_node(g: Graph, v: int) -> None:
    if not (0 <= v < g.node_count):
        raise ValueError(f"node {v} out of range for graph with {g.node_count} nodes")


def neighborhood(g: Graph, v: int, radius: int) -> frozenset[int]:
    """All nodes at shortest-path distance <= radius from v, including v."""
    _check_node(g, v)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    full = (1 << g.node_count) - 1
    return frozenset(bits_of(sum(bfs_layers(g.adjacency, full, v, radius))))


def reference_layer_sizes(adjacency, radius=None) -> list[tuple[int, ...]]:
    """Layer-size oracle: one ``bfs_layers`` run per node over the whole
    graph, the per-node sweep that ``graphs.layer_sizes`` replaces."""
    full = (1 << len(adjacency)) - 1
    return [tuple(map(int.bit_count, bfs_layers(adjacency, full, v, radius)))
            for v in range(len(adjacency))]


def induced_subgraph(g: Graph, members) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on ``members``, plus the old-index -> new-index map.

    New indices follow ascending old index, so the result is deterministic.
    """
    selected = sorted(set(members))
    for v in selected:
        _check_node(g, v)
    edges = [
        (i, j) for i, j in combinations(range(len(selected)), 2)
        if g.has_edge(selected[i], selected[j])
    ]
    sub = Graph.from_edges(len(selected), edges, [g.attributes[u] for u in selected])
    return sub, {u: i for i, u in enumerate(selected)}


def all_pairs_shortest_paths(g: Graph) -> tuple[tuple[int | float, ...], ...]:
    """Exact unweighted BFS distances; INFINITY across components."""
    n = g.node_count
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        dist: list[int | float] = [INFINITY] * n
        for level, layer in enumerate(bfs_layers(g.adjacency, full, v)):
            for u in bits_of(layer):
                dist[u] = level
        rows.append(tuple(dist))
    return tuple(rows)


def primes_below(x: int) -> list[int]:
    """Ascending primes strictly below x (sieve of Eratosthenes)."""
    if x < 2:
        raise ValueError("x must be at least 2")
    sieve = bytearray([1]) * x
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(x**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(x) if sieve[i]]


def all_graphs(k: int):
    """Every labelled graph on k nodes (all attributes zero)."""
    pairs = list(combinations(range(k), 2))
    for bitmask in range(1 << len(pairs)):
        rows = [0] * k
        for i, (u, v) in enumerate(pairs):
            if (bitmask >> i) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(k, tuple(rows), (0,) * k)


@st.composite
def graph_strategy(
    draw, min_nodes: int = 0, max_nodes: int = 7, attributed: bool = False,
    max_attribute: int = 3,
):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if (mask >> i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if attributed:
        attrs = tuple(draw(st.lists(
            st.integers(min_value=0, max_value=max_attribute), min_size=n, max_size=n)))
    else:
        attrs = (0,) * n
    return Graph(n, tuple(rows), attrs)


@st.composite
def wide_sparse_graph_strategy(
    draw, min_nodes: int = 65, max_nodes: int = 90, max_attribute: int = 12,
    min_pairs: int = 0,
):
    """Hosts over 64 nodes with at most as many edges as nodes, drawn as at
    least ``min_pairs`` node pairs (loops and repeats are dropped)."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=min_pairs, max_size=n))
    attrs = draw(st.lists(
        st.integers(min_value=0, max_value=max_attribute), min_size=n, max_size=n))
    return Graph.from_edges(n, {(min(e), max(e)) for e in pairs if e[0] != e[1]}, attrs)


def reference_embeddings(p: Graph, t: Graph, induced: bool) -> int:
    """Matcher oracle: attribute-preserving injective maps of p's nodes into t's.

    Tries every injective map (``itertools.permutations``) with no pruning.
    An induced map keeps every node pair's edge state; a non-induced one
    only has to send each p-edge onto a t-edge.
    """
    pairs = list(combinations(range(p.node_count), 2))
    total = 0
    for image in permutations(range(t.node_count), p.node_count):
        if any(p.attributes[u] != t.attributes[w] for u, w in enumerate(image)):
            continue
        if all(
            (t.has_edge(image[u], image[v]) == p.has_edge(u, v)) if induced
            else (t.has_edge(image[u], image[v]) or not p.has_edge(u, v))
            for u, v in pairs
        ):
            total += 1
    return total


def reference_search_plan(adj, colors):
    """Planner oracle: the matcher's search plan by its definition.  Each
    next node is the unordered one of greatest (ordered neighbours, -least
    degree of an ordered neighbour, degree, -node), found by scanning every
    unordered node; each position's earlier neighbours by scanning the
    order so far."""
    n = len(adj)
    degree = [row.bit_count() for row in adj]
    least = [n] * n  # the least degree of a node's ordered neighbours
    remaining = set(range(n))
    order: list[int] = []
    back: list[tuple[int, ...]] = []
    placed = 0
    while remaining:
        best = max(
            remaining,
            key=lambda u: ((adj[u] & placed).bit_count(), -least[u], degree[u], -u),
        )
        back.append(tuple(i for i, x in enumerate(order) if adj[best] >> x & 1))
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
        for v in bits_of(adj[best] & ~placed):
            least[v] = min(least[v], degree[best])
    return tuple(order), tuple(back), tuple(colors[u] for u in order)


def cell_scan_embeddings(adj_p, colors_p, adj_t, colors_t, induced: bool,
                         first: bool = False) -> int:
    """Matcher oracle for big hosts: the package's matcher as it was before
    its candidate masks.  It shares no code with ``graphs._embeddings``.

    It orders p's nodes by placed neighbours, then degree, and scans the
    whole (colour, degree) cell of t for every pattern node (non-induced:
    every cell of the colour with at least the degree), checking each
    candidate's edges to the images placed so far.
    """
    k = len(adj_p)
    keys_p = list(zip(colors_p, map(int.bit_count, adj_p)))
    keys_t = list(zip(colors_t, map(int.bit_count, adj_t)))
    if induced and sorted(keys_p) != sorted(keys_t):
        return 0
    remaining = set(range(k))
    order: list[int] = []
    back: list[tuple[int, ...]] = []
    placed = 0
    while remaining:
        best = max(
            remaining,
            key=lambda u: ((adj_p[u] & placed).bit_count(), adj_p[u].bit_count(), -u),
        )
        back.append(tuple(i for i, x in enumerate(order) if adj_p[best] >> x & 1))
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    cells: dict = {}
    for w, key in enumerate(keys_t):
        cells.setdefault(key, []).append(w)
    if induced:
        candidates = [cells[keys_p[u]] for u in order]
    else:
        candidates = [
            [w for (color, degree), cell in cells.items()
             if color == keys_p[u][0] and degree >= keys_p[u][1] for w in cell]
            for u in order
        ]
    image = [0] * k  # image[i]: the bit of the node search position i is mapped to
    total = 0

    def backtrack(i: int, used: int) -> bool:  # True: stop
        nonlocal total
        if i == k:
            total += 1
            return first
        need = 0
        for x in back[i]:
            need |= image[x]
        mask = used if induced else need
        for w in candidates[i]:
            bit = 1 << w
            if used & bit or adj_t[w] & mask != need:
                continue
            image[i] = bit
            if backtrack(i + 1, used | bit):
                return True
        return False

    backtrack(0, 0)
    return total


def reference_parse_graph(text: str) -> Graph:
    """Parser oracle: the package's ``parse_graph`` as it was when it read
    the text one line at a time, tracking what each line is in state
    variables.  Same graphs, errors, messages and line numbers."""
    node_count = -1
    edge_target = 0
    edges_seen = 0
    rows: list[int] = []
    attrs: list[int] = []
    assigned: set[int] = set()
    header_done = False
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not header_done:
            if len(tokens) != 2:
                raise ParseError(lineno, "header must be '<node count> <edge count>'")
            try:
                node_count, edge_target = _integer(tokens[0]), _integer(tokens[1])
            except ValueError:
                raise ParseError(lineno, "header values must be integers") from None
            if node_count < 0 or edge_target < 0:
                raise ParseError(lineno, "header values must be nonnegative")
            try:
                rows = [0] * node_count
            except (OverflowError, MemoryError):  # more nodes than a list holds
                raise ParseError(lineno, f"node count {node_count} is too large") from None
            attrs = [0] * node_count
            header_done = True
            continue
        if edges_seen < edge_target:
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
            edges_seen += 1
            continue
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
    if not header_done:
        raise ParseError(last_line + 1, "missing header line")
    if edges_seen != edge_target:
        raise ParseError(
            last_line + 1, f"expected {edge_target} edge lines, found {edges_seen}"
        )
    return Graph(node_count, tuple(rows), tuple(attrs))


# Tokens a graph text may get wrong: signs, underscores, non-ASCII digits,
# a misplaced ``attr`` or ``#``, non-integers and a node count no list holds.
_TEXT_TOKENS = ("0", "1", "2", "3", "-1", "+1", "-", "1_0", "\u0661", "\uff12",
                "attr", "#", "#c", "x", "1.5", "99999999999999999999")


@st.composite
def graph_text_strategy(draw):
    """Texts near the graph format: a header that may be missing or wrong,
    edge and attribute lines, then up to four comment, blank or junk lines
    put anywhere, with whitespace inside and around the lines and LF, CRLF
    or CR line ends."""
    small = st.integers(min_value=-1, max_value=4).map(str)
    pairs = [(str(u), str(v)) for u, v in combinations(range(4), 2)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    lines = edges + draw(st.lists(st.tuples(st.just("attr"), small, small), max_size=3))
    if draw(st.integers(min_value=0, max_value=4)):
        m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        lines.insert(0, (str(draw(st.sampled_from([0, 3, 4, 4, 5]))), str(m)))
    extra = st.one_of(
        st.sampled_from([(), (), ("#", "a", "comment"), ("#2", "1")]),
        st.tuples(small, small),
        st.tuples(st.just("attr"), small, small),
        st.lists(st.sampled_from(_TEXT_TOKENS), max_size=4),
    )
    for tokens in draw(st.lists(extra, max_size=4)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), tokens)
    sep = draw(st.sampled_from([" ", "\t", " \t "]))
    lines = [draw(st.sampled_from(["", " "])) + sep.join(tokens) for tokens in lines]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _reference_wl_rounds(g: Graph):
    """Yield sha256-named 1-WL colors per round, round 0 first, forever."""
    sha256 = hashlib.sha256
    neighbors = [list(bits_of(row)) for row in g.adjacency]
    colors = [sha256(b"wl0:%d" % a).digest() for a in g.attributes]
    while True:
        yield colors
        colors = [
            sha256(b"wl:" + colors[v] + b"|" + b"".join(sorted([colors[u] for u in nbrs]))).digest()
            for v, nbrs in enumerate(neighbors)
        ]


def reference_wl_histogram(g: Graph) -> dict[str, int]:
    """1-WL oracle: histogram of sha256-named colors after 2n rounds.

    A color is the digest of its full derivation, so two nodes in any two
    graphs share it iff their refinement trees agree to that depth; 2n
    rounds keep histograms of two n-node graphs comparable however late
    their partitions freeze.
    """
    rounds = _reference_wl_rounds(g)
    for _ in range(2 * g.node_count + 1):
        colors = next(rounds)
    histogram: dict[str, int] = {}
    for c in colors:
        histogram[c.hex()] = histogram.get(c.hex(), 0) + 1
    return histogram


def _partition(colors: list[bytes]) -> tuple[int, ...]:
    # class index per node, numbered by first appearance
    seen: dict[bytes, int] = {}
    return tuple(seen.setdefault(c, len(seen)) for c in colors)


def reference_wl_stabilization_rounds(g: Graph) -> int:
    """Oracle rounds until the sha256 colors' partition stops refining."""
    if g.node_count == 0:
        return 0
    partitions = (_partition(colors) for colors in _reference_wl_rounds(g))
    part = next(partitions)
    for rounds, new_part in enumerate(partitions, start=1):
        if new_part == part:
            return rounds
        part = new_part


def reference_pairing_edges(n: int, d: int, pairing: SplitMix64) -> list[tuple[int, int]]:
    """Pairing-model oracle: shuffle the whole stub list with
    ``SplitMix64.shuffle``, then check its pairs in order."""
    for _ in range(_PAIRING_MAX_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(d)]
        pairing.shuffle(stubs)
        seen: set[tuple[int, int]] = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            e = (min(u, v), max(u, v))
            if u == v or e in seen:
                break
            seen.add(e)
        else:
            return sorted(seen)
    raise RuntimeError(
        f"pairing model failed to produce a simple {d}-regular graph on "
        f"{n} nodes after {_PAIRING_MAX_ATTEMPTS} attempts"
    )


CANONICAL_MAX_NODES = 8
MAX_HISTOGRAM_HOST_NODES = 40


@lru_cache(maxsize=1 << 16)
def _canonical_code(adj: tuple[int, ...], attrs: tuple[int, ...]) -> bytes:
    n = len(adj)
    # Canonical form: among all placements whose attribute sequence is the
    # sorted one, the lexicographically smallest sequence of "new node's
    # adjacency to already-placed nodes" columns.  Equal codes iff isomorphic.
    sorted_attrs = tuple(sorted(attrs))
    best: list[int] | None = None
    cols: list[int] = []
    placed: list[int] = []
    used = [False] * n

    def dfs() -> None:
        nonlocal best
        p = len(placed)
        if p == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        target = sorted_attrs[p]
        options = []
        for u in range(n):
            if used[u] or attrs[u] != target:
                continue
            col = 0
            for x in placed:
                col = (col << 1) | ((adj[u] >> x) & 1)
            options.append((col, u))
        options.sort()
        for col, u in options:
            if best is not None and cols + [col] > best[: p + 1]:
                break
            used[u] = True
            placed.append(u)
            cols.append(col)
            dfs()
            cols.pop()
            placed.pop()
            used[u] = False

    dfs()
    assert best is not None or n == 0
    bit_part = "".join(
        format(col, f"0{i}b") for i, col in enumerate(best or []) if i
    )
    attr_part = ",".join(str(a) for a in sorted_attrs)
    return f"{n}|{attr_part}|{bit_part}".encode("ascii")


def canonical_code(g: Graph) -> bytes:
    """Isomorphism oracle: a byte string equal for two graphs iff they are
    isomorphic.  Its placement search shares no code with the matcher
    ``graphs._embeddings``."""
    if g.node_count > CANONICAL_MAX_NODES:
        raise UnsupportedSizeError(
            f"canonical_code supports at most {CANONICAL_MAX_NODES} nodes,"
            f" got {g.node_count}"
        )
    return _canonical_code(g.adjacency, g.attributes)


def count_all_patterns(g: Graph, k: int) -> dict[bytes, int]:
    """Histogram of all k-node induced subgraph classes, keyed by canonical code."""
    if k < 1:
        raise ValueError("pattern size must be at least 1")
    if k > MAX_HISTOGRAM_PATTERN_NODES:
        raise UnsupportedSizeError(
            f"pattern size {k} exceeds limit {MAX_HISTOGRAM_PATTERN_NODES}"
        )
    if g.node_count > MAX_HISTOGRAM_HOST_NODES:
        raise UnsupportedSizeError(
            f"host has {g.node_count} nodes, limit is {MAX_HISTOGRAM_HOST_NODES}"
        )
    histogram: dict[bytes, int] = {}
    for subset in combinations(range(g.node_count), k):
        rows = _induced_rows(g, subset)
        attrs = tuple(g.attributes[v] for v in subset)
        code = _canonical_code(rows, attrs)
        histogram[code] = histogram.get(code, 0) + 1
    return histogram
