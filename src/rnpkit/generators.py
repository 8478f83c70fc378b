"""Seeded graph families, named patterns, and exhaustive small-graph enumeration.

Random families are driven exclusively by the pinned SplitMix64 stream
(see ``rng``), so a (parameters, seed) pair yields the same graph on any
platform, forever.  Erdos-Renyi draws come in chunks from ``next_block``
and are compared with p as integers.  Where no draw can be rejected, the
pairing model takes the shuffle's steps in pairs, checking each pair of
stubs as the two steps that fix it are taken, and draws in blocks of at
most ``_DRAW_BLOCK`` values; otherwise it falls back to the plain
shuffle.  Either way its graphs and stream states are those of the
shuffle-then-check definition.  The kernel returns the graph as
adjacency rows, which go straight into ``Graph``; deletions pop from the
sorted edge list built from those rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations

from .graphs import (
    Graph,
    IsomorphismClasses,
    UnsupportedSizeError,
    _is_count,
    bits_of,
    is_connected,
)
from .rng import _GOLDEN, _GOLDEN_INV, _MASK64, SplitMix64, _unmix

MAX_ENUMERATION_NODES = 6


# draws per ``next_block`` call of ``erdos_renyi``
_ER_CHUNK = 2048


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Each unordered pair becomes an edge independently with probability p.

    Pairs are visited in lexicographic order, one uniform draw per pair:
    the pair is an edge when ``rng.random() < p``.  The draws come in
    chunks of at most ``_ER_CHUNK`` from ``next_block``, and a pair is
    kept when its draw is below ``ceil(p * 2**53) << 11``: ``random()`` is
    the draw's top 53 bits times 2**-53, so that is the same test.
    """
    if not _is_count(n):
        raise ValueError("node count must be a nonnegative integer")
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        raise ValueError("p must be a number in [0, 1]")
    rng = SplitMix64(seed)
    threshold = math.ceil(p * 2**53) << 11
    pairs = combinations(range(n), 2)
    total = n * (n - 1) // 2
    edges: list[tuple[int, int]] = []
    for start in range(0, total, _ER_CHUNK):
        draws = rng.next_block(min(_ER_CHUNK, total - start))
        # draws first: zip stops at the chunk's end without taking a pair
        edges += [e for x, e in zip(draws, pairs) if x < threshold]
    return Graph.from_edges(n, edges)


_PAIRING_MAX_ATTEMPTS = 100_000


def check_regular_parameters(n: int, d: int, deletions: int) -> None:
    """Raise ValueError unless a d-regular graph on n nodes exists and has
    at least ``deletions`` edges.

    This checks feasibility only: ``random_regular_perturbed`` can still
    run out of attempts on a dense d (see there).
    """
    if not _is_count(n):
        raise ValueError("node count must be a nonnegative integer")
    if not (_is_count(d) and _is_count(deletions)):
        raise ValueError("degree and deletions must be nonnegative integers")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError("degree must be smaller than the node count")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if deletions > n * d // 2:
        raise ValueError("cannot delete more edges than the regular graph has")


# draws per ``next_block`` call of the pairing kernel; most attempts fail
# within about 15 steps, and a block's draws past the failure are wasted
_DRAW_BLOCK = 16


@lru_cache(maxsize=8)
def _danger_positions(stubs: int) -> tuple[int, ...]:
    """Sorted positions ``state * golden**-1 mod 2**64`` of the states whose
    draw lands in the top ``stubs`` values: every draw that a shuffle
    step's ``below(i + 1)``, i < stubs, may reject.  Each draw steps the
    state by golden, so it steps the position by one."""
    return tuple(sorted(
        _unmix((1 << 64) - k) * _GOLDEN_INV & _MASK64 for k in range(1, stubs + 1)
    ))


@lru_cache(maxsize=8)
def _pair_schedule(stubs: int) -> tuple[range, ...]:
    """The pairing kernel's draw blocks for ``stubs`` stubs, from the top:
    each is the odd steps i whose steps i and i - 1 it draws, at most
    ``_DRAW_BLOCK`` draws.  Together they cover steps stubs - 1 down to 2
    once; step 1 is never drawn."""
    span = _DRAW_BLOCK // 2 * 2  # steps per block, whole pairs
    return tuple(range(top, max(top - span, 1), -2) for top in range(stubs - 1, 1, -span))


@lru_cache(maxsize=8)
def _stub_table(n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pairing model's stub list ``[0]*d + [1]*d + ...`` on n nodes,
    and each node's own bit; tuples, which the kernel copies per attempt."""
    return tuple(v for v in range(n) for _ in range(d)), tuple(1 << v for v in range(n))


def _pairing_model_rows(n: int, d: int, pairing: SplitMix64) -> list[int] | None:
    """Adjacency rows of the first simple graph the pairing model draws.

    An attempt makes the draws of ``pairing.shuffle`` on the stub list
    ``[0]*d + [1]*d + ...`` and fails if a pair (2k, 2k + 1) is a loop or
    a repeated edge.  Shuffle step i fixes position i, and no later step
    reads it, so a step stores only the stub it displaces.  The kernel
    takes the steps in pairs: odd step i and step i - 1 fix pair
    (i - 1, i), which is checked at once.  Each node's row of drawn edges
    starts with its own bit, so one bit test rejects a loop and a
    repeated edge alike; the rows returned have it cleared.  Step 1 only
    orders positions 0 and 1, so pair (0, 1) is checked without its draw.
    Draws come in the blocks of ``_pair_schedule`` from ``next_block``,
    which is exact while no draw of the attempt could be rejected by
    ``below``: then an attempt takes exactly m - 1 draws, and the state
    after it is set in one step, whether the attempt stopped at a bad
    pair or not.  An attempt that would reach the first draw at one of
    the ``_danger_positions`` is instead run as the definition, a whole
    ``shuffle`` whose pairs are checked afterwards, and so is every
    attempt after it.  ``pairing`` is left as ``shuffle`` leaves it after
    the accepted attempt.  Returns None, with ``pairing`` unmoved, if the
    attempt budget runs out.
    """
    m = n * d
    if m == 0:
        return [0] * n
    start = pairing._state
    # the number of draws from ``start`` before the first that below() may
    # reject: the distance from draw 1 to the next danger position, mod 2**64
    first = (start + _GOLDEN) * _GOLDEN_INV & _MASK64
    danger = _danger_positions(m)
    safe = (danger[bisect_left(danger, first) % m] - first) & _MASK64
    schedule = _pair_schedule(m)
    stub_list, own = _stub_table(n, d)
    for attempt in range(1, _PAIRING_MAX_ATTEMPTS + 1):
        stubs = list(stub_list)
        rows = list(own)
        if attempt * (m - 1) > safe:
            pairing.shuffle(stubs)
            pairs = zip(stubs[::2], stubs[1::2])
        else:
            for steps in schedule:
                draws = iter(pairing.next_block(2 * len(steps)))
                for i, x, y in zip(steps, draws, draws):
                    j = x % (i + 1)
                    u = stubs[j]
                    stubs[j] = stubs[i]
                    j = y % i
                    v = stubs[j]
                    stubs[j] = stubs[i - 1]
                    if rows[u] >> v & 1:
                        break
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                else:
                    continue
                break
            else:
                u, v = stubs[0], stubs[1]
            # the last pair to check: pair (0, 1), or the bad pair that
            # stopped the attempt, which the check rejects again
            pairs = ((u, v),)
            pairing._state = (start + attempt * (m - 1) * _GOLDEN) & _MASK64
        for u, v in pairs:
            if rows[u] >> v & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            # in place, so that a wide host never holds two sets of rows
            for v, bit in enumerate(own):
                rows[v] ^= bit
            return rows
    pairing._state = start
    return None


def random_regular_perturbed(n: int, d: int, deletions: int, seed: int) -> Graph:
    """Pairing-model d-regular graph with ``deletions`` random edges removed.

    The pairing model is resampled wholesale until it yields a simple
    graph, then ``deletions`` distinct edges are deleted uniformly: each
    pops an index drawn on a substream of its own from the sorted list of
    the edges left.  A dense d may exhaust the attempt budget; then the
    graph is the complement, row by row, of a pairing-model
    (n - 1 - d)-regular graph drawn from another substream, and
    ValueError is raised if that exhausts its budget too.  For d = n - 1
    the only such graph is K_n, the complement of the empty graph, which
    is taken at once: the pairing model would almost never draw it.  The
    kernel's rows go straight into ``Graph``.
    """
    check_regular_parameters(n, d, deletions)
    rng = SplitMix64(seed)
    rows = None if d == n - 1 else _pairing_model_rows(n, d, rng.split(0))
    if rows is None:
        sparse = _pairing_model_rows(n, n - 1 - d, rng.split(2))
        if sparse is None:
            raise ValueError(
                f"the pairing model drew no simple {d}-regular graph on {n} "
                f"nodes, nor its complement, in {_PAIRING_MAX_ATTEMPTS} "
                "attempts each"
            )
        full = (1 << n) - 1
        rows = [full ^ row ^ 1 << u for u, row in enumerate(sparse)]
    if deletions:
        # the sorted edge list, each deletion an index into what is left
        edges = [(u, v) for u in range(n) for v in bits_of(rows[u] >> u + 1 << u + 1)]
        deleting = rng.split(1)
        for _ in range(deletions):
            u, v = edges.pop(deleting.below(len(edges)))
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return Graph(n, rows, (0,) * n)


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    i = 2
    while i * i <= x:
        if x % i == 0:
            return False
        i += 1
    return True


def prime_partite(primes: "set[int] | list[int] | tuple[int, ...]", n: int) -> Graph:
    """Complete multipartite graph with prime-sized parts plus isolated filler.

    Parts of sizes ``primes`` (ascending) occupy the first nodes; the rest
    of the n nodes are isolated.  Its k-clique count is the product of the
    part sizes, so distinct prime sets give distinct clique counts.
    """
    parts = sorted(primes)
    if len(parts) != len(set(parts)):
        raise ValueError("part sizes must be distinct")
    if not parts:
        raise ValueError("at least one part is required")
    # The sum first: then, parts ascending, no part tested for primality exceeds n.
    if sum(parts) > n:
        raise ValueError(f"part sizes sum to {sum(parts)}, exceeding n = {n}")
    for p in parts:
        if not _is_prime(p):
            raise ValueError(f"part size {p} is not prime")
    part = [i for i, p in enumerate(parts) for _ in range(p)]  # each node's part
    edges = [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]]
    return Graph.from_edges(n, edges)


def cycle(k: int) -> Graph:
    if not (_is_count(k) and k >= 3):
        raise ValueError("a cycle needs at least 3 nodes, given as an int")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])


def complete(k: int) -> Graph:
    if not (_is_count(k) and k >= 1):
        raise ValueError("a complete graph needs at least 1 node, given as an int")
    return Graph.from_edges(k, list(combinations(range(k), 2)))


def path(k: int) -> Graph:
    if not (_is_count(k) and k >= 1):
        raise ValueError("a path needs at least 1 node, given as an int")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def star(k: int) -> Graph:
    """Star with k leaves: node 0 is the center, k + 1 nodes in total."""
    if not (_is_count(k) and k >= 1):
        raise ValueError("a star needs at least 1 leaf, given as an int")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def figure2_pair() -> tuple[Graph, Graph]:
    """A 6-cycle and two disjoint triangles: 1-WL-equivalent, unequal triangle counts."""
    return cycle(6), two_triangles()


def pattern(name: str, size: int | None = None):
    """Named pattern dispatcher used by the command-line front end."""
    sized = {"cycle": cycle, "complete": complete, "path": path, "star": star}
    if name in sized:
        if size is None:
            raise ValueError(f"pattern '{name}' requires a size")
        return sized[name](size)
    if name == "figure2_pair":
        if size is not None:
            raise ValueError("pattern 'figure2_pair' takes no size")
        return figure2_pair()
    raise ValueError(f"unknown pattern '{name}'")


@lru_cache(maxsize=None)
def enumerate_connected_graphs(k: int) -> tuple[Graph, ...]:
    """The first labelled graph, in edge-bitmask order, of each isomorphism
    class of connected k-node graphs."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_ENUMERATION_NODES:
        raise UnsupportedSizeError(
            f"enumeration supports at most {MAX_ENUMERATION_NODES} nodes, got {k}"
        )
    pairs = list(combinations(range(k), 2))
    classes: list[Graph] = []
    index = IsomorphismClasses()
    for bitmask in range(1 << len(pairs)):
        g = Graph.from_edges(k, [pair for i, pair in enumerate(pairs) if bitmask >> i & 1])
        if is_connected(g) and index.classify(g)[0] == len(classes):
            classes.append(g)
    return tuple(classes)
