"""Recursive neighborhood pooling with exact injective aggregation.

The encoder represents a node by recursively encoding its screened
neighborhood: take the radius-r1 ball around the node, drop the node
itself, tag each survivor with a bit saying whether it was adjacent to
the dropped node, and encode the resulting context graph with the tail
of the radius sequence.  Aggregation is an injective function of
(own feature, multiset of child values) realised as a canonical byte
serialization, so equal bytes mean equal trees by construction and no
learned components or hashes are involved in equality decisions.

Byte grammar (every value is self-delimiting, so concatenations parse
uniquely and injectivity holds structurally):

    leaf     ``L<decimal attribute>;``
    marked   ``M<0|1><value>``
    node     ``N<value>[<children, sorted ascending as bytes>]``
    graph    ``G[<node values, sorted ascending as bytes>]``
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, bfs_layers, bits_of

Encoding = bytes


def leaf(attribute: int) -> Encoding:
    if attribute < 0:
        raise ValueError("attributes must be nonnegative")
    return b"L%d;" % attribute


def marked(base: Encoding, flag: int) -> Encoding:
    return (b"M1" if flag else b"M0") + base


def node(own: Encoding, children: Iterable[Encoding]) -> Encoding:
    return b"N" + own + b"[" + b"".join(sorted(children)) + b"]"


def graph_readout(node_encodings: Iterable[Encoding]) -> Encoding:
    return b"G[" + b"".join(sorted(node_encodings)) + b"]"


def encoding_digest(encoding: Encoding) -> str:
    """Fixed-width display digest.  Equality decisions never use this."""
    return hashlib.sha256(encoding).hexdigest()


@dataclass(frozen=True)
class UpdateCounter:
    """Node-encoding work done by one run.

    ``invocations`` counts one tick per (node, recursion context) pair,
    top level included.  ``max_context_per_level`` records the largest
    context graph seen at each recursion depth, and
    ``invocations_per_level`` splits ``invocations`` by depth.
    """

    invocations: int
    max_context_per_level: tuple[int, ...]
    invocations_per_level: tuple[int, ...]


def _check_radii(radii: Sequence[int]) -> tuple[int, ...]:
    radii = tuple(radii)
    if not radii:
        raise ValueError("radius sequence must be nonempty")
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    return radii


class _Stats:
    __slots__ = ("level_invocations", "level_max")

    def __init__(self, levels: int):
        self.level_invocations = [0] * levels
        self.level_max = [0] * levels

    def enter_context(self, depth: int, size: int) -> None:
        self.level_invocations[depth] += size
        if size > self.level_max[depth]:
            self.level_max[depth] = size


class _BitTable(dict):
    """Mask -> its set bit positions in ascending order, filled on first use."""

    __slots__ = ()

    def __missing__(self, mask: int) -> list[int]:
        bits = self[mask] = bits_of(mask)
        return bits


def _encode_context(
    adjacency: tuple[int, ...],
    ctx_mask: int,
    features: dict[int, Encoding],
    radii: tuple[int, ...],
    depth: int,
    stats: _Stats,
    bits: _BitTable,
) -> dict[int, Encoding]:
    """Encode each member of the context ``ctx_mask``.

    ``features`` holds exactly the members' values.  Each child value is
    built as ``marked(features[u], flag)`` and each result as
    ``node(features[v], children)``, written out inline.
    """
    stats.enter_context(depth, ctx_mask.bit_count())
    r1 = radii[0]
    tail = radii[1:]
    # Screened members adjacent to v ("near") carry flag 1, the rest of the
    # ball ("far") flag 0.  A radius-1 ball is v's neighbours in the
    # context, so it needs no BFS and no flag-0 marks.
    near_marks = {u: b"M1" + f for u, f in features.items()}
    far_marks = {u: b"M0" + f for u, f in features.items()} if r1 > 1 else {}
    out: dict[int, Encoding] = {}
    for v in bits[ctx_mask]:
        adj_v = adjacency[v]
        if r1 == 1:
            near = adj_v & ctx_mask
            far = 0
        else:
            ball = frontier = 1 << v
            for _ in range(r1):
                grown = 0
                for u in bits[frontier]:
                    grown |= adjacency[u]
                frontier = grown & ctx_mask & ~ball
                if not frontier:
                    break
                ball |= frontier
            near = ball & adj_v
            far = ball ^ near ^ (1 << v)
        if not tail:
            children = [near_marks[u] for u in bits[near]]
            if far:
                children += [far_marks[u] for u in bits[far]]
        elif near or far:
            tagged = {u: near_marks[u] for u in bits[near]}
            if far:
                tagged.update({u: far_marks[u] for u in bits[far]})
            children = list(
                _encode_context(
                    adjacency, near | far, tagged, tail, depth + 1, stats, bits
                ).values()
            )
        else:
            children = []
        children.sort()
        out[v] = b"N" + features[v] + b"[" + b"".join(children) + b"]"
    return out


def rnp_encode_nodes(
    g: Graph,
    radii: Sequence[int],
    features: Mapping[int, Encoding] | None = None,
) -> tuple[dict[int, Encoding], UpdateCounter]:
    """Encode every node of g; also report the work counter.

    ``features`` defaults to one leaf per node built from its attribute.
    """
    radii = _check_radii(radii)
    if features is None:
        feats = {v: leaf(g.attributes[v]) for v in range(g.node_count)}
    else:
        try:
            feats = {v: features[v] for v in range(g.node_count)}
        except KeyError as exc:
            raise ValueError(f"features missing an entry for node {exc.args[0]}") from None
    stats = _Stats(len(radii))
    encodings = _encode_context(
        g.adjacency, (1 << g.node_count) - 1, feats, radii, 0, stats, _BitTable()
    )
    counter = UpdateCounter(
        sum(stats.level_invocations),
        tuple(stats.level_max),
        tuple(stats.level_invocations),
    )
    return encodings, counter


def rnp_encode_graph(g: Graph, radii: Sequence[int]) -> Encoding:
    """Whole-graph encoding: injective readout over the node encodings."""
    encodings, _ = rnp_encode_nodes(g, radii)
    return graph_readout(encodings.values())


def distinguish(g1: Graph, g2: Graph, radii: Sequence[int]) -> bool:
    """True iff the two graphs receive different whole-graph encodings."""
    return rnp_encode_graph(g1, radii) != rnp_encode_graph(g2, radii)


def update_bound(g: Graph, radii: Sequence[int]) -> int:
    """Worst-case node updates n * c**tau, with c the largest first-radius ball."""
    radii = _check_radii(radii)
    n = g.node_count
    if n == 0:
        return 0
    full = (1 << n) - 1
    r = radii[0]
    c = max(sum(bfs_layers(g.adjacency, full, v)[: r + 1]).bit_count() for v in range(n))
    return n * c ** len(radii)
