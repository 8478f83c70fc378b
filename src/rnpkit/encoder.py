"""Recursive neighborhood pooling with exact injective aggregation.

The encoder represents a node by recursively encoding its screened
neighborhood: take the radius-r1 ball around the node, drop the node
itself, tag each survivor with a bit saying whether it was adjacent to
the dropped node, and encode the resulting context graph with the tail
of the radius sequence.  Aggregation is an injective function of
(own feature, multiset of child values) realised as a canonical byte
serialization.  The encoder takes only graphs, and a node's own feature
is ``leaf(attribute)``, so every value follows the grammar below, equal
bytes mean equal trees by construction, and no learned components or
hashes are involved in equality decisions.

The last recursion level is built in its parent.  A context whose radius
tail has one entry makes, once, every mark its leaf contexts can need:
for each member u and flag b, the own value ``M<b>f(u)`` and that value
marked as a near (``M1``) and, when the last radius is above 1, a far
(``M0``) child.  A leaf context names a member whose flag is 0 by its
index plus n, so one table lookup picks each member's variant, and one
leaf routine encodes its members with no per-context tables and no
further recursion.  The same routine encodes the whole graph under a
radius sequence of length 1.

A radius-1 leaf's children are its neighbours in the leaf context, each
marked near.  When the parent's members' own values take at most four
distinct byte strings (every unattributed graph under at most three
radii: near or far at two depths), the parent also sorts them into those
classes, in ascending byte order, with one member mask each.  A leaf
value is then the head ``N<own>[``, each class's child mark repeated as
many times as the member has neighbours in the class (one popcount), and
``]``.  Every child in a class is the same bytes, so this is the sorted
join of the children, with no child lookups and no sort.  More values,
or a last radius above 1, take one lookup per child and a sort.

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
from typing import Iterable, Sequence

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


# A leaf's children by mark class: up to four (child mark, member mask)
# pairs in ascending byte order of the marks, padded with (b"", 0).
_Slots = tuple[tuple[Encoding, int], ...]
_LeafMarks = tuple[
    dict[int, Encoding], dict[int, Encoding], dict[int, Encoding], _Slots | None
]


def _encode_leaves(
    adjacency: tuple[int, ...],
    ctx_mask: int,
    r: int,
    marks: _LeafMarks,
    depth: int,
    stats: _Stats,
    bits: _BitTable,
) -> list[Encoding]:
    """Values of the members of a last-level context, in ascending index order.

    ``marks`` holds, by member index, its own value and that value marked
    as a near (``M1``) and, for r > 1, a far (``M0``) child; or, when
    ``_leaf_marks`` made class slots, each member's head ``N<own>[`` and
    the slots.
    """
    stats.enter_context(depth, ctx_mask.bit_count())
    own, near_marks, far_marks, slots = marks
    values = []
    if slots is not None:
        # Every child in a class is the same bytes and the classes are in
        # byte order, so the repeated class marks are the sorted children.
        (m1, k1), (m2, k2), (m3, k3), (m4, k4) = slots
        for w in bits[ctx_mask]:
            a = adjacency[w] & ctx_mask
            values.append(b"".join((
                own[w],
                m1 * (a & k1).bit_count(),
                m2 * (a & k2).bit_count(),
                m3 * (a & k3).bit_count(),
                m4 * (a & k4).bit_count(),
                b"]",
            )))
        return values
    for w in bits[ctx_mask]:
        adj_w = adjacency[w]
        if r == 1:
            children = [near_marks[u] for u in bits[adj_w & ctx_mask]]
        else:
            ball = sum(bfs_layers(adjacency, ctx_mask, w, r))
            near = ball & adj_w
            children = [near_marks[u] for u in bits[near]]
            children += [far_marks[u] for u in bits[ball ^ near ^ (1 << w)]]
        children.sort()
        values.append(b"N" + own[w] + b"[" + b"".join(children) + b"]")
    return values


def _leaf_marks(own: dict[int, Encoding], r: int) -> _LeafMarks:
    """Leaf marks from the members' own values, class slots when they apply.

    A radius-1 leaf whose members' values take at most four byte strings
    gets heads and slots (see the module docstring); any other leaf gets
    the own values and the near and far child marks.
    """
    if r == 1 and len(set(own.values())) <= 4:
        classes: dict[Encoding, int] = {}
        for u, f in own.items():
            classes[f] = classes.get(f, 0) | 1 << u
        slots = [(b"M1" + f, k) for f, k in sorted(classes.items())]
        slots += [(b"", 0)] * (4 - len(slots))
        heads = {u: b"N" + f + b"[" for u, f in own.items()}
        return heads, {}, {}, tuple(slots)
    return own, {u: b"M1" + f for u, f in own.items()}, (
        {u: b"M0" + f for u, f in own.items()} if r > 1 else {}
    ), None


def _encode_context(
    adjacency: tuple[int, ...],
    ctx_mask: int,
    own: dict[int, Encoding],
    radii: tuple[int, ...],
    depth: int,
    stats: _Stats,
    bits: _BitTable,
) -> dict[int, Encoding]:
    """Encode each member of the context ``ctx_mask`` under two or more radii.

    ``own`` holds exactly the members' values.  Each child value is
    built as ``marked(own[u], flag)`` and each result as
    ``node(own[v], children)``, written out inline.
    """
    stats.enter_context(depth, ctx_mask.bit_count())
    r1 = radii[0]
    tail = radii[1:]
    n = len(adjacency) // 2
    # Screened members adjacent to v ("near") carry flag 1, the rest of the
    # ball ("far") flag 0; member u's flag-0 mark is kept under u + n.  A
    # radius-1 ball is v's neighbours in the context, so it needs no BFS
    # and no flag-0 marks.
    tagged_marks = {u: b"M1" + f for u, f in own.items()}
    if r1 > 1:
        tagged_marks.update({u + n: b"M0" + f for u, f in own.items()})
    if len(tail) == 1:
        # Every leaf context below takes its marks from these tables and
        # names a far member u as u + n, so the index picks the flag.
        marks = _leaf_marks(tagged_marks, tail[0])
    out: dict[int, Encoding] = {}
    for v in bits[ctx_mask]:
        adj_v = adjacency[v]
        if r1 == 1:
            near = adj_v & ctx_mask
            far = 0
        else:
            ball = sum(bfs_layers(adjacency, ctx_mask, v, r1))
            near = ball & adj_v
            far = ball ^ near ^ (1 << v)
        if len(tail) == 1:
            children = _encode_leaves(
                adjacency, near | far << n, tail[0], marks, depth + 1, stats, bits
            )
        else:
            tagged = {u: tagged_marks[u] for u in bits[near]}
            if far:
                tagged.update({u: tagged_marks[u + n] for u in bits[far]})
            children = list(
                _encode_context(
                    adjacency, near | far, tagged, tail, depth + 1, stats, bits
                ).values()
            )
        children.sort()
        out[v] = b"N" + own[v] + b"[" + b"".join(children) + b"]"
    return out


def rnp_encode_nodes(
    g: Graph, radii: Sequence[int]
) -> tuple[dict[int, Encoding], UpdateCounter]:
    """Encode every node of g; also report the work counter.

    Each node's own value is ``leaf(attribute)``.
    """
    radii = _check_radii(radii)
    n = g.node_count
    own = {v: leaf(g.attributes[v]) for v in range(n)}
    stats = _Stats(len(radii))
    # Rows u and u + n both hold u's neighbours under both names, so a
    # last-level context may name any member u as u + n.
    adjacency = tuple(row | row << n for row in g.adjacency) * 2
    full = (1 << n) - 1
    bits = _BitTable()
    if len(radii) == 1:
        values = _encode_leaves(
            adjacency, full, radii[0], _leaf_marks(own, radii[0]), 0, stats, bits
        )
        encodings = dict(zip(range(n), values))
    else:
        encodings = _encode_context(adjacency, full, own, radii, 0, stats, bits)
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
    c = max(sum(bfs_layers(g.adjacency, full, v, r)).bit_count() for v in range(n))
    return n * c ** len(radii)
