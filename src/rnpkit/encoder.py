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

Each context carries its members' own values as classes: a value f and
the mask of the members that have it.  Member v's child context gets each
class's near members (adjacent to v) as class ``M1 f`` and its far
members as ``M0 f``, empty ones dropped: one step per class, not one per
member.  A parent decides its last level once: ``_leaf_level`` returns
the routine that encodes each of its leaf contexts, built from its
marked classes (or, under one radius, the graph's): one that gives the
keys below, or else one that looks up each member's value and that value
marked as a near and, when the last radius is above 1, a far child.  A
leaf context names a far member by its index plus n, so one table lookup
picks each member's variant, and the routine encodes its members with no
further recursion.  The routine builds values only: each parent adds its
leaf level's size sum and size maximum to the counter once.

A radius-1 leaf's children are its neighbours in the leaf context, each
marked near.  When the leaf members' values form m <= 4 classes
f_1 < ... < f_m (every unattributed graph under at most three radii:
near or far at two depths), a leaf value is ``N<f>[``, then ``M1 f_i``
repeated c_i times for each i, then ``]``, where c_i is the member's
number of neighbours of class i (one popcount over a class mask).  The
leaf gives it as an integer key instead: with b = n.bit_length() and
M = 2**b - 1, the rank of f above four b-bit fields M - c_1, ...,
M - c_4 (c_i = 0 past m); each member's key with every count 0 sits in
a flat list indexed by its (doubled) index.  Heads sort as their f do,
values are prefix-free, and ``]`` sorts above every mark's ``M``, so a
value with more copies of a smaller mark sorts first: ascending keys are
ascending values, and equal keys are equal values.  The parent sorts its leaves'
keys and joins their bytes from a table per (b, classes) that lives for
the process, since graphs share most leaf values; the tables hold at
most ``_LEAF_TABLE_CAP`` entries together and are cleared when they
reach it.  More classes, or a last radius above 1, take one lookup per
child and a sort.

Byte grammar (every value is self-delimiting, so concatenations parse
uniquely and injectivity holds structurally):

    leaf     ``L<decimal attribute>;``
    marked   ``M<0|1><value>``
    node     ``N<value>[<children, sorted ascending as bytes>]``
    graph    ``G[<node values, sorted ascending as bytes>]``
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import Graph, _is_count, bits_of, layer_sizes

Encoding = bytes


def leaf(attribute: int) -> Encoding:
    if not _is_count(attribute):
        raise ValueError("attributes must be nonnegative integers")
    return b"L%d;" % attribute


def marked(base: Encoding, flag: int) -> Encoding:
    return (b"M1" if flag else b"M0") + base


def node(own: Encoding, children: Iterable[Encoding]) -> Encoding:
    return b"N" + own + b"[" + b"".join(sorted(children)) + b"]"


def graph_readout(node_encodings: Iterable[Encoding]) -> Encoding:
    return b"G[" + b"".join(sorted(node_encodings)) + b"]"


def encoding_digest(encoding: Encoding) -> str:
    """Fixed-width digest.  Unequal digests mean unequal encodings, but
    equal digests never decide equality: the bytes do."""
    return hashlib.sha256(encoding).hexdigest()


class UpdateCounter(NamedTuple):
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
    if not all(map(_is_count, radii)):
        raise ValueError("radii must be nonnegative integers")
    return radii


class _Stats:
    __slots__ = ("level_invocations", "level_max")

    def __init__(self, levels: int):
        self.level_invocations = [0] * levels
        self.level_max = [0] * levels

    def add(self, depth: int, total: int, largest: int) -> None:
        """Count contexts at ``depth`` of ``total`` members together, the
        largest of ``largest``."""
        self.level_invocations[depth] += total
        if largest > self.level_max[depth]:
            self.level_max[depth] = largest


class _BitTable(dict):
    """Mask -> its set bit positions in ascending order, filled on first use."""

    __slots__ = ()

    def __missing__(self, mask: int) -> list[int]:
        bits = self[mask] = bits_of(mask)
        return bits


# A radius-1 leaf value's key -> its bytes, one table per (key width b, mark
# classes), kept for the process: graphs share most of their leaf values.
# The tables and their entries together are capped; reaching the cap clears
# them all.
_LEAF_TABLE_CAP = 1 << 16
_leaf_tables: dict[tuple[int, tuple[Encoding, ...]], _LeafTable] = {}
_leaf_table_entries = 0


def _count_leaf_table_entry() -> None:
    """Count a new table or entry, after clearing every table at the cap."""
    global _leaf_table_entries
    if _leaf_table_entries >= _LEAF_TABLE_CAP:
        for table in _leaf_tables.values():
            table.clear()
        _leaf_tables.clear()
        _leaf_table_entries = 0
    _leaf_table_entries += 1


class _LeafTable(dict):
    """Key -> ``N<f_rank>[`` + (``M1`` f_i) x c_i for each class i + ``]``."""

    __slots__ = ("width", "heads", "marks")

    def __init__(self, width: int, classes: tuple[Encoding, ...]):
        self.width = width
        self.heads = [b"N" + f + b"[" for f in classes]
        self.marks = [b"M1" + f for f in classes]

    def __missing__(self, key: int) -> Encoding:
        _count_leaf_table_entry()
        b = self.width
        top = (1 << b) - 1
        value = self[key] = b"".join([
            self.heads[key >> 4 * b],
            *[m * (top - (key >> (3 - i) * b & top)) for i, m in enumerate(self.marks)],
            b"]",
        ])
        return value


def _leaf_keys(
    classes: dict[Encoding, int], n: int
) -> tuple[list[int], int, int, int, int, int, int, int, _LeafTable]:
    """What radius-1 leaves in an n-node graph build their keys from, given
    their members' at most four values as classes: each member's key with
    every count 0, in a list indexed by (doubled) member, the four class
    masks (0 past m), the field shifts b, 2b and 3b, and the table; see the
    module docstring."""
    width = n.bit_length()
    order = tuple(sorted(classes))
    masks = [classes[f] for f in order]
    top = 1 << 4 * width
    base = [0] * sum(masks).bit_length()  # the classes are disjoint
    key = top - 1  # each class's rank above four count fields at their top M
    for k in masks:
        for u in bits_of(k):
            base[u] = key
        key += top
    masks += [0] * (4 - len(order))
    table = _leaf_tables.get((width, order))
    if table is None:
        _count_leaf_table_entry()
        table = _leaf_tables[width, order] = _LeafTable(width, order)
    return base, *masks, width, 2 * width, 3 * width, table


def _leaf_level(
    adjacency: tuple[int, ...],
    classes: dict[Encoding, int],
    r: int,
    bits: _BitTable,
) -> tuple[Callable[[int], list], Callable[[int], Encoding] | None]:
    """The routine that encodes a last-level context of radius r, member by
    member in ascending index order, given the members' values as classes.
    It builds values only: its caller counts the contexts.

    When r == 1 and there are at most four classes it gives keys from
    ``_leaf_keys``, with the table's lookup from a key to its value; else
    the values, from each member's value and that value marked as a near
    and, for r > 1, a far child, with no lookup.
    """
    if r == 1 and len(classes) <= 4:
        base, k1, k2, k3, k4, s1, s2, s3, table = _leaf_keys(classes, len(adjacency) // 2)

        def leaves(ctx_mask: int) -> list[int]:
            # Leaf-context masks seldom repeat, so bits_of, not the table.
            keys = []
            for w in bits_of(ctx_mask):
                a = adjacency[w] & ctx_mask
                keys.append(base[w] - (
                    (a & k1).bit_count() << s3 | (a & k2).bit_count() << s2
                    | (a & k3).bit_count() << s1 | (a & k4).bit_count()
                ))
            return keys

        return leaves, table.__getitem__
    own = {u: f for f, k in classes.items() for u in bits[k]}
    near_marks = {u: b"M1" + f for u, f in own.items()}
    far_marks = {u: b"M0" + f for u, f in own.items()} if r > 1 else {}

    def leaves(ctx_mask: int) -> list[Encoding]:
        reach = ctx_mask if r else 0
        values = []
        for w in bits[ctx_mask]:
            if r == 1:
                children = [near_marks[u] for u in bits[adjacency[w] & ctx_mask]]
            else:
                # w's ball, grown as in _encode_context
                near = frontier = adjacency[w] & reach
                left = ctx_mask ^ near ^ 1 << w
                far = 0
                for _ in range(r - 1):
                    grown = 0
                    for u in bits[frontier]:
                        grown |= adjacency[u]
                    frontier = grown & left
                    if not frontier:
                        break
                    far |= frontier
                    left ^= frontier
                children = [near_marks[u] for u in bits[near]]
                children += [far_marks[u] for u in bits[far]]
            children.sort()
            values.append(b"N" + own[w] + b"[" + b"".join(children) + b"]")
        return values

    return leaves, None


def _encode_context(
    adjacency: tuple[int, ...],
    ctx_mask: int,
    classes: dict[Encoding, int],
    radii: tuple[int, ...],
    depth: int,
    stats: _Stats,
    bits: _BitTable,
) -> dict[int, Encoding]:
    """Encode each member of the context ``ctx_mask`` under two or more radii.

    ``classes`` maps each own value f to the mask of the members that have
    it; each result is ``node(f, children)``, written out inline.
    """
    size = ctx_mask.bit_count()
    stats.add(depth, size, size)
    r1 = radii[0]
    tail = radii[1:]
    n = len(adjacency) // 2
    # Screened members adjacent to v ("near") carry flag 1, the rest of the
    # ball ("far") flag 0.
    flagged = [(b"M1" + f, b"M0" + f, k) for f, k in classes.items()]
    leaves = lookup = None
    if len(tail) == 1:
        leaf_classes = {m1: k for m1, _, k in flagged}
        if r1 > 1:
            leaf_classes.update({m0: k << n for _, m0, k in flagged})
        leaves, lookup = _leaf_level(adjacency, leaf_classes, tail[0], bits)
    # v's ball grows from its near set, one frontier per radius above 1,
    # each frontier's rows ORed and masked by the context outside the ball;
    # a radius-0 ball holds v alone.  The loop stays inline: a helper call
    # per context ran about 1.05x on both workloads' graphs.
    reach = ctx_mask if r1 else 0
    total = largest = 0  # the leaf contexts' sizes, summed and at most
    out: dict[int, Encoding] = {}
    for f, k in classes.items():
        head = b"N" + f + b"["
        for v in bits[k]:
            near = frontier = adjacency[v] & reach
            left = ctx_mask ^ near ^ 1 << v  # the context outside the ball
            far = 0
            for _ in range(r1 - 1):
                grown = 0
                for u in bits[frontier]:
                    grown |= adjacency[u]
                frontier = grown & left
                if not frontier:
                    break
                far |= frontier
                left ^= frontier
            if leaves is not None:
                children = leaves(near | far << n)
                size = len(children)
                total += size
                if size > largest:
                    largest = size
            else:
                child_classes: dict[Encoding, int] = {}
                for m1, m0, c in flagged:
                    if c & near:
                        child_classes[m1] = c & near
                    if c & far:
                        child_classes[m0] = c & far
                children = list(
                    _encode_context(
                        adjacency, near | far, child_classes, tail, depth + 1, stats, bits
                    ).values()
                )
            children.sort()
            if lookup is not None:
                children = map(lookup, children)
            out[v] = head + b"".join(children) + b"]"
    if leaves is not None:
        stats.add(depth + 1, total, largest)
    return out


def rnp_encode_nodes(
    g: Graph, radii: Sequence[int]
) -> tuple[dict[int, Encoding], UpdateCounter]:
    """Encode every node of g; also report the work counter.

    Each node's own value is ``leaf(attribute)``.
    """
    radii = _check_radii(radii)
    n = g.node_count
    classes: dict[Encoding, int] = {}
    for v, a in enumerate(g.attributes):
        f = leaf(a)
        classes[f] = classes.get(f, 0) | 1 << v
    stats = _Stats(len(radii))
    # Rows u and u + n both hold u's neighbours under both names, so a
    # last-level context may name any member u as u + n.
    adjacency = tuple(row | row << n for row in g.adjacency) * 2
    full = (1 << n) - 1
    bits = _BitTable()
    if len(radii) == 1:
        leaves, lookup = _leaf_level(adjacency, classes, radii[0], bits)
        stats.add(0, n, n)
        values = leaves(full)
        if lookup is not None:
            values = map(lookup, values)
        encodings = dict(zip(range(n), values))
    else:
        encodings = dict(sorted(
            _encode_context(adjacency, full, classes, radii, 0, stats, bits).items()
        ))
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
    c = max(map(sum, layer_sizes(g.adjacency, radii[0])), default=0)
    return g.node_count * c ** len(radii)
