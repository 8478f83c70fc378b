"""1-WL color refinement, the message-passing expressiveness baseline.

Refinement is exact and hash-free.  Round 0 colors are the node
attributes.  In each later round a node's key is (own color, sorted
neighbor colors), and its new color is the rank of that key among the
round's sorted distinct keys.  Refinement stops after the first round
that splits no class (Cardon & Crochemore 1982; Berkholz, Bonsma & Grohe
2013): with t the first round whose partition the next round keeps, that
is t + 1 <= n rounds.

The certificate is one flat, self-delimiting tuple of ints: n, the sorted
attributes, then one block per round run (t + 1 <= n of them for n >= 1),
each the number of distinct keys followed by each key's (count, length,
key ints) in sorted key order.

Why comparing certificates is 1-WL.  Let the true color of a node at
round s be its full refinement tree to depth s (what a collision-free
hash of (color, sorted neighbor colors), iterated, would name).  The true
color at round s + 1 determines the one at round s, so for two graphs
with equal n, equal true-color histograms after 2n rounds is the same as
equal histograms at every round up to 2n.  Then, for graphs G and H:

1. If their certificates agree up to round s, one injective map sends
   the true round-s colors of both graphs to their ranks.  At round 0 the
   ranks are the attributes themselves.  At round s + 1 the keys are
   therefore equal exactly when the true colors are, so the round's part
   of the certificate lists the true-color histogram; equal parts give
   equal sorted key lists and hence one shared rank map again.  So the
   certificates agree up to round s iff the true histograms agree at
   every round up to s.  Each graph's stopping round is read off the
   agreed prefix (class counts of two successive rounds), so graphs with
   equal prefixes stop together, and t + 1 <= n <= 2n.
2. Once neither graph splits a class after round t, a node's true color
   at round t + 1 is a function of its color at round t, and since the
   round-(t + 1) histograms agree, a color present at round t has the same
   neighbor multiset in both graphs.  By induction every later true color
   is one common function of the round-t color, so equal round-(t + 1)
   histograms stay equal at every later round.

Hence equal certificates iff equal 2n-round histograms.  Within a set of
graphs sharing a certificate the stable ranks name the same true colors,
and isomorphisms preserve them.
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph, bits_of


def degree_profile(g: Graph) -> tuple[int, ...]:
    """Each node's ``attribute * n + degree``, sorted: its (attribute,
    degree) pairs in one int each.

    Equal certificates give equal profiles, since round 1 lists each node's
    key (attribute, sorted neighbor attributes), whose length is its degree
    plus one.
    """
    n = g.node_count
    return tuple(sorted(a * n + row.bit_count() for a, row in zip(g.attributes, g.adjacency)))


def wl_refine(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(certificate, stable colors) of 1-WL refinement.

    Two graphs get equal certificates iff 1-WL cannot tell them apart.
    Stable colors are ranks; they are comparable across graphs that share
    a certificate.  The certificate holds one block per round run: t + 1
    <= n blocks for n >= 1 nodes, and ``(0, 0)`` for the empty graph.
    """
    neighbors = [bits_of(row) for row in g.adjacency]
    colors = list(g.attributes)
    certificate = [g.node_count, *sorted(colors)]
    classes = len(set(colors))
    while True:
        keys = [
            (colors[v], *sorted(map(colors.__getitem__, nbrs)))
            for v, nbrs in enumerate(neighbors)
        ]
        counts = Counter(keys)
        ranks = {}
        certificate.append(len(counts))
        for key in sorted(counts):
            ranks[key] = len(ranks)
            certificate += (counts[key], len(key), *key)
        colors = [ranks[key] for key in keys]
        if len(counts) == classes:
            return tuple(certificate), tuple(colors)
        classes = len(counts)


def wl_distinguish(g1: Graph, g2: Graph) -> bool:
    """True iff 1-WL refinement separates the two graphs."""
    if degree_profile(g1) != degree_profile(g2):
        return True
    return wl_refine(g1)[0] != wl_refine(g2)[0]
