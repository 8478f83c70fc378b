import hashlib
from collections import defaultdict
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnpkit import (
    Graph,
    PatternCensus,
    SplitMix64,
    UpdateCounter,
    admits,
    are_isomorphic,
    complete,
    count_noninduced,
    cycle,
    distinguish,
    encoding_digest,
    enumerate_connected_graphs,
    erdos_renyi,
    graph_readout,
    leaf,
    marked,
    node,
    path,
    permuted,
    random_regular_perturbed,
    rnp_encode_graph,
    rnp_encode_nodes,
    two_triangles,
    update_bound,
    wl_distinguish,
)

from rnpkit import encoder
from rnpkit.encoder import _BitTable, _leaf_keys, _leaf_level, _leaf_tables
from rnpkit.graphs import bfs_layers

from conftest import (
    cfi_pair,
    count_all_patterns,
    graph_strategy,
    seeded_graph,
    seeded_permutation,
    wide_sparse_graph_strategy,
)

RADII_POOL = [(1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2, 1), (1, 1, 1)]


class TestEncodingValues:
    def test_leaf_framing(self):
        assert leaf(0) == b"L0;"
        assert leaf(12) == b"L12;"
        with pytest.raises(ValueError):
            leaf(-1)

    def test_leaf_rejects_a_non_integer(self):
        # %d would write leaf(0.5) as L0;, the value of attribute 0.
        with pytest.raises(ValueError, match="attributes must be nonnegative integers"):
            leaf(0.5)

    def test_marked_flag(self):
        assert marked(leaf(3), 1) != marked(leaf(3), 0)
        assert marked(leaf(3), 1) == marked(leaf(3), True)

    def test_node_sorts_children(self):
        a, b = leaf(1), leaf(2)
        assert node(leaf(0), [a, b]) == node(leaf(0), [b, a])

    def test_multiset_multiplicity_matters(self):
        assert node(leaf(0), [leaf(1)]) != node(leaf(0), [leaf(1), leaf(1)])

    def test_nesting_is_unambiguous(self):
        # same leaves arranged differently must never serialize equally
        flat = node(leaf(0), [leaf(1), leaf(2)])
        nested = node(leaf(0), [node(leaf(1), [leaf(2)])])
        assert flat != nested
        assert node(leaf(0), []) != leaf(0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 5), max_size=5),
        st.lists(st.integers(0, 5), max_size=5),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_injectivity_on_multisets(self, xs, ys, own_x, own_y):
        a = node(leaf(own_x), [leaf(x) for x in xs])
        b = node(leaf(own_y), [leaf(y) for y in ys])
        same = own_x == own_y and sorted(xs) == sorted(ys)
        assert (a == b) == same

    def test_digest_is_fixed_width(self):
        assert len(encoding_digest(leaf(0))) == 64
        assert encoding_digest(leaf(0)) != encoding_digest(leaf(1))


class TestNodeEncodings:
    def test_isolated_nodes(self):
        g = Graph.from_edges(4)
        encodings, counter = rnp_encode_nodes(g, (1,))
        assert counter.invocations == 4
        assert set(encodings.values()) == {node(leaf(0), [])}

    def test_symmetric_pair(self):
        g = Graph.from_edges(2, [(0, 1)])
        encodings, _ = rnp_encode_nodes(g, (1,))
        assert encodings[0] == encodings[1]

    def test_path_center_differs_from_endpoints(self):
        encodings, _ = rnp_encode_nodes(path(3), (1,))
        assert encodings[0] == encodings[2]
        assert encodings[1] != encodings[0]

    def test_zero_radius_wraps_own_feature_only(self):
        encodings, counter = rnp_encode_nodes(complete(4), (0,))
        assert set(encodings.values()) == {node(leaf(0), [])}
        assert counter.invocations == 4

    def test_nodes_come_in_ascending_order(self):
        # The recursion walks value classes, not nodes; the result still
        # lists nodes by index, under radii of length 1, 2 and 3.
        rng = SplitMix64(1717)
        for values in range(2, 14):
            for radii in [(1,), (2,), (1, 1), (2, 1), (3, 2, 1), (1, 2, 2)]:
                n = 4 + rng.below(12)
                base = erdos_renyi(n, 0.2 + 0.4 * rng.random(), rng.next_u64())
                g = Graph(n, base.adjacency, tuple(rng.below(values) for _ in range(n)))
                encodings, _ = rnp_encode_nodes(g, radii)
                assert list(encodings) == list(range(n))

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            rnp_encode_nodes(path(3), ())
        with pytest.raises(ValueError):
            rnp_encode_nodes(path(3), (1, -1))

    def test_rejects_a_non_integer_radius(self):
        # A radius of 1.5 would reach the whole path in update_bound's sweep.
        for radii in [(1.5,), (2, 1.0)]:
            with pytest.raises(ValueError, match="radii must be nonnegative integers"):
                rnp_encode_nodes(path(6), radii)
            with pytest.raises(ValueError, match="radii must be nonnegative integers"):
                update_bound(path(6), radii)


class TestGraphEncoding:
    def test_isomorphism_invariance_sampled(self):
        rng = SplitMix64(99)
        for trial in range(500):
            n = 2 + rng.below(8)
            g = erdos_renyi(n, 0.2 + 0.6 * rng.random(), rng.next_u64())
            h = permuted(g, seeded_permutation(n, rng.next_u64()))
            radii = RADII_POOL[rng.below(len(RADII_POOL))]
            assert rnp_encode_graph(g, radii) == rnp_encode_graph(h, radii)

    def test_figure_pair_distinguished_at_depth_two(self):
        assert distinguish(cycle(6), two_triangles(), (1, 1))

    def test_figure_pair_single_level_snapshot(self):
        # regression snapshot of executed behaviour: one pooling level with
        # marking does not separate these 2-regular graphs
        assert distinguish(cycle(6), two_triangles(), (1,)) is False

    def test_relabeling_never_distinguished(self):
        g = seeded_graph(7, 0.4, 41)
        h = permuted(g, seeded_permutation(7, 6))
        for radii in [(1,), (2, 1), (1, 1)]:
            assert not distinguish(g, h, radii)

    def test_degree_gap_distinguished_at_base(self):
        k4_minus_edge = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert distinguish(complete(4), k4_minus_edge, (1,))

    def test_readout_is_a_multiset(self):
        assert graph_readout([leaf(1), leaf(2)]) == graph_readout([leaf(2), leaf(1)])


class TestUpdateCounting:
    def test_isolated_nodes_bound_is_tight(self):
        g = Graph.from_edges(5)
        _, counter = rnp_encode_nodes(g, (1,))
        assert counter.invocations == update_bound(g, (1,)) == 5

    def test_empty_graph(self):
        empty = Graph(0, (), ())
        assert rnp_encode_nodes(empty, (2, 1)) == ({}, UpdateCounter(0, (0, 0), (0, 0)))
        assert update_bound(empty, (2, 1)) == 0

    def test_counter_is_an_immutable_value(self):
        counter = UpdateCounter(5, (3, 2), (3, 2))
        assert counter == UpdateCounter(5, (3, 2), (3, 2))
        assert hash(counter) == hash(UpdateCounter(5, (3, 2), (3, 2)))
        assert repr(counter) == (
            "UpdateCounter(invocations=5, max_context_per_level=(3, 2), "
            "invocations_per_level=(3, 2))"
        )
        with pytest.raises(AttributeError):
            counter.invocations = 6

    def test_k4_bound_value(self):
        assert update_bound(complete(4), (1, 1)) == 64

    def test_k4_invocations_per_level(self):
        # 4 top-level updates, then 4 contexts of the 3 other nodes
        _, counter = rnp_encode_nodes(complete(4), (1, 1))
        assert counter.invocations_per_level == (4, 12)
        assert counter.invocations == 16

    def test_cycle_bound_value(self):
        # closed radius-2 ball on a 6-cycle has 5 nodes
        assert update_bound(cycle(6), (2, 1)) == 150

    def test_counter_within_bound_sampled(self):
        rng = SplitMix64(1234)
        for trial in range(100):
            n = 2 + rng.below(14)
            g = erdos_renyi(n, 0.15 + 0.5 * rng.random(), rng.next_u64())
            radii = RADII_POOL[rng.below(len(RADII_POOL))]
            _, counter = rnp_encode_nodes(g, radii)
            assert counter.invocations <= update_bound(g, radii)
            assert len(counter.invocations_per_level) == len(radii)
            assert sum(counter.invocations_per_level) == counter.invocations

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(graph_strategy(max_nodes=9), wide_sparse_graph_strategy()),
        st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    def test_bound_matches_full_bfs_formula(self, g, radii):
        # The bound before its BFS stopped at the first radius: each ball
        # is the first r1 + 1 layers of a BFS over the whole graph.
        n = g.node_count
        full = (1 << n) - 1
        c = max(
            (sum(bfs_layers(g.adjacency, full, v)[: radii[0] + 1]).bit_count()
             for v in range(n)),
            default=0,
        )
        assert update_bound(g, radii) == n * c ** len(radii)

    def test_context_sizes_shrink_for_nonincreasing_radii(self):
        rng = SplitMix64(4321)
        for radii in [(2, 1), (2, 2, 1), (3, 2, 1), (1, 1, 1)]:
            for trial in range(30):
                n = 3 + rng.below(10)
                g = erdos_renyi(n, 0.2 + 0.5 * rng.random(), rng.next_u64())
                _, counter = rnp_encode_nodes(g, radii)
                sizes = counter.max_context_per_level
                observed = [s for s in sizes if s > 0]
                assert all(a >= b for a, b in zip(observed, observed[1:]))


def reference_encode(members, g, feats, radii, contexts=None, depth=0):
    """Slow set-based reference of the recursive pooling procedure.

    When given, ``contexts`` collects the size of every context by depth.
    """
    if contexts is not None:
        contexts.setdefault(depth, []).append(len(members))
    r1, tail = radii[0], radii[1:]
    out = {}
    for v in members:
        ball = {v}
        frontier = {v}
        for _ in range(r1):
            frontier = {
                w for u in frontier for w in g.neighbors(u) if w in members
            } - ball
            ball |= frontier
        screened = ball - {v}
        tagged = {u: marked(feats[u], 1 if g.has_edge(u, v) else 0) for u in screened}
        if not tail:
            children = list(tagged.values())
        elif screened:
            children = list(
                reference_encode(screened, g, tagged, tail, contexts, depth + 1).values()
            )
        else:
            children = []
        out[v] = node(feats[v], children)
    return out


def reference_counter(contexts, levels):
    per_level = [contexts.get(depth, []) for depth in range(levels)]
    return UpdateCounter(
        sum(map(sum, per_level)),
        tuple(max(sizes, default=0) for sizes in per_level),
        tuple(map(sum, per_level)),
    )


# Radius-0 levels, last radii of 2 or more, and up to four levels; a radius
# of 3 below the top, and a last radius of 2 or more after one of 2 or more.
REFERENCE_RADII = RADII_POOL + [
    (0,), (3,), (0, 1), (1, 0), (1, 3), (2, 0, 2), (3, 2, 1), (2, 2, 2, 1), (1, 2, 0, 2),
    (2, 2, 1, 2), (1, 3, 1), (2, 3, 2),
]


class TestAgainstReference:
    def test_matches_slow_set_based_recursion(self):
        rng = SplitMix64(808017)
        for trial in range(50):
            n = 1 + rng.below(9)
            g = erdos_renyi(n, 0.2 + 0.6 * rng.random(), rng.next_u64())
            radii = RADII_POOL[rng.below(len(RADII_POOL))]
            expected = reference_encode(
                set(range(n)), g, {v: leaf(g.attributes[v]) for v in range(n)}, radii
            )
            actual, _ = rnp_encode_nodes(g, radii)
            assert actual == expected

    def test_matches_reference_on_attributed_graphs(self):
        rng = SplitMix64(404)
        for trial in range(4 * len(REFERENCE_RADII)):
            radii = REFERENCE_RADII[trial % len(REFERENCE_RADII)]
            n = 1 + rng.below(16)
            base = erdos_renyi(n, 0.15 + 0.35 * rng.random(), rng.next_u64())
            g = Graph(n, base.adjacency, tuple(rng.below(3) for _ in range(n)))
            feats = {v: leaf(g.attributes[v]) for v in range(n)}
            contexts = {}
            expected = reference_encode(set(range(n)), g, feats, radii, contexts)
            actual, counter = rnp_encode_nodes(g, radii)
            assert actual == expected
            assert counter == reference_counter(contexts, len(radii))

    def test_benchmark_encodings_pinned(self):
        # A faster encoder must reproduce the encodings byte for byte and
        # the work counter exactly: the digest of the whole-graph
        # encodings of the 100 ER graphs a seed-1 census_er14 benchmark
        # run draws, under the radii (3, 2, 1) its patterns need.
        digest = hashlib.sha256()
        invocations = 0
        for t in range(100):
            g = erdos_renyi(14, 0.3, 1_000_000 + t)
            encodings, counter = rnp_encode_nodes(g, (3, 2, 1))
            digest.update(graph_readout(encodings.values()))
            invocations += counter.invocations
        assert digest.hexdigest() == (
            "6f9ce0280580da69a33fea6d5c24f69ff9e66dbda85e0e93c4458764dbe40433"
        )
        assert invocations == 177_914

    def test_stream_regular_encodings_pinned(self):
        # The same for the first 200 graphs of a seed-1 stream_regular run:
        # 3-regular n=10 graphs with one edge deleted, under (3, 2, 1).
        digest = hashlib.sha256()
        invocations = 0
        for t in range(200):
            g = random_regular_perturbed(10, 3, 1, 1_000_000 + t)
            encodings, counter = rnp_encode_nodes(g, (3, 2, 1))
            digest.update(graph_readout(encodings.values()))
            invocations += counter.invocations
        assert digest.hexdigest() == (
            "cdb84a7a8e36a972eb880e777ed948d6a684a3e41788e0f2c8840efadd0a2838"
        )
        assert invocations == 111_786

    def test_leaf_keys_need_radius_one_and_four_values(self, monkeypatch):
        # Classes are ranked by bytes (L10; before L1;) and their masks
        # padded to four; a fifth value or a leaf radius above 1 keeps the
        # per-child routine, which gives each member its class's value and
        # comes with no key lookup.  The leaf contexts here have no edges.
        own = {0: b"L1;", 1: b"L10;", 2: b"L1;", 5: b"L0;"}
        classes = {b"L1;": 0b101, b"L10;": 0b10, b"L0;": 1 << 5}
        edgeless = (0,) * 12
        leaves, lookup = _leaf_level(edgeless, classes, 2, _BitTable())
        assert lookup is None
        assert leaves(0b100111) == [node(own[u], []) for u in (0, 1, 2, 5)]
        base, k1, k2, k3, k4, s1, s2, s3, table = _leaf_keys(classes, 6)
        assert (k1, k2, k3, k4) == (1 << 5, 0b10, 0b101, 0)
        assert (s1, s2, s3) == (3, 6, 9)
        # Indexed by member; 3 and 4 are no members.
        assert base == [(3 << 12) - 1, (2 << 12) - 1, (3 << 12) - 1, 0, 0,
                        (1 << 12) - 1]
        assert table is _leaf_tables[3, (b"L0;", b"L10;", b"L1;")]
        # Member 0 with one L0; neighbour and two L1; neighbours.
        assert table[base[0] - (1 << s3 | 2 << s1)] == node(
            own[0], [marked(b"L1;", 1), marked(b"L0;", 1), marked(b"L1;", 1)]
        )
        four, five = ({b"L%d;" % u: 1 << u for u in range(m)} for m in (4, 5))
        leaves, lookup = _leaf_level((0,) * 8, four, 1, _BitTable())
        keys = leaves(0b1111)
        assert all(isinstance(key, int) for key in keys)
        assert list(map(lookup, keys)) == [node(b"L%d;" % u, []) for u in range(4)]
        assert _leaf_level((0,) * 10, five, 1, _BitTable())[1] is None
        monkeypatch.setattr(encoder, "_leaf_keys", None)
        g = erdos_renyi(9, 0.4, 3)
        feats = {v: leaf(0) for v in range(9)}
        for radii in [(2,), (1, 2), (2, 2)]:
            expected = reference_encode(set(range(9)), g, feats, radii)
            assert rnp_encode_nodes(g, radii)[0] == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(st.booleans(), max_size=2), st.sampled_from([0, 1, 2, 10, 12])),
            min_size=1, max_size=4, unique_by=lambda t: (tuple(t[0]), t[1]),
        ),
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 3), st.lists(st.floats(0, 1), min_size=4,
                                                         max_size=4)),
                 min_size=1, max_size=6),
    )
    def test_leaf_key_order_is_byte_order(self, drawn_classes, n, drawn_leaves):
        # Marks of unequal length (L1;, L10;, L2;), flagged up to twice, and
        # every count from 0 to M = 2**b - 1.
        classes = sorted(reduce(marked, flags, leaf(a)) for flags, a in drawn_classes)
        m = len(classes)
        base, _, _, _, _, s1, s2, s3, table = _leaf_keys(
            {f: 1 << w for w, f in enumerate(classes)}, n
        )
        top = (1 << n.bit_length()) - 1
        keys, values = [], []
        for rank, fractions in drawn_leaves:
            w = rank % m
            c = [round(x * top) for x in fractions[:m]] + [0] * (4 - m)
            keys.append(base[w] - (c[0] << s3 | c[1] << s2 | c[2] << s1 | c[3]))
            values.append(node(classes[w], [
                marked(classes[i], 1) for i in range(m) for _ in range(c[i])
            ]))
        assert [table[k] for k in keys] == values
        assert [table[k] for k in sorted(keys)] == sorted(values)
        for x, y in zip(keys, values):
            for x2, y2 in zip(keys, values):
                assert (x < x2) == (y < y2) and (x == x2) == (y == y2)

    def test_warm_tables_of_other_widths_are_never_misread(self):
        # b = n.bit_length() changes at 8 and 16; unattributed graphs give
        # every width the same mark classes.
        for n in (7, 8, 15, 16, 7, 16, 8, 15):
            g = erdos_renyi(n, 0.4, 77 + n)
            feats = {v: leaf(0) for v in range(n)}
            for radii in [(1,), (1, 1), (2, 1), (3, 2, 1)]:
                expected = reference_encode(set(range(n)), g, feats, radii)
                assert rnp_encode_nodes(g, radii)[0] == expected
        widths = {width for width, classes in _leaf_tables if classes == (b"L0;",)}
        assert {3, 4, 5} <= widths

    def test_leaf_tables_cleared_at_their_cap(self, monkeypatch):
        # The 12 graphs have far more than 8 distinct leaf values, so the
        # tables stay within the cap only by being cleared.
        monkeypatch.setattr(encoder, "_LEAF_TABLE_CAP", 8)
        monkeypatch.setattr(encoder, "_leaf_table_entries", 8)
        encoder._count_leaf_table_entry()  # at the cap: clears the tables
        assert not _leaf_tables
        feats = {v: leaf(0) for v in range(12)}
        for seed in range(12):
            g = erdos_renyi(12, 0.35, seed)
            expected = reference_encode(set(range(12)), g, feats, (2, 1))
            assert rnp_encode_nodes(g, (2, 1))[0] == expected
            held = len(_leaf_tables) + sum(map(len, _leaf_tables.values()))
            assert held <= encoder._leaf_table_entries <= 8

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            graph_strategy(max_nodes=9),
            graph_strategy(max_nodes=9, attributed=True, max_attribute=1),
            wide_sparse_graph_strategy(max_attribute=0),
        ),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_matches_reference_where_leaves_use_class_counts(self, g, drawn):
        # Unattributed graphs under radii of length at most 3 leave at most
        # four mark values at a radius-1 leaf (near or far at two depths), so
        # their leaves are built from class counts.  Attributes in {0, 1}
        # give exactly four under (2, 1) and eight, the per-child path,
        # under (3, 2, 1).
        n = g.node_count
        feats = {v: leaf(g.attributes[v]) for v in range(n)}
        for radii in REFERENCE_RADII + [tuple(drawn)]:
            contexts = {}
            expected = reference_encode(set(range(n)), g, feats, radii, contexts)
            actual, counter = rnp_encode_nodes(g, radii)
            assert actual == expected
            assert counter == reference_counter(contexts, len(radii))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            graph_strategy(max_nodes=8, attributed=True, max_attribute=12),
            wide_sparse_graph_strategy(),
        ),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_matches_reference_on_hypothesis_graphs(self, g, drawn):
        # Every graph runs under REFERENCE_RADII and one drawn sequence.
        # Attributes up to 12 put L10; before L1; in byte order.
        n = g.node_count
        feats = {v: leaf(g.attributes[v]) for v in range(n)}
        for radii in REFERENCE_RADII + [tuple(drawn)]:
            contexts = {}
            expected = reference_encode(set(range(n)), g, feats, radii, contexts)
            actual, counter = rnp_encode_nodes(g, radii)
            assert actual == expected
            assert counter == reference_counter(contexts, len(radii))

    def test_attributed_encodings_pinned(self):
        # Node encodings and work counters on seeded attributed hosts (one
        # in eight wider than 64 nodes) with attributes 0-12, under every
        # radius sequence of REFERENCE_RADII.
        digest = hashlib.sha256()
        rng = SplitMix64(1212)
        for trial in range(3 * len(REFERENCE_RADII)):
            radii = REFERENCE_RADII[trial % len(REFERENCE_RADII)]
            if trial % 8 == 0:
                n = 65 + rng.below(12)
                p = 2.5 / n
            else:
                n = 1 + rng.below(18)
                p = 0.15 + 0.4 * rng.random()
            base = erdos_renyi(n, p, rng.next_u64())
            g = Graph(n, base.adjacency, tuple(rng.below(13) for _ in range(n)))
            encodings, counter = rnp_encode_nodes(g, radii)
            for v in range(n):
                digest.update(encodings[v])
            digest.update(repr(counter).encode())
        assert digest.hexdigest() == (
            "41a338c9a0c6de8a6f8b04d64d4adfd94d56beb468e73e581fa8768add4b8c2d"
        )


class TestCountRefinement:
    def test_small_pattern_profiles_are_refined_on_six_node_corpus(self):
        # any two connected 6-node graphs with different induced-pattern
        # profiles at sizes <= 4 must encode differently under (3, 2, 1)
        corpus = enumerate_connected_graphs(6)
        by_encoding = defaultdict(set)
        for g in corpus:
            profile = tuple(
                tuple(sorted(count_all_patterns(g, k).items())) for k in (2, 3, 4)
            )
            by_encoding[rnp_encode_graph(g, (3, 2, 1))].add(profile)
        for profiles in by_encoding.values():
            assert len(profiles) == 1


K33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])


class TestTheorem1OnCollisions:
    # Cai-Fuerer-Immerman pairs: non-isomorphic, 1-WL-equivalent, and with
    # equal encodings under budgets that admit every connected pattern of
    # 3 to len(radii) + 1 nodes.  Theorem 1 then says the counts of those
    # patterns agree; here the check compares counts of graphs that are
    # not isomorphic, so it can fail.
    @pytest.mark.parametrize("base, size, budgets", [
        (complete(4), (40, 60), [(3, 2, 1), (4, 3, 2, 1)]),
        (K33, (60, 90), [(3, 2, 1)]),
    ], ids=["K4", "K3,3"])
    def test_equal_encodings_give_equal_counts(self, base, size, budgets):
        plain, twisted = cfi_pair(base)
        assert (plain.node_count, plain.edge_count) == size
        assert (twisted.node_count, twisted.edge_count) == size
        # canonical_code stops at 8 nodes: the class index alone decides this.
        assert not are_isomorphic(plain, twisted)
        assert not wl_distinguish(plain, twisted)
        for radii in budgets:
            assert rnp_encode_graph(plain, radii) == rnp_encode_graph(twisted, radii)
            patterns = [h for k in range(3, len(radii) + 2)
                        for h in enumerate_connected_graphs(k)]
            assert all(admits(h, radii) is not None for h in patterns)
            induced = PatternCensus(patterns, "induced")
            assert induced.counts(twisted) == induced.counts(plain)
            noninduced = PatternCensus(patterns, "noninduced")
            counts = noninduced.counts(plain)
            assert noninduced.counts(twisted) == counts
            assert counts == tuple(count_noninduced(plain, h) for h in patterns)
