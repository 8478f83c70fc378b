import pickle
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnpkit import (
    INFINITY,
    Graph,
    ParseError,
    UnsupportedSizeError,
    are_isomorphic,
    complete,
    count_noninduced,
    cycle,
    enumerate_connected_graphs,
    is_connected,
    min_r1_covering_sequence,
    parse_graph,
    path,
    permuted,
    random_regular_perturbed,
    serialize_graph,
    two_triangles,
    update_bound,
)
from rnpkit import covering, encoder, erdos_renyi
from rnpkit.graphs import _embeddings, _search_plan, bfs_layers, bits_of, layer_sizes

from conftest import (
    all_graphs,
    all_pairs_shortest_paths,
    canonical_code,
    cell_scan_embeddings,
    disjoint_union,
    graph_strategy,
    graph_text_strategy,
    induced_subgraph,
    neighborhood,
    reference_embeddings,
    reference_layer_sizes,
    reference_parse_graph,
    reference_search_plan,
    rook_and_shrikhande,
    seeded_graph,
    seeded_permutation,
    wide_sparse_graph_strategy,
)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00), (0, 0))

    def test_rejects_negative_attribute(self):
        with pytest.raises(ValueError):
            Graph.from_edges(1, [], [-1])

    def test_rejects_a_non_integer_attribute(self):
        # An attribute of 0.5 would encode as 0 and serialize as text that
        # parse_graph rejects.
        for attributes in [(0.5, 0), (0, "1")]:
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                Graph(2, (2, 1), attributes)

    def test_rows_and_attributes_are_stored_as_tuples(self):
        rows, attributes = (2, 5, 2), (0, 0, 0)
        from_lists = Graph(3, list(rows), list(attributes))
        assert from_lists.adjacency == rows and from_lists.attributes == attributes
        assert from_lists == Graph(3, rows, attributes)
        assert hash(from_lists) == hash(Graph(3, rows, attributes))
        # A tuple is stored as it is, not copied.
        g = Graph(3, rows, attributes)
        assert g.adjacency is rows and g.attributes is attributes

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, (), ()), "node_count must be nonnegative"),
            ((2, (0b10,), (0, 0)), "one row per node"),
            ((2, (0b10, 0b01), (0,)), "one entry per node"),
            ((2, (0b100, 0b00), (0, 0)), "row 0 references nodes out of range"),
            ((2, (0b01, 0b00), (0, 0)), "self-loop at node 0"),
        ],
    )
    def test_constructor_checks_rows_directly(self, args, message):
        # Rows given directly, which from_edges never builds.
        with pytest.raises(ValueError, match=message):
            Graph(*args)

    def test_graphs_are_immutable_values(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], [0, 2, 0])
        same = Graph(3, (2, 5, 2), (0, 2, 0))
        assert g == same and hash(g) == hash(same) and len({g, same}) == 1
        assert g != Graph(3, (2, 5, 2), (0, 0, 0))
        assert g != (3, (2, 5, 2), (0, 2, 0))
        assert repr(g) == "Graph(node_count=3, adjacency=(2, 5, 2), attributes=(0, 2, 0))"
        for change in (
            lambda: setattr(g, "node_count", 4),
            lambda: delattr(g, "adjacency"),
            lambda: setattr(g, "label", "x"),
        ):
            with pytest.raises(AttributeError):
                change()
        assert g == same
        assert pickle.loads(pickle.dumps(g)) == g

    def test_edges_and_degrees(self):
        g = cycle(6)
        assert g.edge_count == 6
        assert [g.degree(v) for v in range(6)] == [2] * 6
        assert g.has_edge(0, 5) and not g.has_edge(0, 3)


def naive_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# Masks made of nonzero bytes at scattered offsets, so that set bytes are
# separated by zero bytes, up to 200 bits wide.
sparse_byte_masks = st.dictionaries(
    st.integers(min_value=0, max_value=24), st.integers(min_value=1, max_value=255)
).map(lambda by_offset: sum(byte << 8 * offset for offset, byte in by_offset.items()))


class TestBitsOf:
    @settings(max_examples=300)
    @given(st.one_of(st.integers(min_value=0, max_value=(1 << 200) - 1), sparse_byte_masks))
    @example(0)
    @example((1 << 64) - 1)
    @example(1 << 64)
    @example((1 << 199) | (1 << 64) | (1 << 63) | 1)
    @example(0xFF << 120)
    def test_matches_naive_oracle(self, mask):
        assert bits_of(mask) == naive_bits(mask)

    def test_neighbors_is_a_list_above_64_nodes(self):
        g = Graph.from_edges(70, [(0, 69), (5, 69), (64, 69)])
        assert g.neighbors(69) == [0, 5, 64]


class TestNeighborhood:
    def test_cycle_radius_one(self):
        assert neighborhood(cycle(6), 0, 1) == {0, 1, 5}

    def test_cycle_radius_three_is_everything(self):
        assert neighborhood(cycle(6), 0, 3) == set(range(6))

    def test_radius_zero_is_self(self):
        g = seeded_graph(8, 0.4, 3)
        for v in range(8):
            assert neighborhood(g, v, 0) == {v}

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            neighborhood(cycle(3), 3, 1)

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(min_nodes=1, max_nodes=7), st.integers(0, 7), st.integers(0, 8))
    def test_balls_grow_then_saturate(self, g, v, r):
        v = v % g.node_count
        smaller = neighborhood(g, v, r)
        larger = neighborhood(g, v, r + 1)
        assert smaller <= larger
        if r >= g.node_count - 1:
            assert smaller == larger


class TestBfsLayers:
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(graph_strategy(min_nodes=1, max_nodes=9), wide_sparse_graph_strategy()),
        st.integers(0, 1 << 90),
        st.integers(0, 89),
        st.integers(0, 6),
    )
    def test_radius_keeps_the_first_layers_of_the_full_bfs(self, g, within, v, radius):
        v = v % g.node_count
        within = (within | 1 << v) & ((1 << g.node_count) - 1)
        full_bfs = bfs_layers(g.adjacency, within, v)
        assert bfs_layers(g.adjacency, within, v, radius) == full_bfs[: radius + 1]


def _sweeps(g):
    # Every update_bound and, when it applies, the min-r1 sequence of g.
    bounds = [update_bound(g, radii) for radii in ((0,), (1,), (2, 1), (3, 2, 1), (9,))]
    cover = min_r1_covering_sequence(g) if g.node_count > 1 and is_connected(g) else None
    return bounds, cover


def _matches_the_bfs_sweeps(g):
    """The sweeps equal their versions with the all-sources kernel
    replaced by the per-node BFS oracle."""
    kernel = _sweeps(g)
    with mock.patch.object(encoder, "layer_sizes", reference_layer_sizes), \
            mock.patch.object(covering, "layer_sizes", reference_layer_sizes):
        return kernel == _sweeps(g)


class TestLayerSizes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(graph_strategy(max_nodes=10, attributed=True),
                  wide_sparse_graph_strategy()),
        st.sampled_from([None, 0, 1, 2, 3]),
    )
    @example(Graph(0, (), ()), None)
    @example(Graph.from_edges(4, [], (0, 1, 0, 2)), 1)
    @example(disjoint_union(cycle(6), complete(1)), None)
    @example(two_triangles(), 2)
    @example(path(9), 3)
    def test_matches_one_bfs_per_node(self, g, radius):
        # Isolated nodes, several components and attributes come from both
        # strategies; the wide hosts take the masks over 64 bits.
        assert layer_sizes(g.adjacency, radius) == reference_layer_sizes(g.adjacency, radius)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graph_strategy(max_nodes=10, attributed=True),
                     wide_sparse_graph_strategy()))
    def test_sweeps_match_their_bfs_versions(self, g):
        assert _matches_the_bfs_sweeps(g)

    def test_sweeps_match_on_every_small_connected_graph(self):
        # Every connected class with 1-6 nodes, as enumerated and under
        # three seeded relabellings.
        count = 0
        for k in range(1, 7):
            for i, g in enumerate(enumerate_connected_graphs(k)):
                for j in range(4):
                    perm = seeded_permutation(k, 100 * k + 10 * i + j) if j else range(k)
                    assert _matches_the_bfs_sweeps(permuted(g, perm))
                    count += 1
        assert count == 4 * (1 + 1 + 2 + 6 + 21 + 112)


class TestShortestPaths:
    def test_path_distance(self):
        d = all_pairs_shortest_paths(path(3))
        assert d[0][2] == 2
        assert d[0][0] == 0

    def test_disjoint_edges_are_infinite(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        d = all_pairs_shortest_paths(g)
        assert d[0][2] == INFINITY and d[1][3] == INFINITY
        assert d[0][1] == 1 and d[2][3] == 1

    def test_cycle_diameter(self):
        d = all_pairs_shortest_paths(cycle(6))
        assert max(max(row) for row in d) == 3

    def test_symmetry_and_zero_diagonal(self):
        g = seeded_graph(9, 0.3, 11)
        d = all_pairs_shortest_paths(g)
        for u in range(9):
            assert d[u][u] == 0
            for v in range(9):
                assert d[u][v] == d[v][u]

    def test_triangle_inequality(self):
        for seed in range(8):
            g = seeded_graph(8, 0.3, 60 + seed)
            d = all_pairs_shortest_paths(g)
            for u in range(8):
                for v in range(8):
                    for w in range(8):
                        assert d[u][w] <= d[u][v] + d[v][w]

    def test_infinite_exactly_across_components(self):
        g = disjoint_union(cycle(3), path(3))
        d = all_pairs_shortest_paths(g)
        for u in range(6):
            for v in range(6):
                same_side = (u < 3) == (v < 3)
                assert (d[u][v] == INFINITY) == (not same_side)


class TestInducedSubgraph:
    def test_complete_graph_restriction(self):
        sub, index_map = induced_subgraph(complete(4), {0, 1, 2})
        assert are_isomorphic(sub, complete(3))
        assert index_map == {0: 0, 1: 1, 2: 2}

    def test_nonadjacent_endpoints(self):
        sub, _ = induced_subgraph(path(3), {0, 2})
        assert sub.node_count == 2 and sub.edge_count == 0

    def test_cycle_three_consecutive_is_a_path(self):
        g = cycle(6)
        sub, index_map = induced_subgraph(g, {1, 2, 3})
        # check adjacency pair by pair against the host graph
        for u, v in combinations([1, 2, 3], 2):
            assert sub.has_edge(index_map[u], index_map[v]) == g.has_edge(u, v)
        assert are_isomorphic(sub, path(3))

    def test_full_node_set_is_identity(self):
        g = seeded_graph(7, 0.5, 5)
        sub, index_map = induced_subgraph(g, range(7))
        assert sub == g
        assert index_map == {v: v for v in range(7)}

    def test_attributes_carried_over(self):
        g = Graph.from_edges(3, [(0, 1)], [5, 6, 7])
        sub, _ = induced_subgraph(g, {0, 2})
        assert sub.attributes == (5, 7)

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            induced_subgraph(cycle(3), {0, 3})


class TestIsomorphism:
    def test_triangle_is_three_cycle(self):
        assert are_isomorphic(complete(3), cycle(3))

    def test_triangle_is_not_path(self):
        assert not are_isomorphic(complete(3), path(3))

    def test_connectivity_difference(self):
        assert not are_isomorphic(cycle(6), two_triangles())

    def test_different_node_counts(self):
        assert not are_isomorphic(complete(3), complete(4))

    def test_attributes_must_match(self):
        a = Graph.from_edges(2, [(0, 1)], [0, 1])
        b = Graph.from_edges(2, [(0, 1)], [0, 0])
        c = Graph.from_edges(2, [(0, 1)], [1, 0])
        assert not are_isomorphic(a, b)
        assert are_isomorphic(a, c)

    def test_large_sparse_host_against_itself_and_a_relabelled_copy(self):
        # 1,500 search positions, more than Python's default recursion limit.
        g = erdos_renyi(1500, 3 / 1499, 7)
        h = permuted(g, seeded_permutation(1500, 3))
        assert are_isomorphic(g, g)
        assert are_isomorphic(g, h)

    def test_equivalence_relation_on_corpus(self):
        corpus = [g for g in all_graphs(4)]
        for g in corpus[:16]:
            assert are_isomorphic(g, g)
        for g, h in list(combinations(corpus[:12], 2)):
            assert are_isomorphic(g, h) == are_isomorphic(h, g)
        # transitivity spot-check over permuted copies
        g = seeded_graph(6, 0.5, 17)
        h = permuted(g, seeded_permutation(6, 1))
        k = permuted(h, seeded_permutation(6, 2))
        assert are_isomorphic(g, h) and are_isomorphic(h, k) and are_isomorphic(g, k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=5, max_value=100).map(lambda half: 2 * half),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(100, 0, 1, 2)
    @example(200, 0, 1, 2)
    @example(64, 0, 3, 4)
    def test_regular_hosts(self, n, delete, seed, other_seed):
        # Every node of a 3-regular graph shares one (attribute, degree)
        # cell, so a search over those cells alone is exponential here.
        g = random_regular_perturbed(n, 3, delete, seed)
        copy = permuted(g, seeded_permutation(n, seed))
        assert are_isomorphic(g, copy) and are_isomorphic(copy, g)
        other = random_regular_perturbed(n, 3, delete, other_seed)
        answer = are_isomorphic(g, other)
        assert answer == are_isomorphic(other, g)
        if n <= 64 and any(count_noninduced(g, c) != count_noninduced(other, c)
                           for c in (cycle(4), cycle(5))):
            assert not answer

    def test_classes_keep_their_own_plans(self):
        # A class's plan lives in its index, not in the process-wide plan
        # cache, so a loop over distinct large hosts keeps none of them.
        before = _search_plan.cache_info().currsize
        for seed in range(5):
            g = random_regular_perturbed(200, 3, 0, seed)
            assert are_isomorphic(g, g)
            assert are_isomorphic(g, permuted(g, seeded_permutation(200, seed)))
        assert _search_plan.cache_info().currsize == before

    def test_rook_and_shrikhande(self):
        # Strongly regular with equal parameters: equal BFS layer sizes at
        # every node, told apart only by the exact search.
        rook, shrikhande = rook_and_shrikhande()
        assert not are_isomorphic(rook, shrikhande)
        assert not are_isomorphic(shrikhande, rook)
        for seed, g in enumerate((rook, shrikhande)):
            assert are_isomorphic(g, permuted(g, seeded_permutation(16, seed)))


@st.composite
def _matcher_pairs(draw):
    """(p, t) on at most 6 nodes each, with 0-1 attributes: t is any graph,
    a relabelled copy of p, or such a copy with one more node, so that maps
    often exist."""
    p = draw(graph_strategy(max_nodes=6, attributed=True, max_attribute=1))
    kind = draw(st.sampled_from(["any", "copy", "grown"]))
    if kind == "any":
        return p, draw(graph_strategy(max_nodes=6, attributed=True, max_attribute=1))
    t = permuted(p, draw(st.permutations(range(p.node_count))))
    if kind == "grown" and p.node_count < 6:
        n = p.node_count
        extra = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        rows = [row | (extra >> v & 1) << n for v, row in enumerate(t.adjacency)]
        t = Graph(n + 1, (*rows, extra), (*t.attributes, draw(st.integers(0, 1))))
    return p, t


@st.composite
def _wide_matcher_pairs(draw):
    """(p, t): t a host of 65-90 nodes with 0-1 attributes, drawn from at
    least 45 node pairs; p at most 4 nodes: any graph without isolated
    nodes (or a single node), a connected piece of t, or two pieces of at
    most 2 nodes each, so that p is sometimes disconnected and maps often
    exist.  A p with more isolated nodes would have about n**k maps, too
    many to count."""
    t = draw(wide_sparse_graph_strategy(max_attribute=1, min_pairs=45))
    kind = draw(st.sampled_from(["any", "piece", "two pieces"]))
    if kind == "any":
        p = draw(graph_strategy(min_nodes=1, max_nodes=4, attributed=True, max_attribute=1)
                 .filter(lambda p: p.node_count == 1 or all(p.adjacency)))
        return p, t
    # Pieces start at a node with neighbours, where there is one.
    starts = [v for v, row in enumerate(t.adjacency) if row] or range(t.node_count)

    def piece(sizes):
        members = {draw(st.sampled_from(starts))}
        for _ in range(draw(st.sampled_from(sizes)) - 1):
            reach = 0  # the nodes next to the piece: an OR, as rows share bits
            for v in members:
                reach |= t.adjacency[v]
            reach &= ~sum(1 << v for v in members)
            if reach:
                members.add(draw(st.sampled_from(bits_of(reach))))
        return induced_subgraph(t, members)[0]

    if kind == "piece":
        return piece([4, 3, 2, 1]), t
    return disjoint_union(piece([2, 1]), piece([2, 1])), t


@st.composite
def _hub_hosts(draw):
    """Up to 90 nodes: node 0 adjacent to any subset of the rest, plus up
    to n more node pairs, so that many nodes tie on degree and on their
    ordered neighbours."""
    n = draw(st.integers(min_value=2, max_value=90))
    node = st.integers(min_value=0, max_value=n - 1)
    spokes = draw(st.sets(st.integers(min_value=1, max_value=n - 1)))
    pairs = draw(st.lists(st.tuples(node, node), max_size=n))
    edges = {(0, v) for v in spokes} | {(min(e), max(e)) for e in pairs if e[0] != e[1]}
    attrs = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    return Graph.from_edges(n, edges, attrs)


class TestMatcher:
    @settings(max_examples=200, deadline=None)
    @given(graph_strategy(max_nodes=8, attributed=True))
    def test_plan_back_positions_are_earlier_neighbours(self, g):
        order, back, keys = _search_plan(g.adjacency, g.attributes)
        assert sorted(order) == list(range(g.node_count))
        assert keys == tuple(g.attributes[u] for u in order)
        for j, u in enumerate(order):
            assert back[j] == tuple(i for i in range(j) if g.has_edge(order[i], u))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(graph_strategy(max_nodes=9, attributed=True), _hub_hosts(),
                     wide_sparse_graph_strategy()))
    def test_plans_match_the_reference_planner(self, g):
        # The heap planner against the scan of every unordered node.
        assert _search_plan(g.adjacency, g.attributes) == reference_search_plan(
            g.adjacency, g.attributes)

    @settings(max_examples=300, deadline=None)
    @given(_matcher_pairs())
    def test_embeddings_match_brute_force(self, graphs):
        p, t = graphs
        for induced in (True, False):
            # induced mode counts isomorphisms, so only equal node counts map
            if induced and p.node_count != t.node_count:
                expected = 0
            else:
                expected = reference_embeddings(p, t, induced)
            args = (p.adjacency, p.attributes, t.adjacency, t.attributes, induced)
            assert _embeddings(*args) == expected
            assert _embeddings(*args, first=True) == min(expected, 1)

    @settings(max_examples=60, deadline=None)
    @given(_wide_matcher_pairs(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_big_hosts_match_the_cell_scan(self, graphs, seed):
        # Candidates from a placed neighbour's row, against the whole-cell
        # scan.  Induced mode maps onto all of t, so p's maps are 0 there and
        # a relabelled copy of t maps onto t.  The copy is not run through
        # the cell scan: its answer is known, and on hosts with a hub of
        # interchangeable leaves the cell scan permutes them for minutes.
        p, t = graphs
        for induced in (False, True):
            args = (p.adjacency, p.attributes, t.adjacency, t.attributes, induced)
            assert _embeddings(*args) == cell_scan_embeddings(*args)
            assert _embeddings(*args, first=True) == cell_scan_embeddings(*args, first=True)
        copy = permuted(t, seeded_permutation(t.node_count, seed))
        assert _embeddings(copy.adjacency, copy.attributes, t.adjacency, t.attributes,
                           True, first=True) == 1

    def test_four_cycles_on_a_sparse_thousand_node_host(self):
        g = erdos_renyi(1000, 3 / 999, 7)
        c4 = cycle(4)
        args = (c4.adjacency, c4.attributes, g.adjacency, g.attributes, False)
        assert _embeddings(*args) == 128
        assert _embeddings(*args, first=True) == 1


class TestCanonicalCode:
    def test_invariant_under_relabeling(self):
        g = complete(3)
        assert canonical_code(g) == canonical_code(permuted(g, [2, 0, 1]))

    def test_separates_triangle_from_path(self):
        assert canonical_code(complete(3)) != canonical_code(path(3))

    def test_eleven_classes_on_four_nodes(self):
        # independent oracle: dedup all 2^6 labelled graphs by pairwise
        # backtracking isomorphism, then compare with code-based dedup
        corpus = list(all_graphs(4))
        representatives: list[Graph] = []
        for g in corpus:
            if not any(are_isomorphic(g, r) for r in representatives):
                representatives.append(g)
        assert len(representatives) == 11
        assert len({canonical_code(g) for g in corpus}) == 11

    def test_matches_isomorphism_exhaustively_up_to_five_nodes(self):
        for k in range(1, 6):
            by_code: dict[bytes, list[Graph]] = {}
            for g in all_graphs(k):
                by_code.setdefault(canonical_code(g), []).append(g)
            for members in by_code.values():
                rep = members[0]
                for other in members[1:]:
                    assert are_isomorphic(rep, other)
            reps = [members[0] for members in by_code.values()]
            for a, b in combinations(reps, 2):
                assert not are_isomorphic(a, b)

    def test_matches_isomorphism_exhaustively_at_six_nodes(self):
        # all 2^15 labelled graphs; equal codes within a class, distinct
        # codes across the 156 classes, verified by backtracking isomorphism
        by_code: dict[bytes, list[Graph]] = {}
        for g in all_graphs(6):
            by_code.setdefault(canonical_code(g), []).append(g)
        assert len(by_code) == 156
        for members in by_code.values():
            rep = members[0]
            for other in members[1:]:
                assert are_isomorphic(rep, other)
        reps = [members[0] for members in by_code.values()]
        for a, b in combinations(reps, 2):
            assert not are_isomorphic(a, b)

    def test_attributed_codes(self):
        # mark on an edge endpoint vs on the isolated node
        a = Graph.from_edges(3, [(0, 1)], [1, 0, 0])
        b = Graph.from_edges(3, [(1, 2)], [0, 0, 1])
        c = Graph.from_edges(3, [(1, 2)], [1, 0, 0])
        assert are_isomorphic(a, b) and not are_isomorphic(a, c)
        assert canonical_code(a) == canonical_code(b)
        assert canonical_code(a) != canonical_code(c)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_code(complete(9))

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(min_nodes=1, max_nodes=6, attributed=True), st.integers(0, 10**6))
    def test_code_survives_random_relabeling(self, g, seed):
        perm = seeded_permutation(g.node_count, seed)
        assert canonical_code(g) == canonical_code(permuted(g, perm))


class TestTextFormat:
    def test_parse_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
        assert g == complete(3)

    def test_parse_isolated_nodes(self):
        g = parse_graph("2 0\n")
        assert g.node_count == 2 and g.edge_count == 0

    def test_parse_self_loop_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_graph("2 1\n0 0\n")
        assert err.value.line == 2

    def test_parse_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n0 1\n")

    def test_parse_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph("2 1\n0 5\n")

    def test_parse_unordered_edge(self):
        with pytest.raises(ParseError):
            parse_graph("3 1\n2 1\n")

    def test_parse_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_graph("banana\n")
        assert err.value.line == 1

    def test_parse_missing_edges(self):
        with pytest.raises(ParseError):
            parse_graph("3 2\n0 1\n")

    def test_parse_bad_attribute_lines(self):
        with pytest.raises(ParseError):
            parse_graph("2 0\nattr 0\n")
        with pytest.raises(ParseError):
            parse_graph("2 0\nattr 5 1\n")
        with pytest.raises(ParseError):
            parse_graph("2 0\nattr 0 1\nattr 0 2\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "missing header line"),
            ("# only a comment\n\n", 3, "missing header line"),
            ("3 x\n", 1, "header values must be integers"),
            ("# c\n3 -1\n", 2, "header values must be nonnegative"),
            ("-2 0\n", 1, "header values must be nonnegative"),
            ("3 2\n0 1\n1\n", 3, "edge line must be"),
            ("3 1\n0 1 2\n", 2, "edge line must be"),
            ("3 1\n0 b\n", 2, "edge endpoints must be integers"),
            ("2 0\nattr 0 x\n", 2, "attribute line values must be integers"),
            ("2 0\nattr 1.5 1\n", 2, "attribute line values must be integers"),
            # int() also takes underscores, a leading + and non-ASCII digits
            ("1_0 0\n", 1, "header values must be integers"),
            ("+3 1\n0 1\n", 1, "header values must be integers"),
            ("- 0\n", 1, "header values must be integers"),
            ("3 1\n0 +2\n", 2, "edge endpoints must be integers"),
            ("3 1\n--0 2\n", 2, "edge endpoints must be integers"),
            ("2 0\nattr 0 1_2\n", 2, "attribute line values must be integers"),
            ("2 0\nattr \u0661 1\n", 2, "attribute line values must be integers"),
            ("3 1\n0 \uff12\n", 2, "edge endpoints must be integers"),
            ("2 1\n0 1\n\nattr 1 -3\n", 4, "attribute for node 1 must be nonnegative"),
            # past the largest list size
            ("1" * 30 + " 0\n", 1, "node count 1{30} is too large"),
            ("# c\n18446744073709551616 2\n", 2, "node count 18446744073709551616 is too large"),
        ],
    )
    def test_parse_errors_name_their_line(self, text, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_graph(text)
        assert err.value.line == line

    def test_comments_and_attributes(self):
        text = "# a triangle with one marked node\n3 3\n0 1\n1 2\n0 2\nattr 2 9\n"
        g = parse_graph(text)
        assert g.attributes == (0, 0, 9)

    def test_round_trip_examples(self):
        for g in [cycle(6), two_triangles(), Graph.from_edges(3, [(0, 2)], [4, 0, 1])]:
            assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(max_nodes=8, attributed=True))
    def test_round_trip_property(self, g):
        assert parse_graph(serialize_graph(g)) == g


    @settings(max_examples=400, deadline=None)
    @given(graph_text_strategy())
    @example("")
    @example("\r\n# c\r\n")
    @example("2 1\r\n\r\n0 1\r\nattr 1 3")
    @example("2 3\n0 1\n# c\n")
    def test_parser_matches_reference(self, text):
        # The same graph as the line-at-a-time parser, or the same error,
        # message and line.
        try:
            expected = reference_parse_graph(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_graph(text)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc))
        else:
            assert parse_graph(text) == expected

class TestUtilities:
    def test_disjoint_union_counts(self):
        g = disjoint_union(complete(3), cycle(4))
        assert g.node_count == 7 and g.edge_count == 7
        assert not is_connected(g)

    def test_permuted_preserves_structure(self):
        g = seeded_graph(6, 0.4, 9)
        h = permuted(g, seeded_permutation(6, 4))
        assert are_isomorphic(g, h)

    def test_permuted_rejects_a_non_permutation(self):
        for perm in ((0, 0, 2), (0, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match="perm must be a permutation of the node indices"):
                permuted(path(3), perm)

    def test_is_connected(self):
        assert is_connected(cycle(5))
        assert not is_connected(two_triangles())
        assert is_connected(Graph.from_edges(1))
        assert is_connected(Graph.from_edges(0))
