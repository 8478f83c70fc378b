import hashlib
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnpkit import (
    Graph,
    PatternCensus,
    SplitMix64,
    UnsupportedSizeError,
    are_isomorphic,
    automorphism_count,
    complete,
    count_induced,
    count_noninduced,
    cycle,
    enumerate_connected_graphs,
    erdos_renyi,
    is_connected,
    path,
    permuted,
    star,
    two_triangles,
)
from rnpkit.counting import _key_rows

from conftest import (
    all_graphs,
    canonical_code,
    count_all_patterns,
    graph_strategy,
    induced_subgraph,
    reference_embeddings,
    seeded_graph,
    seeded_permutation,
)


def comb(n, k):
    from math import comb as _comb

    return _comb(n, k)


def noninduced_by_enumeration(g: Graph, h: Graph) -> int:
    """Independent oracle: enumerate vertex subsets and edge subsets.

    Each candidate is compared by canonical code, whose search shares no
    code with the matcher behind count_noninduced.
    """
    k = h.node_count
    target = canonical_code(h)
    total = 0
    for subset in combinations(range(g.node_count), k):
        sub, _ = induced_subgraph(g, subset)
        edges = sub.edges()
        for picks in range(1 << len(edges)):
            chosen = [e for i, e in enumerate(edges) if (picks >> i) & 1]
            candidate = Graph.from_edges(k, chosen, sub.attributes)
            if canonical_code(candidate) == target:
                total += 1
    return total


def triangle_count_by_triple_loop(g: Graph) -> int:
    n = g.node_count
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
                    total += 1
    return total


class TestCountInduced:
    def test_triangles_in_k5(self):
        assert count_induced(complete(5), complete(3)) == 10

    def test_figure_pair_counting_gap(self):
        assert count_induced(cycle(6), complete(3)) == 0
        assert count_induced(two_triangles(), complete(3)) == 2

    def test_random_graph_against_triple_loop(self):
        g = erdos_renyi(10, 0.3, 7)
        assert count_induced(g, complete(3)) == triangle_count_by_triple_loop(g)

    def test_pattern_larger_than_host(self):
        assert count_induced(complete(3), complete(4)) == 0

    def test_attribute_aware(self):
        host = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1, 0, 1, 1])
        marked_edge = Graph.from_edges(2, [(0, 1)], [0, 1])
        assert count_induced(host, marked_edge) == 2  # edges (0,1) and (1,2)
        all_ones_edge = Graph.from_edges(2, [(0, 1)], [1, 1])
        assert count_induced(host, all_ones_edge) == 1  # edge (2,3)

    def test_isomorphism_invariance(self):
        g = seeded_graph(9, 0.4, 21)
        relabeled = permuted(g, seeded_permutation(9, 5))
        for h in [complete(3), path(4), cycle(4), star(3)]:
            assert count_induced(g, h) == count_induced(relabeled, h)

    def test_size_guards(self):
        with pytest.raises(UnsupportedSizeError):
            count_induced(complete(5), complete(9))
        with pytest.raises(UnsupportedSizeError):
            count_induced(Graph.from_edges(65), complete(3))


class TestCountNoninduced:
    def test_stars_in_k4(self):
        assert count_noninduced(complete(4), star(3)) == 4
        assert noninduced_by_enumeration(complete(4), star(3)) == 4

    def test_triangle_in_itself(self):
        assert count_noninduced(complete(3), complete(3)) == 1

    def test_complete_patterns_match_induced(self):
        for seed in range(5):
            g = seeded_graph(8, 0.5, seed)
            for k in (2, 3, 4):
                assert count_noninduced(g, complete(k)) == count_induced(g, complete(k))

    def test_path_count_closed_form(self):
        for seed in range(10):
            g = seeded_graph(9, 0.4, 100 + seed)
            expected = sum(comb(g.degree(v), 2) for v in range(9))
            assert count_noninduced(g, path(3)) == expected

    def test_noninduced_minus_induced_is_three_triangles(self):
        for seed in range(15):
            g = seeded_graph(8, 0.45, 200 + seed)
            gap = count_noninduced(g, path(3)) - count_induced(g, path(3))
            assert gap == 3 * count_induced(g, complete(3))

    def test_small_cases_against_enumeration(self):
        patterns = [path(3), star(3), cycle(4), complete(3)]
        for seed in range(4):
            g = seeded_graph(6, 0.5, 300 + seed)
            for h in patterns:
                assert count_noninduced(g, h) == noninduced_by_enumeration(g, h)

    def test_disconnected_pattern(self):
        h = Graph.from_edges(3, [(0, 1)])  # edge plus an isolated node
        g = path(3)
        assert count_noninduced(g, h) == noninduced_by_enumeration(g, h)


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(3), 6),
            (path(3), 2),
            (star(3), 6),
            (cycle(4), 8),
            (cycle(5), 10),
        ],
    )
    def test_known_groups(self, g, expected):
        assert automorphism_count(g) == expected

    def test_attributes_restrict(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [1, 0, 0])
        assert automorphism_count(g) == 2


def _edge_count_partners(k):
    """Each labelled k-node graph with two others of its edge count."""
    by_edges: dict[int, list[Graph]] = {}
    for g in all_graphs(k):
        by_edges.setdefault(g.edge_count, []).append(g)
    for group in by_edges.values():
        for i, g in enumerate(group):
            yield g, (group[(i + 1) % len(group)], group[(i + 7) % len(group)])


class TestMatcherAgainstPermutations:
    """automorphism_count and count_noninduced share one backtracking
    matcher, and are_isomorphic asks the isomorphism-class index, whose
    search colours nodes by BFS layer sizes instead; a permutation oracle
    with no pruning checks all three."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_labelled_graph(self, k):
        for g, partners in _edge_count_partners(k):
            assert automorphism_count(g) == reference_embeddings(g, g, True)
            for h in partners:
                assert are_isomorphic(g, h) == (reference_embeddings(g, h, True) > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        graph_strategy(max_nodes=6, attributed=True, max_attribute=1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=14),
    )
    def test_attributed_graphs(self, g, seed, flip):
        n = g.node_count
        assert automorphism_count(g) == reference_embeddings(g, g, True)
        rows = list(g.adjacency)
        pairs = list(combinations(range(n), 2))
        if pairs:  # one node pair's edge state flipped
            u, v = pairs[flip % len(pairs)]
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        perm = seeded_permutation(n, seed)
        others = [
            permuted(g, perm),
            permuted(Graph(n, tuple(rows), g.attributes), perm),
            Graph(n, g.adjacency, tuple(g.attributes[v] for v in perm)),
        ]
        for h in others:
            assert are_isomorphic(g, h) == (reference_embeddings(g, h, True) > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        graph_strategy(max_nodes=6, attributed=True, max_attribute=1),
        graph_strategy(max_nodes=4, attributed=True, max_attribute=1),
    )
    def test_noninduced_counts(self, g, h):
        expected = reference_embeddings(h, g, False) // reference_embeddings(h, h, True)
        assert count_noninduced(g, h) == expected


class TestPatternHistogram:
    def test_k4_triangles(self):
        hist = count_all_patterns(complete(4), 3)
        assert hist == {canonical_code(complete(3)): 4}

    def test_cycle_six_breakdown(self):
        hist = count_all_patterns(cycle(6), 3)
        one_edge = Graph.from_edges(3, [(0, 1)])
        empty = Graph.from_edges(3)
        assert hist[canonical_code(path(3))] == 6
        assert hist[canonical_code(one_edge)] == 12
        assert hist[canonical_code(empty)] == 2
        assert sum(hist.values()) == comb(6, 3)

    def test_whole_graph_size(self):
        g = seeded_graph(5, 0.5, 8)
        hist = count_all_patterns(g, 5)
        assert list(hist.values()) == [1]

    def test_totals(self):
        g = seeded_graph(9, 0.35, 13)
        for k in (2, 3, 4):
            assert sum(count_all_patterns(g, k).values()) == comb(9, k)

    def test_matches_count_induced(self):
        g = seeded_graph(8, 0.4, 31)
        hist = count_all_patterns(g, 4)
        for h in all_graphs(4):
            assert hist.get(canonical_code(h), 0) == count_induced(g, h)

    def test_size_guards(self):
        with pytest.raises(UnsupportedSizeError):
            count_all_patterns(seeded_graph(5, 0.5, 1), 6)
        with pytest.raises(UnsupportedSizeError):
            count_all_patterns(Graph.from_edges(41), 3)


def _six_node_representatives():
    reps: dict[bytes, Graph] = {}
    for g in all_graphs(6):
        reps.setdefault(canonical_code(g), g)
    return list(reps.values())


class TestEdgeSupersetExpansion:
    def test_expansion_identity_on_six_node_corpus(self):
        # c[class] = number of edge subsets of the superset class that form
        # the pattern; then noninduced = sum c[class] * induced(class)
        corpus = _six_node_representatives()
        assert len(corpus) == 156
        for h in [path(3), star(3), cycle(4)]:
            k = h.node_count
            target = canonical_code(h)  # independent of count_noninduced
            coefficients: dict[bytes, int] = {}
            supersets: dict[bytes, Graph] = {}
            all_pairs = list(combinations(range(k), 2))
            base_edges = set(h.edges())
            optional = [e for e in all_pairs if e not in base_edges]
            for picks in range(1 << len(optional)):
                extra = [e for i, e in enumerate(optional) if (picks >> i) & 1]
                candidate = Graph.from_edges(k, list(base_edges) + extra)
                code = canonical_code(candidate)
                supersets[code] = candidate
            for code, rep in supersets.items():
                edges = rep.edges()
                c = 0
                for picks in range(1 << len(edges)):
                    chosen = [e for i, e in enumerate(edges) if (picks >> i) & 1]
                    if canonical_code(Graph.from_edges(k, chosen)) == target:
                        c += 1
                coefficients[code] = c
            for g in corpus:
                expected = sum(
                    c * count_induced(g, supersets[code])
                    for code, c in coefficients.items()
                )
                assert count_noninduced(g, h) == expected


# Connected patterns go through the census, the rest through the oracles.
CENSUS_PATTERNS = (
    list(enumerate_connected_graphs(3))
    + list(enumerate_connected_graphs(4))
    + [
        Graph.from_edges(1),
        Graph.from_edges(2, [(0, 1)], [0, 1]),  # attributed edge
        Graph.from_edges(3, [(0, 1), (1, 2)], [1, 0, 1]),  # attributed path
        path(5),
        Graph.from_edges(3, [(0, 1)]),  # edge plus an isolated node
        Graph.from_edges(4, [(0, 1), (2, 3)]),  # two disjoint edges
        Graph.from_edges(0),
        complete(6),  # connected, but above the census size
    ]
)


def _oracle_counts(g, patterns, mode):
    oracle = count_induced if mode == "induced" else count_noninduced
    return tuple(oracle(g, h) for h in patterns)


class TestPatternCensus:
    @pytest.mark.parametrize("mode", ["induced", "noninduced"])
    def test_matches_oracles_on_er_corpus(self, mode):
        census = PatternCensus(CENSUS_PATTERNS, mode)
        for seed in range(200):
            g = erdos_renyi(10, 0.3, seed)
            assert census.counts(g) == _oracle_counts(g, CENSUS_PATTERNS, mode)
        # one entry per labelled connected graph seen: 1 + 1 + 4 + 38 + 728 at most
        assert sum(map(len, census._terms.values())) <= 772

    @settings(max_examples=150, deadline=None)
    @given(graph_strategy(max_nodes=7, attributed=True))
    def test_matches_oracles_on_attributed_hosts(self, g):
        # Hosts of up to 7 nodes also meet patterns larger than themselves.
        for mode in ("induced", "noninduced"):
            census = PatternCensus(CENSUS_PATTERNS, mode)
            assert census.counts(g) == _oracle_counts(g, CENSUS_PATTERNS, mode)

    def test_pattern_larger_than_host(self):
        for mode in ("induced", "noninduced"):
            assert PatternCensus([cycle(4), path(5)], mode).counts(complete(3)) == (0, 0)

    def test_census_visits_each_connected_subset_once(self):
        hosts = []
        for seed in range(6):
            g = seeded_graph(9, 0.3, 400 + seed)
            rng = SplitMix64(seed)
            hosts += [g, Graph(9, g.adjacency, tuple(rng.below(3) for _ in range(9)))]
        for g in hosts:
            # one pattern of each census size, so the census tallies them all
            census = PatternCensus([path(k) for k in range(1, 6)])
            width, tallies = census._census(g)
            assert set(tallies) == set(range(1, 6))
            for k in range(1, 6):
                connected = [
                    sub for sub in (induced_subgraph(g, s)[0] for s in combinations(range(9), k))
                    if is_connected(sub)
                ]
                tally = tallies[k]
                assert PatternCensus([path(k)])._census(g) == (width, {k: tally})
                assert sum(tally.values()) == len(connected)
                # every class at once, by canonical code rather than the matcher
                by_code = Counter()
                for key, seen in tally.items():
                    rows, attrs = census._decode(key, k, width)
                    by_code[canonical_code(Graph(k, rows, attrs))] += seen
                assert by_code == Counter(canonical_code(sub) for sub in connected)

    def test_id_width_grows_across_hosts(self):
        # One census per mode meets hosts whose attribute values take its
        # ids from 1 to 5, so its keys' id width goes 0, 1, 2, 2, 3; then
        # the first host again, at width 3, and a 64-node attributed host.
        patterns = [
            Graph.from_edges(1, [], [3]),
            Graph.from_edges(2, [(0, 1)], [0, 4]),
            Graph.from_edges(3, [(0, 1), (1, 2)], [1, 0, 2]),
            complete(3),
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 2]),
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)], [4, 3, 1, 4]),
        ]
        first = erdos_renyi(8, 0.5, 90)
        hosts = [first]
        for values in range(2, 6):
            rng = SplitMix64(values)
            attrs = [rng.below(values) for _ in range(8)]
            attrs[values] = values - 1  # the new value
            hosts.append(Graph(8, erdos_renyi(8, 0.5, 90 + values).adjacency, tuple(attrs)))
        rng = SplitMix64(64)
        big = erdos_renyi(64, 0.08, 64)
        hosts += [first, Graph(64, big.adjacency, tuple(rng.below(5) for _ in range(64)))]
        for mode in ("induced", "noninduced"):
            census = PatternCensus(patterns, mode)
            for g in hosts:
                assert census.counts(g) == _oracle_counts(g, patterns, mode)
            assert {width for _, width in census._terms} == {0, 1, 2, 3}

    @settings(max_examples=200, deadline=None)
    @given(graph_strategy(max_nodes=5, attributed=True))
    def test_back_masks_round_trip(self, g):
        # a census key (back-masks, attrs) names exactly one labelled graph
        back = sum(
            (row & ((1 << i) - 1)) << i * (i - 1) // 2 for i, row in enumerate(g.adjacency)
        )
        assert Graph(g.node_count, _key_rows(back, g.node_count), g.attributes) == g

    @pytest.mark.parametrize("mode, digest", [
        ("induced", "4f438657cab0f3bcbcb635040bda60bf7f983752281b950b51048fcb3be60ea6"),
        ("noninduced", "3d6110b636cfa62b08c66acb48a3242e2a8853593e3c53f6c3eb71dd8f96ef45"),
    ])
    def test_counts_pinned(self, mode, digest):
        # Digests of the census as it was when it keyed each labelled
        # subgraph by its adjacency rows.
        hosts = [erdos_renyi(10, 0.3, seed) for seed in range(200)]
        for seed in range(60):
            g = erdos_renyi(9, 0.4, 7000 + seed)
            rng = SplitMix64(seed)
            hosts.append(Graph(9, g.adjacency, tuple(rng.below(3) for _ in range(9))))
        census = PatternCensus(CENSUS_PATTERNS, mode)
        counts = [census.counts(g) for g in hosts]
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest

    def test_no_patterns(self):
        assert PatternCensus([], "induced").counts(Graph.from_edges(70)) == ()

    def test_eight_node_patterns_are_accepted(self):
        # MAX_PATTERN_NODES = 8 is a largest allowed size, not a first rejected one.
        assert count_induced(complete(10), complete(8)) == 45
        assert PatternCensus([complete(8)]).counts(complete(10)) == (45,)
        assert count_noninduced(complete(8), cycle(8)) == 2520  # 8! / 16 automorphisms
        assert PatternCensus([path(8)], "noninduced").counts(cycle(8)) == (8,)

    def test_size_guards_match_oracles(self):
        with pytest.raises(UnsupportedSizeError, match="pattern has 9 nodes, limit is 8"):
            PatternCensus([complete(3), complete(9)])
        census = PatternCensus([complete(3)])
        with pytest.raises(UnsupportedSizeError, match="host has 65 nodes, limit is 64"):
            census.counts(Graph.from_edges(65))
        with pytest.raises(ValueError):
            PatternCensus([complete(3)], "partial")
