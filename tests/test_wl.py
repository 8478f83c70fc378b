import hashlib
import json
from itertools import combinations

from rnpkit import (
    Graph,
    SplitMix64,
    complete,
    cycle,
    distinguish,
    enumerate_connected_graphs,
    erdos_renyi,
    path,
    permuted,
    random_regular_perturbed,
    two_triangles,
    wl_distinguish,
    wl_refine,
    wl_stabilization_rounds,
)
from rnpkit.wl import _initial_colors, _neighbor_lists, _partition, _refine_once

from conftest import seeded_graph, seeded_permutation


class TestRefinement:
    def test_cycle_is_monochrome(self):
        hist = wl_refine(cycle(6))
        assert list(hist.values()) == [6]

    def test_two_triangles_match_cycle(self):
        assert wl_refine(two_triangles()) == wl_refine(cycle(6))

    def test_path_splits_center(self):
        hist = wl_refine(path(3))
        assert sorted(hist.values()) == [1, 2]

    def test_attributes_seed_colors(self):
        plain = Graph.from_edges(3, [(0, 1), (1, 2)])
        tagged = Graph.from_edges(3, [(0, 1), (1, 2)], [0, 0, 1])
        assert wl_refine(plain) != wl_refine(tagged)

    def test_histogram_total_is_node_count(self):
        g = seeded_graph(9, 0.4, 2)
        assert sum(wl_refine(g).values()) == 9

    def test_stabilizes_within_node_count_rounds(self):
        graphs = [cycle(6), path(7), two_triangles(), seeded_graph(10, 0.3, 5)]
        graphs += list(enumerate_connected_graphs(5))
        for g in graphs:
            assert wl_stabilization_rounds(g) <= max(1, g.node_count)

    def test_partition_never_coarsens(self):
        for seed in range(10):
            g = seeded_graph(9, 0.35, 50 + seed)
            colors = _initial_colors(g)
            neighbors = _neighbor_lists(g)
            classes = len(set(_partition(colors)))
            for _ in range(2 * g.node_count):
                colors = _refine_once(neighbors, colors)
                new_classes = len(set(_partition(colors)))
                assert new_classes >= classes
                classes = new_classes

    def test_histograms_pinned_on_benchmark_graphs(self):
        # Colors are sha256 names, so a faster refinement must reproduce
        # them byte for byte: the digest of every histogram of the 100 ER
        # and 2,000 perturbed-regular graphs a seed-1 benchmark run draws.
        graphs = [erdos_renyi(14, 0.3, 1_000_000 + t) for t in range(100)]
        graphs += [random_regular_perturbed(10, 3, 1, 1_000_000 + t) for t in range(2000)]
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(json.dumps(wl_refine(g), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "ef86f8ea50e1995994a539d5f478e70d6586c69e231bc654e0008b0b342d5804"
        )


class TestDistinguish:
    def test_figure_pair_not_separated(self):
        assert not wl_distinguish(cycle(6), two_triangles())

    def test_degree_histograms_separate(self):
        assert wl_distinguish(complete(3), path(3))

    def test_relabeling_never_separated(self):
        for seed in range(20):
            g = seeded_graph(8, 0.4, 400 + seed)
            h = permuted(g, seeded_permutation(8, seed))
            assert not wl_distinguish(g, h)

    def test_different_sizes_separated(self):
        assert wl_distinguish(cycle(6), cycle(5))

    def test_regular_graphs_of_equal_degree_not_separated(self):
        assert not wl_distinguish(cycle(8), Graph.from_edges(
            8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
        ))


class TestAgainstPooling:
    def test_wl_separation_implies_pooling_separation(self):
        # whenever the baseline separates a pair, depth-two pooling must too
        corpus = list(enumerate_connected_graphs(5))
        for g, h in combinations(corpus, 2):
            if wl_distinguish(g, h):
                assert distinguish(g, h, (1, 1))
        rng = SplitMix64(31337)
        for trial in range(50):
            n = 4 + rng.below(6)
            g = erdos_renyi(n, 0.3 + 0.4 * rng.random(), rng.next_u64())
            h = erdos_renyi(n, 0.3 + 0.4 * rng.random(), rng.next_u64())
            if wl_distinguish(g, h):
                assert distinguish(g, h, (1, 1))
