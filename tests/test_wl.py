import hashlib
import json
import types
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnpkit import (
    Graph,
    SplitMix64,
    complete,
    cycle,
    distinguish,
    enumerate_connected_graphs,
    erdos_renyi,
    figure2_pair,
    path,
    permuted,
    random_regular_perturbed,
    two_triangles,
    wl_distinguish,
    wl_refine,
)
import rnpkit
from rnpkit import wl

from conftest import (
    all_graphs,
    graph_strategy,
    reference_wl_histogram,
    reference_wl_stabilization_rounds,
    seeded_graph,
    seeded_permutation,
)


def certificate_rounds(certificate):
    """Parse a certificate into n, sorted attributes and per-round histograms.

    Each round is a list of (count, key) in sorted key order; parsing must
    consume the certificate exactly.
    """
    n = certificate[0]
    attributes = list(certificate[1 : 1 + n])
    i = 1 + n
    rounds = []
    while i < len(certificate):
        distinct = certificate[i]
        i += 1
        histogram = []
        for _ in range(distinct):
            count, length = certificate[i], certificate[i + 1]
            histogram.append((count, tuple(certificate[i + 2 : i + 2 + length])))
            i += 2 + length
        rounds.append(histogram)
    assert i == len(certificate)
    return n, attributes, rounds


def assert_certificates_match_oracle(graphs, oracle=None):
    """Certificate equality iff oracle-histogram equality, on every pair.

    Grouping the graphs by each key and comparing the two partitions is
    the pairwise check without the quadratic loop.
    """
    if oracle is None:
        oracle = [reference_wl_histogram(g) for g in graphs]
    by_certificate: dict = {}
    by_oracle: dict = {}
    for i, (g, histogram) in enumerate(zip(graphs, oracle)):
        by_certificate.setdefault(wl_refine(g)[0], []).append(i)
        by_oracle.setdefault(json.dumps(histogram, sort_keys=True), []).append(i)
    assert sorted(by_certificate.values()) == sorted(by_oracle.values())


def assert_rounds_match_oracle(graphs):
    """Each certificate holds one block per oracle round; the empty graph's
    certificate is exactly (0, 0)."""
    for g in graphs:
        certificate = wl_refine(g)[0]
        if g.node_count == 0:
            assert certificate == (0, 0)
        else:
            _, _, rounds = certificate_rounds(certificate)
            assert len(rounds) == reference_wl_stabilization_rounds(g)


@pytest.fixture(scope="module")
def benchmark_corpus():
    """The 100 ER and 2,000 perturbed-regular graphs of a seed-1 benchmark
    run, with their oracle histograms."""
    graphs = [erdos_renyi(14, 0.3, 1_000_000 + t) for t in range(100)]
    graphs += [random_regular_perturbed(10, 3, 1, 1_000_000 + t) for t in range(2000)]
    return graphs, [reference_wl_histogram(g) for g in graphs]


def small_graphs():
    """Every connected graph on 1-6 nodes and every labelled graph on 0-4."""
    graphs = [g for k in range(1, 7) for g in enumerate_connected_graphs(k)]
    graphs += [g for k in range(5) for g in all_graphs(k)]
    return graphs


class TestRefinement:
    def test_cycle_is_monochrome(self):
        _, colors = wl_refine(cycle(6))
        assert colors == (0,) * 6

    def test_two_triangles_match_cycle(self):
        assert wl_refine(two_triangles()) == wl_refine(cycle(6))

    def test_path_splits_center(self):
        _, colors = wl_refine(path(3))
        assert sorted(Counter(colors).values()) == [1, 2]
        assert colors[0] == colors[2] != colors[1]

    def test_attributes_seed_colors(self):
        plain = Graph.from_edges(3, [(0, 1), (1, 2)])
        tagged = Graph.from_edges(3, [(0, 1), (1, 2)], [0, 0, 1])
        assert wl_refine(plain) != wl_refine(tagged)

    def test_histogram_total_is_node_count(self):
        g = seeded_graph(9, 0.4, 2)
        certificate, colors = wl_refine(g)
        assert len(colors) == 9
        n, attributes, rounds = certificate_rounds(certificate)
        assert (n, len(attributes)) == (9, 9)
        for histogram in rounds:
            assert sum(count for count, _ in histogram) == 9
        assert sorted(Counter(colors).values()) == sorted(c for c, _ in rounds[-1])

    def test_stabilizes_within_node_count_rounds(self):
        graphs = [cycle(6), path(7), two_triangles(), seeded_graph(10, 0.3, 5)]
        graphs += list(enumerate_connected_graphs(5))
        for g in graphs:
            _, _, rounds = certificate_rounds(wl_refine(g)[0])
            assert len(rounds) <= max(1, g.node_count)

    def test_partition_never_coarsens(self):
        # class counts rise every round until the last, which splits nothing
        for seed in range(10):
            g = seeded_graph(9, 0.35, 50 + seed)
            _, attributes, rounds = certificate_rounds(wl_refine(g)[0])
            classes = [len(set(attributes))] + [len(h) for h in rounds]
            assert all(a < b for a, b in zip(classes, classes[1:-1]))
            assert classes[-1] == classes[-2]

    def test_histograms_pinned_on_benchmark_graphs(self, benchmark_corpus):
        # The oracle's sha256 colors, pinned byte for byte: the digest of
        # every histogram of the 100 ER and 2,000 perturbed-regular graphs
        # a seed-1 benchmark run draws.
        _, histograms = benchmark_corpus
        digest = hashlib.sha256()
        for histogram in histograms:
            digest.update(json.dumps(histogram, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "ef86f8ea50e1995994a539d5f478e70d6586c69e231bc654e0008b0b342d5804"
        )

    def test_permuted_graph_gets_permuted_colors(self):
        graphs = [seeded_graph(9, 0.35, 70 + seed) for seed in range(10)]
        graphs += [path(7), Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)], [2, 0, 2, 1, 1])]
        for seed, g in enumerate(graphs):
            perm = seeded_permutation(g.node_count, seed)
            certificate, colors = wl_refine(g)
            h_certificate, h_colors = wl_refine(permuted(g, perm))
            assert h_certificate == certificate
            assert all(h_colors[perm[v]] == colors[v] for v in range(g.node_count))


class TestAgainstOracle:
    def test_benchmark_graphs(self, benchmark_corpus):
        assert_certificates_match_oracle(*benchmark_corpus)

    def test_small_graphs(self):
        assert_certificates_match_oracle(small_graphs())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(graph_strategy(max_nodes=7, attributed=True), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=1 << 32),
    )
    def test_attributed_graphs_of_mixed_sizes(self, graphs, seed):
        # with permuted copies, so that every draw has equal pairs too
        copies = [permuted(g, seeded_permutation(g.node_count, seed)) for g in graphs]
        assert_certificates_match_oracle(graphs + copies)
        assert_rounds_match_oracle(graphs)

    def test_stabilization_rounds(self, benchmark_corpus):
        assert_rounds_match_oracle(benchmark_corpus[0] + small_graphs())

    def test_distinguish_on_small_connected_graphs(self):
        graphs = [g for k in range(1, 7) for g in enumerate_connected_graphs(k)]
        graphs += [two_triangles(), cycle(6)]
        oracle = [reference_wl_histogram(g) for g in graphs]
        for (g, a), (h, b) in combinations(zip(graphs, oracle), 2):
            assert wl_distinguish(g, h) == (a != b)


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


def profile_from_certificate(certificate):
    """The sorted ``attribute * n + degree`` per node, read off round 1:
    each key is a node's attribute and its neighbors' attributes."""
    n, _, rounds = certificate_rounds(certificate)
    return tuple(sorted(
        key[0] * n + len(key) - 1 for count, key in rounds[0] for _ in range(count)
    ))


class TestDegreeProfile:
    @settings(max_examples=100, deadline=None)
    @given(graph_strategy(max_nodes=8, attributed=True))
    def test_round_one_holds_the_profile(self, g):
        assert profile_from_certificate(wl_refine(g)[0]) == wl.degree_profile(g)

    def test_round_one_holds_the_profile_on_connected_six_node_classes(self):
        graphs = enumerate_connected_graphs(6)
        assert len(graphs) == 112
        for g in graphs:
            assert profile_from_certificate(wl_refine(g)[0]) == wl.degree_profile(g)

    @settings(max_examples=100, deadline=None)
    @given(
        graph_strategy(max_nodes=7, attributed=True, max_attribute=1),
        graph_strategy(max_nodes=7, attributed=True, max_attribute=1),
        st.booleans(),
        st.integers(min_value=0, max_value=1 << 32),
    )
    def test_distinguish_agrees_with_certificates(self, g, h, relabel, seed):
        # half the draws compare g with a relabelled copy, which 1-WL never separates
        if relabel:
            h = permuted(g, seeded_permutation(g.node_count, seed))
        assert wl_distinguish(g, h) == (wl_refine(g)[0] != wl_refine(h)[0])

    def test_distinguish_agrees_with_certificates_on_figure_pair(self):
        a, b = figure2_pair()
        assert wl.degree_profile(a) == wl.degree_profile(b)
        assert wl_refine(a)[0] == wl_refine(b)[0]
        assert not wl_distinguish(a, b)

    def test_distinct_profiles_refine_nothing(self, monkeypatch):
        refined = []
        refine = wl.wl_refine
        monkeypatch.setattr(wl, "wl_refine", lambda g: refined.append(g) or refine(g))
        # equal n and edge count, degrees (1, 1, 2, 2) against (1, 1, 1, 3)
        assert wl_distinguish(path(4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert refined == []
        assert not wl_distinguish(cycle(6), two_triangles())
        assert len(refined) == 2


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


class TestPackageExports:
    def test_all_is_exactly_the_public_non_module_names(self):
        public = {
            name
            for name, value in vars(rnpkit).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        # every listed name resolves, since each is one of vars(rnpkit)
        assert sorted(rnpkit.__all__) == sorted(public)
