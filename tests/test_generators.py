import time
from itertools import combinations
from math import prod

import pytest

from rnpkit import (
    UnsupportedSizeError,
    are_isomorphic,
    complete,
    count_induced,
    cycle,
    enumerate_connected_graphs,
    erdos_renyi,
    figure2_pair,
    is_connected,
    path,
    pattern,
    prime_partite,
    primes_below,
    random_regular_perturbed,
    star,
)
from rnpkit.generators import _pairing_model_edges
from rnpkit.rng import SplitMix64


class TestErdosRenyi:
    def test_zero_probability_is_edgeless(self):
        assert erdos_renyi(8, 0.0, 1).edge_count == 0

    def test_unit_probability_is_complete(self):
        g = erdos_renyi(6, 1.0, 1)
        assert g == complete(6)

    def test_determinism(self):
        assert erdos_renyi(10, 0.3, 7) == erdos_renyi(10, 0.3, 7)
        assert erdos_renyi(10, 0.3, 7) != erdos_renyi(10, 0.3, 8)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, 0)

    def test_pinned_stream(self):
        # frozen draw from the pinned generator; changing the PRNG or the
        # pair-visit order would break seeded reproducibility guarantees
        assert erdos_renyi(5, 0.5, 42).edges() == [
            (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4),
        ]


class TestRandomRegular:
    def test_degree_zero_is_edgeless(self):
        assert random_regular_perturbed(6, 0, 0, 3).edge_count == 0

    def test_regular_before_deletions(self):
        for seed in range(5):
            g = random_regular_perturbed(12, 3, 0, seed)
            assert all(g.degree(v) == 3 for v in range(12))

    def test_edge_count_after_deletions(self):
        g = random_regular_perturbed(20, 3, 20, 9)
        assert g.edge_count == 20 * 3 // 2 - 20

    def test_determinism(self):
        a = random_regular_perturbed(10, 3, 10, 4)
        b = random_regular_perturbed(10, 3, 10, 4)
        assert a == b

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            random_regular_perturbed(5, 3, 0, 0)  # odd stub count
        with pytest.raises(ValueError):
            random_regular_perturbed(4, 4, 0, 0)  # degree too large
        with pytest.raises(ValueError):
            random_regular_perturbed(6, 3, 10, 0)  # more deletions than edges

    def test_complete_shortcut_matches_pairing_model(self):
        # For d = n - 1 the pairing model can only draw K_n; the shortcut
        # must give the same graph, with deletions from the same stream.
        for n in (2, 4, 6):
            for seed in range(10):
                rng = SplitMix64(seed)
                drawn = _pairing_model_edges(n, n - 1, rng.split(0))
                for deletions in range(len(drawn) + 1):
                    edges = list(drawn)
                    deleting = rng.split(1)
                    for _ in range(deletions):
                        edges.pop(deleting.below(len(edges)))
                    got = random_regular_perturbed(n, n - 1, deletions, seed)
                    assert got.edges() == edges

    def test_complete_graph_is_prompt(self):
        start = time.monotonic()
        assert random_regular_perturbed(10, 9, 0, 1) == complete(10)
        assert random_regular_perturbed(10, 9, 5, 1).edge_count == 40
        assert time.monotonic() - start < 1.0


class TestPrimePartite:
    def test_two_part_example(self):
        g = prime_partite([2, 3], 6)
        assert g.node_count == 6
        assert g.degree(5) == 0  # one isolated filler node
        assert count_induced(g, complete(2)) == 6

    def test_three_part_triangle_count(self):
        g = prime_partite([2, 3, 5], 12)
        assert count_induced(g, complete(3)) == 2 * 3 * 5

    def test_clique_counts_identify_the_prime_set(self):
        counts = {}
        for b in combinations([2, 3, 5, 7], 3):
            g = prime_partite(b, 20)
            counts[b] = count_induced(g, complete(3))
            assert counts[b] == prod(b)
        assert len(set(counts.values())) == len(counts)

    def test_fillers_are_isolated(self):
        g = prime_partite([2, 3], 10)
        assert all(g.degree(v) == 0 for v in range(5, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            prime_partite([4, 3], 10)  # not prime
        with pytest.raises(ValueError):
            prime_partite([3, 3], 10)  # duplicate
        with pytest.raises(ValueError):
            prime_partite([2, 3], 4)  # does not fit
        with pytest.raises(ValueError):
            prime_partite([], 4)


class TestPrimes:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (10, [2, 3, 5, 7]),
            (3, [2]),
            (20, [2, 3, 5, 7, 11, 13, 17, 19]),
            (2, []),
        ],
    )
    def test_values(self, x, expected):
        assert primes_below(x) == expected

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            primes_below(1)


class TestPatterns:
    def test_three_cycle_is_triangle(self):
        assert are_isomorphic(pattern("cycle", 3), pattern("complete", 3))

    def test_star_shape(self):
        g = pattern("star", 3)
        assert g.node_count == 4 and g.edge_count == 3
        assert g.degree(0) == 3

    def test_figure_pair_is_two_regular(self):
        a, b = pattern("figure2_pair")
        assert a.node_count == b.node_count == 6
        assert all(a.degree(v) == 2 for v in range(6))
        assert all(b.degree(v) == 2 for v in range(6))
        assert is_connected(a) and not is_connected(b)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            pattern("torus", 3)

    def test_size_requirements(self):
        with pytest.raises(ValueError):
            pattern("cycle")
        with pytest.raises(ValueError):
            pattern("figure2_pair", 6)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            star(0)
        with pytest.raises(ValueError):
            path(0)


class TestEnumeration:
    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
    def test_class_counts(self, k, expected):
        assert len(enumerate_connected_graphs(k)) == expected

    def test_all_connected_and_distinct(self):
        graphs = enumerate_connected_graphs(4)
        assert all(is_connected(g) for g in graphs)
        for a, b in combinations(graphs, 2):
            assert not are_isomorphic(a, b)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            enumerate_connected_graphs(7)
