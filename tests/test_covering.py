import hashlib

import pytest

from rnpkit import (
    INFINITY,
    Graph,
    admits,
    complete,
    covering_distance,
    cycle,
    default_covering_sequence,
    enumerate_connected_graphs,
    family_covering_sequence,
    is_vertex_covering_sequence,
    min_r1_covering_sequence,
    path,
    permuted,
    star,
    two_triangles,
    SplitMix64,
    UnsupportedSizeError,
)

from conftest import seeded_connected_graph, seeded_permutation


class TestCoveringDistance:
    def test_complete_graph(self):
        assert covering_distance(complete(3), 0, {0, 1, 2}) == 1

    def test_path_endpoint(self):
        assert covering_distance(path(3), 0, {0, 1, 2}) == 2

    def test_disconnected_members(self):
        # removing the center of a path disconnects the remaining pair
        assert covering_distance(path(3), 0, {0, 2}) == INFINITY

    def test_singleton(self):
        assert covering_distance(path(3), 1, {1}) == 0

    def test_rejects_nonmember(self):
        with pytest.raises(ValueError):
            covering_distance(path(3), 1, {0, 2})

    def test_rejects_node_out_of_range(self):
        for v in (-1, 3):
            with pytest.raises(ValueError, match=f"node {v} out of range"):
                covering_distance(path(3), v, {0})

    def test_rejects_member_out_of_range(self):
        for u in (-1, 3):
            with pytest.raises(ValueError, match=f"node {u} out of range"):
                covering_distance(path(3), 0, {0, u})


class TestVertexCoveringSequence:
    def test_triangle(self):
        assert is_vertex_covering_sequence(complete(3), (0, 1, 2), (1, 1))

    def test_path_center_first_fails(self):
        # after removing the center, the endpoints are disconnected
        assert not is_vertex_covering_sequence(path(3), (1, 0, 2), (1, 1))

    def test_path_endpoint_first(self):
        assert is_vertex_covering_sequence(path(3), (0, 1, 2), (2, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_vertex_covering_sequence(complete(3), (0, 1, 2), (1,))

    def test_non_permutation(self):
        with pytest.raises(ValueError):
            is_vertex_covering_sequence(complete(3), (0, 0, 2), (1, 1))

    def test_rejects_negative_radii(self):
        with pytest.raises(ValueError, match="radii must be nonnegative"):
            is_vertex_covering_sequence(complete(3), (0, 1, 2), (1, -1))

    @pytest.mark.parametrize("radii", [(1.5, 1), (True, 1), (1, 1.0)])
    def test_rejects_non_integer_radii(self, radii):
        with pytest.raises(ValueError, match="radii must be nonnegative integers"):
            is_vertex_covering_sequence(path(3), (0, 1, 2), radii)

    def test_empty_pattern_takes_the_empty_budget(self):
        assert is_vertex_covering_sequence(Graph(0, (), ()), (), ())

    def test_tight_nonmonotone_budget(self):
        # hub node adjacent to every node of a 5-path: peeling the hub
        # first costs radius 1, but stretches the leftover path to
        # diameter 4, so the tight budget rises before falling again
        hub_over_path = Graph.from_edges(
            6,
            [(0, 1), (1, 2), (2, 3), (3, 4)] + [(5, v) for v in range(5)],
        )
        order = (5, 0, 1, 2, 3, 4)
        tight = []
        members = set(order)
        for v in order[:-1]:
            tight.append(covering_distance(hub_over_path, v, members))
            members.remove(v)
        assert tight == [1, 4, 3, 2, 1]
        assert is_vertex_covering_sequence(hub_over_path, order, (1, 4, 3, 2, 1))
        assert any(a < b for a, b in zip(tight, tight[1:]))


class TestAdmits:
    def test_triangle_witness(self):
        witness = admits(complete(3), (1, 1))
        assert witness is not None
        assert is_vertex_covering_sequence(complete(3), witness, (1, 1))

    def test_path_needs_radius_two(self):
        assert admits(path(3), (1, 1)) is None
        assert admits(path(3), (2, 1)) is not None

    def test_default_budget_on_small_connected_graphs(self):
        for k in range(2, 6):
            budget = default_covering_sequence(k)
            for g in enumerate_connected_graphs(k):
                witness = admits(g, budget)
                assert witness is not None
                assert is_vertex_covering_sequence(g, witness, budget)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            admits(two_triangles(), (5, 4, 3, 2, 1))

    def test_rejects_short_budget(self):
        with pytest.raises(ValueError):
            admits(complete(4), (1, 1))

    def test_rejects_negative_radii(self):
        with pytest.raises(ValueError, match="radii must be nonnegative"):
            admits(complete(3), (1, -1))

    @pytest.mark.parametrize("radii", [(1.5, 1), (True, 1), (1, 1.0)])
    def test_rejects_non_integer_radii(self, radii):
        with pytest.raises(ValueError, match="radii must be nonnegative integers"):
            admits(path(3), radii)

    def test_rejects_more_than_16_nodes(self):
        with pytest.raises(UnsupportedSizeError, match="admits supports at most 16 nodes, got 17"):
            admits(path(17), default_covering_sequence(17))

    def test_empty_pattern_takes_the_empty_order(self):
        for radii in ((), (0,), (3, 1)):
            assert admits(Graph(0, (), ()), radii) == ()

    def test_padded_budget_uses_prefix(self):
        # zero-padded family budgets: the pattern only consumes its prefix
        assert admits(complete(3), (1, 1, 0, 0)) is not None
        assert admits(path(3), (1, 1, 5)) is None


class TestDefaultSequence:
    @pytest.mark.parametrize("k,expected", [(2, (1,)), (3, (2, 1)), (4, (3, 2, 1))])
    def test_values(self, k, expected):
        assert default_covering_sequence(k) == expected

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            default_covering_sequence(1)


class TestMinR1:
    def test_path_four_falls_through_to_endpoint(self):
        radii, order = min_r1_covering_sequence(path(4))
        assert radii[0] == 3
        assert is_vertex_covering_sequence(path(4), order, radii)

    def test_triangle(self):
        radii, order = min_r1_covering_sequence(complete(3))
        assert radii == (1, 1)
        assert is_vertex_covering_sequence(complete(3), order, radii)

    def test_four_cycle(self):
        radii, order = min_r1_covering_sequence(cycle(4))
        assert radii[0] == 2
        assert is_vertex_covering_sequence(cycle(4), order, radii)

    def test_two_node_pattern(self):
        assert min_r1_covering_sequence(complete(2)) == ((1,), (0, 1))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            min_r1_covering_sequence(two_triangles())

    def test_sound_on_exhaustive_small_graphs(self):
        for k in range(2, 6):
            for g in enumerate_connected_graphs(k):
                radii, order = min_r1_covering_sequence(g)
                assert is_vertex_covering_sequence(g, order, radii)
                assert radii[0] <= k - 1

    def test_sound_on_random_connected_graphs(self):
        rng = SplitMix64(2024)
        for trial in range(1000):
            n = 3 + rng.below(10)
            g = seeded_connected_graph(n, rng.next_u64(), p=0.25 + 0.5 * rng.random())
            radii, order = min_r1_covering_sequence(g)
            assert is_vertex_covering_sequence(g, order, radii)
            assert radii[0] <= n - 1


def _min_r1_corpus():
    # every connected class with 2-6 nodes, as enumerated and under three
    # seeded relabellings, then seeded connected ER graphs with 2-12 nodes
    for k in range(2, 7):
        for i, g in enumerate(enumerate_connected_graphs(k)):
            yield g
            for j in range(3):
                yield permuted(g, seeded_permutation(k, 1000 * k + 10 * i + j))
    rng = SplitMix64(9)
    for _ in range(300):
        n = 2 + rng.below(11)
        yield seeded_connected_graph(n, rng.next_u64(), p=0.2 + 0.6 * rng.random())


class TestMinR1Pinned:
    # sha256 of every (radii, order) over the corpus: pins the exact first
    # node, peel order and tie-breaks, not just validity
    DIGEST = "b17154f04bc305c0b0a47b5149b8f5bdf31d87b450133e4230eb5b05405f7967"

    def test_output_digest(self):
        digest = hashlib.sha256()
        count = 0
        for g in _min_r1_corpus():
            digest.update(repr((g.adjacency, min_r1_covering_sequence(g))).encode())
            count += 1
        assert count == 4 * 142 + 300
        assert digest.hexdigest() == self.DIGEST


class TestFamilySequence:
    def test_singleton_family(self):
        assert family_covering_sequence([complete(3)]) == min_r1_covering_sequence(complete(3))[0]

    def test_coordinatewise_max(self):
        assert family_covering_sequence([complete(3), path(3)]) == (2, 1)

    def test_padding_with_trailing_zeros(self):
        assert family_covering_sequence([complete(2), complete(3)]) == (1, 1)

    def test_every_member_admits_result(self):
        family = [complete(2), complete(3), path(4), star(3), cycle(4)]
        budget = family_covering_sequence(family)
        for member in family:
            assert admits(member, budget) is not None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            family_covering_sequence([])

    def test_rejects_single_node_patterns_only(self):
        empty = Graph(0, (), ())
        for family in ([complete(1), complete(1)], [complete(1)], [empty], [empty, complete(1)]):
            with pytest.raises(ValueError, match="family needs a pattern with at least 2 nodes"):
                family_covering_sequence(family)
        assert family_covering_sequence([complete(1), complete(2)]) == (1,)
        assert family_covering_sequence([empty, complete(2)]) == (1,)
        assert family_covering_sequence([empty, complete(1), path(3)]) == (2, 1)


class TestMonotonicity:
    def test_coordinatewise_increase_preserves_admission(self):
        rng = SplitMix64(77)
        samples = 0
        while samples < 100:
            k = 3 + rng.below(4)
            graphs = enumerate_connected_graphs(k)
            g = graphs[rng.below(len(graphs))]
            base = min_r1_covering_sequence(g)[0]
            assert admits(g, base) is not None
            bumped = tuple(r + rng.below(3) for r in base)
            assert admits(g, bumped) is not None
            samples += 1

    def test_extra_edges_preserve_witness(self):
        # covering budgets only get easier as edges are added
        rng = SplitMix64(78)
        for trial in range(60):
            k = 4 + rng.below(3)
            graphs = enumerate_connected_graphs(k)
            g = graphs[rng.below(len(graphs))]
            radii, order = min_r1_covering_sequence(g)
            missing = [
                (u, v)
                for u in range(k)
                for v in range(u + 1, k)
                if not g.has_edge(u, v)
            ]
            extra = [e for e in missing if rng.random() < 0.5]
            denser = Graph.from_edges(k, g.edges() + extra)
            assert is_vertex_covering_sequence(denser, order, radii)
