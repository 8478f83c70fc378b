import hashlib
import time
import tracemalloc
from itertools import combinations
from math import nextafter, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnpkit import (
    Graph,
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
    random_regular_perturbed,
    star,
)
from rnpkit import generators
from rnpkit.generators import (
    _DRAW_BLOCK,
    _pair_schedule,
    _pairing_model_rows,
    check_regular_parameters,
)
from rnpkit.rng import _GOLDEN, _MASK64, SplitMix64, _mix, _unmix

from conftest import (
    canonical_code,
    primes_below,
    reference_erdos_renyi,
    reference_pairing_edges,
)


@st.composite
def _er_parameters(draw):
    """(n, p, seed) with n <= 100: p any float in [0, 1], an edge value, or
    one pair's own ``random()`` or the float either side of it, where the
    integer threshold must round as the float comparison does."""
    n = draw(st.integers(min_value=0, max_value=100))
    seed = draw(st.integers(min_value=0, max_value=_MASK64))
    p = draw(st.floats(min_value=0, max_value=1)
             | st.sampled_from([0, 1, 5e-324, 2**-53, 0.5, nextafter(1, 0)]) | st.none())
    if p is None:
        rng = SplitMix64(seed)
        for _ in range(draw(st.integers(min_value=0, max_value=max(n * (n - 1) // 2 - 1, 0)))):
            rng.next_u64()
        p = rng.random()
        p = nextafter(p, draw(st.sampled_from([0.0, p, 1.0])))
    return n, p, seed


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

    @pytest.mark.parametrize("n, p, message", [
        (3.0, 0.5, "node count must be a nonnegative integer"),
        (True, 0.5, "node count must be a nonnegative integer"),
        (-1, 0.5, "node count must be a nonnegative integer"),
        (3, True, r"p must be a number in \[0, 1\]"),
        (3, "0.5", r"p must be a number in \[0, 1\]"),
        (3, None, r"p must be a number in \[0, 1\]"),
        (3, float("nan"), r"p must be a number in \[0, 1\]"),
    ])
    def test_rejects_non_integer_n_and_non_number_p_before_drawing(self, n, p, message,
                                                                   monkeypatch):
        monkeypatch.setattr(generators, "SplitMix64", None)  # any draw fails
        with pytest.raises(ValueError, match=message):
            erdos_renyi(n, p, 1)

    def test_pinned_stream(self):
        # frozen draw from the pinned generator; changing the PRNG or the
        # pair-visit order would break seeded reproducibility guarantees
        assert erdos_renyi(5, 0.5, 42).edges() == [
            (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4),
        ]

    @settings(max_examples=300, deadline=None)
    @given(_er_parameters(), st.sampled_from([1, 2, 7, 16, generators._ER_CHUNK]))
    def test_chunked_draws_match_the_definition(self, params, chunk):
        # Chunks of 1-16 draws end inside rows of the pair order.
        n, p, seed = params
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "_ER_CHUNK", chunk)
            assert erdos_renyi(n, p, seed) == reference_erdos_renyi(n, p, seed)

    def test_pairs_are_drawn_lazily(self):
        # 1,999,000 pairs: a list of them all would take over 100 MB.
        tracemalloc.start()
        try:
            g = erdos_renyi(2000, 0.002, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0
        assert peak < 4 << 20


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

    def test_negative_parameters(self):
        for d, deletions in ((-1, 0), (2, -1)):
            with pytest.raises(ValueError, match="degree and deletions must be nonnegative"):
                check_regular_parameters(4, d, deletions)

    def test_complete_shortcut_matches_pairing_model(self):
        # For d = n - 1 the pairing model can only draw K_n; the shortcut
        # must give the same graph, with deletions from the same stream.
        for n in (2, 4, 6):
            for seed in range(10):
                rng = SplitMix64(seed)
                rows = _pairing_model_rows(n, n - 1, rng.split(0))
                drawn = Graph(n, rows, [0] * n).edges()
                for deletions in range(len(drawn) + 1):
                    edges = list(drawn)
                    deleting = rng.split(1)
                    for _ in range(deletions):
                        edges.pop(deleting.below(len(edges)))
                    got = random_regular_perturbed(n, n - 1, deletions, seed)
                    assert got.edges() == edges

    def test_pinned_output_grid(self):
        # sha256 over the edge lists on a grid of (n, d, deletions, seed)
        # and the 2,000 seed-1 stream_regular benchmark graphs, computed
        # with the shuffle-then-check pairing model before the early-stop
        # kernel replaced it
        digest = hashlib.sha256()
        for n, d, deletions, seed in _pinned_grid():
            g = random_regular_perturbed(n, d, deletions, seed)
            digest.update(f"{n},{d},{deletions},{seed}:{g.edges()}\n".encode())
        assert digest.hexdigest() == (
            "f6be9f5d433131e1e7108784f48c673f34669e055855036e67c919a95d31778b"
        )

    def test_pinned_dense_and_wide_output(self):
        # sha256 over the edge lists of denser and wider specs than the
        # pinned grid reaches (d up to 6, n up to 1,000), computed with the
        # draw-by-draw pairing kernel before block draws replaced it;
        # (10, 6, 2) at seed 1 takes the complement path
        digest = hashlib.sha256()
        for n, d, deletions, seed in _pinned_dense_and_wide():
            g = random_regular_perturbed(n, d, deletions, seed)
            digest.update(f"{n},{d},{deletions},{seed}:{g.edges()}\n".encode())
        assert digest.hexdigest() == (
            "705ab7b329b0dd9d301f696a875c49c1e65995500ecc0e7d8dd502d2062fc7de"
        )

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_dense_degree_uses_the_complement(self, d):
        # (10, d) exhausts the pairing model's budget at seed 1; the graph
        # is then the complement of a (9 - d)-regular draw on split(2)
        sparse = set(reference_pairing_edges(10, 9 - d, SplitMix64(1).split(2)))
        edges = [e for e in combinations(range(10), 2) if e not in sparse]
        assert all(sum(v in e for e in edges) == d for v in range(10))
        deleting = SplitMix64(1).split(1)
        for _ in range(2):
            edges.pop(deleting.below(len(edges)))
        assert random_regular_perturbed(10, d, 2, 1).edges() == edges

    def test_never_calls_from_edges(self, monkeypatch):
        # the kernel's rows, or their complement, go straight into Graph,
        # with or without deletions; (10, 6, 2) at seed 1 takes the complement
        def from_edges(*args):
            raise AssertionError("Graph.from_edges called")

        monkeypatch.setattr(Graph, "from_edges", staticmethod(from_edges))
        for n, d, deletions, seed in _ROW_SPECS:
            g = random_regular_perturbed(n, d, deletions, seed)
            assert g.edge_count == n * d // 2 - deletions
            if not deletions:
                assert all(g.degree(v) == d for v in range(n))

    @pytest.mark.parametrize("n, d, deletions, message", [
        (True, 0, 0, "node count must be a nonnegative integer"),
        (10.0, 3, 0, "node count must be a nonnegative integer"),
        (-1, 0, 0, "node count must be a nonnegative integer"),
        (10, True, 0, "degree and deletions must be nonnegative integers"),
        (10, 3.0, 0, "degree and deletions must be nonnegative integers"),
        (10, 3, True, "degree and deletions must be nonnegative integers"),
        (10, 3, 1.0, "degree and deletions must be nonnegative integers"),
    ])
    def test_rejects_non_integer_sizes_before_drawing(self, n, d, deletions, message,
                                                      monkeypatch):
        monkeypatch.setattr(generators, "SplitMix64", None)  # any draw fails
        with pytest.raises(ValueError, match=message):
            random_regular_perturbed(n, d, deletions, 1)
        with pytest.raises(ValueError, match=message):
            check_regular_parameters(n, d, deletions)

    def test_complete_graph_is_prompt(self):
        start = time.monotonic()
        assert random_regular_perturbed(10, 9, 0, 1) == complete(10)
        assert random_regular_perturbed(10, 9, 5, 1).edge_count == 40
        assert time.monotonic() - start < 1.0


_ROW_SPECS = [(10, 3, 0, 1), (10, 3, 2, 1), (10, 6, 2, 1), (10, 9, 0, 1), (10, 9, 5, 1),
              (7, 0, 0, 3), (0, 0, 0, 1)]


def _pinned_grid():
    for n in range(4, 21):
        for d in range(min(5, n - 1) + 1):
            if n * d % 2:
                continue
            for deletions in sorted({0, 1, n * d // 4}):
                if deletions <= n * d // 2:
                    for seed in range(3):
                        yield n, d, deletions, seed
    for trial in range(2000):
        yield 10, 3, 1, 1_000_000 + trial


def _pinned_dense_and_wide():
    for seed in range(4):
        for deletions in (0, 3):
            yield 10, 5, deletions, seed
        yield 12, 5, 0, seed
        if seed < 3:
            yield 10, 6, 2, seed
    for seed in range(2):
        yield 200, 3, 0, seed
        yield 1000, 3, 0, seed


@st.composite
def _pairing_parameters(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    d = draw(st.integers(min_value=0, max_value=min(4, max(n - 1, 0))))
    if n * d % 2:
        d -= 1
    return n, d, draw(st.integers(min_value=0, max_value=_MASK64))


def _draw_roles(n: int, d: int, pairing: SplitMix64):
    """Replay the shuffle-then-check pairing model on ``pairing`` and
    name its draws (numbered from 1): those below() rejected, those of a
    rejected attempt's steps after its first bad pair in top-down order
    (the early-stopping kernel skips them), and the final draw."""
    m = n * d
    rejected, tail = set(), set()
    drawn = 0
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        steps = {}
        for i in range(m - 1, 0, -1):
            first = drawn + 1
            limit = (1 << 64) - (1 << 64) % (i + 1)
            while True:
                value = pairing.next_u64()
                drawn += 1
                if value < limit:
                    break
                rejected.add(drawn)
            j = value % (i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
            steps[i] = range(first, drawn + 1)
        seen, bad = set(), None
        for i in range(m - 2, -1, -2):
            e = (min(stubs[i:i + 2]), max(stubs[i:i + 2]))
            if e[0] == e[1] or e in seen:
                bad = i
                break
            seen.add(e)
        if bad is None:
            return rejected, tail, drawn
        for i in range(bad - 1, 0, -1):
            tail.update(steps[i])


class TestPairingKernel:
    """The early-stopping kernel against the shuffle-then-check oracle:
    same edges, and the stream left in the same state."""

    @staticmethod
    def assert_matches_reference(n, d, state):
        kernel, oracle = SplitMix64(state), SplitMix64(state)
        rows = _pairing_model_rows(n, d, kernel)
        assert Graph(n, rows, [0] * n).edges() == reference_pairing_edges(n, d, oracle)
        assert kernel.next_u64() == oracle.next_u64()

    @settings(max_examples=150, deadline=None)
    @given(_pairing_parameters())
    def test_matches_reference(self, params):
        n, d, state = params
        self.assert_matches_reference(n, d, state)

    def test_matches_reference_on_benchmark_streams(self):
        for seed in range(5_000_000, 5_000_300):
            self.assert_matches_reference(10, 3, SplitMix64(seed).split(0)._state)

    def test_rejection_zone_streams(self):
        # Stream SplitMix64(t - k * golden) makes draw k the value x = _mix(t).
        # x = 2**64 - 1 is rejected by every below(b) whose b is not a power
        # of two; x = 2**64 - n*d lies in no rejection zone but is still
        # treated as dangerous.  An attempt whose draws would reach such a
        # draw, and every attempt after it, runs as a whole shuffle checked
        # afterwards instead of in blocks.  The sweep must place a rejected
        # draw first (so the first attempt falls back), a rejected draw in
        # the tail that a failed block attempt skips (so the fallback starts
        # before that attempt, not inside it), and a danger state at the
        # final draw (b = 2 there, which rejects nothing).
        covered = set()
        for n, d in [(4, 1), (6, 2), (8, 3), (10, 3)]:
            m = n * d
            for x in ((1 << 64) - 1, (1 << 64) - 2, (1 << 64) - m):
                t = _unmix(x)
                for k in range(1, 121):
                    state = (t - k * _GOLDEN) & _MASK64
                    self.assert_matches_reference(n, d, state)
                    rejected, tail, last = _draw_roles(n, d, SplitMix64(state))
                    if k in rejected and k == 1:
                        covered.add("first")
                    if k in rejected and k in tail:
                        covered.add("tail")
                    if k == last:
                        covered.add("last")
        assert covered == {"first", "tail", "last"}

    def test_exhausted_budget_leaves_the_stream_unmoved(self, monkeypatch):
        monkeypatch.setattr(generators, "_PAIRING_MAX_ATTEMPTS", 3)
        pairing = SplitMix64(1).split(0)
        assert _pairing_model_rows(10, 8, pairing) is None
        assert pairing.next_u64() == SplitMix64(1).split(0).next_u64()

    def test_schedule_covers_each_step_once_in_whole_pairs(self):
        for m in range(2, 61, 2):
            steps = []
            for odd in _pair_schedule(m):
                assert all(i % 2 == 1 for i in odd)
                assert 0 < 2 * len(odd) <= _DRAW_BLOCK
                steps += [s for i in odd for s in (i, i - 1)]
            assert steps == list(range(m - 1, 1, -1))

    def test_degree_zero_draws_nothing(self):
        pairing = SplitMix64(3)
        assert _pairing_model_rows(7, 0, pairing) == [0] * 7
        assert pairing.next_u64() == SplitMix64(3).next_u64()


@st.composite
def _block_requests(draw):
    """(state, k): any state, or one that puts the state of draw j <= k
    within 3 of the 64-bit wrap, where lane j's sum just carries or not."""
    k = draw(st.integers(min_value=1, max_value=40))
    j = draw(st.integers(min_value=1, max_value=k))
    near_wrap = (draw(st.integers(min_value=-3, max_value=3)) - j * _GOLDEN) & _MASK64
    return draw(st.one_of(st.just(near_wrap), st.integers(0, _MASK64))), k


@settings(max_examples=300, deadline=None)
@given(_block_requests())
def test_next_block_matches_next_u64(request):
    state, k = request
    block, scalar = SplitMix64(state), SplitMix64(state)
    assert block.next_block(k) == tuple(scalar.next_u64() for _ in range(k))
    assert block._state == scalar._state


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=_MASK64))
def test_unmix_inverts_mix(x):
    assert _mix(_unmix(x)) == x
    assert _unmix(_mix(x)) == x


def test_below_rejects_a_nonpositive_bound():
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            SplitMix64(1).below(bound)


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

    @pytest.mark.parametrize("primes, fillers", [([2], 0), ([3, 2], 1), ([2, 5, 3], 4),
                                                 ([13, 2, 7, 11], 2)])
    def test_parts_are_ascending_blocks_joined_across(self, primes, fillers):
        # Part i is the block of nodes from the sum of the smaller parts and
        # the fillers lie in none; u < v are adjacent exactly when they lie
        # in different parts, so the fillers are isolated.
        parts = sorted(primes)
        g = prime_partite(primes, sum(parts) + fillers)
        part = {}
        for i, p in enumerate(parts):
            part.update((v, i) for v in range(sum(parts[:i]), sum(parts[: i + 1])))
        for u, v in combinations(range(g.node_count), 2):
            joined = u in part and v in part and part[u] != part[v]
            assert g.has_edge(u, v) == joined, (u, v)

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
        with pytest.raises(ValueError, match="part size 1 is not prime"):
            prime_partite([1, 2], 5)

    def test_oversized_part_is_rejected_before_primality(self, monkeypatch):
        # Trial division of 10**18 + 3 takes minutes; the sum check comes first.
        tested = []
        is_prime = generators._is_prime
        monkeypatch.setattr(generators, "_is_prime", lambda x: tested.append(x) or is_prime(x))
        with pytest.raises(ValueError, match="exceeding n = 5"):
            prime_partite([1000000000000000003], 5)
        assert tested == []


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

    @pytest.mark.parametrize("build, k", [
        (cycle, True), (cycle, 3.0), (complete, True), (complete, 2.0),
        (path, True), (path, 2.5), (star, True), (star, 1.0),
    ])
    def test_sizes_must_be_ints(self, build, k):
        with pytest.raises(ValueError, match="given as an int"):
            build(k)


class TestEnumeration:
    @pytest.mark.parametrize(
        "k,expected", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]
    )
    def test_class_counts(self, k, expected):
        assert len(enumerate_connected_graphs(k)) == expected

    def test_all_connected_and_distinct(self):
        # distinct by canonical code, since the matcher builds the list
        for k in range(1, 7):
            graphs = enumerate_connected_graphs(k)
            assert all(is_connected(g) for g in graphs)
            assert len({canonical_code(g) for g in graphs}) == len(graphs)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            enumerate_connected_graphs(7)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            enumerate_connected_graphs(0)
