"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.  Every criterion is exact
(no tolerances); the stated runtime ceilings are asserted as well.
"""

import json
import subprocess
import sys
import time
from collections import defaultdict
from itertools import combinations
from math import comb, prod

from rnpkit import (
    SplitMix64,
    admits,
    complete,
    count_induced,
    count_noninduced,
    cycle,
    default_covering_sequence,
    distinguish,
    enumerate_connected_graphs,
    erdos_renyi,
    family_covering_sequence,
    is_vertex_covering_sequence,
    min_r1_covering_sequence,
    path,
    prime_partite,
    random_regular_perturbed,
    rnp_encode_graph,
    rnp_encode_nodes,
    serialize_graph,
    star,
    two_triangles,
    update_bound,
    wl_distinguish,
)

from conftest import cli_env, count_all_patterns


def _report(capsys, label: str, ok: bool, started: float, limit: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {label}: {verdict} in {elapsed:.2f}s{suffix}")
    assert ok, f"{label}: {detail}"
    assert elapsed < limit, f"{label}: took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_figure_pair_separation(capsys):
    started = time.perf_counter()
    a, b = cycle(6), two_triangles()
    wl_separates = wl_distinguish(a, b)
    rnp_separates = distinguish(a, b, (1, 1))
    _report(
        capsys,
        "1 figure-2 separation",
        (wl_separates is False) and (rnp_separates is True),
        started,
        limit=1.0,
        detail=f"wl={wl_separates}, rnp={rnp_separates}",
    )


def _corpus_200():
    return [erdos_renyi(10, 0.3, seed) for seed in range(200)]


def _violations(graphs, count_vectors, radii):
    # separation must hold pairwise: equal encodings with unequal counts
    # is a violation; group by encoding instead of walking all pairs
    by_encoding = defaultdict(set)
    for g, counts in zip(graphs, count_vectors):
        by_encoding[rnp_encode_graph(g, radii)].add(counts)
    return sum(len(group) - 1 for group in by_encoding.values() if len(group) > 1)


def test_criterion_2_counting_power_induced(capsys):
    started = time.perf_counter()
    graphs = _corpus_200()
    patterns = list(enumerate_connected_graphs(3)) + list(enumerate_connected_graphs(4))
    radii = family_covering_sequence(patterns)
    vectors = [tuple(count_induced(g, h) for h in patterns) for g in graphs]
    violations = _violations(graphs, vectors, radii)
    pairs = comb(len(graphs), 2)
    _report(
        capsys,
        "2 induced-count separation",
        violations == 0 and pairs == 19_900 and len(patterns) == 8,
        started,
        limit=600.0,
        detail=f"radii={radii}, pairs={pairs}, violations={violations}",
    )


def test_criterion_3_counting_power_noninduced(capsys):
    started = time.perf_counter()
    graphs = _corpus_200()
    patterns = [complete(3), star(3), path(4), cycle(4)]
    radii = family_covering_sequence(patterns)
    vectors = [tuple(count_noninduced(g, h) for h in patterns) for g in graphs]
    violations = _violations(graphs, vectors, radii)
    _report(
        capsys,
        "3 noninduced-count separation",
        violations == 0,
        started,
        limit=600.0,
        detail=f"radii={radii}, violations={violations}",
    )


def test_criterion_4_covering_soundness(capsys):
    started = time.perf_counter()
    checked = 0
    class_counts = {}
    ok = True
    for k in range(2, 7):
        classes = enumerate_connected_graphs(k)
        class_counts[k] = len(classes)
        budget = default_covering_sequence(k)
        for g in classes:
            witness = admits(g, budget)
            ok = ok and witness is not None
            ok = ok and is_vertex_covering_sequence(g, witness, budget)
            radii, order = min_r1_covering_sequence(g)
            ok = ok and is_vertex_covering_sequence(g, order, radii)
            ok = ok and radii[0] <= k - 1
            checked += 1
    ok = ok and class_counts[6] == 112
    _report(
        capsys,
        "4 covering soundness",
        ok,
        started,
        limit=300.0,
        detail=f"{checked} connected classes, 112 at k=6: {class_counts[6] == 112}",
    )


def test_criterion_5_monotonicity(capsys):
    started = time.perf_counter()
    rng = SplitMix64(505)
    failures = 0
    samples = 0
    while samples < 500:
        k = 3 + rng.below(4)
        classes = enumerate_connected_graphs(k)
        g = classes[rng.below(len(classes))]
        base = (
            min_r1_covering_sequence(g)[0]
            if rng.below(2)
            else default_covering_sequence(k)
        )
        if admits(g, base) is None:
            continue
        bumped = tuple(r + rng.below(3) for r in base)
        if admits(g, bumped) is None:
            failures += 1
        samples += 1
    _report(
        capsys,
        "5 coordinate-wise monotonicity",
        failures == 0,
        started,
        limit=300.0,
        detail=f"samples={samples}, failures={failures}",
    )


def test_criterion_6_update_bound(capsys):
    started = time.perf_counter()
    rng = SplitMix64(606)
    radii_pool = [
        (1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1),
    ]
    failures = 0
    runs = 0
    worst_ratio = 0.0
    for trial in range(1000):
        n = 5 + rng.below(26)  # up to 30 nodes
        if trial % 2 == 0:
            g = erdos_renyi(n, 0.05 + 0.25 * rng.random(), rng.next_u64())
        else:
            d = 3 + rng.below(2)
            if (n * d) % 2:
                n += 1
            g = random_regular_perturbed(n, d, n, rng.next_u64())
        radii = radii_pool[rng.below(len(radii_pool))]
        _, counter = rnp_encode_nodes(g, radii)
        bound = update_bound(g, radii)
        runs += 1
        if counter.invocations > bound:
            failures += 1
        if bound:
            worst_ratio = max(worst_ratio, counter.invocations / bound)
    _report(
        capsys,
        "6 node-update bound",
        failures == 0 and runs == 1000,
        started,
        limit=300.0,
        detail=f"runs={runs}, failures={failures}, worst updates/bound={worst_ratio:.3f}",
    )


def test_criterion_7_prime_partite_family(capsys):
    started = time.perf_counter()
    triangle = complete(3)
    counts = {}
    ok = True
    for b in combinations((2, 3, 5, 7, 11), 3):
        observed = count_induced(prime_partite(b, 40), triangle)
        counts[b] = observed
        ok = ok and observed == prod(b)
    ok = ok and len(counts) == 10
    ok = ok and len(set(counts.values())) == 10
    _report(
        capsys,
        "7 prime-partite clique counts",
        ok,
        started,
        limit=120.0,
        detail=f"{len(counts)} subsets, counts distinct: {len(set(counts.values())) == 10}",
    )


def test_criterion_8_oracle_cross_validation(capsys):
    started = time.perf_counter()
    rng = SplitMix64(808)
    ok = True
    for trial in range(50):
        n = 6 + rng.below(7)
        g = erdos_renyi(n, 0.2 + 0.5 * rng.random(), rng.next_u64())
        gap = count_noninduced(g, path(3)) - count_induced(g, path(3))
        ok = ok and gap == 3 * count_induced(g, complete(3))
        k = 2 + rng.below(3)
        ok = ok and sum(count_all_patterns(g, k).values()) == comb(n, k)
    _report(capsys, "8 oracle cross-validation", ok, started, limit=300.0)


# The package's parent directory, absolute, so that the child process
# imports this rnpkit whatever its working directory and PYTHONPATH.
def _run_cli(args, cwd, hash_seed):
    return subprocess.run(
        [sys.executable, "-m", "rnpkit.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=cli_env(hash_seed),
    )


def test_criterion_9_byte_identical_cli(capsys, tmp_path):
    started = time.perf_counter()
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(serialize_graph(erdos_renyi(10, 0.3, 3)), encoding="ascii")
    k3 = tmp_path / "k3.txt"
    k3.write_text(serialize_graph(complete(3)), encoding="ascii")
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "generator": {"kind": "er", "n": 9, "p": 0.3},
                "trials": 6,
                "base_seed": 11,
                "patterns": [str(k3)],
                "radii": "auto",
                "checks": ["theorem1", "theorem3"],
            }
        )
    )
    commands = [
        ["gen", "er", "--n", "10", "--p", "0.3", "--seed", "7"],
        ["gen", "regular", "--n", "14", "--d", "3", "--delete", "14", "--seed", "5"],
        ["encode", str(graph_file), "--radii", "2,1"],
        ["experiment", str(spec)],
    ]
    ok = True
    for args in commands:
        first = _run_cli(args, tmp_path, "101")
        second = _run_cli(args, tmp_path, "202")
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout != b""
    _report(capsys, "9 byte-identical reruns", ok, started, limit=300.0)
