"""Shared test helpers: deterministic random graphs and exhaustive corpora."""

from __future__ import annotations

import os
from itertools import combinations

from hypothesis import strategies as st

import rnpkit
from rnpkit import Graph, SplitMix64, erdos_renyi

_SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(rnpkit.__file__)))


def cli_env(hash_seed: str) -> dict[str, str]:
    """Environment for a ``python -m rnpkit.cli`` child process.

    The absolute source directory goes first on PYTHONPATH, so the child
    imports the package under test from any working directory, whatever
    (possibly relative) PYTHONPATH the test run itself was given.
    """
    python_path = os.pathsep.join(
        part for part in (_SOURCE_DIR, os.environ.get("PYTHONPATH")) if part
    )
    return {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": python_path}


def seeded_graph(n: int, p: float, seed: int) -> Graph:
    return erdos_renyi(n, p, seed)


def seeded_connected_graph(n: int, seed: int, p: float = 0.5) -> Graph:
    """First connected draw from a seeded stream of density-p graphs."""
    from rnpkit import is_connected

    rng = SplitMix64(seed)
    for _ in range(10_000):
        g = erdos_renyi(n, p, rng.next_u64())
        if is_connected(g):
            return g
    raise AssertionError("could not draw a connected graph")


def seeded_permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    SplitMix64(seed).shuffle(perm)
    return perm


def all_graphs(k: int):
    """Every labelled graph on k nodes (all attributes zero)."""
    pairs = list(combinations(range(k), 2))
    for bitmask in range(1 << len(pairs)):
        rows = [0] * k
        for i, (u, v) in enumerate(pairs):
            if (bitmask >> i) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield Graph(k, tuple(rows), (0,) * k)


@st.composite
def graph_strategy(draw, min_nodes: int = 0, max_nodes: int = 7, attributed: bool = False):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if (mask >> i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if attributed:
        attrs = tuple(draw(st.lists(
            st.integers(min_value=0, max_value=3), min_size=n, max_size=n)))
    else:
        attrs = (0,) * n
    return Graph(n, tuple(rows), attrs)
