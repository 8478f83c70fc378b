"""Recursive neighborhood pooling toolkit.

A deterministic, exact implementation of recursive neighborhood pooling
as an injective graph encoder, together with the covering-sequence
machinery that sizes its radii, brute-force subgraph-count oracles,
a 1-WL refinement baseline, and seeded graph generators.
"""

from .counting import (
    PatternCensus,
    automorphism_count,
    count_induced,
    count_noninduced,
)
from .covering import (
    admits,
    covering_distance,
    default_covering_sequence,
    family_covering_sequence,
    is_vertex_covering_sequence,
    min_r1_covering_sequence,
)
from .encoder import (
    Encoding,
    UpdateCounter,
    distinguish,
    encoding_digest,
    graph_readout,
    leaf,
    marked,
    node,
    rnp_encode_graph,
    rnp_encode_nodes,
    update_bound,
)
from .generators import (
    complete,
    cycle,
    enumerate_connected_graphs,
    erdos_renyi,
    figure2_pair,
    path,
    pattern,
    prime_partite,
    random_regular_perturbed,
    star,
    two_triangles,
)
from .graphs import (
    INFINITY,
    Graph,
    ParseError,
    UnsupportedSizeError,
    are_isomorphic,
    is_connected,
    parse_graph,
    permuted,
    serialize_graph,
)
from .rng import SplitMix64
from .wl import wl_distinguish, wl_refine

__all__ = [
    "INFINITY",
    "Encoding",
    "Graph",
    "ParseError",
    "PatternCensus",
    "SplitMix64",
    "UnsupportedSizeError",
    "UpdateCounter",
    "admits",
    "are_isomorphic",
    "automorphism_count",
    "complete",
    "count_induced",
    "count_noninduced",
    "covering_distance",
    "cycle",
    "default_covering_sequence",
    "distinguish",
    "encoding_digest",
    "enumerate_connected_graphs",
    "erdos_renyi",
    "family_covering_sequence",
    "figure2_pair",
    "graph_readout",
    "is_connected",
    "is_vertex_covering_sequence",
    "leaf",
    "marked",
    "min_r1_covering_sequence",
    "node",
    "parse_graph",
    "path",
    "pattern",
    "permuted",
    "prime_partite",
    "random_regular_perturbed",
    "rnp_encode_graph",
    "rnp_encode_nodes",
    "serialize_graph",
    "star",
    "two_triangles",
    "update_bound",
    "wl_distinguish",
    "wl_refine",
]
