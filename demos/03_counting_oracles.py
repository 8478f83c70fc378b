"""Exact subgraph counting, classical identities, and a clique-count family.

The counting oracles are deliberately brute force: induced counts come
from vertex-subset enumeration, non-induced counts from injective
homomorphisms divided by pattern automorphisms.  They are the ground
truth the encoder is validated against.
"""

from itertools import combinations
from math import comb, prod

from rnpkit import (
    Graph,
    PatternCensus,
    complete,
    count_induced,
    count_noninduced,
    cycle,
    erdos_renyi,
    path,
    prime_partite,
    star,
)


def main() -> None:
    g = erdos_renyi(10, 0.3, 7)
    print(f"Host: seeded 10-node random graph with {g.edge_count} edges.")

    triangle, three_path, three_star = complete(3), path(3), star(3)
    print("\nInduced vs non-induced counts:")
    for name, h in [("triangle", triangle), ("3-path", three_path), ("3-star", three_star)]:
        print(
            f"  {name:8s} induced {count_induced(g, h):4d}"
            f"   non-induced {count_noninduced(g, h):4d}"
        )

    print("\nClassical identities as sanity checks:")
    lhs = count_noninduced(g, three_path)
    rhs = sum(comb(g.degree(v), 2) for v in range(g.node_count))
    print(f"  non-induced 3-paths = sum over nodes of C(deg, 2): {lhs} = {rhs}")
    gap = count_noninduced(g, three_path) - count_induced(g, three_path)
    print(f"  non-induced minus induced 3-paths = 3 * triangles: {gap} = "
          f"{3 * count_induced(g, triangle)}")

    print("\nComplete histogram of induced 3-node patterns:")
    # The four 3-node graphs; the census sends the two disconnected ones
    # to count_induced.
    three_node = [Graph.from_edges(3), Graph.from_edges(3, [(0, 1)]), three_path, triangle]
    hist = PatternCensus(three_node).counts(g)
    print(f"  {sum(c > 0 for c in hist)} classes, total {sum(hist)} = C(10,3) = {comb(10, 3)}")

    print("\nPrime-partite family: complete multipartite graphs with prime part")
    print("sizes have pairwise-distinct triangle counts (products of primes),")
    print("so any encoder that counts triangles must tell all of them apart:")
    for b in combinations((2, 3, 5, 7, 11), 3):
        n_triangles = count_induced(prime_partite(b, 40), complete(3))
        print(f"  parts {b}: {n_triangles:4d} = {'*'.join(map(str, b))} = {prod(b)}")

    print("\nThe 6-cycle has none of the 3-node patterns that need a triangle:")
    print(f"  C(6-cycle; triangle) = {count_induced(cycle(6), triangle)}")


if __name__ == "__main__":
    main()
