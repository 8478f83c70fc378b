"""Where message-passing refinement goes blind and recursive pooling does not.

A 6-cycle and two disjoint triangles are both 2-regular with identical
attributes, so 1-WL color refinement assigns every node the same color in
both graphs and cannot tell them apart -- even though one has two
triangles and the other has none.  Recursive pooling with radius budget
(1, 1) separates them: after removing a node and marking its neighbors,
the second pooling level sees whether the two marked survivors are
adjacent to each other.
"""

from rnpkit import (
    count_induced,
    complete,
    cycle,
    distinguish,
    encoding_digest,
    rnp_encode_graph,
    two_triangles,
    wl_distinguish,
    wl_refine,
)


def main() -> None:
    hexagon = cycle(6)
    triangles = two_triangles()

    print("Triangle counts (exact oracle):")
    print("  6-cycle:        ", count_induced(hexagon, complete(3)))
    print("  two triangles:  ", count_induced(triangles, complete(3)))

    print("\n1-WL stable colors per node, and the refinement certificate:")
    for name, g in [("6-cycle", hexagon), ("two triangles", triangles)]:
        certificate, colors = wl_refine(g)
        print(f"  {name:15s} colors {colors}  certificate {certificate}")
    print("  separated by 1-WL?", wl_distinguish(hexagon, triangles))

    print("\nRecursive pooling, one level (radii (1,)):")
    print("  separated?", distinguish(hexagon, triangles, (1,)))
    print("  A single level sees only marked-neighbor multisets, which agree.")

    print("\nRecursive pooling, two levels (radii (1, 1)):")
    print("  separated?", distinguish(hexagon, triangles, (1, 1)))
    for name, g in [("6-cycle", hexagon), ("two triangles", triangles)]:
        print(f"  {name:15s} digest {encoding_digest(rnp_encode_graph(g, (1, 1)))[:16]}")
    print("  The second level sees the edge between the two marked neighbors")
    print("  inside each screened neighborhood: present in a triangle, absent")
    print("  in the hexagon.")


if __name__ == "__main__":
    main()
