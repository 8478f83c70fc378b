"""How much work recursive pooling does, against its worst-case bound.

Each node encoding computed in any recursion context counts as one
update, and the counter splits the updates by recursion level.  With c the largest closed first-radius ball and tau the number
of pooling levels, the update count never exceeds n * c**tau.  On sparse
graphs c stays small and the encoder is far below the bound; the bound
is only tight for degenerate inputs like isolated nodes.
"""

from rnpkit import Graph, erdos_renyi, rnp_encode_nodes, update_bound


def profile(label, g, radii):
    _, counter = rnp_encode_nodes(g, radii)
    bound = update_bound(g, radii)
    ratio = counter.invocations / bound if bound else 0.0
    print(
        f"  {label:28s} updates {counter.invocations:7d}"
        f"   bound {bound:9d}   ratio {ratio:6.3f}"
        f"   per level {counter.invocations_per_level}"
        f"   level maxima {counter.max_context_per_level}"
    )


def main() -> None:
    radii = (2, 1, 1)
    print(f"Three pooling levels, radii {radii}:")
    profile("isolated nodes (n=20)", Graph.from_edges(20), radii)
    for p in (0.05, 0.10, 0.20, 0.40):
        profile(f"random n=24, p={p}", erdos_renyi(24, p, 1), radii)

    print("\nDenser graphs grow the first-radius ball c, and the bound n * c**3")
    print("with it, until c reaches n: there the bound saturates at n * n**3")
    print(f"(= {24 * 24**3} for n=24) while the work keeps growing, so the ratio")
    print("first falls and then rises again.")

    print("\nContexts shrink strictly with depth (each screened neighborhood")
    print("is a subset of its parent minus the removed node), visible in the")
    print("per-level maxima above.")

    print("\nRadius budgets trade power for work on the same graph:")
    g = erdos_renyi(24, 0.2, 1)
    for radii in [(1,), (2,), (1, 1), (2, 1), (2, 1, 1), (3, 2, 1)]:
        profile(f"radii {radii}", g, radii)


if __name__ == "__main__":
    main()
