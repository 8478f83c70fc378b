"""Command-line front end: generators, covering sequences, counting,
encoding, baseline comparison, and batch experiments.

Every command is deterministic given its arguments and seeds; rerunning
produces byte-identical output.  ``gen`` and ``experiment`` write their own
output; every other command returns its result, which ``main`` prints as one
JSON line whose first key is ``schema`` ("rnp-kit/1").  Exit codes: 0
success, 1 internal error, 2 user error, 141 output closed early.  Only
typed input errors (``UserError``, ``ParseError``,
``UnsupportedSizeError``) exit 2; commands wrap the ``ValueError`` a
library call raises for bad user input as ``UserError``, so any other
exception is a bug and exits 1.  When the reader of the
output goes away (``rnpkit experiment spec.json | head -2``), the command
stops quietly with 141, the status a shell reports for a process ended by
SIGPIPE (128 + 13).  Any other failed write to the output (a full disk,
``> /dev/full``) exits 2 with ``error: output: <reason>``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, NamedTuple, Sequence

# the oracles are bound here only for the benchmark tracer, which rebinds them
from .counting import MAX_HOST_NODES, PatternCensus, count_induced, count_noninduced
from .covering import family_covering_sequence, is_vertex_covering_sequence, min_r1_covering_sequence
from .encoder import (
    encoding_digest,
    graph_readout,
    rnp_encode_nodes,
    update_bound,
)
from .generators import (
    check_regular_parameters,
    erdos_renyi,
    pattern,
    prime_partite,
    random_regular_perturbed,
)
from .graphs import (
    Graph,
    IsomorphismClasses,
    ParseError,
    UnsupportedSizeError,
    parse_graph,
    serialize_graph,
)
from .wl import degree_profile, wl_distinguish, wl_refine

SCHEMA = "rnp-kit/1"

EXIT_INTERNAL_ERROR = 1
EXIT_USER_ERROR = 2
EXIT_BROKEN_PIPE = 141

# SplitMix64 reads a seed mod 2**64, so a larger seed would alias a smaller one.
SEED_LIMIT = 1 << 64


class UserError(Exception):
    """Bad input from the user; reported on stderr with exit code 2."""


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise UserError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UserError(f"{path}: {exc}") from exc


def _parse_counts(text: str, what: str, single: bool = False) -> tuple[int, ...]:
    """Comma-separated ASCII decimal integers, exactly one if ``single``.

    ``int`` alone would also take signs, spaces, underscores and non-ASCII
    digits, so ``1_0`` would read as 10.  Other text is a user error that
    names ``what``.
    """
    parts = text.split(",")
    if (single and len(parts) > 1) or not all(p.isascii() and p.isdigit() for p in parts):
        expected = "a nonnegative integer" if single else "comma-separated nonnegative integers"
        raise UserError(f"bad {what} '{text}': expected {expected}")
    return tuple(map(int, parts))


def _parse_probability(text: str) -> float:
    """An ASCII decimal number in [0, 1]: digits, then at most one ``.``
    followed by digits.  ``float`` alone would also take underscores,
    signs, spaces, exponents and non-ASCII digits."""
    parts = text.split(".")
    if len(parts) <= 2 and all(p.isascii() and p.isdigit() for p in parts):
        value = float(text)
        if value <= 1.0:
            return value
    raise UserError(f"bad --p '{text}': expected a decimal number in [0, 1]")


def _write_text(text: str, path: str | None, out) -> None:
    if path is None:
        out.write(text)
    else:
        try:
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UserError(f"{path}: {exc.strerror or exc}") from exc


def _cmd_gen(args, out) -> None:
    # Integer options arrive as text and take ASCII digits only, like --radii.
    for name in ("n", "d", "delete", "size", "seed"):
        if getattr(args, name, None) is not None:
            setattr(args, name, _parse_counts(getattr(args, name), "--" + name, True)[0])
    if getattr(args, "seed", None) is not None and args.seed >= SEED_LIMIT:
        raise UserError(f"bad --seed '{args.seed}': expected an integer below 2**64")
    for name in ("n", "size"):  # a list holds at most sys.maxsize items
        value = getattr(args, name, None)
        if value is not None and value > sys.maxsize:
            raise UserError(f"bad --{name} '{value}': expected an integer at most {sys.maxsize}")
    try:
        if args.family == "er":
            graphs = [erdos_renyi(args.n, _parse_probability(args.p), args.seed)]
        elif args.family == "regular":
            graphs = [random_regular_perturbed(args.n, args.d, args.delete, args.seed)]
        elif args.family == "prime-partite":
            graphs = [prime_partite(_parse_counts(args.primes, "primes"), args.n)]
        else:  # pattern
            result = pattern(args.name, args.size)
            graphs = list(result) if isinstance(result, tuple) else [result]
    except ValueError as exc:  # the generators reject infeasible parameters
        raise UserError(str(exc)) from exc
    text = "# --- second graph ---\n".join(serialize_graph(g) for g in graphs)
    _write_text(text, args.out, out)


def _cmd_cover(args) -> dict:
    graph = _load_graph(args.graph)
    try:
        radii, order = min_r1_covering_sequence(graph)
    except ValueError as exc:  # too small, disconnected or too large
        raise UserError(f"{args.graph}: {exc}") from exc
    valid = is_vertex_covering_sequence(graph, order, radii)
    return {"radii": list(radii), "order": list(order), "valid": valid}


def _cmd_count(args) -> dict:
    graph = _load_graph(args.graph)
    count = PatternCensus([_load_graph(args.pattern)], args.mode).counts(graph)[0]
    return {"pattern": args.pattern, "mode": args.mode, "count": count}


def _encoded(graph: Graph, radii: Sequence[int],
             where: str = "") -> tuple[Iterable[bytes], int, int]:
    """The graph's node encodings, its node updates and its ``update_bound``.
    A bound with more digits than Python converts to text is a user error,
    prefixed by ``where`` and raised before anything is encoded."""
    bound = update_bound(graph, radii)
    try:
        str(bound)
    except ValueError:
        raise UserError(f"{where}the n * c**tau update bound is too large to print") from None
    encodings, counter = rnp_encode_nodes(graph, radii)
    return encodings.values(), counter.invocations, bound


def _cmd_encode(args) -> dict:
    graph = _load_graph(args.graph)
    encodings, updates, bound = _encoded(graph, _parse_counts(args.radii, "radii"))
    return {"digest": encoding_digest(graph_readout(encodings)), "updates": updates, "bound": bound}


def _cmd_distinguish(args) -> dict:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    radii = _parse_counts(args.radii, "radii")
    first = graph_readout(_encoded(g1, radii, f"{args.graph1}: ")[0])
    rnp = graph_readout(_encoded(g2, radii, f"{args.graph2}: ")[0]) != first
    return {"rnp": rnp, "wl": wl_distinguish(g1, g2), "radii": list(radii)}


def _cmd_complexity(args) -> dict:
    graph = _load_graph(args.graph)
    _, updates, bound = _encoded(graph, _parse_counts(args.radii, "radii"))
    return {"updates": updates, "bound": bound, "ratio": updates / bound if bound else 0.0}


_SPEC_KEYS = {"generator", "trials", "base_seed", "patterns", "radii", "checks", "mode"}
_GENERATOR_KEYS = {
    "er": {"kind", "n", "p"},
    "regular": {"kind", "n", "d", "delete"},
}
_KNOWN_CHECKS = ("theorem1", "theorem3")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _load_experiment_spec(path: str) -> tuple[dict, PatternCensus, tuple[int, ...]]:
    """The spec, its pattern census and its radii; any fault in them is a
    user error, raised before the CSV header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise UserError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8, huge ints, deep nesting
        raise UserError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise UserError(f"{path}: spec must be a JSON object")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise UserError(f"{path}: unknown spec fields {sorted(unknown)}")
    missing = {"generator", "trials", "base_seed", "patterns", "radii"} - set(spec)
    if missing:
        raise UserError(f"{path}: missing spec fields {sorted(missing)}")
    for key in ("trials", "base_seed"):
        if not _is_count(spec[key]):
            raise UserError(f"{path}: {key} must be a nonnegative integer")
    if spec["base_seed"] + max(spec["trials"], 1) - 1 >= SEED_LIMIT:
        raise UserError(f"{path}: base_seed + trials - 1 must be below 2**64")
    if not _is_string_list(spec["patterns"]):
        raise UserError(f"{path}: patterns must be a list of file names")
    gen = spec["generator"]
    if not isinstance(gen, dict) or not isinstance(gen.get("kind"), str):
        raise UserError(f"{path}: generator must be an object with a 'kind'")
    if gen["kind"] not in _GENERATOR_KEYS:
        raise UserError(f"{path}: unknown generator kind '{gen['kind']}'")
    extra = set(gen) - _GENERATOR_KEYS[gen["kind"]]
    if extra:
        raise UserError(f"{path}: unknown generator fields {sorted(extra)}")
    absent = _GENERATOR_KEYS[gen["kind"]] - set(gen)
    if absent:
        raise UserError(f"{path}: missing generator fields {sorted(absent)}")
    for key in sorted(_GENERATOR_KEYS[gen["kind"]] - {"kind", "p"}):
        if not _is_count(gen[key]):
            raise UserError(f"{path}: generator {key} must be a nonnegative integer")
    if gen["n"] > sys.maxsize:  # a list holds at most sys.maxsize items
        raise UserError(f"{path}: generator n must be at most {sys.maxsize}")
    if gen["kind"] == "er":
        p = gen["p"]
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
            raise UserError(f"{path}: generator p must be a number in [0, 1]")
    else:
        try:
            check_regular_parameters(gen["n"], gen["d"], gen["delete"])
        except ValueError as exc:
            raise UserError(f"{path}: generator: {exc}") from None
    if spec["patterns"] and gen["n"] > MAX_HOST_NODES:
        raise UserError(
            f"{path}: generator n is {gen['n']}, but pattern counting"
            f" supports hosts of at most {MAX_HOST_NODES} nodes"
        )
    checks = spec.get("checks", [])
    if not _is_string_list(checks):
        raise UserError(f"{path}: checks must be a list of names")
    for check in checks:
        if check not in _KNOWN_CHECKS:
            raise UserError(f"{path}: unknown check '{check}'")
    mode = spec.get("mode", "induced")
    if mode not in ("induced", "noninduced"):
        raise UserError(f"{path}: mode must be 'induced' or 'noninduced'")
    try:
        patterns = [_load_graph(p) for p in spec["patterns"]]
    except UserError as exc:
        raise UserError(f"{path}: {exc}") from exc
    if spec["radii"] == "auto":
        if not patterns:
            raise UserError(f"{path}: radii 'auto' requires at least one pattern")
        try:
            radii = family_covering_sequence(patterns)
        except ValueError as exc:  # disconnected, oversized or all single-node
            raise UserError(f"{path}: radii 'auto': {exc}") from exc
    elif isinstance(spec["radii"], list) and all(
        _is_count(r) for r in spec["radii"]
    ) and spec["radii"]:
        radii = tuple(spec["radii"])
    else:
        raise UserError(f"{path}: radii must be 'auto' or a nonempty list of nonnegative integers")
    try:
        return spec, PatternCensus(patterns, mode), radii
    except UnsupportedSizeError as exc:  # a pattern over MAX_PATTERN_NODES
        raise UserError(f"{path}: {exc}") from exc


def _draw_trials(spec: dict) -> Iterator[tuple[int, Graph]]:
    """Each trial's seed and graph.  Parameters that pass validation can
    still exhaust the pairing model's attempt budget at a seed; that is bad
    input, named by trial and seed."""
    gen = spec["generator"]
    for trial in range(spec["trials"]):
        seed = spec["base_seed"] + trial
        try:
            if gen["kind"] == "er":
                graph = erdos_renyi(gen["n"], gen["p"], seed)
            else:
                graph = random_regular_perturbed(gen["n"], gen["d"], gen["delete"], seed)
        except ValueError as exc:
            raise UserError(f"trial {trial} (seed {seed}): {exc}") from exc
        yield seed, graph


class TrialRecord(NamedTuple):
    """One experiment trial: its columns, and what the isomorphism-class memo
    did (``hit``, and the exact tests that failed against its bucket's classes)."""

    seed: int
    graph: Graph
    counts: tuple[int, ...]
    digest: str
    updates: int
    bound: int
    rnp_distinct: bool
    wl_distinct: bool
    theorem1_violations: int
    hit: bool
    tests_failed: int


def run_experiment(trials: Iterable[tuple[int, Graph]], census: PatternCensus,
                   radii: Sequence[int]) -> Iterator[TrialRecord]:
    """One record per ``(seed, graph)`` trial, in order.  Cross-trial
    fields compare with the earlier trials of this call only."""
    # Per distinct encoding, in a list under its full sha256: the graph of
    # the first trial that produced it, and a tally of the earlier trials
    # with it by count vector; no encoding's bytes outlive their trial.  The
    # digest only picks candidates: a miss re-encodes each first graph with
    # an equal digest (normally none) and compares bytes.
    by_digest: dict[str, list[tuple[Graph, dict[tuple[int, ...], int]]]] = {}
    # Every column is an isomorphism invariant, so a graph isomorphic to an
    # earlier trial reuses its class's columns, kept here by class index.
    classes = IsomorphismClasses()
    class_columns: list[tuple] = []
    # A hit shares an earlier trial's 1-WL certificate, and every earlier
    # trial shares one with a miss, so only misses need 1-WL.  Equal
    # certificates have equal degree profiles, so a miss whose profile is
    # new is distinct unrefined, and its graph waits under the profile.  A
    # second miss with that profile refines the waiting graph, then itself;
    # from then on the profile keeps its misses' certificates.
    by_profile: dict[tuple[int, ...], Graph | set[tuple[int, ...]]] = {}
    for trial, (seed, graph) in enumerate(trials):
        index, tests_failed = classes.classify(graph)
        hit = index < len(class_columns)
        wl_distinct = False
        if not hit:
            profile = degree_profile(graph)
            certificates = by_profile.setdefault(profile, graph)
            wl_distinct = certificates is graph
            if not wl_distinct:
                if isinstance(certificates, Graph):
                    certificates = by_profile[profile] = {wl_refine(certificates)[0]}
                certificate = wl_refine(graph)[0]
                wl_distinct = certificate not in certificates
                certificates.add(certificate)
            counts = census.counts(graph)
            encodings, updates, bound = _encoded(graph, radii, f"trial {trial} (seed {seed}): ")
            encoding = graph_readout(encodings)
            digest = encoding_digest(encoding)
            same_digest = by_digest.setdefault(digest, [])
            tally = next((t for first, t in same_digest
                          if graph_readout(_encoded(first, radii)[0]) == encoding), None)
            if tally is None:
                tally = {}
                same_digest.append((graph, tally))
            del encodings, encoding  # not held while the next miss encodes
            class_columns.append((counts, tally, digest[:16], updates, bound))
        counts, tally, digest, updates, bound = class_columns[index]
        record = TrialRecord(seed, graph, counts, digest, updates, bound,
                             not tally, wl_distinct,
                             sum(tally.values()) - tally.get(counts, 0),
                             hit, tests_failed)
        tally[counts] = tally.get(counts, 0) + 1
        yield record


def _cmd_experiment(args, out) -> None:
    spec, census, radii = _load_experiment_spec(args.spec)
    checks = spec.get("checks", [])
    header = ["trial", "seed", "generator", "n", "radii"]
    header += [f"count:{p}" for p in spec["patterns"]]
    header += ["digest", "updates", "bound", "rnp_distinct", "wl_distinct"]
    if "theorem1" in checks:
        header.append("theorem1_violations")
    if "theorem3" in checks:
        header.append("theorem3_ok")

    # Trial 0 is drawn before the header, so parameters the generator fails
    # on at every seed exit with nothing on stdout.
    draws = _draw_trials(spec)
    first = list(itertools.islice(draws, 1))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    gen = spec["generator"]
    label = (f"er(n={gen['n']},p={gen['p']})" if gen["kind"] == "er" else
             f"regular(n={gen['n']},d={gen['d']},delete={gen['delete']})")
    radii_text = ",".join(str(r) for r in radii)
    records = run_experiment(itertools.chain(first, draws), census, radii)
    for trial, record in enumerate(records):
        row = [trial, record.seed, label, record.graph.node_count, radii_text,
               *record.counts, record.digest, record.updates, record.bound,
               record.rnp_distinct, record.wl_distinct]
        if "theorem1" in checks:
            row.append(record.theorem1_violations)
        if "theorem3" in checks:
            row.append(record.updates <= record.bound)
        writer.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnpkit",
        description="Recursive neighborhood pooling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    er = gen_sub.add_parser("er", help="uniform random graph")
    er.add_argument("--n", required=True)
    er.add_argument("--p", required=True)
    er.add_argument("--seed", required=True)
    er.add_argument("--out")
    reg = gen_sub.add_parser("regular", help="perturbed random regular graph")
    reg.add_argument("--n", required=True)
    reg.add_argument("--d", default="3")
    reg.add_argument("--delete", default="0")
    reg.add_argument("--seed", required=True)
    reg.add_argument("--out")
    pp = gen_sub.add_parser("prime-partite", help="prime-sized complete multipartite graph")
    pp.add_argument("--primes", required=True, help="comma-separated distinct primes")
    pp.add_argument("--n", required=True)
    pp.add_argument("--out")
    pat = gen_sub.add_parser("pattern", help="named pattern graph")
    pat.add_argument("--name", required=True,
                     choices=["cycle", "complete", "path", "star", "figure2_pair"])
    pat.add_argument("--size")
    pat.add_argument("--out")

    cover = sub.add_parser("cover", help="minimum-first-radius covering sequence")
    cover.add_argument("graph")

    count = sub.add_parser("count", help="exact subgraph count")
    count.add_argument("graph")
    count.add_argument("pattern")
    count.add_argument("--mode", choices=["induced", "noninduced"], default="induced")

    encode = sub.add_parser("encode", help="whole-graph encoding digest and work counter")
    encode.add_argument("graph")
    encode.add_argument("--radii", required=True, help="comma-separated radii, e.g. 2,1")

    dis = sub.add_parser("distinguish", help="compare two graphs under pooling and 1-WL")
    dis.add_argument("graph1")
    dis.add_argument("graph2")
    dis.add_argument("--radii", required=True)

    comp = sub.add_parser("complexity", help="node updates against the worst-case bound")
    comp.add_argument("graph")
    comp.add_argument("--radii", required=True)

    exp = sub.add_parser("experiment", help="run a batch experiment spec, emit CSV")
    exp.add_argument("spec")
    return parser


# Writers print their own output; reports return one JSON object's fields.
_WRITERS = {"gen": _cmd_gen, "experiment": _cmd_experiment}
_REPORTS = {
    "cover": _cmd_cover,
    "count": _cmd_count,
    "encode": _cmd_encode,
    "distinguish": _cmd_distinguish,
    "complexity": _cmd_complexity,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        if args.command in _WRITERS:
            _WRITERS[args.command](args, out)
        else:
            out.write(json.dumps({"schema": SCHEMA, **_REPORTS[args.command](args)}) + "\n")
        if out is sys.stdout:
            out.flush()  # so that a closed pipe shows here, not at interpreter exit
        return 0
    except OSError as exc:  # from the output: commands wrap their file errors
        if out is sys.stdout:
            # The interpreter flushes stdout at exit; let that write go nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        print(f"error: output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (UserError, ParseError, UnsupportedSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
