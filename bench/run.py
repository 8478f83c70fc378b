"""rnpkit benchmark: seeded `rnpkit experiment` workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports rnpkit from `src/` there and
writes its spec files and traces under `.bench_run/`.

The loop is closed, with one client: each child is a fresh Python process
(`bench/child.py`) that runs `rnpkit.cli.main(["experiment", spec])`
in-process, and the next child starts only when the previous one has
ended.  Every child of a run gets the same spec, so the children's
medians remove machine noise, while the seed decides the graphs.
Children keep starting until the next one would end after S seconds,
but a run has at least MIN_UNTRACED children; with --trace 1 it has one
untraced child for every two traced ones, and at least MIN_TRACED traced.

End-to-end metrics come from the untraced children.  The gap before each
CSV row is taken as the median over the children, trial by trial, and the
metrics are read from that median run:
  wall_s         child start to the last CSV row
  setup_s        child start to the CSV header: import, spec validation,
                 pattern parsing, covering sequence
  trials_per_s   trials / (last row - header)
  trial_ms_p50   median gap between successive CSV rows
  trial_ms_tail  highest percentile of TAIL_LADDER with at least ten gaps
                 above it (the percentile and count are printed)
  peak_rss_mb    the child's ru_maxrss (median over children)
All of these are printed.  On a host shared with other work, the speed at
which this machine runs Python drifts by 1.4-1.6x over minutes, which no
number of children inside one run can average away.  So each untraced
child also runs a fixed pure-Python reference job of a few milliseconds
(`bruteforce.reference_job`) between rows, at most every 50 ms, and its
timestamps leave that time out (see child.py).  The median job time,
`ref`, is the host's speed during that very run, and the timings in the
result JSON, except setup_s, are in units of it: wall_ref,
trials_per_ref, trial_p50_ref and trial_tail_ref are wall_s,
trials_per_s, trial_ms_p50 and trial_ms_tail divided by `ref`.
Failed trials are the JSON's `failed` count against `attempted`
(failed_trial_share); a child that exits nonzero fails all its trials.

With --trace 1 the metrics are the per-layer ones, from spans the child
records around the names `rnpkit.cli` imports (see child.py), medians
over the traced children.  `cli.self_s` is the traced wall time minus
every span, so the spans plus `cli.self_s` account for `trace.wall_s`;
`trace.overhead_s` is the median traced wall minus the median untraced
wall of the same run.  The spans of the last traced child are written to
`.bench_run/trace-<workload>-seed<seed>.jsonl`.

Correctness is checked after the timed children have ended: every child
must print byte-identical CSV, with one row per trial, no theorem-1
violation and theorem 3 holding on every row; a seeded sample of trials
is recounted by `bruteforce.py`, which shares no code with rnpkit; and at
DEFAULT_SEED the CSV's sha256 must equal the one in `reference.json`.
The traced children's deterministic counters must repeat exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from bruteforce import parse_edge_list, subgraph_counts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_run")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 1
# Trial seeds are base_seed + trial, so neighbouring benchmark seeds would
# share all but one graph; spacing them keeps every seed's graphs disjoint.
SEED_SPACING = 1_000_000
MIN_UNTRACED = 3
MIN_TRACED = 2
RECOUNT_TRIALS = 5
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)

# All 8 connected 3- and 4-node graphs, committed as fixed edge lists so
# that a change to rnpkit.generators cannot change the workload.
PATTERNS = [
    f"bench/patterns/{name}.txt"
    for name in (
        "k3_path", "k3_triangle",
        "k4_path", "k4_star", "k4_cycle", "k4_paw", "k4_diamond", "k4_clique",
    )
]

# Why each workload exists, and which layer it loads (see BENCHMARK.json).
WORKLOADS = {
    # ROADMAP W1: induced counting of all 8 patterns is about 78% of the
    # wall time and every trial's encoding is distinct.
    "census_er14": {
        "generator": {"kind": "er", "n": 14, "p": 0.3},
        "trials": 100,
        "patterns": PATTERNS,
        "radii": "auto",
        "checks": ["theorem1", "theorem3"],
    },
    # Many small 1-WL-blind graphs: non-induced counting, 1-WL, pairing-model
    # rejection and the CLI's scans over every previous trial; about 95% of
    # trials repeat an earlier encoding.
    "stream_regular": {
        "generator": {"kind": "regular", "n": 10, "d": 3, "delete": 1},
        "trials": 2000,
        "patterns": PATTERNS,
        "radii": "auto",
        "checks": ["theorem1", "theorem3"],
        "mode": "noninduced",
    },
}

# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_TARGETS = {
    "counting": "trials_per_ref on census_er14 (~78% of wall); its non-induced "
    "path on stream_regular (~25%)",
    "encoder": "trials_per_ref and peak_rss_mb on stream_regular (~45%) and "
    "census_er14 (~17%); readout_s, digest_s and bound_s on stream_regular",
    "wl": "trials_per_ref on stream_regular (~12%)",
    "generators": "trials_per_ref on stream_regular (~8%, pairing-model rejection)",
    "covering": "setup_s",
    "graphs": "setup_s",
    "cli": "trial_tail_ref, trials_per_ref and peak_rss_mb on stream_regular "
    "(rescans every previous trial, keeps every encoding)",
}

SPAN_METRICS = {
    "counting": "counting.time_s",
    "encoder": "encoder.time_s",
    "encoder.readout": "encoder.readout_s",
    "encoder.digest": "encoder.digest_s",
    "encoder.bound": "encoder.bound_s",
    "wl": "wl.time_s",
    "generators": "generators.time_s",
    "covering": "covering.time_s",
    "graphs.parse": "graphs.parse_s",
    "cli.write": "cli.write_s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed child)."""


def make_spec(workload: str, seed: int) -> dict:
    return {**WORKLOADS[workload], "base_seed": seed * SEED_SPACING}


def write_spec(spec: dict, name: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    return os.path.relpath(path, ROOT)


def run_child(spec_path: str, traced: bool, sample: list[int], timeout: float) -> dict:
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path, repr(spawn), "1" if traced else "0",
             ",".join(map(str, sample))],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child running {spec_path} exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    report = json.loads(lines[-1])
    report["traced"] = traced
    report["duration_s"] = time.monotonic() - spawn
    return report


def run_children(spec_path: str, trace: bool, seconds: float, sample: list[int]) -> list[dict]:
    """Closed loop: one child at a time until the next would overrun `seconds`."""
    start = time.monotonic()
    children: list[dict] = []
    while True:
        traced = trace and len(children) % 3 != 0  # untraced, traced, traced, ...
        remaining = CHILD_TIMEOUT_S - (time.monotonic() - start)
        children.append(run_child(spec_path, traced, [] if children else sample, remaining))
        untraced = sum(not c["traced"] for c in children)
        if trace:
            enough = untraced >= 1 and len(children) - untraced >= MIN_TRACED
        else:
            enough = untraced >= MIN_UNTRACED
        elapsed = time.monotonic() - start
        if enough and elapsed + children[-1]["duration_s"] > seconds:
            return children


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 values above."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(len(ordered) * pct / 100))  # nearest rank, 1-based
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 0.0, ordered[0]


def gaps_s(child: dict) -> list[float]:
    stamps = child["stamps"]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def timings(children: list[dict], unit) -> dict[str, float]:
    """Timings of the median run, in seconds divided by `unit(child)`.

    The gap before each CSV row is the median over the children running
    that same trial, so a burst of outside load that slows one child at
    some trial does not reach the result.
    """
    per_child = [[gap / unit(c) for gap in gaps_s(c)] for c in children]
    gaps = [statistics.median(g) for g in zip(*per_child)]
    setup = statistics.median(c["stamps"][0] / unit(c) for c in children)
    return {
        "wall": setup + sum(gaps),
        "setup": setup,
        "rate": len(gaps) / sum(gaps),
        "p50": statistics.median(gaps),
        "tail": tail(gaps)[1],
    }


def layers(child: dict) -> dict[str, float]:
    wall = child["stamps"][-1]
    times = {metric: 0.0 for metric in SPAN_METRICS.values()}
    for name, start, end, _ in child["spans"]:
        times[SPAN_METRICS[name]] += end - start
    times["cli.import_s"] = child["import_s"]
    spanned = sum(times.values())
    return {
        **times,
        "cli.self_s": wall - spanned,
        "counting.share": times["counting.time_s"] / wall,
        "trace.wall_s": wall,
    }


def failed_trials(child: dict, spec: dict, expected: str, reference: str | None) -> int:
    """Trials of one child that fail a correctness check."""
    trials = spec["trials"]
    text = child["stdout"]
    if child["code"] != 0 or text != expected or len(child["stamps"]) != trials + 1:
        return trials
    if reference is not None and hashlib.sha256(text.encode()).hexdigest() != reference:
        return trials
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if len(body) != trials:
        return trials
    records = [dict(zip(header, row)) for row in body]
    bad = {
        i for i, rec in enumerate(records)
        if rec.get("theorem1_violations", "0") != "0"
        or rec.get("theorem3_ok", "True") != "True"
    }
    patterns = [parse_edge_list(read(p)) for p in spec["patterns"]]
    column = 1 if spec.get("mode") == "noninduced" else 0
    for trial, n, edges in child["samples"]:
        counts = subgraph_counts(n, [tuple(e) for e in edges], patterns)
        got = [int(records[trial][f"count:{p}"]) for p in spec["patterns"]]
        if got != [c[column] for c in counts]:
            bad.add(trial)
    return len(bad)


def read(rel_path: str) -> str:
    with open(os.path.join(ROOT, rel_path), encoding="ascii") as fh:
        return fh.read()


def write_trace(child: dict, path: str) -> None:
    """One JSON line per span; layer spans point at their trial span."""
    stamps = child["stamps"]
    records = [{"id": "setup", "name": "setup", "start": 0.0, "end": stamps[0], "parent": None}]
    records += [
        {"id": f"trial:{i}", "name": "trial", "start": a, "end": b, "parent": None}
        for i, (a, b) in enumerate(zip(stamps, stamps[1:]))
    ]
    records.append({"id": "span:import", "name": "cli.import", "start": 0.0,
                    "end": child["import_s"], "parent": "setup"})
    records += [
        {"id": f"span:{k}", "name": name, "start": start, "end": end,
         "parent": "setup" if parent < 0 else f"trial:{parent}"}
        for k, (name, start, end, parent) in enumerate(child["spans"])
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "rnpkit", "cli.py")):
        raise BenchError(f"no rnpkit sources under {os.path.join(ROOT, 'src')}")
    spec = make_spec(workload, seed)
    trials = spec["trials"]
    # Untimed warm-up: fills __pycache__ and fails fast if rnpkit is broken.
    warm = run_child(write_spec({**spec, "trials": 0}, f"{workload}-warmup.json"),
                     False, [], CHILD_TIMEOUT_S)
    if warm["code"] != 0:
        raise BenchError(f"warm-up experiment exited with {warm['code']}")
    sample = []
    if spec["patterns"]:
        sample = sorted(random.Random(seed).sample(range(trials), RECOUNT_TRIALS))
    spec_path = write_spec(spec, f"{workload}-seed{seed}.json")
    children = run_children(spec_path, trace, seconds, sample)

    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(read("bench/reference.json"))["stdout_sha256"][workload]
    expected = children[0]["stdout"]
    failed = sum(failed_trials(c, spec, expected, reference) for c in children)
    untraced = [c for c in children if not c["traced"] and len(c["stamps"]) == trials + 1]
    traced = [c for c in children if c["traced"] and len(c["stamps"]) == trials + 1]
    if not untraced or (trace and not traced):
        raise BenchError("no child completed the experiment")

    raw = timings(untraced, lambda c: 1.0)
    rel = timings(untraced, lambda c: c["ref_s"])
    rss_mb = statistics.median(c["peak_rss_kb"] for c in untraced) / 1024
    ref_s = statistics.median(c["ref_s"] for c in untraced)
    lines = [
        f"workload {workload} seed {seed} base_seed {spec['base_seed']} trials {trials}",
        f"children {len(untraced)} untraced, {len(traced)} traced; "
        f"stdout sha256 {hashlib.sha256(expected.encode()).hexdigest()}",
        "child wall_s/ref_s " + " ".join(
            f"{c['stamps'][-1]:.3f}/{c['ref_s']:.5f}" if c["ref_s"] else
            f"{c['stamps'][-1]:.3f}/traced" for c in children),
        f"trial_ms_tail is p{tail(gaps_s(untraced[0]))[0]:g} of {trials} row gaps, each the "
        f"median over {len(untraced)} untraced children",
    ]
    attempted = trials * len(children)
    metrics = {
        "wall_ref": (rel["wall"], "ref"),
        "setup_s": (raw["setup"], "s"),
        "trials_per_ref": (rel["rate"], "1/ref"),
        "trial_p50_ref": (rel["p50"], "ref"),
        "trial_tail_ref": (rel["tail"], "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    printed = {
        "wall_s": (raw["wall"], "s"),
        "trials_per_s": (raw["rate"], "1/s"),
        "trial_ms_p50": (raw["p50"] * 1000, "ms"),
        "trial_ms_tail": (raw["tail"] * 1000, "ms"),
        "failed_trial_share": (failed / attempted, f"({failed}/{attempted} trials)"),
        "ref": (ref_s, "s"),
        **metrics,
    }
    lines += [f"  {k} {v:.6g} {unit}" for k, (v, unit) in printed.items()]
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}

    if trace:
        counters = [c["counters"] for c in traced]
        if any(c != counters[0] for c in counters):
            failed = min(attempted, failed + trials * len(traced))
            lines.append("  deterministic counters differ between traced children")
        layer = median_of([layers(c) for c in traced])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(
            c["stamps"][-1] for c in untraced)
        layer.update(counters[0])
        path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
        write_trace(traced[-1], path)
        lines.append(f"per-layer (median of {len(traced)} traced children), spans in "
                     f"{os.path.relpath(path, ROOT)}:")
        metrics = {}
        for key in sorted(layer):
            unit = layer_unit(key)
            metrics[key] = {"value": layer[key], "unit": unit}
            lines.append(f"  {key} {layer[key]:.6g} {unit}")
        lines += [f"  target {k}: {v}" for k, v in LAYER_TARGETS.items()]

    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(".share"):
        return "ratio"
    if key.endswith(".bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
