"""One benchmark child: run `rnpkit experiment SPEC` in-process and report.

    python3 bench/child.py SPEC SPAWN_TIME TRACE SAMPLE

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process; on Linux the clock is shared between processes, so every time
this child reports is measured from its own start.  TRACE is 0 or 1.
SAMPLE lists the trial indices (comma-separated, possibly empty) whose
graphs are regenerated after the run for the parent's brute-force recount.

The last line of stdout is one JSON object: exit code, CSV text, the time
of each CSV write, peak RSS, the sampled graphs, the median time of the
reference jobs run between rows (see StampedOut) and, when traced, the
spans and deterministic counters.  Only the experiment is timed; the
sampled graphs are built after its last row.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import resource
import statistics
import sys
import time
from math import comb

from bruteforce import reference_job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP = -1  # parent id of spans before the CSV header
SLICE_EVERY_S = 0.05


class StampedOut:
    """Text sink that records when each write ends; csv.writer writes once per row.

    With `interleave`, a write that comes SLICE_EVERY_S or more after the
    last reference job runs the benchmark's reference job, times it, and
    shifts every later stamp back by that time.  The jobs are spread over
    the whole run, so their median time measures the host's speed while the
    program ran, and the stamps still time the program alone.
    """

    def __init__(self, interleave: bool):
        self.chunks: list[str] = []
        self.stamps: list[float] = []
        self.reference_s: list[float] = []
        self._interleave = interleave
        self._paused = 0.0
        self._last_job = -SLICE_EVERY_S

    def write(self, text: str) -> int:
        now = time.monotonic()
        self.chunks.append(text)
        self.stamps.append(now - self._paused)
        if self._interleave and now - self._last_job >= SLICE_EVERY_S:
            # Collections during the job would scan the program's heap.
            gc.disable()
            reference_job()
            gc.enable()
            self._last_job = time.monotonic()
            self.reference_s.append(self._last_job - now)
            self._paused += self._last_job - now
        return len(text)


class Tracer:
    """Spans and counters recorded around the names `rnpkit.cli` calls.

    A span is (name, start, end, parent): the parent is the trial index
    the span ran in, or SETUP.  Trial i runs from the end of the previous
    CSV row (the header for trial 0) to the end of its own row.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.trial = SETUP
        self.counts = dict.fromkeys(
            ["counting.calls", "counting.subsets", "encoder.updates", "encoder.bytes",
             "wl.calls", "wl.rounds", "generators.calls"]
            + [f"encoder.max_context_l{level}" for level in range(1, 5)],
            0,
        )
        self.bound_per_trial: dict[int, int] = {}

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            self.spans.append((name, start, time.monotonic(), self.trial))
            if after is not None:
                after(result, *args)
            return result

        return traced

    def on_count(self, result, g, h):
        self.counts["counting.calls"] += 1
        self.counts["counting.subsets"] += comb(g.node_count, h.node_count)

    def on_encode(self, result, g, radii):
        counter = result[1]
        self.counts["encoder.updates"] += counter.invocations
        for level, size in enumerate(counter.max_context_per_level, start=1):
            key = f"encoder.max_context_l{level}"
            self.counts[key] = max(self.counts.get(key, 0), size)

    def on_readout(self, result, node_encodings):
        self.counts["encoder.bytes"] += len(result)

    def on_bound(self, result, g, radii):
        # The CLI asks twice per trial; count each trial's bound once.
        self.bound_per_trial[self.trial] = result

    def on_wl(self, result, g):
        self.counts["wl.calls"] += 1
        self.counts["wl.rounds"] += 2 * g.node_count

    def on_generate(self, result, *args):
        self.counts["generators.calls"] += 1

    def counters(self, rows: int) -> dict[str, int]:
        return {
            **self.counts,
            "encoder.bound": sum(self.bound_per_trial.values()),
            "cli.pairs_compared": rows * (rows - 1) // 2,
        }

    def csv_module(self):
        """Stand-in for `csv` whose writers time each row and advance the trial."""
        tracer = self

        class TracedWriter:
            def __init__(self, out, **kwargs):
                self._writer = csv.writer(out, **kwargs)

            def writerow(self, row):
                start = time.monotonic()
                self._writer.writerow(row)
                tracer.spans.append(("cli.write", start, time.monotonic(), tracer.trial))
                tracer.trial += 1

        class TracedCsv:
            writer = TracedWriter

        return TracedCsv


def install(cli, tracer: Tracer) -> None:
    """Wrap every layer entry point in the `rnpkit.cli` namespace.

    The CLI binds these names with `from .x import y`, so patching the
    defining modules would not reach it.
    """
    wrap = tracer.wrap
    cli.count_induced = wrap("counting", cli.count_induced, tracer.on_count)
    cli.count_noninduced = wrap("counting", cli.count_noninduced, tracer.on_count)
    cli.rnp_encode_nodes = wrap("encoder", cli.rnp_encode_nodes, tracer.on_encode)
    cli.graph_readout = wrap("encoder.readout", cli.graph_readout, tracer.on_readout)
    cli.encoding_digest = wrap("encoder.digest", cli.encoding_digest)
    cli.update_bound = wrap("encoder.bound", cli.update_bound, tracer.on_bound)
    cli.wl_refine = wrap("wl", cli.wl_refine, tracer.on_wl)
    cli.erdos_renyi = wrap("generators", cli.erdos_renyi, tracer.on_generate)
    cli.random_regular_perturbed = wrap(
        "generators", cli.random_regular_perturbed, tracer.on_generate
    )
    cli.family_covering_sequence = wrap("covering", cli.family_covering_sequence)
    cli.parse_graph = wrap("graphs.parse", cli.parse_graph)
    cli.csv = tracer.csv_module()


def sampled_graphs(spec: dict, trials: list[int]) -> list[list]:
    from rnpkit.generators import erdos_renyi, random_regular_perturbed

    gen = spec["generator"]
    graphs = []
    for trial in trials:
        seed = spec["base_seed"] + trial
        if gen["kind"] == "er":
            g = erdos_renyi(gen["n"], gen["p"], seed)
        else:
            g = random_regular_perturbed(gen["n"], gen["d"], gen["delete"], seed)
        graphs.append([trial, g.node_count, list(g.edges())])
    return graphs


def main() -> None:
    spec_path, spawn, trace, sample = sys.argv[1:5]
    spawn = float(spawn)
    sys.path.insert(0, SRC)
    import rnpkit.cli as cli

    imported = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rnpkit imported from {cli.__file__}, not from {SRC}")
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        install(cli, tracer)
    # Traced children time layers with unshifted clocks, so they run no
    # reference jobs; their numbers stay in seconds.
    out = StampedOut(interleave=tracer is None)
    code = cli.main(["experiment", spec_path], out=out)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    trials = [int(t) for t in sample.split(",") if t]
    report = {
        "code": code,
        "stdout": "".join(out.chunks),
        "stamps": [t - spawn for t in out.stamps],
        "import_s": imported - spawn,
        "peak_rss_kb": peak_kb,
        "samples": sampled_graphs(spec, trials) if code == 0 else [],
        "ref_s": statistics.median(out.reference_s) if out.reference_s else None,
    }
    if tracer is not None:
        report["spans"] = [
            [name, start - spawn, end - spawn, parent]
            for name, start, end, parent in tracer.spans
        ]
        report["counters"] = tracer.counters(max(len(out.stamps) - 1, 0))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
