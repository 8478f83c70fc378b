"""The benchmark's contract with ``rnpkit.cli``: the names its tracer
rebinds must exist, and its seed-1 workloads must print the CSV whose
sha256 ``bench/reference.json`` records."""

import ast
import hashlib
import importlib
import io
import json
import os
import sys

from rnpkit import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
CHILD = os.path.join(BENCH, "child.py")


def rebound_cli_names():
    """Every ``cli.<name>`` that ``install`` in bench/child.py assigns."""
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=CHILD)
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return [
        target.attr
        for node in ast.walk(install)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "cli"
    ]


def test_tracer_rebinds_only_names_the_cli_has():
    names = rebound_cli_names()
    assert "wl_refine" in names and "rnp_encode_nodes" in names
    missing = [name for name in names if not hasattr(cli, name)]
    assert not missing, f"bench/child.py install() rebinds missing cli names {missing}"


def test_reference_workloads_print_the_reference_csv(tmp_path, monkeypatch):
    # bench/run.py builds each workload's spec; it is imported, not run,
    # and writes no bytecode next to itself.
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    make_spec = importlib.import_module("run").make_spec
    monkeypatch.chdir(ROOT)  # the specs name their pattern files from here
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    assert set(reference["stdout_sha256"]) == {"census_er14", "stream_regular"}
    for workload, expected in reference["stdout_sha256"].items():
        spec = tmp_path / f"{workload}.json"
        spec.write_text(json.dumps(make_spec(workload, reference["seed"])))
        out = io.StringIO()
        assert cli.main(["experiment", str(spec)], out=out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected, workload
