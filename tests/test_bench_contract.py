"""The benchmark's tracer rebinds names in ``rnpkit.cli``; they must exist."""

import ast
import os

from rnpkit import cli

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "child.py")


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
