import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rnpkit import (
    Graph,
    PatternCensus,
    SplitMix64,
    are_isomorphic,
    complete,
    count_induced,
    count_noninduced,
    cycle,
    encoding_digest,
    enumerate_connected_graphs,
    erdos_renyi,
    family_covering_sequence,
    parse_graph,
    path,
    pattern,
    permuted,
    random_regular_perturbed,
    rnp_encode_graph,
    rnp_encode_nodes,
    serialize_graph,
    star,
    two_triangles,
    update_bound,
)
from rnpkit import cli, counting, generators
from rnpkit.cli import main
from rnpkit.graphs import IsomorphismClasses

from conftest import (
    canonical_code,
    cli_env,
    disjoint_union,
    graph_strategy,
    reference_wl_histogram,
    rook_and_shrikhande,
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_graph(tmp_path, name, g):
    target = tmp_path / name
    target.write_text(serialize_graph(g), encoding="ascii")
    return str(target)


class TestGen:
    def test_er_output_parses(self):
        code, text = run(["gen", "er", "--n", "10", "--p", "0.3", "--seed", "7"])
        assert code == 0
        g = parse_graph(text)
        assert g.node_count == 10

    def test_er_deterministic(self):
        _, a = run(["gen", "er", "--n", "10", "--p", "0.3", "--seed", "7"])
        _, b = run(["gen", "er", "--n", "10", "--p", "0.3", "--seed", "7"])
        assert a == b

    def test_regular(self):
        code, text = run(
            ["gen", "regular", "--n", "20", "--d", "3", "--delete", "20", "--seed", "7"]
        )
        assert code == 0
        assert parse_graph(text).edge_count == 10

    @pytest.mark.parametrize("d", ["6", "7", "8"])
    def test_dense_regular(self, d):
        # the pairing model exhausts its budget here; its complement does not
        code, text = run(["gen", "regular", "--n", "10", "--d", d, "--seed", "1"])
        assert code == 0
        g = parse_graph(text)
        assert g.node_count == 10
        assert all(g.degree(v) == int(d) for v in range(10))

    def test_regular_exhausting_both_sides_is_user_error(self, capsys):
        code, text = run(["gen", "regular", "--n", "16", "--d", "7", "--seed", "1"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "7-regular graph on 16 nodes" in err and "100000 attempts" in err

    def test_prime_partite(self):
        code, text = run(["gen", "prime-partite", "--primes", "2,3,5", "--n", "12"])
        assert code == 0
        assert parse_graph(text).edge_count == 2 * 3 + 2 * 5 + 3 * 5

    def test_pattern_pair_emits_two_documents(self):
        code, text = run(["gen", "pattern", "--name", "figure2_pair"])
        assert code == 0
        first, _, second = text.partition("# --- second graph ---\n")
        assert parse_graph(first) == cycle(6)
        assert parse_graph(second) == two_triangles()

    def test_pattern_with_size(self):
        code, text = run(["gen", "pattern", "--name", "cycle", "--size", "5"])
        assert code == 0
        assert parse_graph(text) == cycle(5)

    def test_pattern_missing_size_is_user_error(self):
        code, _ = run(["gen", "pattern", "--name", "cycle"])
        assert code == 2

    def test_out_file(self, tmp_path):
        target = tmp_path / "g.txt"
        code, text = run(
            ["gen", "er", "--n", "5", "--p", "0.5", "--seed", "1", "--out", str(target)]
        )
        assert code == 0 and text == ""
        assert parse_graph(target.read_text()).node_count == 5

    @pytest.mark.parametrize("target", ["missing/g.txt", "."])
    def test_out_unwritable(self, tmp_path, capsys, target):
        # a missing parent directory, and a directory as the file
        out = str(tmp_path / target)
        code, text = run(["gen", "er", "--n", "5", "--p", "0.5", "--seed", "1", "--out", out])
        assert code == 2 and text == ""
        assert out in capsys.readouterr().err


class TestCover:
    def test_triangle(self, tmp_path):
        graph = write_graph(tmp_path, "k3.txt", complete(3))
        code, text = run(["cover", graph])
        assert code == 0
        payload = json.loads(text)
        assert payload["radii"] == [1, 1]
        assert payload["valid"] is True
        assert sorted(payload["order"]) == [0, 1, 2]

    def test_path_four_starts_at_three(self, tmp_path):
        graph = write_graph(tmp_path, "p4.txt", path(4))
        code, text = run(["cover", graph])
        assert code == 0
        assert json.loads(text)["radii"][0] == 3

    def test_disconnected_is_user_error(self, tmp_path):
        graph = write_graph(tmp_path, "tt.txt", two_triangles())
        code, _ = run(["cover", graph])
        assert code == 2

    def test_missing_file_is_user_error(self):
        code, _ = run(["cover", "no-such-file.txt"])
        assert code == 2

    def test_malformed_file_is_user_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n")
        code, _ = run(["cover", str(bad)])
        assert code == 2


def with_attributes(g, values, seed):
    rng = SplitMix64(seed)
    return Graph(g.node_count, g.adjacency, tuple(rng.below(values) for _ in range(g.node_count)))


# Connected patterns of 1 to 5 nodes, which the pattern census counts.
CENSUS_PATTERNS = [
    *(h for k in range(1, 6) for h in enumerate_connected_graphs(k)),
    Graph(1, (0,), (2,)),
    Graph(3, path(3).adjacency, (0, 1, 0)),
    Graph(4, cycle(4).adjacency, (1, 0, 1, 0)),
    Graph(5, path(5).adjacency, (2, 0, 1, 0, 2)),
]
# Empty, disconnected and 6- to 8-node patterns, which it leaves to the oracles.
ORACLE_PATTERNS = [
    Graph(0, (), ()),
    disjoint_union(path(2), path(1)),
    Graph(3, (0, 0, 0), (0, 1, 2)),
    two_triangles(),
    cycle(6),
    Graph(7, path(7).adjacency, (0, 1, 2, 0, 1, 2, 0)),
    complete(8),
]
# host -> the largest pattern the brute-force induced oracle counts in it quickly
COUNT_HOSTS = {
    "er10": (erdos_renyi(10, 0.4, 3), 8),
    "er12_attributed": (with_attributes(erdos_renyi(12, 0.35, 4), 3, 5), 8),
    "regular64": (random_regular_perturbed(64, 3, 0, 1), 3),
    "regular64_attributed": (with_attributes(random_regular_perturbed(64, 3, 0, 2), 2, 6), 3),
    "path4": (path(4), 8),  # smaller than most patterns
}


class TestCount:
    @pytest.mark.parametrize("host", sorted(COUNT_HOSTS))
    def test_counts_equal_the_oracles(self, tmp_path, monkeypatch, host):
        # The command asks the pattern census, which calls the oracles for
        # exactly the patterns it does not count itself.
        def unused(*args):
            raise AssertionError("count called an oracle bound in rnpkit.cli")

        monkeypatch.setattr(cli, "count_induced", unused)
        monkeypatch.setattr(cli, "count_noninduced", unused)
        oracle_calls = []
        for name in ("count_induced", "count_noninduced"):
            oracle = getattr(counting, name)
            monkeypatch.setattr(counting, name,
                                lambda g, h, oracle=oracle: oracle_calls.append(h) or oracle(g, h))
        g, largest = COUNT_HOSTS[host]
        graph = write_graph(tmp_path, "host.txt", g)
        for route, patterns in (("census", CENSUS_PATTERNS), ("oracle", ORACLE_PATTERNS)):
            for i, h in enumerate(patterns):
                if h.node_count > largest:
                    continue
                pat = write_graph(tmp_path, f"{route}{i}.txt", h)
                for mode, oracle in (("induced", count_induced), ("noninduced", count_noninduced)):
                    oracle_calls.clear()
                    code, text = run(["count", graph, pat, "--mode", mode])
                    assert code == 0
                    payload = json.loads(text)
                    assert list(payload) == ["schema", "pattern", "mode", "count"]
                    assert payload == {"schema": "rnp-kit/1", "pattern": pat, "mode": mode,
                                       "count": oracle(g, h)}, (route, i, mode)
                    assert oracle_calls == ([h] if route == "oracle" else []), (route, i, mode)

    @pytest.mark.parametrize("host, pattern, message", [
        (cycle(65), path(3), "host has 65 nodes, limit is 64"),
        (cycle(10), path(9), "pattern has 9 nodes, limit is 8"),
    ])
    def test_size_caps_are_user_errors(self, tmp_path, capsys, host, pattern, message):
        g = write_graph(tmp_path, "host.txt", host)
        h = write_graph(tmp_path, "pattern.txt", pattern)
        for mode in ("induced", "noninduced"):
            code, text = run(["count", g, h, "--mode", mode])
            assert (code, text) == (2, "")
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_triangles_in_k5(self, tmp_path):
        g = write_graph(tmp_path, "k5.txt", complete(5))
        h = write_graph(tmp_path, "k3.txt", complete(3))
        code, text = run(["count", g, h])
        assert code == 0
        assert json.loads(text)["count"] == 10

    def test_no_triangles_in_cycle(self, tmp_path):
        g = write_graph(tmp_path, "c6.txt", cycle(6))
        h = write_graph(tmp_path, "k3.txt", complete(3))
        code, text = run(["count", g, h, "--mode", "induced"])
        assert json.loads(text)["count"] == 0

    def test_noninduced_stars(self, tmp_path):
        g = write_graph(tmp_path, "k4.txt", complete(4))
        h = write_graph(tmp_path, "s3.txt", star(3))
        code, text = run(["count", g, h, "--mode", "noninduced"])
        payload = json.loads(text)
        assert payload["count"] == 4
        assert payload["mode"] == "noninduced"
        assert payload["schema"] == "rnp-kit/1"

    def test_eight_node_pattern_is_accepted(self, tmp_path):
        g = write_graph(tmp_path, "k10.txt", complete(10))
        h = write_graph(tmp_path, "k8.txt", complete(8))
        code, text = run(["count", g, h])
        assert code == 0
        assert json.loads(text)["count"] == 45


class TestDistinguish:
    def test_figure_pair(self, tmp_path):
        a = write_graph(tmp_path, "a.txt", cycle(6))
        b = write_graph(tmp_path, "b.txt", two_triangles())
        code, text = run(["distinguish", a, b, "--radii", "1,1"])
        payload = json.loads(text)
        assert payload == {
            "schema": "rnp-kit/1",
            "rnp": True,
            "wl": False,
            "radii": [1, 1],
        }

    def test_identical_files(self, tmp_path):
        a = write_graph(tmp_path, "a.txt", cycle(6))
        code, text = run(["distinguish", a, a, "--radii", "2,1"])
        payload = json.loads(text)
        assert payload["rnp"] is False and payload["wl"] is False

    def test_triangle_versus_path(self, tmp_path):
        a = write_graph(tmp_path, "a.txt", complete(3))
        b = write_graph(tmp_path, "b.txt", path(3))
        code, text = run(["distinguish", a, b, "--radii", "1"])
        payload = json.loads(text)
        assert payload["rnp"] is True and payload["wl"] is True

    def test_bad_radii(self, tmp_path):
        a = write_graph(tmp_path, "a.txt", complete(3))
        code, _ = run(["distinguish", a, a, "--radii", "1,x"])
        assert code == 2


class TestNumberLists:
    # --radii, --primes and gen's integer options take ASCII decimal digits
    # only: int() alone would read 1_0 as 10 and accept signs, spaces and
    # other scripts' digits.
    BAD = ["1_0", "\u0662,1", "\uff11", "+1", " 1", "1 ", "-1", "1,", ",1", "1,,2", ""]

    @pytest.mark.parametrize("command", ["encode", "complexity", "distinguish"])
    @pytest.mark.parametrize("text", BAD)
    def test_radii_reject_anything_but_ascii_digits(self, tmp_path, capsys, command, text):
        g = write_graph(tmp_path, "c6.txt", cycle(6))
        graphs = [g, g] if command == "distinguish" else [g]
        assert run([command, *graphs, f"--radii={text}"]) == (2, "")
        assert "bad radii" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["2_3", "\u0663,2", "+2,3", "2, 3", "-2", "2,", ""])
    def test_primes_reject_anything_but_ascii_digits(self, capsys, text):
        assert run(["gen", "prime-partite", f"--primes={text}", "--n", "40"]) == (2, "")
        assert "bad primes" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "+3", " 3", "-4", "3,4", ""])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["er", "--p", "0.3", "--seed", "1", "--n"], "--n"),
            (["er", "--n", "10", "--p", "0.3", "--seed"], "--seed"),
            (["regular", "--n", "10", "--seed", "1", "--d"], "--d"),
            (["regular", "--n", "10", "--seed", "1", "--delete"], "--delete"),
            (["regular", "--n", "10", "--d", "3", "--seed"], "--seed"),
            (["prime-partite", "--primes", "2,3", "--n"], "--n"),
            (["pattern", "--name", "cycle", "--size"], "--size"),
        ],
    )
    def test_gen_integers_reject_anything_but_ascii_digits(self, capsys, argv, option, text):
        assert run(["gen", *argv[:-1], f"{argv[-1]}={text}"]) == (2, "")
        assert f"bad {option} '{text}'" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [["er", "--p", "0.5"], ["regular"]])
    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 10**30])
    def test_gen_seed_must_be_below_2_64(self, capsys, family, seed):
        # SplitMix64 reads its seed mod 2**64: 2**64 would draw seed 0's graph.
        assert run(["gen", *family, "--n", "6", "--seed", str(seed)]) == (2, "")
        assert f"bad --seed '{seed}': expected an integer below 2**64" in capsys.readouterr().err

    # No list holds more than sys.maxsize items, so a larger size is a user
    # error before any generator runs.  Sizes up to sys.maxsize that are
    # still too large to build are not tested: they allocate.
    @pytest.mark.parametrize("size", ["1" * 30, str(sys.maxsize + 1)])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["er", "--p", "0", "--seed", "1", "--n"], "--n"),
            (["regular", "--d", "0", "--seed", "1", "--n"], "--n"),
            (["regular", "--d", "2", "--seed", "1", "--n"], "--n"),
            (["prime-partite", "--primes", "2", "--n"], "--n"),
            (["pattern", "--name", "path", "--size"], "--size"),
        ],
    )
    def test_gen_sizes_beyond_sys_maxsize_are_user_errors(self, capsys, argv, option, size):
        assert run(["gen", *argv, size]) == (2, "")
        assert f"bad {option} '{size}'" in capsys.readouterr().err

    def test_largest_gen_seed_still_draws(self):
        code, out = run(["gen", "er", "--n", "6", "--p", "0.5", "--seed", str(2**64 - 1)])
        assert (code, out) == (0, serialize_graph(erdos_renyi(6, 0.5, 2**64 - 1)))

    @pytest.mark.parametrize(
        "text",
        ["0.0_5", "\u0660.\u0665", " 0.5", "0.5 ", "+0.5", "-0.5", "1e-1", ".5", "0.",
         "0..5", "0.5.1", "nan", "inf", "1.5", "2", ""],
    )
    def test_probability_rejects_anything_but_an_ascii_decimal_in_range(self, capsys, text):
        assert run(["gen", "er", "--n", "10", f"--p={text}", "--seed", "1"]) == (2, "")
        err = capsys.readouterr().err
        assert f"bad --p '{text}': expected a decimal number in [0, 1]" in err

    @pytest.mark.parametrize("text, p", [("0", 0.0), ("1", 1.0), ("1.000", 1.0), ("0.05", 0.05)])
    def test_probability_decimals_still_parse(self, text, p):
        code, out = run(["gen", "er", "--n", "10", "--p", text, "--seed", "1"])
        assert code == 0
        assert out == serialize_graph(erdos_renyi(10, p, 1))

    def test_multi_digit_radii_still_parse(self, tmp_path):
        g = write_graph(tmp_path, "c6.txt", cycle(6))
        code, text = run(["complexity", g, "--radii", "10,01"])
        assert code == 0
        # Radius 10 covers all of C6: the bound is 6 * 6**2.
        assert json.loads(text)["bound"] == 216


@pytest.fixture
def digit_limit():
    """Python's int-to-str limit, pinned at its default of 4,300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any size to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestComplexityAndEncode:
    # P3 under tau radii of 1 has bound 3 * 3**tau: 4,300 digits at tau =
    # 9,011, which prints, and 4,301 at tau = 9,012, which does not.
    @pytest.mark.parametrize("command", ["encode", "complexity"])
    def test_unprintable_bound_is_user_error(self, tmp_path, capsys, digit_limit, command):
        g = write_graph(tmp_path, "p3.txt", path(3))
        code, text = run([command, g, "--radii", ",".join(["1"] * 9011)])
        assert code == 0 and json.loads(text)["bound"] == 3**9012
        for tau in (9012, 10_000):
            assert run([command, g, "--radii", ",".join(["1"] * tau)]) == (2, "")
            err = capsys.readouterr().err
            assert "the n * c**tau update bound is too large to print" in err

    def test_isolated_nodes_hit_bound(self, tmp_path):
        from rnpkit import Graph

        g = write_graph(tmp_path, "iso.txt", Graph.from_edges(6))
        code, text = run(["complexity", g, "--radii", "1"])
        payload = json.loads(text)
        assert payload["updates"] == payload["bound"] == 6
        assert payload["ratio"] == 1.0

    def test_updates_within_bound(self, tmp_path):
        g = write_graph(tmp_path, "c6.txt", cycle(6))
        code, text = run(["complexity", g, "--radii", "2,1"])
        payload = json.loads(text)
        assert payload["bound"] == 150
        assert payload["updates"] <= payload["bound"]

    def test_empty_graph_payloads(self, tmp_path):
        g = write_graph(tmp_path, "empty.txt", Graph(0, (), ()))
        assert run(["encode", g, "--radii", "2,1"]) == (0, (
            '{"schema": "rnp-kit/1", "digest": '
            '"3ac029a1aea29a6bf6c04354104eba0b4497837397e2bb5c0629b7c5577199f7", '
            '"updates": 0, "bound": 0}\n'
        ))
        assert run(["complexity", g, "--radii", "2,1"]) == (
            0, '{"schema": "rnp-kit/1", "updates": 0, "bound": 0, "ratio": 0.0}\n'
        )

    @pytest.mark.parametrize(
        "text, line",
        [("1_0 0\n", 1), ("+3 1\n0 1\n", 1), ("3 1\n0 +2\n", 2), ("2 0\nattr 0 1_2\n", 2)],
    )
    def test_noncanonical_integers_in_graph_file(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run(["encode", str(bad), "--radii", "1"]) == (2, "")
        assert f"line {line}: " in capsys.readouterr().err

    def test_encode_payload(self, tmp_path):
        g = write_graph(tmp_path, "c6.txt", cycle(6))
        code, a = run(["encode", g, "--radii", "1,1"])
        _, b = run(["encode", g, "--radii", "1,1"])
        assert code == 0 and a == b
        payload = json.loads(a)
        assert set(payload) == {"schema", "digest", "updates", "bound"}
        assert len(payload["digest"]) == 64


class TestEnvelope:
    @pytest.mark.parametrize(
        "command, keys",
        [
            ("cover", ["radii", "order", "valid"]),
            ("count", ["pattern", "mode", "count"]),
            ("encode", ["digest", "updates", "bound"]),
            ("distinguish", ["rnp", "wl", "radii"]),
            ("complexity", ["updates", "bound", "ratio"]),
        ],
    )
    def test_one_line_with_schema_first(self, tmp_path, command, keys):
        c6 = write_graph(tmp_path, "c6.txt", cycle(6))
        k3 = write_graph(tmp_path, "k3.txt", complete(3))
        operands = {"cover": [c6], "count": [c6, k3], "distinguish": [c6, k3, "--radii", "1,1"]}
        code, text = run([command, *operands.get(command, [c6, "--radii", "2,1"])])
        assert code == 0 and text.endswith("\n") and text.count("\n") == 1
        payload = json.loads(text)
        assert list(payload) == ["schema", *keys]
        assert payload["schema"] == "rnp-kit/1"


def spec_patterns(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        return json.load(fh)["patterns"]


def count_calls(monkeypatch, name):
    """Record the first argument of every call to ``cli.<name>``."""
    calls = []
    original = getattr(cli, name)

    def recorded(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return calls


def shuffled(n, seed):
    perm = list(range(n))
    SplitMix64(seed).shuffle(perm)
    return perm


def component_sizes(g):
    """Sizes of g's connected components, by a plain set-based search."""
    unseen = set(range(g.node_count))
    sizes = []
    while unseen:
        stack = [unseen.pop()]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for w in g.neighbors(u):
                if w in unseen:
                    unseen.remove(w)
                    stack.append(w)
        sizes.append(size)
    return sizes


def recomputed_records(trials, patterns, radii, mode):
    """Every record field but the memo's, recomputed per trial and by rescanning earlier ones.

    ``trials`` lists (seed, graph) per trial, as ``cli.run_experiment``
    takes them.
    """
    oracle = count_induced if mode == "induced" else count_noninduced
    earlier = []
    records = []
    for seed, g in trials:
        encoding = rnp_encode_graph(g, radii)
        counts = tuple(oracle(g, h) for h in patterns)
        histogram = reference_wl_histogram(g)
        records.append({
            "seed": seed,
            "graph": g,
            "counts": counts,
            "digest": encoding_digest(encoding)[:16],
            "updates": rnp_encode_nodes(g, radii)[1].invocations,
            "bound": update_bound(g, radii),
            "rnp_distinct": all(e != encoding for e, _, _ in earlier),
            "wl_distinct": all(w != histogram for _, _, w in earlier),
            "theorem1_violations": sum(
                1 for e, c, _ in earlier if e == encoding and c != counts
            ),
        })
        earlier.append((encoding, counts, histogram))
    return records


def recomputed_rows(trials, label, patterns, spec_path, radii, mode):
    """The experiment's CSV rows, every check on, from ``recomputed_records``."""
    files = spec_patterns(spec_path)
    same_name = ("digest", "updates", "bound", "rnp_distinct", "wl_distinct", "theorem1_violations")
    return [
        {
            "trial": str(trial),
            "seed": str(r["seed"]),
            "generator": label,
            "n": str(r["graph"].node_count),
            "radii": ",".join(str(x) for x in radii),
            **{f"count:{f}": str(c) for f, c in zip(files, r["counts"])},
            **{key: str(r[key]) for key in same_name},
            "theorem3_ok": str(r["updates"] <= r["bound"]),
        }
        for trial, r in enumerate(recomputed_records(trials, patterns, radii, mode))
    ]


def experiment_records(trials, patterns, radii, mode="induced"):
    return list(cli.run_experiment(trials, PatternCensus(patterns, mode), radii))


def memo_free(records):
    """Records as dicts without the memo's fields, as ``recomputed_records`` gives them."""
    return [
        {k: v for k, v in r._asdict().items() if k not in ("hit", "tests_failed")}
        for r in records
    ]


@st.composite
def wl_streams(draw):
    """At most 12 trials from a pool of small attributed graphs, the figure-2
    pair, that pair each with a separate edge added (1-WL-equivalent but not
    regular, so relabelling moves their degrees) and the rook's and
    Shrikhande graphs, each trial a relabelled copy of a pool graph or the
    graph itself."""
    pool = draw(st.lists(graph_strategy(max_nodes=6, attributed=True, max_attribute=1),
                         max_size=4))
    figure_pair = pattern("figure2_pair")
    pool += [*figure_pair, *(disjoint_union(g, path(2)) for g in figure_pair),
             *rook_and_shrikhande()]
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.none() | st.integers(0, 1 << 32)), max_size=12))
    trials = []
    for trial, (i, seed) in enumerate(picks):
        g = pool[i] if seed is None else permuted(pool[i], shuffled(pool[i].node_count, seed))
        trials.append((trial, g))
    return trials


def degree_pairs(g):
    """g's sorted (attribute, degree) pairs."""
    return tuple(sorted((a, g.degree(v)) for v, a in enumerate(g.attributes)))


def experiment_spec(tmp_path, **overrides):
    k3 = write_graph(tmp_path, "k3.txt", complete(3))
    p3 = write_graph(tmp_path, "p3.txt", path(3))
    spec = {
        "generator": {"kind": "er", "n": 8, "p": 0.35},
        "trials": 8,
        "base_seed": 0,
        "patterns": [k3, p3],
        "radii": "auto",
        "checks": ["theorem1", "theorem3"],
    }
    spec.update(overrides)
    target = tmp_path / "spec.json"
    target.write_text(json.dumps(spec))
    return str(target)


class TestExperiment:
    def test_rows_and_checks(self, tmp_path):
        import csv

        spec = experiment_spec(tmp_path)
        code, text = run(["experiment", spec])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 9
        violations = rows[0].index("theorem1_violations")
        ok = rows[0].index("theorem3_ok")
        for fields in rows[1:]:
            assert fields[violations] == "0"
            assert fields[ok] == "True"

    def test_empty_trials_emit_header_only(self, tmp_path):
        spec = experiment_spec(tmp_path, trials=0)
        code, text = run(["experiment", spec])
        assert code == 0
        assert text.count("\n") == 1 and text.startswith("trial,seed,")

    def test_unknown_field_is_user_error(self, tmp_path):
        spec = experiment_spec(tmp_path, flux_capacitor=1)
        code, _ = run(["experiment", spec])
        assert code == 2

    def test_unknown_generator_is_user_error(self, tmp_path):
        spec = experiment_spec(tmp_path, generator={"kind": "smallworld", "n": 5})
        code, _ = run(["experiment", spec])
        assert code == 2

    def test_malformed_json_is_user_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        for content in (
            b"{not json",
            b'{"trials": "\xff"}',  # not UTF-8
            b"[" * 200_000,  # nesting deeper than the parser's recursion limit
            b'{"trials": ' + b"9" * 5_000 + b"}",  # above Python's digit limit
        ):
            bad.write_bytes(content)
            assert run(["experiment", str(bad)]) == (2, ""), content[:20]

    def test_explicit_radii(self, tmp_path):
        import csv

        spec = experiment_spec(tmp_path, radii=[2, 1], trials=3, checks=[])
        code, text = run(["experiment", spec])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert "theorem1_violations" not in rows[0]
        radii_column = rows[0].index("radii")
        assert rows[1][radii_column] == "2,1"


    def test_cross_trial_columns_match_a_rescan(self, tmp_path):
        # Radius 0 cannot see edges, so encodings collide while counts differ.
        spec = experiment_spec(
            tmp_path, generator={"kind": "er", "n": 6, "p": 0.5}, radii=[0], trials=30
        )
        code, text = run(["experiment", spec])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        trials = [(seed, erdos_renyi(6, 0.5, seed)) for seed in range(30)]
        assert rows == recomputed_rows(
            trials, "er(n=6,p=0.5)", [complete(3), path(3)], spec, (0,), "induced"
        )
        assert any(row["theorem1_violations"] != "0" for row in rows)
        assert any(row["wl_distinct"] == "False" for row in rows)

    @pytest.mark.parametrize("mode", ["induced", "noninduced"])
    def test_isomorphic_trials_match_a_recomputation(self, tmp_path, mode):
        generator = {"kind": "regular", "n": 8, "d": 3, "delete": 1}
        spec = experiment_spec(tmp_path, generator=generator, trials=200, mode=mode)
        code, text = run(["experiment", spec])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        label = "regular(n=8,d=3,delete=1)"
        trials = [(s, random_regular_perturbed(8, 3, 1, s)) for s in range(200)]
        patterns = [complete(3), path(3)]
        radii = family_covering_sequence(patterns)
        assert rows == recomputed_rows(trials, label, patterns, spec, radii, mode)
        # The spec repeats classes, and some classes share a 1-WL key.  Only
        # a miss counts and encodes.
        classes = {canonical_code(g) for _, g in trials}
        records = experiment_records(trials, patterns, radii, mode)
        assert sum(not r.hit for r in records) == len(classes) < 20
        assert len(classes) > sum(row["wl_distinct"] == "True" for row in rows)

    def test_hits_are_exactly_repeated_classes(self, monkeypatch):
        # A trial hits exactly when an earlier trial is isomorphic to it, by
        # the independent canonical-form oracle, and a hit runs neither 1-WL
        # nor the encoder; a second run over the same trials, with the same
        # census, starts from nothing.
        trials = [(s, random_regular_perturbed(8, 3, 1, s)) for s in range(200)]
        patterns = [complete(3), path(3)]
        radii = family_covering_sequence(patterns)
        census = PatternCensus(patterns)
        refined = count_calls(monkeypatch, "wl_refine")
        encoded = count_calls(monkeypatch, "rnp_encode_nodes")
        records = list(cli.run_experiment(trials, census, radii))
        misses = [r.graph for r in records if not r.hit]
        assert refined == encoded == misses
        earlier = set()
        for (_, g), record in zip(trials, records, strict=True):
            assert record.hit == (canonical_code(g) in earlier)
            earlier.add(canonical_code(g))
        assert list(cli.run_experiment(trials, census, radii)) == records

    @settings(max_examples=40, deadline=None)
    @given(wl_streams())
    def test_wl_columns_match_the_oracle(self, trials):
        # 1-WL runs only for misses whose degree profile an earlier miss
        # shares; wl_distinct must still match the oracle's histograms.
        patterns = [complete(3), path(3)]
        radii = family_covering_sequence(patterns)
        records = experiment_records(trials, patterns, radii)
        assert memo_free(records) == recomputed_records(trials, patterns, radii, "induced")

    def test_only_misses_sharing_a_profile_are_refined(self, monkeypatch):
        # The seed-1 census_er14 hosts, all misses: a miss is refined only
        # when another miss has its sorted (attribute, degree) pairs, and
        # then once.
        trials = [(s, erdos_renyi(14, 0.3, s)) for s in range(1_000_000, 1_000_100)]
        refined = count_calls(monkeypatch, "wl_refine")
        records = experiment_records(trials, [], (1,))
        misses = [r.graph for r in records if not r.hit]
        profiles = Counter(map(degree_pairs, misses))
        shared = [g for g in misses if profiles[degree_pairs(g)] > 1]
        assert len(refined) == len(shared) == 6
        assert sorted(map(id, refined)) == sorted(map(id, shared))

    def test_sparse_hosts_with_new_profiles_refine_nothing(self, monkeypatch):
        trials = [(s, erdos_renyi(200, 0.015, s)) for s in range(20)]
        refined = count_calls(monkeypatch, "wl_refine")
        records = experiment_records(trials, [], (1,))
        assert refined == []
        assert all(r.wl_distinct for r in records)

    @pytest.mark.parametrize("pair", ["figure2", "strongly_regular"])
    def test_key_collision_is_not_a_hit(self, pair):
        # C6 and two triangles share a 1-WL key; the rook's and Shrikhande
        # graphs share the memo key too.  Neither pair is isomorphic.
        if pair == "figure2":
            a, b = pattern("figure2_pair")
            patterns = [complete(3), path(3)]
        else:
            a, b = rook_and_shrikhande()
            patterns = [complete(4)]
        n = a.node_count
        sequence = [a, b]
        for i in range(3):
            sequence.append(permuted(a, shuffled(n, 2 * i)))
            sequence.append(permuted(b, shuffled(n, 2 * i + 1)))
        trials = list(enumerate(sequence))
        radii = family_covering_sequence(patterns)
        records = experiment_records(trials, patterns, radii)
        assert memo_free(records) == recomputed_records(trials, patterns, radii, "induced")
        columns = [(r.digest, r.updates, r.bound, r.counts) for r in records]
        first, second = columns[:2]
        assert first[0] != second[0] and first[3] != second[3]
        for i, trial_columns in enumerate(columns[2:]):
            assert trial_columns == (first if i % 2 == 0 else second)
        assert [r.wl_distinct for r in records] == [True] + [False] * 7
        assert [r.rnp_distinct for r in records] == [True] * 2 + [False] * 6
        assert [r.graph for r in records if not r.hit] == [a, b]

    def test_attributed_hosts_through_the_memo(self):
        # experiment only generates attribute-0 hosts; the memo key and the
        # exact test must still keep graphs apart by attribute.
        base = erdos_renyi(8, 0.5, 4)
        a = Graph(8, base.adjacency, (0, 1, 0, 2, 0, 0, 1, 0))
        b = Graph(8, base.adjacency, (0, 1, 0, 2, 0, 0, 1, 3))
        sequence = [a, b]
        for i in range(3):
            sequence.append(permuted(a, shuffled(8, 2 * i)))
            sequence.append(permuted(b, shuffled(8, 2 * i + 1)))
        trials = list(enumerate(sequence))
        patterns = [complete(3), path(3)]
        radii = family_covering_sequence(patterns)
        records = experiment_records(trials, patterns, radii)
        assert memo_free(records) == recomputed_records(trials, patterns, radii, "induced")
        assert [r.wl_distinct for r in records] == [True] * 2 + [False] * 6
        assert [r.rnp_distinct for r in records] == [True] * 2 + [False] * 6
        assert [r.graph for r in records if not r.hit] == [a, b]

    @pytest.mark.parametrize("generator, trials", [
        ({"kind": "regular", "n": 16, "d": 3, "delete": 0}, 60),
        ({"kind": "regular", "n": 20, "d": 19, "delete": 0}, 20),
        ({"kind": "er", "n": 64, "p": 0}, 20),
        ({"kind": "regular", "n": 60, "d": 1, "delete": 0}, 20),
        ({"kind": "regular", "n": 60, "d": 2, "delete": 0}, 20),
    ], ids=["cubic16", "complete20", "empty64", "matching60", "cycles60"])
    def test_regular_classes_are_not_tested_pairwise(self, generator, trials):
        # 1-WL gives every regular graph of one degree and size the same
        # certificate.  The memo key carries each node's distance histogram,
        # which keeps distinct classes out of each other's buckets; a hit
        # costs one exact test, and these symmetric hosts must not make that
        # test search long.  The brute-force count oracle is slow on the
        # larger hosts, and patterns do not enter the memo key, so those
        # run without patterns.
        if generator["n"] > 16:
            patterns, radii = [], (1,)
        else:
            patterns = [complete(3), path(3)]
            radii = family_covering_sequence(patterns)
        n = generator["n"]
        if generator["kind"] == "er":
            graphs = [erdos_renyi(n, generator["p"], s) for s in range(trials)]
        else:
            d, delete = generator["d"], generator["delete"]
            graphs = [random_regular_perturbed(n, d, delete, s) for s in range(trials)]
        drawn = list(enumerate(graphs))
        records = experiment_records(drawn, patterns, radii)
        assert memo_free(records) == recomputed_records(drawn, patterns, radii, "induced")
        assert [r.wl_distinct for r in records] == [True] + [False] * (trials - 1)
        # Failing tests compare distinct classes.
        assert sum(r.tests_failed for r in records) < 10
        if generator.get("d", 0) != 3:
            # Every component is complete, an edge or a cycle: its size
            # names it, so the sorted sizes name the class.
            classes = {tuple(sorted(component_sizes(g))) for g in graphs}
            assert sum(not r.hit for r in records) == len(classes)

    def test_stream_regular_buckets_hold(self, monkeypatch):
        # The benchmark's (10, 3, 1) stream: 3-regular graphs with one edge
        # deleted, most of them repeats.  Which earlier classes share a
        # trial's bucket decides how many exact tests fail, so the memo key
        # is pinned by the passing tests (hits), the failing ones and the
        # misses that get encoded.
        seeds = range(5_000_000, 5_000_300)
        trials = [(s, random_regular_perturbed(10, 3, 1, s)) for s in seeds]
        patterns = [complete(3), path(3)]
        derived = count_calls(monkeypatch, "rnp_encode_graph")
        records = experiment_records(
            trials, patterns, family_covering_sequence(patterns), "noninduced"
        )
        outcome = (sum(r.hit for r in records), sum(r.tests_failed for r in records),
                   sum(not r.hit for r in records))
        assert outcome == (221, 74, 79)
        # Every class's encoding is new, so no miss re-derives one.
        assert derived == []

    def test_stream_regular_outcome_over_two_thousand_trials(self):
        # The benchmark's stream at seed 11: hits, failed exact tests and
        # misses.  Patterns do not enter the memo, so none are counted.
        seeds = range(11_000_000, 11_002_000)
        trials = [(s, random_regular_perturbed(10, 3, 1, s)) for s in seeds]
        records = experiment_records(trials, [], (1, 1))
        outcome = (sum(r.hit for r in records), sum(r.tests_failed for r in records),
                   sum(not r.hit for r in records))
        assert outcome == (1907, 535, 93)

    def test_equal_encodings_are_rederived_once_per_miss(self, monkeypatch):
        # Radius 1 sees every cycle as the same: the 16 cycle classes of
        # these 20 trials share one encoding.  A run keeps that encoding's
        # digest and first graph, so each later miss re-encodes that graph
        # once to compare bytes, and a hit encodes nothing.
        trials = [(s, random_regular_perturbed(60, 2, 0, s)) for s in range(20)]
        derived = count_calls(monkeypatch, "rnp_encode_graph")
        records = experiment_records(trials, [], (1,))
        assert [r.rnp_distinct for r in records] == [True] + [False] * 19
        assert sum(not r.hit for r in records) == 16
        assert derived == [trials[0][1]] * 15

    @pytest.mark.parametrize("generator, trials", [
        ({"kind": "er", "n": 8, "p": 0.35}, 20),
        ({"kind": "regular", "n": 12, "d": 2, "delete": 0}, 12),
    ], ids=["er8", "cycles12"])
    def test_digest_never_decides_equality(self, tmp_path, monkeypatch, generator, trials):
        # With one digest for every encoding, every earlier encoding is a
        # candidate, so only the byte comparison can keep the cross-trial
        # columns right.
        spec = experiment_spec(tmp_path, generator=generator, trials=trials, radii=[1])
        columns = ["rnp_distinct", "theorem1_violations"]
        code, text = run(["experiment", spec])
        assert code == 0
        expected = [[row[c] for c in columns] for row in csv.DictReader(io.StringIO(text))]
        if generator["kind"] == "er":
            # Some non-isomorphic trials share an encoding and some do not.
            graphs = [erdos_renyi(8, 0.35, s) for s in range(trials)]
            by_encoding = {}
            for g in graphs:
                by_encoding.setdefault(rnp_encode_graph(g, (1,)), set()).add(canonical_code(g))
            assert 1 < len(by_encoding) and any(len(c) > 1 for c in by_encoding.values())
        monkeypatch.setattr(cli, "encoding_digest", lambda encoding: "0" * 64)
        code, text = run(["experiment", spec])
        assert code == 0
        assert [[row[c] for c in columns] for row in csv.DictReader(io.StringIO(text))] == expected

    def test_encodings_do_not_outlive_their_trial(self, tmp_path, monkeypatch):
        # Every one of these 40 encodings is distinct; a run that kept them
        # would trace more than their total.  The warm-up run fills the
        # encoder's process-wide leaf table and records the encodings' sizes.
        spec = experiment_spec(tmp_path, generator={"kind": "er", "n": 14, "p": 0.3},
                               trials=40, base_seed=7, radii=[3, 2, 1],
                               patterns=[write_graph(tmp_path, "k3.txt", complete(3))])
        sizes = []
        readout = cli.graph_readout

        def recorded(node_encodings):
            encoding = readout(node_encodings)
            sizes.append(len(encoding))
            return encoding

        monkeypatch.setattr(cli, "graph_readout", recorded)
        assert run(["experiment", spec])[0] == 0
        monkeypatch.undo()
        assert len(sizes) == 40
        tracemalloc.start()
        try:
            assert run(["experiment", spec])[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(sizes) / 2

    @pytest.mark.parametrize("mode", ["induced", "noninduced"])
    def test_counts_match_oracles_for_mixed_patterns(self, tmp_path, mode):
        patterns = [
            complete(3),
            path(4),
            Graph.from_edges(3, [(0, 1)]),
            Graph.from_edges(4, [(0, 1), (2, 3)]),
        ]
        files = [write_graph(tmp_path, f"h{i}.txt", h) for i, h in enumerate(patterns)]
        spec = experiment_spec(
            tmp_path, patterns=files, radii=[2, 1], trials=12, base_seed=40, mode=mode
        )
        code, text = run(["experiment", spec])
        assert code == 0
        oracle = count_induced if mode == "induced" else count_noninduced
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 12
        for row in rows:
            g = erdos_renyi(8, 0.35, int(row["seed"]))
            got = [int(row[f"count:{f}"]) for f in files]
            assert got == [oracle(g, h) for h in patterns]

    @pytest.mark.parametrize("mode", ["induced", "noninduced"])
    def test_auto_radii_skip_an_empty_pattern(self, tmp_path, mode):
        # The empty pattern admits every budget, so the family's radii come
        # from K2 alone; the oracles count the empty graph once in any host.
        empty = write_graph(tmp_path, "empty.txt", Graph(0, (), ()))
        k2 = write_graph(tmp_path, "k2.txt", complete(2))
        spec = experiment_spec(tmp_path, patterns=[empty, k2], trials=6, mode=mode)
        code, text = run(["experiment", spec])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 6
        assert all(row[f"count:{empty}"] == "1" for row in rows)
        assert {row["radii"] for row in rows} == {"1"}


def toggled(g, pairs):
    """g with the edge state of each node pair in ``pairs`` flipped."""
    rows = list(g.adjacency)
    for u, v in pairs:
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(g.node_count, tuple(rows), g.attributes)


class TestMemoKey:
    @settings(max_examples=300, deadline=None)
    @given(
        graph_strategy(max_nodes=7, attributed=True),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.integers(min_value=0, max_value=20), max_size=2),
    )
    @example(Graph(0, (), ()), 0, [])
    @example(Graph(1, (0,), (2,)), 1, [0])
    @example(disjoint_union(cycle(6), complete(1)), 2, [])
    @example(disjoint_union(cycle(6), complete(1)), 3, [0])
    @example(pattern("figure2_pair")[0], 4, [])
    def test_key_is_invariant_and_hit_test_is_exact(self, g, seed, flips):
        # are_isomorphic(x, y) asks whether y joins x's class in a fresh
        # index; canonical codes, equal iff isomorphic, share no code with it.
        n = g.node_count
        pairs = list(combinations(range(n), 2))
        # A relabelled copy must hit, so the bucket key is invariant.
        copy = permuted(g, shuffled(n, seed))
        assert are_isomorphic(g, copy) and are_isomorphic(copy, g)
        # A few flipped edges, relabelled, and the same edges with the
        # attributes moved: often isomorphic or sharing the key.
        flipped = permuted(toggled(g, [pairs[i % len(pairs)] for i in flips if pairs]),
                           shuffled(n, seed + 1))
        moved = Graph(n, g.adjacency, tuple(g.attributes[v] for v in shuffled(n, seed + 2)))
        for other in (flipped, moved):
            expected = canonical_code(g) == canonical_code(other)
            assert are_isomorphic(g, other) == expected == are_isomorphic(other, g)

    def test_classes_sharing_a_key_are_tested_in_order(self):
        # The rook's and Shrikhande graphs share a bucket: a relabelled
        # Shrikhande graph fails its test against the rook's class first.
        rook, shrikhande = rook_and_shrikhande()
        classes = IsomorphismClasses()
        sequence = [rook, shrikhande, permuted(rook, shuffled(16, 0)),
                    permuted(shrikhande, shuffled(16, 1))]
        assert [classes.classify(g) for g in sequence] == [(0, 0), (1, 1), (0, 0), (1, 1)]


class TestExperimentValidation:
    """Bad specs exit 2 before the CSV header is written."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": "5"},
            {"trials": True},
            {"trials": -1},
            {"base_seed": 1.5},
            {"generator": {"kind": "er", "n": 8, "p": "x"}},
            {"generator": {"kind": "er", "n": 8, "p": 1.5}},
            {"generator": {"kind": "er", "n": 8, "p": True}},
            {"generator": {"kind": "er", "n": "8", "p": 0.3}},
            {"generator": {"kind": "er", "n": 8}},
            {"generator": {"kind": ["er"], "n": 8, "p": 0.3}},
            {"generator": {"kind": "regular", "n": 9, "d": 3, "delete": 0}},
            {"generator": {"kind": "regular", "n": 10, "d": 3, "delete": False}},
            {"generator": {"kind": "er", "n": 70, "p": 0.3}},
            {"radii": [True, 1]},
            {"checks": "theorem1"},
            {"generator": {"kind": "er", "n": 8, "p": 0.3, "x": 1}},
            {"checks": ["theorem2"]},
            {"mode": "both"},
            {"patterns": [], "radii": "auto"},
            # SplitMix64 reads seeds mod 2**64, so the last trial's seed must
            # be below 2**64.
            {"base_seed": 2**64, "trials": 0},
            {"base_seed": 2**64 - 1, "trials": 2},
            {"base_seed": 2**64 - 8, "trials": 9},
        ],
    )
    def test_rejected_before_output(self, tmp_path, overrides):
        code, text = run(["experiment", experiment_spec(tmp_path, **overrides)])
        assert (code, text) == (2, "")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([], "spec must be a JSON object"),
            ("er", "spec must be a JSON object"),
            ({"generator": {"kind": "er", "n": 8, "p": 0.3}, "trials": 1},
             "missing spec fields ['base_seed', 'patterns', 'radii']"),
        ],
    )
    def test_spec_shape_rejected_before_output(self, tmp_path, capsys, spec, message):
        target = tmp_path / "spec.json"
        target.write_text(json.dumps(spec))
        assert run(["experiment", str(target)]) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_spec_rejected_before_output(self, tmp_path, capsys, name):
        # A missing file, and a directory as the file.
        path = str(tmp_path / name)
        assert run(["experiment", path]) == (2, "")
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("n", [int("1" * 30), sys.maxsize + 1])
    @pytest.mark.parametrize("generator", [{"kind": "er", "p": 0},
                                           {"kind": "regular", "d": 0, "delete": 0}])
    def test_node_count_beyond_sys_maxsize_rejected_before_output(
        self, tmp_path, capsys, generator, n
    ):
        spec = experiment_spec(tmp_path, generator={**generator, "n": n},
                               patterns=[], radii=[1], trials=1)
        assert run(["experiment", spec]) == (2, "")
        assert f"generator n must be at most {sys.maxsize}" in capsys.readouterr().err

    def test_patterns_must_be_a_list(self, tmp_path, capsys):
        k3 = write_graph(tmp_path, "k3.txt", complete(3))
        code, text = run(["experiment", experiment_spec(tmp_path, patterns=k3)])
        assert (code, text) == (2, "")
        assert "patterns must be a list" in capsys.readouterr().err

    def test_largest_seeds_still_run(self, tmp_path):
        spec = experiment_spec(tmp_path, base_seed=2**64 - 2, trials=2, patterns=[], radii=[1])
        code, text = run(["experiment", spec])
        assert code == 0
        assert [row[1] for row in csv.reader(io.StringIO(text))] == [
            "seed", str(2**64 - 2), str(2**64 - 1)
        ]

    def test_host_limit_applies_only_with_patterns(self, tmp_path):
        spec = experiment_spec(
            tmp_path, generator={"kind": "er", "n": 70, "p": 0.05},
            patterns=[], radii=[1], trials=1, checks=[],
        )
        code, text = run(["experiment", spec])
        assert code == 0 and text.count("\n") == 2

    def test_oversized_pattern_rejected_before_output(self, tmp_path):
        big = write_graph(tmp_path, "k9.txt", complete(9))
        code, text = run(["experiment", experiment_spec(tmp_path, patterns=[big], radii=[1])])
        assert (code, text) == (2, "")

    @pytest.mark.parametrize("case", ["radii x", "radii []", "auto without patterns",
                                      "auto on one node", "missing pattern", "oversized"])
    def test_radii_and_pattern_errors_name_the_spec(self, tmp_path, capsys, case):
        k1 = write_graph(tmp_path, "k1.txt", complete(1))
        k9 = write_graph(tmp_path, "k9.txt", complete(9))
        overrides = {
            "radii x": {"radii": "x"},
            "radii []": {"radii": []},
            "auto without patterns": {"patterns": [], "radii": "auto"},
            "auto on one node": {"patterns": [k1], "radii": "auto"},
            "missing pattern": {"patterns": [str(tmp_path / "missing.txt")]},
            "oversized": {"patterns": [k9], "radii": [1]},
        }[case]
        spec = experiment_spec(tmp_path, **overrides)
        assert run(["experiment", spec]) == (2, "")
        assert f"error: {spec}: " in capsys.readouterr().err

    def test_auto_radii_from_single_node_patterns_rejected_before_output(self, tmp_path):
        k1 = write_graph(tmp_path, "k1.txt", complete(1))
        code, text = run(["experiment", experiment_spec(tmp_path, patterns=[k1])])
        assert (code, text) == (2, "")


class TestExitCodes:
    def test_library_value_error_is_internal(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("broken encoder")

        monkeypatch.setattr(cli, "rnp_encode_nodes", broken)
        g = write_graph(tmp_path, "k3.txt", complete(3))
        code, text = run(["encode", g, "--radii", "1"])
        assert (code, text) == (1, "")
        assert "internal error: ValueError: broken encoder" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "er", "--n", "5", "--p", "1.5", "--seed", "1"],
            ["gen", "regular", "--n", "9", "--d", "3", "--seed", "1"],
            ["gen", "prime-partite", "--primes", "4,3", "--n", "10"],
            ["gen", "pattern", "--name", "complete", "--size", "0"],
        ],
    )
    def test_infeasible_generator_parameters_are_user_errors(self, argv):
        assert run(argv) == (2, "")

    def test_disconnected_auto_pattern_is_user_error(self, tmp_path):
        tt = write_graph(tmp_path, "tt.txt", two_triangles())
        code, text = run(["experiment", experiment_spec(tmp_path, patterns=[tt])])
        assert (code, text) == (2, "")

    def test_dense_regular_failing_every_seed_exits_before_output(
        self, tmp_path, monkeypatch, capsys
    ):
        # (16, 7) passes validation, but the pairing model finds neither a
        # 7-regular graph nor its complement at seed 1; a small budget
        # fails the same way, fast.
        monkeypatch.setattr(generators, "_PAIRING_MAX_ATTEMPTS", 20)
        spec = experiment_spec(
            tmp_path, generator={"kind": "regular", "n": 16, "d": 7, "delete": 0},
            trials=1, base_seed=1, patterns=[], radii=[1], checks=[],
        )
        assert run(["experiment", spec]) == (2, "")
        err = capsys.readouterr().err
        assert "trial 0 (seed 1): the pairing model drew no simple 7-regular graph" in err

    def test_unprintable_bound_names_its_trial(self, tmp_path, capsys, digit_limit):
        spec = experiment_spec(
            tmp_path, generator={"kind": "er", "n": 6, "p": 0.5}, trials=2, base_seed=3,
            patterns=[], radii=[1] * 10_000, checks=[],
        )
        code, text = run(["experiment", spec])
        assert code == 2 and text.count("\n") == 1  # the header only
        err = capsys.readouterr().err
        assert "trial 0 (seed 3): the n * c**tau update bound is too large to print" in err

    def test_generator_failure_at_a_later_trial_follows_its_rows(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing_at_seed_2(n, p, seed):
            if seed == 2:
                raise ValueError("no graph at this seed")
            return erdos_renyi(n, p, seed)

        monkeypatch.setattr(cli, "erdos_renyi", failing_at_seed_2)
        code, text = run(["experiment", experiment_spec(tmp_path, trials=4)])
        assert code == 2
        assert [row[0] for row in csv.reader(io.StringIO(text))] == ["trial", "0", "1"]
        assert "trial 2 (seed 2): no graph at this seed" in capsys.readouterr().err


# The benchmark's pattern files, read only; a missing file and a directory
# stand for unreadable patterns.
_PATTERN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "bench", "patterns")
_BENCH_PATTERNS = sorted(os.path.join(_PATTERN_DIR, name) for name in os.listdir(_PATTERN_DIR))
_BAD_PATTERNS = [os.path.join(_PATTERN_DIR, "missing.txt"), _PATTERN_DIR]
_FUZZED_FIELDS = ["kind", "n", "p", "d", "delete", "generator", "trials", "base_seed",
                  "patterns", "radii", "checks", "mode", "missing", "unknown"]


def _json_values(ints):
    """Any JSON document, its integers drawn from ``ints``."""
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=4)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=4,
    )


@st.composite
def _fuzzed_specs(draw):
    """Experiment specs of at most 3 trials of at most 12 nodes, with up to
    two fields of any JSON type (or a spec field missing, or one unknown)."""
    fuzzed = draw(st.sets(st.sampled_from(_FUZZED_FIELDS), max_size=2))
    small = _json_values(st.integers(-3, 12))

    def field(name, valid, wrong=small):
        return draw(wrong if name in fuzzed else valid)

    kind = field("kind", st.sampled_from(["er", "regular"]))
    generator = {
        "kind": kind,
        "n": field("n", st.integers(0, 12)),
        "p": field("p", st.floats(0, 1)),
        "d": field("d", st.integers(0, 6)),
        "delete": field("delete", st.integers(0, 4)),
    }
    n, d = generator["n"], generator["d"]
    # A dense degree below n - 1 pays the pairing model's whole budget.
    assume(not (cli._is_count(n) and cli._is_count(d) and (n - 1) / 2 < d < n - 1))
    if "generator" in fuzzed:
        keys = draw(st.sets(st.sampled_from(sorted(generator))))
        generator = draw(st.just({key: generator[key] for key in keys}) | small)
    elif kind in ("er", "regular"):
        keys = ("kind", "n", "p") if kind == "er" else ("kind", "n", "d", "delete")
        generator = {key: generator[key] for key in keys}
    spec = {
        "generator": generator,
        "trials": field("trials", st.integers(0, 3), _json_values(st.integers(-3, 3))),
        "base_seed": field("base_seed", st.integers(0, 9),
                           st.integers(2**64 - 4, 2**64 + 1) | small),
        "patterns": field("patterns", st.lists(st.sampled_from(_BENCH_PATTERNS), min_size=1,
                                               max_size=3),
                          st.lists(st.sampled_from(_BENCH_PATTERNS + _BAD_PATTERNS),
                                   max_size=3) | small),
        "radii": field("radii", st.just("auto") | st.lists(st.integers(0, 4), min_size=1,
                                                           max_size=3),
                       st.lists(st.integers(-1, 4), max_size=3) | small),
        "checks": field("checks", st.lists(st.sampled_from(["theorem1", "theorem3"]),
                                           max_size=2),
                        st.lists(st.sampled_from(["theorem1", "theorem2"])) | small),
        "mode": field("mode", st.sampled_from(["induced", "noninduced"])),
    }
    if "missing" in fuzzed:
        del spec[draw(st.sampled_from(sorted(spec)))]
    if "unknown" in fuzzed:
        spec[draw(st.text(max_size=3))] = draw(small)
    return spec


class TestSpecFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_fuzzed_specs())
    def test_specs_exit_zero_or_two(self, tmp_path_factory, spec):
        # Exit 1 is an internal error.  A run that exits 2 before its first
        # row writes nothing, not even the header.
        path = tmp_path_factory.getbasetemp() / "fuzzed-spec.json"
        path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(["experiment", str(path)])
        assert code in (0, 2), err.getvalue()
        assert "internal error" not in err.getvalue()
        if code == 0:
            assert text.count("\n") == spec["trials"] + 1
        elif text.count("\n") <= 1:
            assert text == ""


# The known seams of the CLI's number parsers: an underscore, a non-ASCII
# digit, signs, bare decimal points and the empty string; then numbers past
# 2**64, where a seed would alias.  Node counts and radii take no huge
# number: that is a budget question (ROADMAP item 9), not a parse.
_TEXT_SEAMS = st.sampled_from(["1_0", "٣", "+3", "-1", "1.", ".5", ""])
_NUMBER_SEAMS = _TEXT_SEAMS | st.sampled_from(["1" * 30, str(2**64), str(2**64 + 7)])


def _counts(limit):
    return st.integers(0, limit).map(str)


@st.composite
def _broken_graph_files(draw):
    """A graph of at most 8 attributed nodes with one token swapped for a
    seam or one line dropped, as ("file", text), or ("missing", None) or
    ("directory", None)."""
    kind = draw(st.sampled_from(["swapped", "dropped", "missing", "directory"]))
    if kind in ("missing", "directory"):
        return kind, None
    g = draw(graph_strategy(max_nodes=8, attributed=True))
    lines = [line.split() for line in serialize_graph(g).splitlines()]
    if kind == "swapped":
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = draw(_NUMBER_SEAMS | st.just("x"))
    else:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "file", "".join(" ".join(line) + "\n" for line in lines)


_GRAPH_FILE = (graph_strategy(max_nodes=8, attributed=True).map(
    lambda g: ("file", serialize_graph(g))), _broken_graph_files())
_RADII = (st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda radii: ",".join(map(str, radii))), _TEXT_SEAMS | st.sampled_from(["1,", "1,,2"]))
_SEED = (st.integers(0, 2**64 - 1).map(str), _NUMBER_SEAMS)
_OUT = (st.just(("output", None)), st.sampled_from([("directory", None), ("nested", None)]))
# Each argument's (valid values, seams); options start with "--".
_GEN_ARGUMENTS = {
    "er": {
        "--n": (_counts(8), _TEXT_SEAMS),
        "--p": (st.floats(0, 1).map(repr) | st.sampled_from(["0", "1", "0.3", "1.0"]),
                _NUMBER_SEAMS | st.sampled_from(["0.0_5", "٠.٥", "nan", "-0.1", "1e-3", "2"])),
        "--seed": _SEED, "--out": _OUT,
    },
    "regular": {
        "--n": (_counts(8), _TEXT_SEAMS), "--d": (_counts(8), _NUMBER_SEAMS),
        "--delete": (_counts(4), _NUMBER_SEAMS), "--seed": _SEED, "--out": _OUT,
    },
    "prime-partite": {
        # Valid primes often sum above n.
        "--primes": (st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1).map(
            lambda primes: ",".join(map(str, sorted(primes)))),
            _NUMBER_SEAMS | st.sampled_from(["1", "4", "2,2", "2,,3", "3,2,"])),
        "--n": (_counts(8), _TEXT_SEAMS), "--out": _OUT,
    },
    "pattern": {
        "--name": (st.sampled_from(["cycle", "complete", "path", "star", "figure2_pair"]),
                   st.just("wheel")),
        "--size": (_counts(8), _TEXT_SEAMS), "--out": _OUT,
    },
}
_GRAPH_ARGUMENTS = {
    "cover": {"graph": _GRAPH_FILE},
    "count": {"graph": _GRAPH_FILE, "pattern": _GRAPH_FILE,
              "--mode": (st.sampled_from(["induced", "noninduced"]), st.just("both"))},
    "encode": {"graph": _GRAPH_FILE, "--radii": _RADII},
    "distinguish": {"graph1": _GRAPH_FILE, "graph2": _GRAPH_FILE, "--radii": _RADII},
    "complexity": {"graph": _GRAPH_FILE, "--radii": _RADII},
}


@st.composite
def _fuzzed_argv(draw):
    """argv for gen, cover, count, encode, distinguish or complexity.  Up to
    two arguments take a seam instead of a valid value; an option's seams
    include leaving it out.  Graph files and ``--out`` are (kind, text)
    pairs that ``_argv_path`` turns into paths."""
    command = draw(st.sampled_from(["gen", *_GRAPH_ARGUMENTS]))
    if command == "gen":
        family = draw(st.sampled_from(sorted(_GEN_ARGUMENTS)))
        words, arguments = [command, family], _GEN_ARGUMENTS[family]
    else:
        words, arguments = [command], _GRAPH_ARGUMENTS[command]
    seamed = draw(st.sets(st.sampled_from(sorted(arguments)), max_size=2))
    values = {}
    for name, (valid, seams) in arguments.items():
        if name in seamed and name.startswith("--"):
            seams = st.none() | seams
        values[name] = draw(seams if name in seamed else valid)
    if words == ["gen", "regular"]:
        # A dense degree below n - 1 pays the pairing model's whole budget.
        n, d = values["--n"] or "", values["--d"] or "3"
        if n.isascii() and n.isdigit() and d.isascii() and d.isdigit():
            assume(not (int(n) - 1) / 2 < int(d) < int(n) - 1)
    words += [value for name, value in values.items() if not name.startswith("--")]
    for name, value in values.items():
        if name.startswith("--") and value is not None:
            words += [name, value]
    return words


def _argv_path(word, directory, position):
    """``word`` itself, or the path inside ``directory`` that a (kind, text)
    pair from ``_fuzzed_argv`` stands for."""
    if isinstance(word, str):
        return word
    kind, text = word
    if kind == "file":
        target = directory / f"graph{position}.txt"
        target.write_text(text, encoding="utf-8")
        return str(target)
    return str({"missing": directory / "missing.txt", "directory": directory,
                "output": directory / "out.txt", "nested": directory / "absent" / "out.txt"}[kind])


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_fuzzed_argv())
    @example(["cover", ("file", "1" * 30 + " 0\n")])
    def test_argv_exit_zero_or_two(self, tmp_path_factory, argv):
        # Exit 1 is an internal error; argparse's own usage errors exit 2.
        # A run that exits 2 writes nothing to its output stream.
        directory = tmp_path_factory.getbasetemp() / "fuzzed-argv"
        directory.mkdir(exist_ok=True)
        argv = [_argv_path(word, directory, i) for i, word in enumerate(argv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv, out=out)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), (argv, err.getvalue())
        assert "internal error" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""


class TestBrokenPipe:
    @pytest.mark.parametrize("command, lines", [("experiment", 2), ("gen", 0)])
    def test_closed_output_ends_quietly(self, tmp_path, command, lines):
        # Large output breaks the pipe mid-run, small output only at the
        # final flush: both end with the SIGPIPE status and a silent stderr.
        spec = experiment_spec(
            tmp_path, trials=8000, generator={"kind": "er", "n": 6, "p": 0.5},
            patterns=[], radii=[1], checks=[],
        )
        argv = {
            "experiment": ["experiment", spec],
            "gen": ["gen", "er", "--n", "12", "--p", "0.4", "--seed", "13"],
        }[command]
        proc = subprocess.Popen(
            [sys.executable, "-m", "rnpkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env("0"),
        )
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""
        assert all(line.endswith(b"\n") for line in head)

    def test_broken_output_stream_in_process(self, tmp_path, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        g = write_graph(tmp_path, "k3.txt", complete(3))
        assert main(["encode", g, "--radii", "1"], out=ClosedPipe()) == 141
        assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
class TestFullOutput:
    @pytest.mark.parametrize("command", ["gen", "encode", "experiment"])
    def test_failed_write_is_a_user_error(self, tmp_path, command):
        # A write to stdout that fails other than by a closed pipe is an
        # output error, not a bug: one error line and exit 2, with nothing
        # more when the interpreter flushes stdout at exit.
        argv = {
            "gen": ["gen", "er", "--n", "5", "--p", "0.5", "--seed", "1"],
            "encode": ["encode", write_graph(tmp_path, "c6.txt", cycle(6)), "--radii", "2,1"],
            "experiment": ["experiment", experiment_spec(tmp_path)],
        }[command]
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "rnpkit.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, env=cli_env("0"), text=True, timeout=60,
            )
        assert result.returncode == cli.EXIT_USER_ERROR == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: output: "), result.stderr


class TestStartup:
    def test_cli_import_leaves_out_dataclasses(self):
        # dataclasses brings inspect, ast, dis and tokenize: start-up time
        # that every command would pay.
        code = "import sys, rnpkit.cli; print('dataclasses' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                env=cli_env("0"), text=True, timeout=60)
        assert (result.returncode, result.stdout) == (0, "False\n")


class TestSubprocessDeterminism:
    def test_gen_bytes_identical_across_processes(self):
        cmd = [sys.executable, "-m", "rnpkit.cli", "gen", "er",
               "--n", "12", "--p", "0.4", "--seed", "13"]
        a = subprocess.run(cmd, capture_output=True, env=cli_env("1"))
        b = subprocess.run(cmd, capture_output=True, env=cli_env("2"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
