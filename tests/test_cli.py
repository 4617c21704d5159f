import contextlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svmv
from svmv.cli import main
from svmv.graphs import PortNumberedGraph

# Directory holding the svmv this process imported; child processes put it
# first on PYTHONPATH, since a relative entry would resolve against their cwd.
SVMV_ROOT = str(Path(svmv.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_GRAPH = {
    "nodes": [{"id": "x", "colour": "B"}, {"id": "y", "colour": "W"}],
    "edges": [{"u": "x", "v": "y", "port_uv": "1", "port_vu": "1"}],
    "proper": True,
}
# The same edge with no colours: outside Π's B/W/G inputs.
UNCOLOURED_GRAPH = {**EDGE_GRAPH, "nodes": [{"id": "x"}, {"id": "y"}]}


def test_build_small_plain_tree(tmp_path, capsys):
    base = tmp_path / "g2"
    assert main(["build", "--family", "g", "--d", "2", "--radius", "4",
                 "--out", str(base)]) == 0
    assert "9 nodes" in capsys.readouterr().out
    doc = json.loads((tmp_path / "g2.json").read_text())
    assert len(doc["nodes"]) == 9
    assert (tmp_path / "g2.dot").read_text().startswith("graph {")


def test_build_coloured_ball(tmp_path, capsys):
    base = tmp_path / "hb"
    assert main(["build", "--family", "hb", "--d", "4", "--radius", "1",
                 "--out", str(base)]) == 0
    assert "8 nodes" in capsys.readouterr().out
    doc = json.loads((tmp_path / "hb.json").read_text())
    colours = sorted(n.get("colour") for n in doc["nodes"])
    assert colours == ["B", "B", "B", "B", "G", "W", "W", "W"]


def test_build_resource_cap_exit_code(tmp_path):
    assert main(["build", "--family", "g", "--d", "6", "--radius", "12",
                 "--max-nodes", "1000", "--out", str(tmp_path / "big")]) == 3


def test_psw_json(tmp_path):
    out = tmp_path / "psw.json"
    assert main(["psw", "--d", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 1
    assert doc["verified"] == "psw"
    assert doc["walk1"][0] == "(1,0)"
    assert doc["walk2"][0] == "(2,1)"


def _count_built_nodes(monkeypatch) -> list:
    """The nodes every graph adds from here on, one by one or in branches,
    listed as they are added."""
    add_node, add_branches = (PortNumberedGraph.add_node,
                              PortNumberedGraph.add_branches)
    built = []

    def one(self, v, *args, **kwargs):
        built.append(v)
        return add_node(self, v, *args, **kwargs)

    def branches(self, v, ends):
        built.extend(end[0] for end in ends)
        return add_branches(self, v, ends)

    monkeypatch.setattr(PortNumberedGraph, "add_node", one)
    monkeypatch.setattr(PortNumberedGraph, "add_branches", branches)
    return built


def test_psw_dot_beyond_the_node_cap_is_refused_before_building(
        tmp_path, monkeypatch, capsys):
    # The whole g tree has 1,747,626 nodes at d=5, past the 500,000 cap:
    # the closed-form size refuses it before the first node, the search
    # and either file.  At d=3 (190 nodes) the same patch sees every node.
    built = _count_built_nodes(monkeypatch)
    small = tmp_path / "psw3"
    assert main(["psw", "--d", "3", "--format", "dot",
                 "--out", str(small)]) == 0
    assert len(set(built)) == 190
    assert json.loads(small.read_text())["k"] == 3
    assert (tmp_path / "psw3.dot").read_text().startswith("graph {")
    built.clear()
    searched = []
    monkeypatch.setattr("svmv.cli.find_critical_psw",
                        lambda *args, **kwargs: searched.append(args))
    big = tmp_path / "psw5"
    assert main(["psw", "--d", "5", "--format", "dot",
                 "--out", str(big)]) == 3
    assert built == [] and searched == []
    assert sorted(tmp_path.iterdir()) == [small, tmp_path / "psw3.dot"]
    assert capsys.readouterr().err == (
        "resource cap: ball exceeds 500000 nodes (family=g, d=5, radius=10)\n")


def test_build_beyond_the_node_cap_is_refused_before_building(
        tmp_path, monkeypatch, capsys):
    # The g d=6 radius-11 ball around the root has 73,242,187 nodes and
    # the radius-3 ball around a depth-2 node of g d=3 has 22: past the
    # cap, each is refused from its exact size before the first node.
    built = _count_built_nodes(monkeypatch)
    out = str(tmp_path / "ball")
    assert main(["build", "--family", "g", "--d", "6", "--radius", "11",
                 "--out", out]) == 3
    assert built == []
    near = ["build", "--family", "g", "--d", "3", "--radius", "3",
            "--center", "(2,1)/(3,3)", "--out", out]
    assert main([*near, "--max-nodes", "21"]) == 3
    assert built == []
    assert capsys.readouterr().err.count("resource cap: ball exceeds") == 2
    assert main([*near, "--max-nodes", "22"]) == 0
    assert len(set(built)) == 22


@pytest.mark.parametrize("argv", [
    ["build", "--family", "g", "--d", "2", "--radius", "1"],
    ["psw", "--d", "2", "--format", "dot"],
], ids=["build", "psw-dot"])
def test_out_dash_on_a_file_pair_command_is_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    # stdout cannot take a .json and a .dot file: the command is refused
    # before it builds or searches, and no file such as "-.dot" appears.
    def refused(*args, **kwargs):
        raise AssertionError("built or searched")

    for name in ("build_ball", "build_full", "find_critical_psw"):
        monkeypatch.setattr(f"svmv.cli.{name}", refused)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: --out - ")
    assert list(tmp_path.iterdir()) == []


def test_ball_past_any_buildable_size_is_refused_at_once(tmp_path, capsys):
    # The whole tree has about 2d * log10(d) digits of nodes; counting
    # stops far above any buildable ball, so the refusal does not wait on
    # big-int products.
    start = time.perf_counter()
    for d in ("100000", "1000000"):
        radius = str(2 * int(d))
        assert main(["build", "--family", "g", "--d", d, "--radius", radius,
                     "--out", str(tmp_path / "ball")]) == 3
        assert capsys.readouterr().err == (
            f"resource cap: ball exceeds 500000 nodes "
            f"(family=g, d={d}, radius={radius})\n")
    assert time.perf_counter() - start < 3
    assert list(tmp_path.iterdir()) == []


def test_memory_error_is_a_resource_cap(monkeypatch):
    # The frame that ran out may hold most of the memory, so the message is
    # written only once the traceback no longer keeps that frame alive.
    class Held:
        pass

    class Stderr(io.StringIO):
        def write(self, text):
            assert held[-1]() is None, "the failed frame is still alive"
            return super().write(text)

    def exhausted(d):
        data = Held()
        held.append(weakref.ref(data))
        raise kind

    held = []
    monkeypatch.setattr("svmv.cli.find_critical_psw", exhausted)
    for kind, what in ((MemoryError, "memory"),
                       (RecursionError, "stack depth")):
        monkeypatch.setattr(sys, "stderr", Stderr())
        assert main(["psw", "--d", "7"]) == 3
        assert sys.stderr.getvalue() == \
            f"resource cap: psw ran out of {what}\n"


@pytest.mark.parametrize("args,unbuffered", [
    (["theorem1", "--delta", "2"], False),
    (["theorem1", "--delta", "2"], True),
    (["psw", "--d", "3"], False),
    (["reproduce", "--seed", "0", "--d-max", "3", "--out", "-"], False),
], ids=["theorem1", "theorem1-unbuffered", "psw", "reproduce"])
def test_closed_stdout_is_an_error_not_a_usage_error(args, unbuffered):
    # The read end is closed before the child starts, so its first write to
    # stdout, or its final flush when buffered, fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = filter(None, [SVMV_ROOT, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "svmv.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True)
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    lines = done.stderr.splitlines()
    assert [line for line in lines if line.startswith("error: ")] == \
        lines[-1:]
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_bisim_json(tmp_path):
    out = tmp_path / "bisim.json"
    assert main(["bisim", "--family", "g", "--d", "3", "--a", "(1,0)",
                 "--b", "(2,1)", "--radius", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"similar": False,
                                           "failing_radius": 4}
    assert main(["bisim", "--family", "g", "--d", "3", "--a", "(1,0)",
                 "--b", "(2,1)", "--radius", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"similar": True,
                                           "failing_radius": None}


def test_theorem_reports(tmp_path):
    out = tmp_path / "t1.json"
    assert main(["theorem1", "--delta", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["equal_through"] == 2
    out2 = tmp_path / "t2.json"
    assert main(["theorem2", "--d", "2", "--out", str(out2)]) == 0
    doc = json.loads(out2.read_text())
    assert doc["pi_allowed_at_roots"] == {"b": ["B"], "w": ["W"]}


def test_simulate_round_trip(tmp_path):
    base = tmp_path / "hb2"
    assert main(["build", "--family", "hb", "--d", "2", "--radius", "4",
                 "--collapse", "--out", str(base)]) == 0
    out = tmp_path / "sim.json"
    assert main(["simulate", "--inner", "pi-solver",
                 "--graph", str(base) + ".json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["outputs_equal"] is True
    assert doc["overhead_rounds"] == 4
    assert doc["signature_collisions"] == 0


@pytest.mark.parametrize("inner, collapse, refusal", [
    ("multiset-echo", [], "node '(1,0)' carries port label 0, need integers "
                          "in 1..2"),
    ("pi-solver", ["--collapse"], "local input None of node '()' is outside "
                                  "the machine's input alphabet B, G, W"),
], ids=["generalised-ports", "no-colours"])
def test_simulate_outside_the_model_is_usage_error(tmp_path, inner, collapse,
                                                    refusal):
    # An uncollapsed ball carries port label 0 and tuple labels; a g ball
    # has no colours, so the majority-colour solver has no inputs on it.
    base = tmp_path / "g2"
    assert main(["build", "--family", "g", "--d", "2", "--radius", "2",
                 "--out", str(base), *collapse]) == 0
    result = _run_cli(
        ["simulate", "--inner", inner, "--graph", str(base) + ".json"],
        cwd=tmp_path, hash_seed="0")
    _assert_usage_error(result)
    assert result.stderr == f"usage error: {base}.json: {refusal}\n"


@pytest.mark.parametrize("edges, refusal", [
    ([("x", "y", 1, 1), ("x", "z", 1, 1)], "node 'x' reuses out-port 1"),
    ([("x", "x", 1, 2)], "self-loops are not allowed"),
    ([("x", "y", 1, 1), ("y", "x", 2, 2)], "duplicate edge 'y' -- 'x'"),
], ids=["reused-port", "self-loop", "repeated-edge"])
def test_graph_json_that_add_edge_refuses_is_usage_error(tmp_path, capsys,
                                                         edges, refusal):
    graph = {"nodes": [{"id": v, "colour": "B"} for v in "xyz"],
             "edges": [{"u": u, "v": v, "port_uv": a, "port_vu": b}
                       for u, v, a, b in edges]}
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps(dict.fromkeys("xyz", "B")))
    for args in (["simulate", "--inner", "pi-solver"],
                 ["check-pi", "--candidate", str(candidate)]):
        assert main([*args, "--graph", str(graph_file)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: malformed graph document: {refusal}\n")


def test_graph_json_edge_to_an_unlisted_node_is_usage_error(tmp_path,
                                                           capsys):
    # The edge names z, which "nodes" does not list; loading it anyway
    # would run z with no colour.
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({
        "nodes": [{"id": "a", "colour": "B"}],
        "edges": [{"u": "a", "v": "z", "port_uv": 1, "port_vu": 1}]}))
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({"a": "B", "z": "W"}))
    for args in (["simulate", "--inner", "multiset-echo"],
                 ["check-pi", "--candidate", str(candidate)]):
        assert main([*args, "--graph", str(graph_file)]) == 2
        assert capsys.readouterr().err == (
            "usage error: malformed graph document: edge 'a' -- 'z' names "
            "node 'z', which the nodes do not list\n")


@pytest.mark.parametrize("key", ["port_uv", "in_vu"])
def test_graph_json_boolean_port_is_usage_error(tmp_path, capsys, key):
    # Python reads true as 1, but to_json would write it back as "True", a
    # string label that the reloaded graph refuses to run.
    edge = {"u": "a", "v": "b", "port_uv": 1, "port_vu": 1, key: True}
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps({
        "nodes": [{"id": "a", "colour": "B"}, {"id": "b", "colour": "W"}],
        "edges": [edge]}))
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({"a": "W", "b": "B"}))
    for args in (["simulate", "--inner", "pi-solver"],
                 ["check-pi", "--candidate", str(candidate)]):
        assert main([*args, "--graph", str(graph_file)]) == 2
        assert capsys.readouterr().err == (
            "usage error: malformed graph document: port label True is a "
            "boolean, not a port\n")


def test_simulate_that_does_not_halt_is_a_criterion_failure(tmp_path):
    base = tmp_path / "g2"
    assert main(["build", "--family", "g", "--d", "2", "--radius", "2",
                 "--collapse", "--out", str(base)]) == 0
    result = _run_cli(["simulate", "--inner", "multiset-echo", "--graph",
                       str(base) + ".json", "--max-rounds", "1"],
                      cwd=tmp_path, hash_seed="0")
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: ")
    assert "did not halt" in result.stderr


def test_check_pi_exit_codes(tmp_path):
    graph_file = tmp_path / "edge.json"
    graph_file.write_text(json.dumps(EDGE_GRAPH))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"x": "W", "y": "B"}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"x": "B", "y": "B"}))
    out = tmp_path / "check.json"
    assert main(["check-pi", "--graph", str(graph_file),
                 "--candidate", str(good), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"] is True
    assert main(["check-pi", "--graph", str(graph_file),
                 "--candidate", str(bad), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["violation"]["node"] == "x"
    # A value that is no colour but not a list or an object is a violation.
    for value in ("Q", 3, None):
        bad.write_text(json.dumps({"x": value, "y": "B"}))
        assert main(["check-pi", "--graph", str(graph_file),
                     "--candidate", str(bad), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["violation"] == {
            "node": "x", "value": value, "allowed": ["W"]}


def test_graph_json_that_lists_a_node_twice_is_usage_error(tmp_path, capsys):
    # Read as one node, "a" would take the later colour, W, and the
    # candidate below would pass.
    graph = {"nodes": [{"id": "a", "colour": "B"}, {"id": "b", "colour": "B"},
                       {"id": "a", "colour": "W"}],
             "edges": [{"u": "a", "v": "b", "port_uv": 1, "port_vu": 1}]}
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({"a": "B", "b": "W"}))
    for args in (["simulate", "--inner", "pi-solver"],
                 ["check-pi", "--candidate", str(candidate)]):
        assert main([*args, "--graph", str(graph_file)]) == 2
        assert capsys.readouterr().err == (
            "usage error: malformed graph document: "
            "node 'a' is listed twice\n")


def test_check_pi_matches_non_string_ids_by_their_json_text(tmp_path,
                                                           capsys):
    graph = {"nodes": [{"id": 0, "colour": "B"}, {"id": 1, "colour": "W"}],
             "edges": [{"u": 0, "v": 1, "port_uv": 1, "port_vu": 1}]}
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    candidate = tmp_path / "candidate.json"
    out = tmp_path / "check.json"
    argv = ["check-pi", "--graph", str(graph_file), "--candidate",
            str(candidate), "--out", str(out)]
    candidate.write_text(json.dumps({"0": "W", "1": "B"}))
    assert main(argv) == 0
    candidate.write_text(json.dumps({"0": "B", "1": "B"}))
    assert main(argv) == 1
    assert json.loads(out.read_text())["violation"] == {
        "node": 0, "value": "B", "allowed": ["W"]}
    # The ids 0 and "0" would both be the key "0".
    graph["nodes"].append({"id": "0", "colour": "B"})
    graph_file.write_text(json.dumps(graph))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["bisim", "--family", "g"])
    assert err.value.code == 2


def test_psw_has_no_state_cap_flag():
    # The view descent keeps no pair states, so --max-pairs is gone.
    with pytest.raises(SystemExit) as err:
        main(["psw", "--max-pairs", "5", "--d", "3"])
    assert err.value.code == 2


def test_bad_path_syntax_is_usage_error(tmp_path):
    assert main(["bisim", "--family", "g", "--d", "3", "--a", "(1,0,B)",
                 "--b", "(2,1)", "--radius", "2"]) == 2


def test_reproduce_fault_injection_fails(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["reproduce", "--seed", "0", "--d-max", "2",
                 "--inject-collapse-fault", "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "collapse-properness" in text
    assert "FAIL" in text


def _run_cli(args, cwd, hash_seed):
    path = filter(None, [SVMV_ROOT, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "svmv.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_outputs_byte_identical_across_processes(tmp_path):
    # Hash randomisation differs between the two processes (distinct
    # PYTHONHASHSEED values); equal bytes demonstrate order-independent
    # serialisation.
    for name, seed in (("a.json", "1"), ("b.json", "2")):
        result = _run_cli(["psw", "--d", "3", "--out",
                           str(tmp_path / name)], cwd=tmp_path,
                          hash_seed=seed)
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_reproduce_csv_deterministic_for_fixed_seed(tmp_path):
    # The golden file is the table as committed; a change that alters any
    # byte of it must replace the file on purpose.
    out = tmp_path / "rows.csv"
    assert main(["reproduce", "--seed", "7", "--d-max", "3",
                 "--out", str(out)]) == 0
    golden = GOLDEN / "reproduce_seed7_dmax3.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_default_reproduce_csv_matches_golden(tmp_path):
    # The default table: psw d=2..5, the d=5 witness and every later row.
    out = tmp_path / "rows.csv"
    assert main(["reproduce", "--seed", "0", "--out", str(out)]) == 0
    golden = GOLDEN / "reproduce_seed0.csv"
    assert out.read_bytes() == golden.read_bytes()


# Outputs of the lazy layer (walk search and bisimilarity); a change that
# alters any byte of them must replace the files on purpose.
LAZY_GOLDEN = [(f"psw_d{d}.json", ["psw", "--d", str(d)]) for d in (2, 3, 4, 5)]
LAZY_GOLDEN += [
    ("bisim_g_d4.json", ["bisim", "--family", "g", "--d", "4", "--a", "(1,0)",
                         "--b", "(2,1)", "--radius", "8"]),
    ("bisim_g_d4_collapsed.json", ["bisim", "--family", "g", "--d", "4",
                                   "--a", "(1,0)", "--b", "(2,1)",
                                   "--radius", "8", "--collapsed"]),
    ("bisim_g_d5_collapsed.json", ["bisim", "--family", "g", "--d", "5",
                                   "--a", "(1,0)", "--b", "(2,1)",
                                   "--radius", "10", "--collapsed"]),
    ("bisim_hb_d3_collapsed.json", ["bisim", "--family", "hb", "--d", "3",
                                    "--a", "(1,0,B)", "--b", "(2,1,B)",
                                    "--radius", "6", "--collapsed"]),
    ("bisim_g_d3_leaf_root.json", ["bisim", "--family", "g", "--d", "3",
                                   "--a", "(3,2)/(3,2)/(3,1)/(3,2)/(3,1)/(3,2)",
                                   "--b", "()", "--radius", "3"]),
]


@pytest.mark.parametrize("name,args", LAZY_GOLDEN,
                         ids=[name for name, _ in LAZY_GOLDEN])
def test_lazy_layer_outputs_match_golden_files(tmp_path, name, args):
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# The differential simulation on the collapsed hb d=2 ball and on a seeded
# random graph whose in-labels differ from its out-labels.
SIMULATE_GOLDEN = [(graph, inner) for graph in ("hb_d2", "random")
                   for inner in ("pi-solver", "multiset-echo")]


@pytest.mark.parametrize("graph,inner", SIMULATE_GOLDEN)
def test_simulate_outputs_match_golden_files(tmp_path, graph, inner):
    if graph == "hb_d2":
        base = tmp_path / "hb2"
        assert main(["build", "--family", "hb", "--d", "2", "--radius", "4",
                     "--collapse", "--out", str(base)]) == 0
        path = f"{base}.json"
    else:
        path = GOLDEN / "simulate_random_graph.json"
        edges = json.loads(path.read_text())["edges"]
        assert any("in_uv" in e or "in_vu" in e for e in edges)
    name = f"simulate_{graph}_{inner.replace('-', '_')}.json"
    out = tmp_path / name
    assert main(["simulate", "--inner", inner, "--graph", str(path),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_theorem_report_stable_modulo_timings(tmp_path):
    docs = []
    for name, seed in (("r1.json", "1"), ("r2.json", "2")):
        result = _run_cli(["theorem1", "--delta", "2", "--out",
                           str(tmp_path / name)], cwd=tmp_path,
                          hash_seed=seed)
        assert result.returncode == 0, result.stderr
        doc = json.loads((tmp_path / name).read_text())
        doc.pop("timings_ms")
        docs.append(doc)
    assert docs[0] == docs[1]


def _assert_usage_error(result):
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("usage error: ")
    assert result.stderr.count("\n") == 1


def test_negative_radius_is_usage_error(tmp_path):
    _assert_usage_error(_run_cli(
        ["bisim", "--family", "g", "--d", "3", "--a", "(1,0)", "--b", "(2,1)",
         "--radius", "-1"], cwd=tmp_path, hash_seed="0"))


def test_directory_as_graph_is_usage_error(tmp_path):
    candidate = tmp_path / "candidate.json"
    candidate.write_text(json.dumps({"x": "W", "y": "B"}))
    _assert_usage_error(_run_cli(
        ["check-pi", "--graph", str(tmp_path), "--candidate", str(candidate)],
        cwd=tmp_path, hash_seed="0"))


def test_malformed_candidate_is_usage_error(tmp_path):
    graph_file = tmp_path / "edge.json"
    graph_file.write_text(json.dumps(EDGE_GRAPH))
    candidate = tmp_path / "candidate.json"
    candidate.write_text("{")
    _assert_usage_error(_run_cli(
        ["check-pi", "--graph", str(graph_file), "--candidate",
         str(candidate)], cwd=tmp_path, hash_seed="0"))


@pytest.mark.parametrize("graph, candidate", [
    (EDGE_GRAPH, []),
    (UNCOLOURED_GRAPH, {"x": "W", "y": "B"}),
    ({**EDGE_GRAPH, "nodes": [{"id": "x", "colour": "B"},
                              {"id": "y", "colour": "Q"}]}, {"x": "Q"}),
    (EDGE_GRAPH, {"x": ["W"], "y": "B"}),
    (EDGE_GRAPH, {"x": {"W": 1}, "y": "B"}),
], ids=["list-candidate", "uncoloured-graph", "unknown-colour", "list-value",
        "object-value"])
def test_check_pi_outside_its_inputs_is_usage_error(tmp_path, graph,
                                                     candidate):
    # A candidate that is JSON but not a node-to-colour map (a list, or a
    # list or an object as a value), and graphs whose nodes are not all
    # coloured B, W or G.
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph))
    candidate_file = tmp_path / "candidate.json"
    candidate_file.write_text(json.dumps(candidate))
    _assert_usage_error(_run_cli(
        ["check-pi", "--graph", str(graph_file), "--candidate",
         str(candidate_file)], cwd=tmp_path, hash_seed="0"))


@pytest.mark.parametrize("args", [
    ["bisim", "--family", "g", "--d", "3", "--radius", "2",
     "--a", "(9,9)", "--b", "(1,0)"],
    ["bisim", "--family", "g", "--d", "3", "--radius", "2",
     "--a", "(3,2)/(9,9)", "--b", "(3,2)/(9,9)"],
    ["bisim", "--family", "g", "--d", "3", "--radius", "2",
     "--a", "(9,9)", "--b", "(1,0)", "--collapsed"],
    ["reproduce", "--seed", "0", "--d-max", "1"],
    ["theorem1", "--delta", "1"],
    ["theorem2", "--d", "1"],
])
def test_input_outside_the_model_is_usage_error(tmp_path, args):
    # Points the rules do not make, a reproduce with no walk rows, and
    # experiment parameters below the model's minimum.
    _assert_usage_error(_run_cli(args, cwd=tmp_path, hash_seed="0"))


def test_reproduce_beyond_the_psw_cap_is_refused_before_searching(tmp_path):
    start = time.perf_counter()
    result = _run_cli(["reproduce", "--seed", "0", "--d-max", "9"],
                      cwd=tmp_path, hash_seed="0")
    assert time.perf_counter() - start < 10
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("resource cap: ")
    assert result.stdout == ""


def test_bisim_past_the_stack_depth_is_a_resource_cap(tmp_path):
    # The recursion takes two frames per level of the radius budget,
    # _radius and _match, so under the default limit of 1,000 frames this
    # pair answers at --radius 490 and exits 3 from 495.
    result = _run_cli(["bisim", "--family", "g", "--d", "3", "--a", "(2,1)",
                       "--b", "(3,2)", "--radius", "500"],
                      cwd=tmp_path, hash_seed="0")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("resource cap: ")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_psw_beyond_the_cap_is_refused_before_searching(monkeypatch,
                                                        capsys):
    def searched(d):
        raise AssertionError(f"searched d={d}")

    monkeypatch.setattr("svmv.cli.find_critical_psw", searched)
    for d in ("9", "10"):
        assert main(["psw", "--d", d]) == 3
        assert capsys.readouterr().err == (
            f"resource cap: psw searches are capped at d <= 8 (got {d})\n")


# Values the argv fuzz draws from.  A value starting with "@" names a file
# in the test's directory; None marks a flag that takes no value.
NUMBERS = ["-1", "0", "1", "2", "3", "x"]
FAMILY_NAMES = ["g", "hb", "hw", "q"]
PATHS = ["()", "(1,0)", "(2,1)", "(1,0)/(2,2)", "(1,0,B)", "(2,1,W)/(2,2,G)",
         "(9,9)", "1,0"]
FILES = ["@graph.json", "@candidate.json", "@malformed.json", "@missing.json",
         "@.", "@list.json", "@uncoloured.json"]
ARGV_SPACE = {
    "build": {"--family": FAMILY_NAMES, "--d": NUMBERS, "--radius": NUMBERS,
              "--center": PATHS, "--collapse": None,
              "--max-nodes": ["-1", "0", "1", "5", "500000"]},
    "psw": {"--d": NUMBERS, "--format": ["json", "dot", "svg"]},
    "bisim": {"--family": FAMILY_NAMES, "--d": NUMBERS, "--a": PATHS,
              "--b": PATHS, "--radius": NUMBERS, "--collapsed": None},
    "theorem1": {"--delta": NUMBERS},
    "theorem2": {"--d": NUMBERS},
    "simulate": {"--inner": ["pi-solver", "multiset-echo", "none"],
                 "--graph": FILES, "--max-rounds": NUMBERS},
    "check-pi": {"--graph": FILES, "--candidate": FILES},
    # A valid reproduce takes seconds and has its own tests above; the fuzz
    # draws only --d-max values that the command must refuse.
    "reproduce": {"--seed": NUMBERS, "--d-max": ["-1", "0", "1", "9", "x"]},
}


@st.composite
def cli_argv(draw):
    """A subcommand with each of its flags present most of the time, a
    drawn value for each, and now and then a flag no command knows."""
    command = draw(st.sampled_from(sorted(ARGV_SPACE)))
    argv = [command]
    for flag, values in ARGV_SPACE[command].items():
        if draw(st.integers(0, 4)) == 0:
            continue
        argv.append(flag)
        if values is not None:
            argv.append(draw(st.sampled_from(values)))
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "graph.json").write_text(json.dumps(EDGE_GRAPH))
    (root / "candidate.json").write_text(json.dumps({"x": "W", "y": "B"}))
    (root / "malformed.json").write_text("{")
    (root / "list.json").write_text("[]")
    (root / "uncoloured.json").write_text(json.dumps(UNCOLOURED_GRAPH))
    return root


@settings(max_examples=50, deadline=None)
@given(argv=cli_argv())
def test_random_argv_exits_with_a_contract_code(argv_dir, argv):
    argv = [str(argv_dir / arg[1:]) if arg.startswith("@") else arg
            for arg in argv] + ["--out", str(argv_dir / "out")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
