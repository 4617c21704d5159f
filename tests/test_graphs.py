import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svmv.bisim import MaterializedView, PointedInstance, bisimilar
from svmv.errors import BallExhaustedError, FormatError, NumberingError
from svmv.families import (build_ball, build_collapsed, build_full,
                           format_path)
from svmv.graphs import (PortNumberedGraph, int_array, random_colouring,
                         random_graph)


def test_improper_nodes_match_the_per_neighbour_definition():
    # Each node's out- and in-labels are drawn apart from 1..deg+1, so a
    # node can leave 1..deg on either side, or on one side only.
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        base = random_graph(rng, rng.randint(1, 12), rng.randint(1, 4))
        ports = {}
        for v in base.nodes:
            near = base.neighbours(v)
            for side in ("out", "in"):
                labels = rng.sample(range(1, len(near) + 2), len(near))
                ports.update({(side, v, u): p for u, p in zip(near, labels)})
        graph = PortNumberedGraph()
        for v in base.nodes:
            graph.add_node(v)
        for u, v in base.edges():
            graph.add_edge(u, v, ports["out", u, v], ports["out", v, u],
                           in_uv=ports["in", u, v], in_vu=ports["in", v, u])
        want = []
        for v in graph.nodes:
            full = set(range(1, graph.degree(v) + 1))
            out = {graph.out_port(v, u) for u in graph.neighbours(v)} == full
            inn = {graph.in_port(v, u) for u in graph.neighbours(v)} == full
            seen.add((out, inn))
            if not (out and inn):
                want.append(v)
        assert graph.improper_nodes() == want
        assert graph.is_proper() == (not want)
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_duplicate_ports_rejected_at_construction():
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1)
    with pytest.raises(NumberingError):
        graph.add_edge("a", "c", 1, 1)


@pytest.mark.parametrize("edge,message", [
    (("a", "e", 1, 1), "node 'a' reuses out-port 1"),
    (("e", "a", 1, 1), "node 'a' reuses out-port 1"),
    (("a", "e", 2, 2, 1), "node 'a' reuses in-port 1"),
    (("a", "b", 2, 2), "duplicate edge 'a' -- 'b'"),
    (("e", "e", 1, 1), "self-loops are not allowed"),
])
def test_refused_edge_leaves_the_graph_as_it_was(edge, message):
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1)
    plan = graph.run_plan(1)
    with pytest.raises(NumberingError) as exc:
        graph.add_edge(*edge)
    assert str(exc.value) == message
    assert graph.nodes == ["a", "b"]
    assert graph.run_plan(1) is plan


def _rewrite_in_label(graph, v, u, label):
    # Behind add_edge's back: v's in-label towards u, in v's adjacency tuple
    # of (neighbour, out-label, in-label) triples.
    i = graph._index[v]
    ends = list(graph._adj[i])
    ends[ends[0::3].index(u) * 3 + 2] = label
    graph._adj[i] = tuple(ends)


@pytest.mark.parametrize("ends,message", [
    ([("e", None, 2, 1, True), ("f", None, 1, 1, True)],
     "node 'a' reuses out-port 1"),
    ([("e", None, 2, 1, True), ("f", None, 2, 1, True)],
     "node 'a' reuses out-port 2"),
    ([("e", None, 3, 1, True)], "node 'a' reuses in-port 3"),
])
def test_refused_branches_leave_the_graph_as_it_was(ends, message):
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1, in_uv=3)
    plan = graph.run_plan(3)
    with pytest.raises(NumberingError) as exc:
        graph.add_branches("a", ends)
    assert str(exc.value) == message
    assert graph.nodes == ["a", "b"] and graph.edges() == [("a", "b")]
    assert graph.run_plan(3) is plan


def test_branches_join_like_edges():
    # The same edges through add_edge and add_branches give the same graph.
    one_by_one = PortNumberedGraph()
    one_by_one.add_node("a", "B")
    one_by_one.add_node("b", "W")
    one_by_one.add_edge("a", "b", 2, 1)
    one_by_one.add_node("c", "G")
    one_by_one.add_edge("c", "a", 3, 1)
    branched = PortNumberedGraph()
    branched.add_node("a", "B")
    branched.add_branches("a", [("b", "W", 2, 1, True),
                                ("c", "G", 1, 3, False)])
    assert branched.to_json() == one_by_one.to_json()
    assert branched.neighbours("a") == ["b", "c"]


def test_runnable_check_names_a_reused_label_put_in_behind_add_edge():
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1)
    graph.add_edge("b", "c", 2, 1, in_uv=3)
    graph.require_runnable(3)
    _rewrite_in_label(graph, "b", "c", 1)
    with pytest.raises(NumberingError) as exc:
        graph.require_runnable(3)
    assert str(exc.value) == "node 'b' reuses port label 1"
    _rewrite_in_label(graph, "b", "c", 4)
    with pytest.raises(NumberingError) as exc:
        graph.require_runnable(3)
    assert str(exc.value) == \
        "node 'b' carries port label 4, need integers in 1..3"


@pytest.mark.parametrize("family,d", [("g", 3), ("hb", 2), ("hw", 2)])
def test_tree_nodes_keep_one_adjacency_tuple(family, d):
    # One flat tuple of (neighbour, out-label, in-label) triples per node,
    # by node position, and every in-label equals its out-label.
    graph = build_collapsed(family, d)
    assert len(graph._adj) == len(graph._index) == len(graph.nodes)
    for v, ends in zip(graph.nodes, graph._adj):
        assert list(ends[0::3]) == graph.neighbours(v)
        assert ends[1::3] == ends[2::3]


def _path_with_two_differing_in_labels():
    # b and d receive under a label other than the one they write.
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1)
    graph.add_edge("b", "c", 2, 1, in_uv=3)
    graph.add_edge("c", "d", 2, 1, in_uv=2, in_vu=2)
    return graph


def _split(graph) -> list:
    """The nodes that split: one of their in-labels differs from the
    out-label on the same edge end."""
    return [v for v in graph.nodes
            if any(graph.in_port(v, u) != graph.out_port(v, u)
                   for u in graph.neighbours(v))]


def _labels(graph, v) -> tuple[dict, dict]:
    return ({u: graph.out_port(v, u) for u in graph.neighbours(v)},
            {u: graph.in_port(v, u) for u in graph.neighbours(v)})


def test_only_nodes_with_a_differing_in_label_split():
    graph = _path_with_two_differing_in_labels()
    assert _split(graph) == ["b", "d"]
    assert graph._adj[graph._index["b"]] == ("a", 1, 1, "c", 2, 3)
    assert _labels(graph, "b") == ({"a": 1, "c": 2}, {"a": 1, "c": 3})
    assert _labels(graph, "d") == ({"c": 1}, {"c": 2})
    assert graph.in_port("c", "d") == graph.out_port("c", "d") == 2
    text = graph.to_json()
    loaded = PortNumberedGraph.from_json(text)
    assert loaded.to_json() == text
    assert _split(loaded) == ["b", "d"]


def test_reused_in_port_is_named_on_shared_and_split_nodes():
    # a's in-labels equal its out-labels; b's split.
    graph = _path_with_two_differing_in_labels()
    with pytest.raises(NumberingError) as exc:
        graph.add_edge("a", "e", 2, 1, in_uv=1)
    assert str(exc.value) == "node 'a' reuses in-port 1"
    assert _labels(graph, "a") == ({"b": 1}, {"b": 1})
    with pytest.raises(NumberingError) as exc:
        graph.add_edge("b", "e", 3, 1)
    assert str(exc.value) == "node 'b' reuses in-port 3"
    assert _labels(graph, "b") == ({"a": 1, "c": 2}, {"a": 1, "c": 3})
    assert graph.nodes == ["a", "b", "c", "d"]


def test_edge_to_an_unlisted_node_is_refused():
    # Every node an edge names must be listed under "nodes".
    doc = {"nodes": [{"id": "a"}],
           "edges": [{"u": "a", "v": "z", "port_uv": 1, "port_vu": 1}]}
    with pytest.raises(FormatError) as exc:
        PortNumberedGraph.from_json_dict(doc)
    assert str(exc.value) == ("malformed graph document: edge 'a' -- 'z' "
                              "names node 'z', which the nodes do not list")


def test_self_loops_rejected():
    graph = PortNumberedGraph()
    with pytest.raises(NumberingError):
        graph.add_edge("a", "a", 1, 2)


def test_json_round_trip_preserves_structure():
    graph = build_ball("hb", 2, (), 2)
    doc = graph.to_json_dict(node_fmt=format_path)
    assert doc["proper"] is False  # generalised tuple labels
    loaded = PortNumberedGraph.from_json(graph.to_json(node_fmt=format_path))
    assert len(loaded.nodes) == len(graph.nodes)
    assert len(loaded.edges()) == len(graph.edges())
    assert sorted(loaded.colours.values()) == sorted(graph.colours.values())
    root = format_path(())
    assert loaded.colours[root] == "G"
    # Tuple labels survive the string round trip.
    child = format_path(((1, 0, "B"),))
    assert loaded.out_port(root, child) == (1, "B")


def test_collapsed_json_round_trip_is_runnable():
    from svmv.families import build_collapsed
    graph = build_collapsed("g", 2)
    loaded = PortNumberedGraph.from_json(graph.to_json(node_fmt=format_path))
    loaded.require_runnable(2)
    assert loaded.is_proper() == graph.is_proper() is False


def test_proper_flag_on_random_numbering():
    rng = random.Random(3)
    graph = random_graph(rng, 20, 4)
    assert graph.is_proper()
    doc = graph.to_json_dict()
    assert doc["proper"] is True


def test_random_graph_respects_degree_cap():
    rng = random.Random(17)
    for _ in range(30):
        delta = rng.randint(1, 5)
        graph = random_graph(rng, rng.randint(1, 40), delta)
        assert graph.max_degree() <= delta
        graph.require_runnable(delta)


# sha256 over random_graph's JSON and the generator's next draw, for seeds
# 0..19, n in (1, 2, 3, 7, 14, 40) and delta in (1, 2, 3, 5): it pins every
# draw, the edges, both port deals and how much randomness they consume.
RANDOM_GRAPH_DIGEST = ("8262925943f8333d787a7d331d3b10e6"
                       "3cdea65a5178ba1646863093a5b7f1a3")


def test_random_graph_output_matches_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(20):
        for n in (1, 2, 3, 7, 14, 40):
            for delta in (1, 2, 3, 5):
                rng = random.Random(seed)
                digest.update(random_graph(rng, n, delta).to_json().encode())
                digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == RANDOM_GRAPH_DIGEST


def test_random_colouring_total():
    rng = random.Random(5)
    graph = random_graph(rng, 12, 3)
    colours = random_colouring(rng, graph)
    assert set(colours) == set(graph.nodes)
    assert set(colours.values()) <= {"B", "W", "G"}


def test_dot_export_carries_labels_and_fills():
    graph = build_ball("hb", 2, (), 1)
    dot = graph.to_dot(node_fmt=format_path)
    assert dot.startswith("graph {")
    assert 'label="(1,B)/(0,G)"' in dot.replace("'", "")
    assert "fillcolor" in dot


def test_malformed_json_rejected():
    with pytest.raises(FormatError):
        PortNumberedGraph.from_json("not json at all {")
    with pytest.raises(FormatError):
        PortNumberedGraph.from_json('{"nodes": 3}')


def test_true_degree_bookkeeping():
    ball = build_ball("g", 4, (), 1)
    assert ball.degree(((1, 0),)) == 1
    assert ball.declared_degree(((1, 0),)) == 4
    full = build_full("g", 2)
    for v in full.nodes:
        assert full.degree(v) == full.declared_degree(v)


def test_truncated_ball_json_round_trip_still_raises():
    ball = build_ball("g", 3, (), 2)
    loaded = PortNumberedGraph.from_json(ball.to_json(node_fmt=format_path))
    truncated = [v for v in loaded.nodes
                 if loaded.degree(v) != loaded.declared_degree(v)]
    assert len(truncated) == 6
    view = MaterializedView(loaded)
    a = PointedInstance(view, format_path(((1, 0),)))
    b = PointedInstance(view, format_path(((2, 1),)))
    assert bisimilar(a, b, 1)
    with pytest.raises(BallExhaustedError):
        bisimilar(a, b, 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
       delta=st.integers(1, 5))
def test_json_round_trip_keeps_every_edge_end(seed, n, delta):
    graph = random_graph(random.Random(seed), n, delta)
    loaded = PortNumberedGraph.from_json(graph.to_json(node_fmt=str))
    assert loaded.nodes == [str(v) for v in graph.nodes]
    assert loaded.edges() == [(str(u), str(v)) for u, v in graph.edges()]
    for u, v in graph.edges():
        for a, b in ((u, v), (v, u)):
            assert loaded.out_port(str(a), str(b)) == graph.out_port(a, b)
            assert loaded.in_port(str(a), str(b)) == graph.in_port(a, b)


@pytest.mark.parametrize("values,code", [
    ([], "B"), ([0, 255], "B"), ([256], "H"), ([65535, 3], "H"),
    ([65536], "i"), ([2**31 - 1], "i"), ([2**31], "q"), ([2**63 - 1], "q"),
    ([-1], "q"), ([5, -2**63, 300], "q"), ([70000, -1], "i"),
])
def test_int_array_takes_the_narrowest_type_that_holds_its_values(values,
                                                                  code):
    packed = int_array(values)
    assert packed.typecode == code
    assert packed.tolist() == values


def test_int_array_refuses_what_no_machine_int_holds():
    with pytest.raises(OverflowError):
        int_array([2**63])
    with pytest.raises(OverflowError):
        int_array([-2**63 - 1])
