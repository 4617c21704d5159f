import json

import pytest

from svmv.bisim import MaterializedView, PointedInstance, bisimilar
from svmv.cli import main
from svmv.errors import BallExhaustedError, NumberingError
from svmv.families import (FamilyView, ROOT, build_ball, build_collapsed,
                           build_full, collapse_g, collapse_h,
                           family_collapse, format_path)
from svmv.graphs import PortNumberedGraph
from svmv.reproduce import corrupted_collapse


def test_plain_collapse_mapping():
    collapse = collapse_g(5)
    assert collapse.apply(0) == 1
    for i in range(1, 6):
        assert collapse.apply(i) == i


def test_coloured_collapse_mapping():
    collapse = collapse_h(4)
    assert collapse.apply((1, "B")) == 1 == collapse.apply((1, "W"))
    assert collapse.apply((2, "B")) == 3
    assert collapse.apply((2, "W")) == 2
    assert collapse.apply((4, "B")) == 7
    assert collapse.apply((4, "W")) == 6
    assert collapse.apply((0, "G")) == 1
    assert collapse.apply((3, "G")) == 3


def test_first_two_branches_share_port_one_towards_root():
    for d in (2, 3):
        graph = collapse_g(d).apply_graph(build_full("g", d))
        assert graph.out_port(((1, 0),), ROOT) == 1
        assert graph.out_port(((2, 1),), ROOT) == 1


def test_coloured_first_two_branches_share_port_one():
    for family, colour in (("hb", "B"), ("hw", "W")):
        graph = collapse_h(2).apply_graph(build_full(family, 2))
        assert graph.out_port(((1, 0, colour),), ROOT) == 1
        assert graph.out_port(((2, 1, colour),), ROOT) == 1


def test_exhaustive_audit_small_plain_tree():
    # Internal nodes carry out- and in-ports exactly 1..deg and hence the
    # two leaves below show the construction's one wrinkle: the leaf under
    # the (1,0) branch keeps label 2 on its single edge, so the collapsed
    # numbering is runnable (labels within 1..d, distinct per node) but not
    # strictly proper at every leaf.
    graph = collapse_g(2).apply_graph(build_full("g", 2))
    graph.require_runnable(2)
    for v in graph.nodes:
        out = {graph.out_port(v, u) for u in graph.neighbours(v)}
        inn = {graph.in_port(v, u) for u in graph.neighbours(v)}
        if len(v) < 4:
            assert out == inn == set(range(1, graph.degree(v) + 1))
    leaf_a = ((1, 0), (2, 2), (1, 0), (2, 2))
    leaf_b = ((2, 1), (2, 1), (2, 0), (2, 1))
    assert graph.degree(leaf_a) == 1
    assert graph.out_port(leaf_a, leaf_a[:-1]) == 2
    assert graph.out_port(leaf_b, leaf_b[:-1]) == 1
    assert not graph.is_proper()


@pytest.mark.parametrize("family,d,delta",
                         [("g", 3, 3), ("hb", 2, 3), ("hw", 2, 3),
                          ("hb", 3, 5)])
def test_internal_properness_and_runnability(family, d, delta):
    graph = family_collapse(family, d).apply_graph(build_full(family, d))
    graph.require_runnable(delta)
    for v in graph.nodes:
        want = set(range(1, graph.degree(v) + 1))
        if len(v) < 2 * d:
            out = {graph.out_port(v, u) for u in graph.neighbours(v)}
            inn = {graph.in_port(v, u) for u in graph.neighbours(v)}
            assert out == want, (family, d, v)
            assert inn == want, (family, d, v)


def test_collapse_injectivity_violation_detected():
    broken = collapse_g(2)
    broken.mapping[0] = 2
    with pytest.raises(NumberingError):
        broken.apply_graph(build_full("g", 2))


def test_collapse_that_reuses_an_out_port_is_refused_while_building():
    # The corrupted g collapse maps label 0 onto 2, so (1,0) labels both
    # its parent and its first child 2.
    with pytest.raises(NumberingError) as exc:
        build_ball("g", 2, ROOT, 4, collapse=corrupted_collapse(2))
    assert str(exc.value) == "node ((1, 0),) reuses out-port 2"


def test_collapse_missing_label_detected():
    collapse = collapse_g(2)
    with pytest.raises(NumberingError):
        collapse.apply(7)


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("g", 4),
                                      ("hb", 2), ("hb", 3),
                                      ("hw", 2), ("hw", 3)])
def test_one_pass_collapsed_build_equals_collapsing_the_full_tree(family, d):
    collapse = family_collapse(family, d)
    assert build_collapsed(family, d).to_json_dict() == \
        collapse.apply_graph(build_full(family, d)).to_json_dict()


def test_collapsed_ball_keeps_its_truncated_boundary(tmp_path):
    family, d, centre = "g", 3, ((2, 1),)
    collapse = family_collapse(family, d)
    base = tmp_path / "ball"
    assert main(["build", "--family", family, "--d", str(d), "--radius", "2",
                 "--center", format_path(centre), "--collapse",
                 "--out", str(base)]) == 0
    text = (tmp_path / "ball.json").read_text()
    two_pass = collapse.apply_graph(build_ball(family, d, centre, 2))
    assert text == two_pass.to_json(node_fmt=format_path) + "\n"
    doc = json.loads(text)
    truncated = [rec["id"] for rec in doc["nodes"] if "true_degree" in rec]
    assert "(1,0)" in truncated and "(2,1)/(2,1)/(2,0)" in truncated
    # The root is one move from the centre, so radius 1 around it is inside
    # the ball and radius 2 reaches the truncated depth-1 nodes.
    ball = PointedInstance(MaterializedView(PortNumberedGraph.from_json(text)),
                           format_path(ROOT))
    lazy = PointedInstance(FamilyView(family, d, collapse), ROOT)
    assert bisimilar(ball, lazy, 1)
    with pytest.raises(BallExhaustedError):
        bisimilar(ball, lazy, 2)
