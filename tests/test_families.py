import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_children_g, naive_children_h, rule_back_edges
from svmv.errors import FormatError, ResourceLimitError
from svmv.executor import execute
from svmv.families import (FAMILIES, FamilyView, ROOT, ball_size,
                           build_ball, build_collapsed, build_full, children,
                           children_g, children_h, family_collapse,
                           format_path, node_colour,
                           node_degree, parse_path, pi, validate_path)
from svmv.views import canonical_sv


def test_root_children_d5():
    assert [c[-1] for c in children_g(ROOT, 5)] == \
        [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]


def test_children_of_first_branch_d5():
    v = ((1, 0),)
    assert [c[-1] for c in children_g(v, 5)] == \
        [(2, 2), (3, 3), (4, 4), (5, 5)]


def test_children_of_second_branch_d5():
    v = ((2, 1),)
    assert [c[-1] for c in children_g(v, 5)] == \
        [(2, 1), (3, 3), (4, 4), (5, 5)]


def test_children_beyond_max_depth_empty():
    deep = validate_random_descent("g", 2, depth=4)
    assert len(deep) == 4
    assert children_g(deep, 2) == []


def validate_random_descent(family, d, depth, rng=None, first_step=None):
    rng = rng or random.Random(7)
    v = ROOT
    for level in range(depth):
        kids = children(family, v, d)
        if level == 0 and first_step is not None:
            kids = [k for k in kids if first_step(k[-1])]
        v = rng.choice(kids)
    return v


def test_coloured_root_children_d4():
    kids = [c[-1] for c in children_h(ROOT, 4, "hb")]
    assert kids == [(1, 0, "B"), (2, 1, "B"), (3, 2, "B"), (4, 3, "B"),
                    (2, 1, "W"), (3, 2, "W"), (4, 3, "W")]
    mirror = [c[-1] for c in children_h(ROOT, 4, "hw")]
    assert mirror == [(1, 0, "W"), (2, 1, "W"), (3, 2, "W"), (4, 3, "W"),
                      (2, 1, "B"), (3, 2, "B"), (4, 3, "B")]


def test_grey_node_flip_children_d4():
    grey = ((1, 0, "B"), (2, 2, "G"))
    flips = [c[-1] for c in children_h(grey, 4, "hb")[3:]]
    assert flips == [(2, 1, "W"), (3, 2, "W"), (4, 3, "W")]


def test_coloured_degree_audit():
    d = 4
    assert node_degree("hb", ROOT, d) == 2 * d - 1
    odd = ((2, 1, "B"),)
    assert node_degree("hb", odd, d) == d
    grey = ((2, 1, "B"), (2, 1, "G"))
    assert node_degree("hb", grey, d) == 2 * d - 1
    view = FamilyView("hb", d)
    for v in (ROOT, odd, grey):
        assert len(rule_back_edges(view, v)) == node_degree("hb", v, d)


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("g", 5),
                                      ("hb", 2), ("hb", 4), ("hw", 3)])
def test_children_match_naive_interpreter(family, d):
    rng = random.Random(d * 31 + len(family))
    for _ in range(200):
        depth = rng.randint(0, 2 * d)
        v = ROOT
        for _ in range(depth):
            kids = children(family, v, d)
            if not kids:
                break
            v = rng.choice(kids)
        if family == "g":
            assert children_g(v, d) == naive_children_g(v, d)
        else:
            assert children_h(v, d, family) == naive_children_h(v, d, family)


def test_port_labels_plain():
    assert pi("g", ROOT, ((1, 0),)) == 1
    assert pi("g", ((1, 0),), ROOT) == 0
    assert pi("g", ROOT, ((2, 1),)) == 2
    assert pi("g", ((2, 1),), ROOT) == 1


def test_port_labels_coloured():
    u = ((1, 0, "B"),)
    grey = ((1, 0, "B"), (2, 2, "G"))
    # Towards a coloured node the label carries that node's colour; towards
    # a grey node the tag is G.
    assert pi("hb", ROOT, u) == (1, "B")
    assert pi("hb", u, ROOT) == (0, "G")
    assert pi("hb", u, grey) == (2, "G")
    assert pi("hb", grey, u) == (2, "B")


def test_pi_rejects_non_adjacent():
    with pytest.raises(FormatError):
        pi("g", ((1, 0),), ((2, 1),))


def test_full_small_tree_node_count():
    graph = build_full("g", 2)
    assert len(graph.nodes) == 9
    assert sorted(graph.degree(v) for v in graph.nodes).count(1) == 2
    assert graph.max_degree() == 2


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("g", 4),
                                      ("hb", 2), ("hb", 3),
                                      ("hw", 2), ("hw", 3)])
def test_full_tree_size_counts_the_built_tree(family, d):
    assert ball_size(family, d, 0, 2 * d) == len(build_full(family, d).nodes)


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("hb", 2),
                                      ("hw", 2)])
def test_ball_size_counts_every_ball(family, d):
    # Every centre, radii 0..2d+2: at d=2 against the built ball, at d=3
    # against breadth-first distances in the whole tree.
    full = build_full(family, d)
    adjacent = {v: full.neighbours(v) for v in full.nodes}
    for centre in full.nodes:
        dist, order = {centre: 0}, [centre]
        for v in order:
            for u in adjacent[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    order.append(u)
        at = Counter(dist.values())
        for radius in range(2 * d + 3):
            want = sum(at[k] for k in range(radius + 1))
            if d == 2:
                assert len(build_ball(family, d, centre, radius).nodes) == want
            assert ball_size(family, d, len(centre), radius) == want


def test_full_tree_size_closed_form_for_g():
    for d in range(2, 8):
        assert ball_size("g", d, 0, 2 * d) == \
            1 + d * sum((d - 1) ** k for k in range(2 * d))
    assert ball_size("g", 4, 0, 8) == 13_121


def test_radius_zero_ball_records_true_degree():
    graph = build_ball("g", 5, ROOT, 0)
    assert graph.nodes == [ROOT]
    assert graph.degree(ROOT) == 0
    assert graph.declared_degree(ROOT) == 5


def test_radius_three_ball_structure_d5():
    graph = build_ball("g", 5, ROOT, 3)
    levels = {}
    for v in graph.nodes:
        levels[len(v)] = levels.get(len(v), 0) + 1
    assert levels == {0: 1, 1: 5, 2: 20, 3: 80}
    assert sorted(graph.out_port(ROOT, u) for u in graph.neighbours(ROOT)) \
        == [1, 2, 3, 4, 5]
    for v in graph.nodes:
        if len(v) < 3:
            assert graph.degree(v) == 5
        else:
            assert graph.degree(v) == 1
            assert graph.declared_degree(v) == 5


def test_coloured_ball_counts():
    graph = build_ball("hb", 4, ROOT, 1)
    assert len(graph.nodes) == 8
    colours = sorted(graph.colours[v] for v in graph.nodes if v != ROOT)
    assert colours == ["B", "B", "B", "B", "W", "W", "W"]
    assert graph.colours[ROOT] == "G"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3])
def test_ball_is_a_tree_with_full_interior(family, d):
    # build_ball adds an edge only for a newly seen neighbour; the ball must
    # still be the whole induced subtree: nodes - 1 edges, and every node
    # inside the radius keeps its full-tree degree.
    rng = random.Random(d)
    lazy = FamilyView(family, d)
    centres = [ROOT]
    for _ in range(3):
        centres.append(validate_random_descent(family, d, rng.randint(1, 2 * d),
                                               rng=rng))
    for centre in centres:
        for radius in range(4):
            graph = build_ball(family, d, centre, radius)
            assert len(graph.edges()) == len(graph.nodes) - 1
            dist = {centre: 0}
            frontier = [centre]
            while frontier:
                v = frontier.pop()
                for u in graph.neighbours(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        frontier.append(u)
            assert set(dist) == set(graph.nodes)
            for v, k in dist.items():
                assert k <= radius
                assert graph.declared_degree(v) == node_degree(family, v, d)
                if k < radius:
                    assert graph.degree(v) == node_degree(family, v, d)
                    assert sorted(graph.neighbours(v)) == \
                        sorted(u for u, _ in rule_back_edges(lazy, v))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3])
def test_ball_records_true_degree_exactly_where_cut(family, d):
    # A ball stores a full-tree degree only for the nodes it cuts edges
    # from, so the whole tree (the root's radius-2d ball) stores none, and
    # declared_degree still reads the full-tree degree everywhere.
    rng = random.Random(10 + d)
    centres = [ROOT] + [validate_random_descent(family, d,
                                                rng.randint(1, 2 * d), rng=rng)
                        for _ in range(3)]
    for centre in centres:
        for radius in range(2 * d + 2):
            graph = build_ball(family, d, centre, radius)
            cut = {v for v in graph.nodes
                   if node_degree(family, v, d) != graph.degree(v)}
            assert set(graph.true_degree) == cut
            for v in graph.nodes:
                assert graph.declared_degree(v) == node_degree(family, v, d)


def test_ball_node_cap():
    # The whole g tree has 366,210,937 nodes at d=6, past the default cap.
    with pytest.raises(ResourceLimitError):
        build_full("g", 6)


def test_path_syntax_round_trip():
    for family, text in (("g", "()"), ("g", "(1,0)/(2,2)"),
                         ("hb", "(2,1,W)/(3,3,G)")):
        assert format_path(parse_path(text, family)) == text


def test_parse_rejects_malformed():
    for family, text in (("g", "(1)"), ("g", "(1,0,B)"), ("hb", "(1,0)"),
                         ("hb", "(1,0,X)"), ("g", "1,0")):
        with pytest.raises(FormatError):
            parse_path(text, family)


def test_validate_path_regenerates():
    validate_path("g", ((1, 0), (2, 2)), 2)
    validate_path("g", ((3, 2),), 3)
    with pytest.raises(FormatError):
        validate_path("g", ((1, 1),), 2)
    with pytest.raises(FormatError):
        validate_path("g", ((3, 2),), 2)
    with pytest.raises(FormatError):
        validate_path("hb", ((1, 0, "W"),), 2)


@pytest.mark.parametrize("d", [2, 3])
def test_single_colour_subtree_is_isomorphic_to_plain_tree(d):
    # The subgraph of the coloured tree whose paths avoid the complement
    # colour maps onto the plain tree by dropping colours, preserving
    # adjacency and the numeric parts of all labels.
    for family, keep in (("hb", "B"), ("hw", "W")):
        plain = {ROOT}
        stack = [ROOT]
        mapped = {ROOT: ROOT}
        while stack:
            v = stack.pop()
            for child in children(family, v, d):
                if child[-1][2] in (keep, "G"):
                    mapped[child] = tuple(s[:2] for s in child)
                    plain.add(child)
                    stack.append(child)
        full_plain = set()
        stack = [ROOT]
        while stack:
            v = stack.pop()
            full_plain.add(v)
            stack.extend(children_g(v, d))
        assert set(mapped.values()) == full_plain
        assert len(mapped) == len(full_plain)
        for v, image in mapped.items():
            if v == ROOT:
                continue
            num_label_up = pi(family, v, v[:-1])[0]
            assert num_label_up == pi("g", image, image[:-1])
            assert pi(family, v[:-1], v)[0] == pi("g", image[:-1], image)


def test_view_parameters_are_read_only():
    # The back-edge table keeps labels made with the view's parameters.
    view = FamilyView("g", 3)
    view.back_edges(((1, 0), (2, 2)))
    for name, value in (("family", "hb"), ("d", 4),
                        ("collapse", family_collapse("g", 3))):
        with pytest.raises(AttributeError):
            setattr(view, name, value)
    assert (view.family, view.d, view.collapse) == ("g", 3, None)


def test_node_colour():
    assert node_colour("hb", ROOT) == "G"
    assert node_colour("hb", ((2, 1, "W"),)) == "W"
    assert node_colour("g", ((1, 0),)) is None


@st.composite
def rule_nodes(draw):
    """A family, a parameter d and a node reached by a random descent."""
    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.integers(2, 5))
    v = ROOT
    for _ in range(draw(st.integers(0, 2 * d))):
        v = draw(st.sampled_from(children(family, v, d)))
    return family, d, v


@settings(max_examples=200, deadline=None)
@given(rule_nodes())
def test_rule_nodes_round_trip_through_text(node):
    family, d, v = node
    assert parse_path(format_path(v), family) == v
    validate_path(family, v, d)


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("g", 4),
                                      ("hb", 2), ("hb", 3),
                                      ("hw", 2), ("hw", 3)])
def test_back_edges_follow_the_rules_at_every_node(family, d):
    # One view serves the whole tree, so a table entry filled from one node
    # is read back at every other node with the same key.
    for collapse in (None, family_collapse(family, d)):
        view = FamilyView(family, d, collapse)
        stack = [ROOT]
        while stack:
            v = stack.pop()
            assert view.back_edges(v) == rule_back_edges(view, v), \
                (family, d, collapse, format_path(v))
            stack.extend(children(family, v, d))


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("g", 4),
                                      ("hb", 2), ("hb", 3),
                                      ("hw", 2), ("hw", 3)])
def test_key_edges_commute_with_suffix_key(family, d):
    # The key-level view starts empty, so key_edges, not back_edges, fills
    # its table.
    for collapse in (None, family_collapse(family, d)):
        view = FamilyView(family, d, collapse)
        keyed = FamilyView(family, d, collapse)
        stack = [ROOT]
        while stack:
            v = stack.pop()
            edges = view.back_edges(v)
            for r in range(1, 2 * d + 1):
                want = [(view.suffix_key(u, r - 1), label)
                        for u, label in edges]
                # A key kept for a larger radius trims to the same keys.
                for kept in (r, 2 * d):
                    assert keyed.key_edges(view.suffix_key(v, kept), r) \
                        == want, (format_path(v), r, kept)
                assert keyed.key_local(view.suffix_key(v, r - 1)) == \
                    (node_degree(family, v, d), node_colour(family, v))
            stack.extend(children(family, v, d))


@pytest.mark.parametrize("family", ["g", "hb"])
@pytest.mark.parametrize("paths_first", [True, False])
def test_rules_run_once_per_table_class(monkeypatch, family, paths_first):
    # back_edges and key_edges read one table, so whichever level reads a
    # class first fills it for the other.
    d = 3
    nodes, stack = [], [ROOT]
    while stack:
        nodes.append(stack.pop())
        stack.extend(children(family, nodes[-1], d))
    view = FamilyView(family, d)
    classes = {view.suffix_key(v, 1) for v in nodes}
    keys = {(view.suffix_key(v, r), r)
            for v in nodes for r in range(1, 2 * d + 1)}
    calls = []

    def counted(*args):
        calls.append(args)
        return children(*args)

    def read_paths():
        for v in nodes:
            view.back_edges(v)

    def read_keys():
        for key, r in keys:
            view.key_edges(key, r)

    monkeypatch.setattr("svmv.families.children", counted)
    order = (read_paths, read_keys) if paths_first else (read_keys, read_paths)
    for read in order:
        read()
    assert len(calls) == len(classes)


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("hb", 2),
                                      ("hb", 3), ("hw", 2), ("hw", 3)])
def test_equal_suffix_keys_hold_equal_views(family, d):
    # Equal suffix_key(v, r) means isomorphic r-balls, so the
    # full-information set-reception machine holds one state for them at
    # round r.  A key one step too short merges nodes it tells apart.
    graph = build_collapsed(family, d)
    view = FamilyView(family, d, family_collapse(family, d))
    trace = execute(canonical_sv(graph.max_degree()), graph,
                    max_rounds=2 * d)
    for r in range(2 * d + 1):
        state_of_key = {}
        for v in graph.nodes:
            state = trace.state(r, v)
            assert state_of_key.setdefault(view.suffix_key(v, r), state) \
                == state, (format_path(v), r)


@pytest.mark.parametrize("family", ["hb", "hw"])
def test_keys_apart_in_their_oldest_colour_hold_different_views(family):
    # An hb/hw key keeps its oldest step by colour alone.  Nodes whose keys
    # differ only in that colour differ in the input of a node r moves
    # away.  Set reception does not see every such difference, but at each
    # radius below 2d it tells some such nodes apart at round r, so a key
    # without that colour would merge views.
    d = 3
    graph = build_collapsed(family, d)
    view = FamilyView(family, d, family_collapse(family, d))
    trace = execute(canonical_sv(graph.max_degree()), graph,
                    max_rounds=2 * d)
    for r in range(2 * d):
        by_rest = {}
        for v in graph.nodes:
            depth, steps = view.suffix_key(v, r)
            if len(steps) > r:
                by_rest.setdefault((depth, steps[1:]), []).append(v)
        assert any(len({trace.state(r, v) for v in nodes}) > 1
                   for nodes in by_rest.values()), r


@st.composite
def descents(draw):
    """A family, d in 5..6, a collapse flag and several random descents."""
    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.integers(5, 6))
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        v = ROOT
        for _ in range(draw(st.integers(0, 2 * d))):
            v = draw(st.sampled_from(children(family, v, d)))
        nodes.append(v)
    return family, d, draw(st.booleans()), nodes


@settings(max_examples=60, deadline=None)
@given(descents())
def test_back_edges_follow_the_rules_on_deep_trees(sample):
    family, d, collapsed, nodes = sample
    view = FamilyView(family, d,
                      family_collapse(family, d) if collapsed else None)
    for v in nodes:
        assert view.back_edges(v) == rule_back_edges(view, v)


GOLDEN = Path(__file__).resolve().parent / "golden"
DEPTH_ONE = {"g": ((1, 0),), "hb": ((1, 0, "B"),), "hw": ((1, 0, "W"),)}


def test_build_output_matches_pinned_digests():
    # The .json and .dot bytes ``svmv build`` writes for 120 balls: each
    # family, d=2 and 3, the root and a depth-1 centre, radii 0, 1, 3, 2d
    # and 2d+1, plain and collapsed; and one sha256 over all of them.
    pinned = json.loads((GOLDEN / "build_digests.json").read_text())
    combined, got = hashlib.sha256(), []
    for family in FAMILIES:
        for d in (2, 3):
            for centre in (ROOT, DEPTH_ONE[family]):
                for radius in (0, 1, 3, 2 * d, 2 * d + 1):
                    for collapsed in (False, True):
                        collapse = family_collapse(family, d) \
                            if collapsed else None
                        ball = build_ball(family, d, centre, radius,
                                          collapse=collapse)
                        text = (ball.to_json(node_fmt=format_path)
                                + "\n").encode()
                        dot = ball.to_dot(node_fmt=format_path).encode()
                        combined.update(text + dot)
                        got.append({
                            "family": family, "d": d,
                            "center": format_path(centre), "radius": radius,
                            "collapse": collapsed,
                            "json_sha256": hashlib.sha256(text).hexdigest(),
                            "dot_sha256": hashlib.sha256(dot).hexdigest()})
    assert got == pinned["balls"]
    assert combined.hexdigest() == pinned["combined_sha256"]
