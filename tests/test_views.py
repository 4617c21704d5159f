import os
import subprocess
import sys
from pathlib import Path

import pytest

import svmv
from svmv.executor import execute
from svmv.families import FamilyView, build_collapsed, family_collapse
from svmv.graphs import PortNumberedGraph
from svmv.views import canonical_sv, view


def test_views_are_interned():
    assert view(3, "B", 0, frozenset()) is view(3, "B", 0, frozenset())
    assert view(3, "B", 0, frozenset()) is not view(3, "W", 0, frozenset())
    assert view(2, None, 0, frozenset()).digest == \
        view(2, None, 0, frozenset()).digest


def test_one_pair_set_gives_one_view():
    leaves = [view(degree, None, 0, ()) for degree in (1, 2, 3)]
    # Equal ports with distinct children need the tie order.
    pairs = [(1, leaves[0]), (1, leaves[1]), (2, leaves[2]), (3, leaves[0])]
    want = view(3, "G", 1, pairs)
    for given in (pairs[::-1], pairs[1:] + pairs[:1], set(pairs),
                  frozenset(pairs), iter(pairs), pairs + pairs[2:3],
                  [pairs[1], *pairs, pairs[1]]):
        assert view(3, "G", 1, given) is want
    assert len(want.children) == len(set(want.children)) == 4
    assert set(want.children) == set(pairs)
    assert [port for port, _ in want.children] == [1, 1, 2, 3]
    assert view(3, "G", 1, pairs[:3]) is not want


def test_star_centre_sees_three_distinct_children():
    graph = PortNumberedGraph()
    graph.add_node("c", "G")
    for i, colour in enumerate("BWG", start=1):
        graph.add_node(f"l{i}", colour)
        graph.add_edge("c", f"l{i}", i, 1)
    trace = execute(canonical_sv(3), graph, max_rounds=1)
    centre = trace.states[1]["c"]
    assert len(centre.children) == 3
    assert centre.round == 1


def test_two_node_path_views_collide_forever():
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1)
    trace = execute(canonical_sv(1), graph, max_rounds=4)
    for r in range(5):
        assert trace.states[r]["a"] is trace.states[r]["b"]


def test_first_branch_views_split_exactly_at_gathering_bound():
    for delta in (2, 3):
        graph = build_collapsed("g", delta)
        trace = execute(canonical_sv(delta), graph, max_rounds=2 * delta - 2)
        u, w = ((1, 0),), ((2, 1),)
        for r in range(2 * delta - 2):
            assert trace.states[r][u] == trace.states[r][w]
        last = 2 * delta - 2
        assert trace.states[last][u] != trace.states[last][w]


@pytest.mark.parametrize("family,d", [("g", 2), ("g", 3), ("hb", 2),
                                      ("hw", 3)])
def test_family_views_are_the_executor_states(family, d):
    # FamilyView.view_of builds each node's view from its table type and
    # its parent's view one round earlier; the executor runs canonical_sv
    # on the materialised tree.  Both must give the same interned object
    # for every node and every round through 2d.
    graph = build_collapsed(family, d)
    delta = d if family == "g" else 2 * d - 1
    trace = execute(canonical_sv(delta), graph, max_rounds=2 * d)
    lazy = FamilyView(family, d, family_collapse(family, d))
    seen = {}

    def view_at(v, r):
        if (v, r) not in seen:
            parent = view_at(v[:-1], r - 1) if v and r else None
            seen[v, r] = lazy.view_of(lazy.suffix_key(v, 1), parent, r)
        return seen[v, r]

    for v in graph.nodes:
        for r in range(2 * d + 1):
            assert view_at(v, r) is trace.state(r, v)


@pytest.mark.parametrize("family,d", [("g", 3), ("hb", 2)])
def test_restrict_gives_the_previous_round_view(family, d):
    # A node's round-r view holds its round-(r - 1) view: the first r - 1
    # rounds of what it heard.  Restricting drops the last round.
    graph = build_collapsed(family, d)
    delta = d if family == "g" else 2 * d - 1
    trace = execute(canonical_sv(delta), graph, max_rounds=2 * d)
    assert trace.rounds() == 2 * d
    for v in graph.nodes:
        for r in range(1, 2 * d + 1):
            assert trace.state(r, v).restrict() is trace.state(r - 1, v)


def test_no_message_outlives_its_run():
    # Views keep their children flat, so the (port, view) messages of a run
    # die with it; the only (int, view) 2-tuples left are the flat children
    # of views with one child.  A fresh interpreter holds no other run's.
    script = """
import gc
from svmv.executor import execute
from svmv.families import build_collapsed
from svmv.views import _INTERN, ViewTree, canonical_sv
trace = execute(canonical_sv(3), build_collapsed("g", 3), max_rounds=5)
assert trace.states and trace.messages
del trace
gc.collect()
flats = {id(v.flat) for bucket in _INTERN.values() for v in bucket.values()}
print(sum(type(o) is tuple and len(o) == 2 and type(o[0]) is int
          and type(o[1]) is ViewTree and id(o) not in flats
          for o in gc.get_objects()), len(flats))
"""
    root = str(Path(svmv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    left, views = map(int, done.stdout.split())
    assert views > 50
    assert left == 0
