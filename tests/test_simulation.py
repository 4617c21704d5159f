import random

import pytest

from svmv.errors import NumberingError, SignatureCollisionError
from svmv.executor import execute, local_outputs
from svmv.families import build_ball, build_collapsed
from svmv.graphs import PortNumberedGraph, random_colouring, random_graph
from svmv.machines import EPSILON, MV, SV, StateMachine
from svmv.problem import solve_pi_mv
from svmv.simulate import (audit_signatures, check_signature_distinctness,
                           gather_rounds, multiset_echo, mv_by_sv,
                           run_simulation)
from svmv.views import canonical_sv


def test_wrapper_is_set_reception():
    inner = solve_pi_mv(3)
    wrapper = mv_by_sv(inner)
    assert wrapper.reception_class == SV
    assert inner.reception_class == MV
    assert wrapper.delta == inner.delta


def test_wrapper_rejects_set_reception_inner():
    from svmv.views import canonical_sv
    with pytest.raises(ValueError):
        mv_by_sv(canonical_sv(2))


@pytest.mark.parametrize("family", ["hb", "hw"])
def test_differential_on_small_coloured_trees(family):
    graph = build_collapsed(family, 2)
    report = run_simulation(solve_pi_mv(3), graph, graph.colours)
    assert report.outputs_equal
    assert report.overhead == gather_rounds(3) == 4
    assert report.direct_rounds == 1
    assert report.simulated_rounds == 5


def test_differential_echo_on_random_graphs():
    rng = random.Random(99)
    for _ in range(25):
        delta = rng.randint(1, 5)
        graph = random_graph(rng, rng.randint(1, 30), delta)
        colours = random_colouring(rng, graph)
        inner = multiset_echo(delta, rounds=rng.randint(1, 3))
        report = run_simulation(inner, graph, colours)
        assert report.outputs_equal, report.mismatches
        assert report.overhead == gather_rounds(delta)


@pytest.mark.parametrize("inner, graph, refusal", [
    (solve_pi_mv(2), build_collapsed("g", 2),
     "local input None of node () is outside the machine's input alphabet "
     "B, G, W"),
    (multiset_echo(2), build_ball("g", 2, (), 2),
     "node ((1, 0),) carries port label 0, need integers in 1..2"),
], ids=["uncoloured", "port-0"])
def test_unrunnable_instance_is_refused_before_the_audit(monkeypatch, inner,
                                                         graph, refusal):
    # The direct run comes first, so its set-up refuses inputs outside the
    # inner alphabet and ports outside 1..delta before any round.
    audited = []
    monkeypatch.setattr("svmv.simulate.audit_signatures",
                        lambda *args: audited.append(args))
    with pytest.raises(NumberingError) as exc:
        run_simulation(inner, graph)
    assert str(exc.value) == refusal
    assert audited == []


def test_single_node_degenerates():
    graph = PortNumberedGraph()
    graph.add_node(0, "B")
    report = run_simulation(solve_pi_mv(2), graph, graph.colours)
    assert report.outputs_equal
    assert report.overhead == 2


def test_delta_one_has_zero_overhead():
    graph = PortNumberedGraph()
    graph.add_node("x", "B")
    graph.add_node("y", "W")
    graph.add_edge("x", "y", 1, 1)
    report = run_simulation(solve_pi_mv(1), graph, graph.colours)
    assert report.overhead == 0
    assert report.outputs_equal


def test_audit_passes_on_adversarial_tree():
    graph = build_collapsed("g", 3)
    audit_signatures(graph, None, 3)


def test_collision_detector_fires_on_fabricated_states():
    graph = PortNumberedGraph()
    graph.add_node("v")
    graph.add_node("u")
    graph.add_node("w")
    graph.add_edge("v", "u", 1, 1)
    graph.add_edge("v", "w", 2, 1)
    states = {"v": "s", "u": "same", "w": "same"}
    with pytest.raises(SignatureCollisionError):
        check_signature_distinctness(graph, states, rounds=0)


def test_wrapper_outputs_literally_equal_inner_outputs():
    graph = build_collapsed("hb", 2)
    inner = solve_pi_mv(3)
    direct = execute(inner, graph, max_rounds=4)
    sim = execute(mv_by_sv(inner), graph, max_rounds=10)
    assert local_outputs(direct) == local_outputs(sim)


def _instances():
    """Seeded random graphs for delta 1..5, with and without colours, and
    the collapsed hb d=2 tree, each with its degree bound."""
    rng = random.Random(2015)
    for delta in range(1, 6):
        for coloured in (False, True):
            graph = random_graph(rng, rng.randint(2, 16), delta)
            colours = random_colouring(rng, graph) if coloured else None
            yield pytest.param(max(1, graph.max_degree()), graph, colours,
                               id=f"delta{delta}-coloured{int(coloured)}")
    graph = build_collapsed("hb", 2)
    yield pytest.param(3, graph, graph.colours, id="hb-d2")


INSTANCES = list(_instances())


@pytest.mark.parametrize("delta,graph,colours", INSTANCES)
def test_wrapper_gathers_the_views_canonical_sv_holds(delta, graph, colours):
    # The audit checks canonical_sv's states, so the wrapper's signatures
    # must be exactly those states in every gathering round.
    phase1 = gather_rounds(delta)
    sim = execute(mv_by_sv(multiset_echo(delta)), graph, colours,
                  max_rounds=phase1)
    gathered = execute(canonical_sv(delta), graph, colours,
                       max_rounds=phase1)
    for r in range(phase1 + 1):
        for v in graph.nodes:
            assert sim.state(r, v).view is gathered.state(r, v)


def _recorder(delta: int, rounds: int = 2) -> StateMachine:
    """Multiset-reception machine whose state lists every multiset it
    received, as (repr of message, count) items."""

    def init(degree, local_input):
        return (degree, local_input, ())

    def emit(state, port):
        if len(state[2]) == rounds:
            return EPSILON
        return (state[0], state[1], len(state[2]))

    def transition(state, received):
        if len(state[2]) == rounds:
            return state
        items = tuple(sorted((repr(m), n) for m, n in received.items()))
        return (state[0], state[1], state[2] + (items,))

    return StateMachine("recorder", delta, MV, init, emit, transition,
                        lambda state: len(state[2]) == rounds)


@pytest.mark.parametrize("delta,graph,colours", INSTANCES)
def test_wrapper_delivers_the_multisets_of_a_direct_run(delta, graph,
                                                        colours):
    recorder = _recorder(delta)
    direct = local_outputs(execute(recorder, graph, colours, max_rounds=4))
    sim = local_outputs(execute(mv_by_sv(recorder), graph, colours,
                                max_rounds=4 + gather_rounds(delta)))
    assert sim == direct
    for state in sim.values():
        for items in state[2]:
            assert sum(n for _, n in items) == delta
            assert all(n > 0 for _, n in items), items
