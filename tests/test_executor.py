import dataclasses
import random
from collections import Counter
from itertools import islice

import pytest

from oracles import reference_execute
from svmv.errors import (DegreeBoundError, DidNotHaltError,
                         MachineContractError, NumberingError)
from svmv.executor import execute, local_outputs
from svmv.families import ROOT, build_collapsed, node_degree
from svmv.graphs import PortNumberedGraph, random_colouring, random_graph
from svmv.machines import (AD_HOC_SV_MACHINES, EPSILON, MV, SV,
                           StateMachine, set_fold_hash, vmset_reduce,
                           vset_reduce)
from svmv.problem import output_colour, solve_pi_mv
from svmv.simulate import multiset_echo, mv_by_sv
from svmv.util import derive_seed
from svmv.views import canonical_sv


def two_node_path():
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 1, 1)
    return graph


def star(leaf_colours, centre_colour="G"):
    graph = PortNumberedGraph()
    graph.add_node("c", centre_colour)
    for i, colour in enumerate(leaf_colours, start=1):
        graph.add_node(f"l{i}", colour)
        graph.add_edge("c", f"l{i}", i, 1)
    return graph


def test_symmetric_path_nodes_stay_identical():
    graph = two_node_path()
    trace = execute(canonical_sv(1), graph, max_rounds=3)
    for r in range(4):
        assert trace.states[r]["a"] == trace.states[r]["b"]


def test_colour_broadcast_on_mixed_star():
    graph = star(["B"] * 4 + ["W"] * 4 + ["G"] * 2)
    trace = execute(solve_pi_mv(10), graph, max_rounds=3)
    assert trace.stopped_round == 1
    centre = output_colour(local_outputs(trace)["c"])
    assert centre == "B"  # B and W tie at 4; the solver's order picks B


def test_isolated_node_evolves_on_padding_only():
    graph = PortNumberedGraph()
    graph.add_node(0)
    seen = []

    def transition(state, received):
        seen.append(received)
        return state + 1

    machine = StateMachine("ticker", 3, SV, lambda deg, inp: 0,
                           lambda s, p: ("t", s), transition, lambda s: False)
    trace = execute(machine, graph, max_rounds=2)
    assert trace.states[2][0] == 2
    assert seen == [frozenset({EPSILON})] * 2
    assert trace.messages[0][0] == (EPSILON,) * 3


def test_determinism_bit_for_bit():
    rng1, rng2 = random.Random(5), random.Random(5)
    g1 = random_graph(rng1, 15, 4)
    g2 = random_graph(rng2, 15, 4)
    t1 = execute(canonical_sv(4), g1, max_rounds=4)
    t2 = execute(canonical_sv(4), g2, max_rounds=4)
    assert t1.states == t2.states
    assert t1.messages == t2.messages


def staggered_machine(delta):
    """Stops a node at round equal to its degree; emits a constant tick."""

    def init(deg, inp):
        return ("run", 0, deg)

    def emit(state, port):
        return EPSILON if state[0] == "halt" else "tick"

    def transition(state, received):
        if state[0] == "halt":
            return state
        k, deg = state[1] + 1, state[2]
        return ("halt", deg) if k >= deg else ("run", k, deg)

    return StateMachine("staggered", delta, SV, init, emit, transition,
                        lambda s: s[0] == "halt")


def staggered_mv_machine(delta):
    """Multiset twin of :func:`staggered_machine`: counts the ticks heard
    and stops once it has heard as many as its degree, one round later for
    every silent neighbour."""

    def emit(state, port):
        return EPSILON if state[0] == "halt" else ("tick", state[1] % 2)

    def transition(state, received):
        if state[0] == "halt":
            return state
        heard = state[1] + delta - received[EPSILON]
        return ("halt", heard) if heard >= state[2] else ("run", heard,
                                                          state[2])

    return StateMachine("staggered-mv", delta, MV,
                        lambda deg, inp: ("run", 0, 2 * deg), emit,
                        transition, lambda s: s[0] == "halt")


def path_graph(n):
    graph = PortNumberedGraph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1, 2 if i > 0 else 1, 1)
    return graph


def test_stopping_absorption_with_staggered_stops():
    graph = path_graph(4)  # degrees 1, 2, 2, 1
    trace = execute(staggered_machine(2), graph, max_rounds=6)
    assert trace.stopped_round == 2
    assert trace.states[1][0] == ("halt", 1)
    assert trace.states[2][0] == ("halt", 1)
    # The early-stopped endpoint delivers epsilon while its neighbour runs.
    assert trace.messages[1][1][0] is EPSILON


def test_stopping_contract_enforced():
    bad = StateMachine("bad-stop", 2, SV, lambda deg, inp: "z",
                       lambda s, p: "still-talking",
                       lambda s, r: s, lambda s: True)
    with pytest.raises(MachineContractError):
        execute(bad, two_node_path(), max_rounds=1)


def test_non_fixed_point_stop_rejected():
    machine = StateMachine("drift", 2, SV, lambda deg, inp: "z",
                           lambda s, p: EPSILON,
                           lambda s, r: s + "!", lambda s: True)
    with pytest.raises(MachineContractError):
        execute(machine, two_node_path(), max_rounds=1)


def test_generalised_ports_rejected():
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", (1, "B"), (0, "G"))
    with pytest.raises(NumberingError):
        execute(canonical_sv(2), graph, max_rounds=1)


def test_out_of_range_ports_rejected():
    graph = PortNumberedGraph()
    graph.add_edge("a", "b", 0, 1)
    with pytest.raises(NumberingError):
        execute(canonical_sv(2), graph, max_rounds=1)


def test_degree_bound_rejected():
    graph = star(["B"] * 3)
    with pytest.raises(DegreeBoundError):
        execute(canonical_sv(2), graph, max_rounds=1)


def test_input_alphabet_enforced():
    graph = two_node_path()  # no colours
    with pytest.raises(NumberingError):
        execute(solve_pi_mv(1), graph, max_rounds=2)


def test_exhausted_horizon_leaves_stopped_round_unset():
    trace = execute(canonical_sv(1), two_node_path(), max_rounds=3)
    assert trace.stopped_round is None
    with pytest.raises(DidNotHaltError):
        local_outputs(trace)


def test_local_outputs_after_halt():
    graph = star(["B", "B", "W"])
    trace = execute(solve_pi_mv(3), graph, max_rounds=2)
    outputs = local_outputs(trace)
    assert output_colour(outputs["c"]) == "B"
    for leaf in ("l1", "l2", "l3"):
        assert output_colour(outputs[leaf]) is not None


def test_incoming_slot_order_is_reception_irrelevant():
    # Re-dealing every node's in-ports permutes trace slots but changes no
    # state anywhere: reception never reads them.
    rng = random.Random(11)
    base = random_graph(rng, 12, 3)
    colours = random_colouring(rng, base)
    perms = {}
    for v in base.nodes:
        order = base.neighbours(v)
        rng.shuffle(order)
        for i, u in enumerate(order, start=1):
            perms[(v, u)] = i
    shuffled = PortNumberedGraph()
    for v in base.nodes:
        shuffled.add_node(v)
    for u, v in base.edges():
        shuffled.add_edge(u, v, base.out_port(u, v), base.out_port(v, u),
                          in_uv=perms[(u, v)], in_vu=perms[(v, u)])
    for machine in (canonical_sv(3), solve_pi_mv(3)):
        t1 = execute(machine, base, colours, max_rounds=3)
        t2 = execute(machine, shuffled, colours, max_rounds=3)
        assert t1.states == t2.states


def test_multiplicity_blindness_at_reduction_boundary():
    from svmv.views import view
    machine = canonical_sv(3)
    state = machine.init(2, None)
    m = (1, view(2, None, 0, frozenset()))
    a = machine.transition(state, vset_reduce((m, m, EPSILON)))
    b = machine.transition(state, vset_reduce((m, EPSILON, EPSILON)))
    assert a == b


def _assert_matches_reference(machine, graph, colouring, max_rounds):
    trace = execute(machine, graph, colouring, max_rounds=max_rounds)
    states, messages, stopped_round = reference_execute(
        machine, graph, colouring, max_rounds)
    assert trace.states == states
    assert trace.messages == messages
    assert trace.stopped_round == stopped_round


def _sv_machines(delta):
    return [canonical_sv(delta)] + [factory(delta) for factory in
                                    AD_HOC_SV_MACHINES.values()]


def test_execute_matches_reference_on_collapsed_tree():
    graph = build_collapsed("g", 3)
    for machine in _sv_machines(3):
        _assert_matches_reference(machine, graph, None, 5)


def test_execute_matches_reference_on_random_graphs():
    # random_graph deals in-ports independently of out-ports, and machines
    # of both reception classes stop, some nodes before others.
    independent = False
    for seed in range(10):
        rng = random.Random(seed)
        delta = rng.randint(2, 4)
        graph = random_graph(rng, rng.randint(2, 16), delta)
        independent |= any(graph.in_port(v, u) != graph.out_port(v, u)
                           for u, v in graph.edges())
        colours = random_colouring(rng, graph)
        machines = _sv_machines(delta) + [mv_by_sv(solve_pi_mv(delta)),
                                          multiset_echo(delta),
                                          staggered_machine(delta),
                                          staggered_mv_machine(delta)]
        for machine in machines:
            _assert_matches_reference(machine, graph, colours, 3 * delta)
    assert independent


def _received_key(received):
    return frozenset(Counter(received).items())


def _assert_transition_runs_once(machine, graph, colouring, max_rounds):
    calls = Counter()

    def counting(state, received, inner=machine.transition):
        # The stop-contract probe of a stopping state is not a round step.
        if not machine.stopping(state):
            calls[state, _received_key(received)] += 1
        return inner(state, received)

    trace = execute(dataclasses.replace(machine, transition=counting),
                    graph, colouring, max_rounds=max_rounds)
    reduce = vmset_reduce if machine.reception_class == MV else vset_reduce
    pairs = {(trace.states[r - 1][v],
              _received_key(reduce(trace.messages[r - 1][v])))
             for r in range(1, trace.rounds() + 1) for v in graph.nodes
             if not machine.stopping(trace.states[r - 1][v])}
    assert set(calls) == pairs
    assert set(calls.values()) == {1}
    return pairs


def test_set_transition_runs_once_per_distinct_input():
    graph = build_collapsed("g", 3)
    for machine in _sv_machines(3):
        pairs = _assert_transition_runs_once(machine, graph, None, 5)
        assert len(pairs) < 5 * len(graph.nodes)
    rng = random.Random(3)
    graph = random_graph(rng, 14, 3)
    colours = random_colouring(rng, graph)
    for machine in (solve_pi_mv(3), multiset_echo(3)):
        assert _assert_transition_runs_once(machine, graph, colours, 5)


def test_stopped_node_talking_in_a_later_round_is_rejected():
    # Node "a" stops in round 1 and passes the stop-contract probe of its
    # emit; the same emit talks on its next call, in round 2.
    probes = []

    def emit(state, port):
        if state != "halt":
            return "tick"
        probes.append(port)
        return EPSILON if len(probes) <= 2 else "late"

    def transition(state, received):
        return "halt" if state in ("halt", ("run", "B")) else state

    machine = StateMachine("late-talker", 2, SV, lambda deg, inp: ("run", inp),
                           emit, transition, lambda s: s == "halt")
    with pytest.raises(MachineContractError,
                       match="stopped node 'a' emitted 'late' in round 2"):
        execute(machine, two_node_path(), {"a": "B", "b": "W"}, max_rounds=3)


def test_graph_changes_after_a_run_reach_the_next_run():
    # The run plan, with the node partitions kept on it, is kept per graph
    # and degree bound; every edit must drop it, including edits that make
    # the graph unrunnable.
    narrow, wide, echo = canonical_sv(2), canonical_sv(3), multiset_echo(3)
    graph = path_graph(3)  # degrees 1, 2, 1
    for machine in (narrow, wide, echo):
        execute(machine, graph, max_rounds=1)
    graph.add_node(3)
    _assert_matches_reference(wide, graph, None, 3)
    graph.add_edge(2, 3, 2, 1)
    _assert_matches_reference(narrow, graph, None, 3)
    _assert_matches_reference(echo, graph, None, 3)
    trace = execute(wide, graph, max_rounds=1)
    assert trace.messages[0][3] == ((2, trace.states[0][2]), EPSILON, EPSILON)
    graph.add_edge(1, 3, 3, 2)  # node 1 now has degree 3
    with pytest.raises(DegreeBoundError):
        execute(narrow, graph, max_rounds=1)
    _assert_matches_reference(wide, graph, None, 3)
    graph.add_edge(0, 3, 2, 4)  # node 3 writes out-port 4 > delta
    with pytest.raises(NumberingError):
        execute(wide, graph, max_rounds=1)


def test_trace_keeps_the_layout_it_ran_on():
    # The run plan shares the graph's node index, which keeps growing: the
    # trace answers for its own nodes and refuses a later one as unknown.
    graph = path_graph(3)
    trace = execute(canonical_sv(2), graph, max_rounds=2)
    states = [trace.state(2, v) for v in range(3)]
    graph.add_edge(2, 3, 2, 1)
    graph.add_node(4)
    assert set(trace.messages[0]) == set(trace.messages[1]) == {0, 1, 2}
    assert [trace.state(2, v) for v in range(3)] == states
    assert list(trace.states[2]) == [0, 1, 2]
    for v in (3, 4):
        with pytest.raises(KeyError):
            trace.state(2, v)


@pytest.mark.parametrize("machine", [solve_pi_mv(2), canonical_sv(2)])
def test_trace_refuses_negative_rounds(machine):
    # A negative round is not counted from the end, halted run or not.
    trace = execute(machine, two_node_path(), {"a": "B", "b": "W"},
                    max_rounds=2)
    assert trace.state(0, "a") == machine.init(1, "B")
    for r in (-1, -trace.rounds() - 1, -trace.rounds() - 2):
        with pytest.raises(IndexError, match="negative"):
            trace.state(r, "a")


def _counting_emit(machine):
    calls = Counter()

    def emit(state, port):
        calls[state, port] += 1
        return machine.emit(state, port)

    return dataclasses.replace(machine, emit=emit), calls


def _emitted_per_round(trace, graph):
    want = Counter()
    for r in range(1, trace.rounds() + 1):
        want.update({(trace.states[r - 1][u], graph.out_port(u, v))
                     for v in graph.nodes for u in graph.neighbours(v)})
    return want


def test_emit_runs_once_per_distinct_state_and_port():
    mv_count = StateMachine("mv-count", 3, MV, lambda deg, inp: deg,
                            lambda s, p: ("c", s),
                            lambda s, received: sum(received.values()) + s,
                            lambda s: False)
    cases = [(machine, build_collapsed("g", 3)) for machine in _sv_machines(3)]
    cases.append((mv_count, random_graph(random.Random(3), 14, 3)))
    for machine, graph in cases:
        counted, calls = _counting_emit(machine)
        trace = execute(counted, graph, max_rounds=5)
        assert calls == _emitted_per_round(trace, graph)
        assert sum(calls.values()) < 5 * 2 * len(graph.edges())


def test_trace_reads_agree_before_and_after_the_dicts_are_built():
    # state() reads the per-round records directly; states and messages
    # are built from the same records once.
    graph = build_collapsed("g", 2)
    machine = canonical_sv(2)
    trace = execute(machine, graph, max_rounds=3)
    first = trace.state(2, ROOT)
    want_states, want_messages, _ = reference_execute(machine, graph, None, 3)
    messages, states = trace.messages, trace.states
    assert trace.messages is messages and trace.states is states
    assert states[2][ROOT] == first
    assert messages == want_messages and states == want_states
    for r in range(4):
        for v in graph.nodes:
            assert trace.state(r, v) == want_states[r][v]


@pytest.mark.parametrize("machine,stops", [(solve_pi_mv(4), True),
                                           (canonical_sv(4), False)])
def test_trace_reads_match_reference_on_numberings_that_split(machine,
                                                               stops):
    # Random in-labels differ from the out-labels at some edge ends; every
    # read of the per-class records agrees with the reference, past the
    # stop too.
    rng = random.Random(11)
    graph = random_graph(rng, 12, 4)
    assert any(graph.in_port(v, u) != graph.out_port(v, u)
               for v in graph.nodes for u in graph.neighbours(v))
    colouring = random_colouring(rng, graph)
    trace = execute(machine, graph, colouring, max_rounds=3)
    states, messages, stopped_round = reference_execute(
        machine, graph, colouring, 3)
    assert trace.stopped_round == stopped_round == (1 if stops else None)
    assert trace.states == states and trace.messages == messages
    for r in range(1, 6):
        for v in graph.nodes:
            if r < len(states):
                assert trace.state(r, v) == states[r][v]
            elif stops:
                assert trace.state(r, v) == states[-1][v]
            else:
                with pytest.raises(IndexError):
                    trace.state(r, v)
    if stops:
        assert local_outputs(trace) == states[-1]
    else:
        with pytest.raises(DidNotHaltError):
            local_outputs(trace)


def test_stop_contract_is_checked_once_per_stopping_state():
    # Every node of the collapsed hb d=3 tree halts in round 1; the probes
    # of the contract run once per distinct stopping state, not per node.
    machine = solve_pi_mv(5)
    probes = Counter()

    def emit(state, port):
        probes["emit"] += machine.stopping(state)
        return machine.emit(state, port)

    def transition(state, received):
        probes["transition"] += machine.stopping(state)
        return machine.transition(state, received)

    graph = build_collapsed("hb", 3)
    trace = execute(dataclasses.replace(machine, emit=emit,
                                        transition=transition),
                    graph, max_rounds=4)
    assert trace.stopped_round == 1
    halted = set(local_outputs(trace).values())
    assert len(graph.nodes) > 10 * len(halted)
    assert probes == {"emit": 5 * len(halted), "transition": len(halted)}


def test_broken_stopping_state_reached_in_a_round_is_named():
    def stops_into(emit, transition):
        return StateMachine("stops-late", 2, SV, lambda deg, inp: "run",
                            emit, transition, lambda s: s != "run")

    talker = stops_into(lambda s, p: "tick" if s == "run" or p == 2
                        else EPSILON, lambda s, r: "halt")
    with pytest.raises(MachineContractError,
                       match="^stopping state 'halt' emits a message on "
                             "port 2$"):
        execute(talker, path_graph(3), max_rounds=3)
    drifter = stops_into(lambda s, p: EPSILON if s != "run" else "tick",
                         lambda s, r: "halt" if s == "run" else s + "!")
    with pytest.raises(MachineContractError,
                       match="^stopping state 'halt' is not a fixed point$"):
        execute(drifter, path_graph(3), max_rounds=3)


def test_runs_with_different_inputs_on_one_graph_do_not_share_classes():
    rng = random.Random(8)
    graph = random_graph(rng, 24, 3)
    first, second = random_colouring(rng, graph), random_colouring(rng, graph)
    for colours in (first, second, first, None):
        for machine in (canonical_sv(3), solve_pi_mv(3),
                        set_fold_hash(3)):
            if colours is None and machine.input_alphabet is not None:
                continue
            _assert_matches_reference(machine, graph, colours, 4)


def test_machines_of_one_class_share_the_partition_of_a_graph():
    graph = build_collapsed("g", 3)
    plan = graph.run_plan(3)
    execute(canonical_sv(3), graph, max_rounds=5)
    partition = plan.partitions[SV]
    rounds = list(partition.rounds)
    assert len(rounds) == 6
    for machine in _sv_machines(3)[1:]:
        execute(machine, graph, max_rounds=5)
        assert plan.partitions[SV] is partition
    assert partition.rounds == rounds
    assert all(a is b for a, b in zip(partition.rounds, rounds))
    execute(multiset_echo(3), graph, max_rounds=2)
    assert plan.partitions[SV] is partition
    assert plan.partitions[MV] is not partition


def _simulation_draws(seed, cases=50):
    """``(graph, colouring, delta)`` as ``reproduce.simulation_rows`` draws
    its instances: n in 1..40, delta in 1..5, isolated nodes included."""
    rng = random.Random(derive_seed(seed, "simulation-differential"))
    for i in range(cases):
        n = rng.randint(1, 40)
        delta = rng.randint(1, 5)
        graph = random_graph(rng, n, delta)
        colouring = random_colouring(rng, graph)
        if i % 2:
            rng.randint(1, 3)  # the draw of multiset_echo's rounds
        yield graph, colouring, delta


def _refinement_case(case):
    """``(graph, colouring, delta)`` of a named case: a collapsed tree by
    family and parameter, or the i-th of 50 seeded random instances."""
    family, k = case.rsplit("-", 1)
    if family == "random":
        return next(islice(_simulation_draws(0), int(k), None))
    delta = int(k) if family == "g" else node_degree(family, ROOT, int(k))
    return build_collapsed(family, int(k)), None, delta


def _groups_alike(row, labels) -> bool:
    """Whether class ids ``row`` and ``labels``, both in node order, group
    the nodes alike: no class holds two labels, no label two classes."""
    pairs = set(zip(row, labels))
    return len(pairs) == len(set(row)) == len(set(labels))


def _multiset_refinement(graph, colouring, rounds):
    """Per-node colour refinement by (own colour, multiset of (sender's
    colour, sender's out-port)), each round's colours numbered from 0."""
    colour = {v: (graph.degree(v), colouring.get(v)) for v in graph.nodes}
    out = []
    for r in range(rounds + 1):
        if r:
            colour = {v: (colour[v], tuple(sorted(
                (colour[u], graph.out_port(u, v))
                for u in graph.neighbours(v)))) for v in graph.nodes}
        ids = {}
        colour = {v: ids.setdefault(c, len(ids)) for v, c in colour.items()}
        out.append(colour)
    return out


@pytest.mark.parametrize("case", ["g-2", "g-3", "g-4", "hb-2", "hb-3",
                                  "hw-2", "hw-3"]
                         + [f"random-{i}" for i in range(50)])
def test_partition_rows_are_the_view_classes(case):
    # The partition's rows are colour refinement on the port-numbered
    # graph.  Set-reception rows group the nodes as the canonical_sv views
    # of a per-node run do, compared by identity, in every round through
    # 2*delta - 2; multiset-reception rows group them as a per-node
    # multiset refinement does.  A merged or split class fails either.
    graph, colouring, delta = _refinement_case(case)
    rounds = 2 * delta - 2
    plan = graph.run_plan(delta)
    nodes = list(plan.index)
    execute(canonical_sv(delta), graph, colouring, max_rounds=rounds)
    states, _, _ = reference_execute(canonical_sv(delta), graph, colouring,
                                     rounds)
    quiet = StateMachine("quiet-mv", delta, MV, lambda deg, inp: 0,
                         lambda s, p: EPSILON, lambda s, received: s,
                         lambda s: False)
    execute(quiet, graph, colouring, max_rounds=rounds)
    colours = _multiset_refinement(
        graph, graph.colours if colouring is None else colouring, rounds)
    sets, multisets = plan.partitions[SV], plan.partitions[MV]
    for r in range(rounds + 1):
        views = [id(states[r][v]) for v in nodes]
        assert _groups_alike(sets.rounds[r][0], views), r
        assert _groups_alike(multisets.rounds[r][0],
                             [colours[r][v] for v in nodes]), r
