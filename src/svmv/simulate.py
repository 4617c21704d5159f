"""Running multiset-reception machines on set-reception hardware.

The wrapper spends 2*delta - 2 rounds gathering full-information views
with ``views.canonical_sv``.  After that phase, any two neighbours of a node
either write different out-ports towards it or hold different views, so
the pair (view, out-port) is a per-neighbour signature.  Relayed messages
carry their sender's signature, so the received set keeps one message per
neighbour, and ``machines.vmset_reduce`` of their payloads, padded with
epsilon to delta, is the multiset the inner machine expects.

The signature premise is audited from outside the machine on every run,
on the states ``canonical_sv`` holds in the last gathering round alone; a
collision raises ``SignatureCollisionError`` instead of silently delivering
wrong multiplicities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from .errors import DidNotHaltError, SignatureCollisionError
from .executor import ExecutionTrace, execute, local_outputs
from .graphs import PortNumberedGraph
from .machines import EPSILON, MV, SV, StateMachine, vmset_reduce
from .views import ViewTree, canonical_sv


def gather_rounds(delta: int) -> int:
    return 2 * delta - 2


@dataclass(frozen=True)
class _Wrapped:
    view: ViewTree
    inner: Any


def mv_by_sv(inner: StateMachine) -> StateMachine:
    """Set-reception machine simulating multiset-reception ``inner``.

    Phase 1 (rounds 1..2*delta-2) runs ``canonical_sv`` on the view; phase
    2 round t plays inner round t, so the total time is the inner time plus
    exactly 2*delta - 2.  The phase is read off ``view.round``.  Once the
    inner machine stops, the wrapper state *is* the inner stopping state,
    making the outputs literally equal.
    """
    if inner.reception_class != MV:
        raise ValueError("inner machine must have reception class mv")
    delta = inner.delta
    phase1 = gather_rounds(delta)
    gather = canonical_sv(delta)

    def wrap(view, inner_state):
        if view.round >= phase1 and inner.stopping(inner_state):
            return inner_state
        return _Wrapped(view, inner_state)

    def init(degree, local_input):
        return wrap(gather.init(degree, local_input),
                    inner.init(degree, local_input))

    def emit(state, port):
        if not isinstance(state, _Wrapped):
            return EPSILON
        if state.view.round < phase1:
            return gather.emit(state.view, port)
        return ("relay", inner.emit(state.inner, port), state.view, port)

    def transition(state, received):
        if not isinstance(state, _Wrapped):
            return state
        if state.view.round < phase1:
            return wrap(gather.transition(state.view, received), state.inner)
        payloads = [m[1] for m in received if m is not EPSILON]
        padded = payloads + [EPSILON] * (delta - len(payloads))
        return wrap(state.view,
                    inner.transition(state.inner, vmset_reduce(padded)))

    def stopping(state):
        return not isinstance(state, _Wrapped) and inner.stopping(state)

    return StateMachine(f"mv-by-sv({inner.name})", delta, SV, init, emit,
                        transition, stopping,
                        input_alphabet=inner.input_alphabet)


def audit_signatures(graph: PortNumberedGraph, colouring: dict | None,
                     delta: int) -> ExecutionTrace:
    """Check the per-neighbour signature premise on a concrete instance.

    Runs the full-information machine for the gathering phase and verifies,
    for every node, that distinct neighbours carry distinct (view, out-port)
    pairs.  Returns the gathering trace; raises on collision.
    """
    phase1 = gather_rounds(delta)
    trace = execute(canonical_sv(delta), graph, colouring,
                    max_rounds=phase1)
    final = {v: trace.state(phase1, v) for v in graph.nodes}
    check_signature_distinctness(graph, final, phase1)
    return trace


def check_signature_distinctness(graph: PortNumberedGraph, states: dict,
                                 rounds: int):
    """Raise unless all neighbours of every node carry distinct signatures."""
    for v in graph.nodes:
        seen: dict = {}
        for u in graph.neighbours(v):
            sig = (states[u], graph.out_port(u, v))
            if sig in seen:
                raise SignatureCollisionError(
                    f"neighbours {seen[sig]!r} and {u!r} of {v!r} share the "
                    f"signature (state, port={sig[1]}) after {rounds} rounds")
            seen[sig] = u


@dataclass
class SimulationReport:
    inner_name: str
    delta: int
    nodes: int
    direct_rounds: int
    simulated_rounds: int
    overhead: int
    outputs_equal: bool
    mismatches: list

    def to_json_dict(self) -> dict:
        return {
            "inner": self.inner_name,
            "delta": self.delta,
            "nodes": self.nodes,
            "direct_rounds": self.direct_rounds,
            "simulated_rounds": self.simulated_rounds,
            "overhead_rounds": self.overhead,
            "outputs_equal": self.outputs_equal,
            "signature_collisions": 0,
            "mismatches": [repr(m) for m in self.mismatches],
        }


def run_simulation(inner: StateMachine, graph: PortNumberedGraph,
                   colouring: dict | None = None, *,
                   max_rounds: int = 64) -> SimulationReport:
    """Differential run: inner machine directly vs through the wrapper.

    The direct run comes first, so its set-up refuses a graph or input the
    machines cannot run on before any round.  The signature audit follows,
    then the direct run must have halted; only then does the wrapper run,
    with the gathering overhead added to the horizon.  Outputs are compared
    node by node and the exact overhead is reported.
    """
    direct = execute(inner, graph, colouring, max_rounds=max_rounds)
    audit_signatures(graph, colouring, inner.delta)
    if direct.stopped_round is None:
        raise DidNotHaltError(
            f"inner machine {inner.name} did not halt within {max_rounds} "
            f"rounds; differential comparison needs outputs")
    phase1 = gather_rounds(inner.delta)
    sim = execute(mv_by_sv(inner), graph, colouring,
                  max_rounds=max_rounds + phase1)
    if sim.stopped_round is None:
        raise DidNotHaltError("simulating wrapper did not halt in time")
    out_direct = local_outputs(direct)
    out_sim = local_outputs(sim)
    mismatches = [v for v in graph.nodes if out_direct[v] != out_sim[v]]
    return SimulationReport(
        inner_name=inner.name,
        delta=inner.delta,
        nodes=len(graph.nodes),
        direct_rounds=direct.stopped_round,
        simulated_rounds=sim.stopped_round,
        overhead=sim.stopped_round - direct.stopped_round,
        outputs_equal=not mismatches,
        mismatches=mismatches,
    )


def multiset_echo(delta: int, rounds: int = 2) -> StateMachine:
    """Multiset-reception probe: snapshot the exact received multiset each
    round, fold it into the state, stop after ``rounds`` rounds.

    Highly multiplicity-sensitive, which is what the differential suite
    needs: any lost multiplicity changes the output.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    def init(degree, local_input):
        return ("echo", 0, (degree, local_input))

    def emit(state, port):
        if state[0] == "echo":
            return ("m", state[2])
        return EPSILON

    def transition(state, received: Counter):
        if state[0] != "echo":
            return state
        snapshot = tuple(sorted((repr(m), n) for m, n in received.items()))
        payload = (state[2], snapshot)
        step = state[1] + 1
        if step >= rounds:
            return ("halt", payload)
        return ("echo", step, payload)

    def stopping(state):
        return state[0] == "halt"

    return StateMachine(f"multiset-echo({rounds})", delta, MV, init, emit,
                        transition, stopping)
