"""Deterministic synchronous executor for port-numbered graphs.

One run is a pure function of (machine, graph, input, max_rounds).  Each
round every node's incoming messages are computed from its neighbours'
previous states and out-port labels, padded with epsilon up to the machine's
degree bound, reduced to a set or multiset per the machine's reception
class, and fed to the transition.  ``max_rounds`` is mandatory: there are no
open-ended runs.

Set-reception transitions are memoised per run: each distinct (state,
received set) pair is passed to ``transition`` once, and every node holding
that pair gets the same result.  ``transition`` must therefore be a pure
function and states must be hashable.  Multiset reception calls
``transition`` for every running node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import (DegreeBoundError, DidNotHaltError, MachineContractError,
                     NumberingError)
from .graphs import PortNumberedGraph
from .machines import EPSILON, MV, StateMachine, vmset_reduce, vset_reduce


@dataclass
class ExecutionTrace:
    """Complete record of one synchronous run.

    ``states[r][v]`` is the state of ``v`` in round ``r``.  ``messages[r-1]
    [v]`` is the padded length-delta vector delivered to ``v`` in round
    ``r``, slots ordered by in-port label with epsilon padding at the end.
    ``stopped_round`` is the first round in which every node is stopping, or
    None if ``max_rounds`` ran out first.
    """

    delta: int
    states: list[dict[Any, Any]] = field(default_factory=list)
    messages: list[dict[Any, tuple]] = field(default_factory=list)
    stopped_round: int | None = None

    def rounds(self) -> int:
        return len(self.states) - 1

    def state(self, r: int, v):
        if r < len(self.states):
            return self.states[r][v]
        if self.stopped_round is not None:
            return self.states[-1][v]
        raise IndexError(f"round {r} not recorded and the run did not halt")

    def received(self, r: int, v) -> tuple:
        """Padded message vector delivered to ``v`` in round ``r`` (r >= 1)."""
        if 1 <= r < len(self.states):
            return self.messages[r - 1][v]
        if self.stopped_round is not None and r >= len(self.states):
            return (EPSILON,) * self.delta
        raise IndexError(f"round {r} not recorded")


def execute(machine: StateMachine, graph: PortNumberedGraph,
            colouring: dict | None = None, *,
            max_rounds: int) -> ExecutionTrace:
    """Run ``machine`` on ``graph`` and return the full trace.

    ``colouring`` supplies local inputs; when None the graph's own colouring
    is used and uncoloured nodes get the no-input value ``None``.  The run
    halts at the first globally stopping round or after ``max_rounds``,
    whichever comes first; in the latter case ``stopped_round`` stays unset.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    delta = machine.delta
    if graph.max_degree() > delta:
        raise DegreeBoundError(
            f"graph max degree {graph.max_degree()} exceeds bound {delta}")
    graph.require_runnable(delta)

    inputs = colouring if colouring is not None else graph.colours
    nodes = graph.nodes
    if machine.input_alphabet is not None:
        for v in nodes:
            if inputs.get(v) not in machine.input_alphabet:
                raise NumberingError(
                    f"local input {inputs.get(v)!r} of node {v!r} is outside "
                    f"the machine's input alphabet")

    emit, transition = machine.emit, machine.transition
    stopping = machine.stopping
    # Nodes are addressed by position in ``nodes``.  Per receiver, its
    # (sender position, sender's out-port) slots in in-port order; the
    # in-ports are integers, as ``require_runnable`` checked.
    index = {v: i for i, v in enumerate(nodes)}
    slots = [tuple((index[u], graph.out_port(u, v))
                   for u in sorted(graph.neighbours(v),
                                   key=lambda u, v=v: graph.in_port(v, u)))
             for v in nodes]
    pads = [(EPSILON,) * k for k in range(delta + 1)]
    # Set reception: equal states hearing equal sets move to equal states,
    # so each distinct (state, received) pair is computed once per run.
    # Multisets (Counter) are unhashable and take the direct call.
    memo = None if machine.reception_class == MV else {}

    states = [machine.init(graph.degree(v), inputs.get(v)) for v in nodes]
    stopped = [stopping(state) for state in states]
    for state, halted in zip(states, stopped):
        if halted:
            _check_stop_contract(machine, state, delta)
    any_stopped = any(stopped)
    trace = ExecutionTrace(delta=delta)
    trace.states.append(dict(zip(nodes, states)))
    if all(stopped):
        trace.stopped_round = 0
        return trace

    for r in range(1, max_rounds + 1):
        delivered = []
        for slot in slots:
            msgs = tuple([emit(states[u], port) for u, port in slot])
            if any_stopped:
                for (u, _), m in zip(slot, msgs):
                    if stopped[u] and m is not EPSILON:
                        raise MachineContractError(
                            f"stopped node {nodes[u]!r} emitted {m!r} "
                            f"in round {r}")
            delivered.append(msgs + pads[delta - len(msgs)])
        next_states = []
        for i, state in enumerate(states):
            if stopped[i]:
                next_states.append(state)
                continue
            if memo is None:
                new = transition(state, vmset_reduce(delivered[i]))
                halts = stopping(new)
            else:
                key = (state, frozenset(delivered[i]))
                hit = memo.get(key)
                if hit is None:
                    new = transition(*key)
                    hit = memo[key] = (new, stopping(new))
                new, halts = hit
            if halts:
                _check_stop_contract(machine, new, delta)
                stopped[i] = any_stopped = True
            next_states.append(new)
        states = next_states
        trace.states.append(dict(zip(nodes, states)))
        trace.messages.append(dict(zip(nodes, delivered)))
        if all(stopped):
            trace.stopped_round = r
            break
    return trace


def _check_stop_contract(machine: StateMachine, state, delta: int):
    for port in range(1, delta + 1):
        if machine.emit(state, port) is not EPSILON:
            raise MachineContractError(
                f"stopping state {state!r} emits a message on port {port}")
    idle = (EPSILON,) * delta
    reduce = vmset_reduce if machine.reception_class == MV else vset_reduce
    if machine.transition(state, reduce(idle)) != state:
        raise MachineContractError(
            f"stopping state {state!r} is not a fixed point")


def local_outputs(trace: ExecutionTrace) -> dict:
    """Map each node to its state at the stopping round.

    Raises ``DidNotHaltError`` when the run exhausted ``max_rounds`` without
    every node stopping.
    """
    if trace.stopped_round is None:
        raise DidNotHaltError("did not halt: no global stopping round")
    return dict(trace.states[trace.stopped_round])
