"""Deterministic synchronous executor for port-numbered graphs.

One run is a pure function of (machine, graph, input, max_rounds).  Each
round every node's incoming messages are computed from its neighbours'
previous states and out-port labels, padded with epsilon up to the machine's
degree bound, reduced to a set or multiset per the machine's reception
class, and fed to the transition.  ``max_rounds`` is mandatory: there are no
open-ended runs.

Both reception classes are stepped per distinct value: each round calls
``emit`` once per distinct (state, out-port) pair on the graph's edges, and
each distinct (state, received) pair is passed to ``transition`` once per
run, every node holding that pair getting the same result.  ``emit`` and
``transition`` must therefore be pure functions, and states and messages
must be hashable.

The graph's :class:`~svmv.graphs.RunPlan` fixes the node order and the flat
per-edge message layout.  Each round fills one flat message list in that
layout; the trace keeps it with the round's states in node order and builds
per-node dicts only when they are read.
"""

from __future__ import annotations

from operator import add
from typing import Any

from .errors import DidNotHaltError, MachineContractError, NumberingError
from .graphs import PortNumberedGraph, RunPlan
from .machines import EPSILON, MV, StateMachine, vmset_reduce, vset_reduce


class ExecutionTrace:
    """Complete record of one synchronous run.

    ``states[r][v]`` is the state of ``v`` in round ``r``.  ``messages[r-1]
    [v]`` is the padded length-delta vector delivered to ``v`` in round
    ``r``, slots ordered by in-port label with epsilon padding at the end.
    ``stopped_round`` is the first round in which every node is stopping, or
    None if ``max_rounds`` ran out first.

    The run records each round's states in node order and its flat
    per-edge message list (laid out by the graph's :class:`RunPlan`);
    ``states`` and ``messages`` are built from those on first read, while
    :meth:`state` and :meth:`received` read them directly.
    """

    def __init__(self, delta: int, plan: RunPlan):
        self.delta = delta
        self.stopped_round: int | None = None
        self._plan = plan
        self._rows: list[list] = []
        self._flat: list[list] = []
        self._states: list[dict[Any, Any]] | None = None
        self._messages: list[dict[Any, tuple]] | None = None

    @property
    def states(self) -> list[dict[Any, Any]]:
        if self._states is None:
            nodes = self._plan.nodes
            self._states = [dict(zip(nodes, row)) for row in self._rows]
        return self._states

    @property
    def messages(self) -> list[dict[Any, tuple]]:
        if self._messages is None:
            nodes, gathers = self._plan.nodes, self._plan.gathers
            self._messages = [dict(zip(nodes, [gather(flat)
                                               for gather in gathers]))
                              for flat in self._flat]
        return self._messages

    def rounds(self) -> int:
        return len(self._rows) - 1

    def state(self, r: int, v):
        if r < len(self._rows):
            return self._rows[r][self._plan.index[v]]
        if self.stopped_round is not None:
            return self._rows[-1][self._plan.index[v]]
        raise IndexError(f"round {r} not recorded and the run did not halt")

    def received(self, r: int, v) -> tuple:
        """Padded message vector delivered to ``v`` in round ``r`` (r >= 1)."""
        if 1 <= r < len(self._rows):
            return self._plan.gathers[self._plan.index[v]](self._flat[r - 1])
        if self.stopped_round is not None and r >= len(self._rows):
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
    plan = graph.run_plan(delta)
    nodes = plan.nodes
    inputs = colouring if colouring is not None else graph.colours
    if machine.input_alphabet is not None:
        for v in nodes:
            if inputs.get(v) not in machine.input_alphabet:
                raise NumberingError(
                    f"local input {inputs.get(v)!r} of node {v!r} is outside "
                    f"the machine's input alphabet")

    states = [machine.init(degree, inputs.get(v))
              for v, degree in zip(nodes, plan.degrees)]
    stopped = [machine.stopping(state) for state in states]
    if machine.reception_class == MV:
        canonical, reduce = _sorted_ids, vmset_reduce
    else:
        canonical, reduce = frozenset, vset_reduce
    for state, halted in zip(states, stopped):
        if halted:
            _check_stop_contract(machine, state, delta, reduce)
    trace = ExecutionTrace(delta, plan)
    trace._rows.append(states)
    if all(stopped):
        trace.stopped_round = 0
    else:
        _rounds(machine, plan, states, stopped, trace, max_rounds,
                canonical, reduce)
    return trace


def _sorted_ids(ids) -> tuple:
    return tuple(sorted(ids))


def _rounds(machine, plan, states, stopped, trace, max_rounds,
            canonical, reduce):
    """The synchronous rounds of a run, stepped per distinct value.

    Distinct states and distinct messages get integer ids.  A state's id is
    a multiple of ``delta + 1``, so ``state id + out-port`` names one
    (state, out-port) pair and ``emit`` runs once per distinct pair in a
    round.  ``canonical`` turns a node's padded vector of message ids into
    a key for what it receives (a set of ids for set reception, the sorted
    ids for multiset reception) and ``reduce`` turns the key's messages
    into ``transition``'s argument.  A node's next state is memoised per
    run on (state id, key), so ``transition`` runs once per distinct
    (state, received) pair.
    """
    emit, transition = machine.emit, machine.transition
    stopping = machine.stopping
    senders, ports = plan.senders, plan.ports
    width = trace.delta + 1
    state_of, state_id = {}, {}
    message_of, message_id = [EPSILON], {EPSILON: 0}

    def identify(state):
        sid = state_id.get(state)
        if sid is None:
            sid = state_id[state] = width * len(state_id)
            state_of[sid] = state
        return sid

    sids = list(map(identify, states))
    memo = {}
    any_stopped = any(stopped)
    for r in range(1, max_rounds + 1):
        pairs = list(map(add, map(sids.__getitem__, senders), ports))
        emitted = dict.fromkeys(pairs)
        for pair in emitted:
            port = pair % width
            m = emit(state_of[pair - port], port)
            mid = message_id.get(m)
            if mid is None:
                mid = message_id[m] = len(message_of)
                message_of.append(m)
            emitted[pair] = mid
        flat = list(map(emitted.__getitem__, pairs))
        delivered = list(map(message_of.__getitem__, flat))
        if any_stopped:
            _check_stopped_senders(plan, stopped, delivered, r)
        flat.append(0)
        delivered.append(EPSILON)
        next_sids = []
        for i, (sid, gather) in enumerate(zip(sids, plan.gathers)):
            if stopped[i]:
                next_sids.append(sid)
                continue
            key = (sid, canonical(gather(flat)))
            hit = memo.get(key)
            if hit is None:
                received = reduce(map(message_of.__getitem__, key[1]))
                new = transition(state_of[sid], received)
                hit = memo[key] = (identify(new), stopping(new))
            new_sid, halts = hit
            if halts:
                _check_stop_contract(machine, state_of[new_sid], trace.delta,
                                     reduce)
                stopped[i] = any_stopped = True
            next_sids.append(new_sid)
        sids = next_sids
        trace._rows.append(list(map(state_of.__getitem__, sids)))
        trace._flat.append(delivered)
        if all(stopped):
            trace.stopped_round = r
            return


def _check_stopped_senders(plan, stopped, flat, r):
    for u, m in zip(plan.senders, flat):
        if stopped[u] and m is not EPSILON:
            raise MachineContractError(
                f"stopped node {plan.nodes[u]!r} emitted {m!r} in round {r}")


def _check_stop_contract(machine: StateMachine, state, delta: int, reduce):
    for port in range(1, delta + 1):
        if machine.emit(state, port) is not EPSILON:
            raise MachineContractError(
                f"stopping state {state!r} emits a message on port {port}")
    if machine.transition(state, reduce((EPSILON,) * delta)) != state:
        raise MachineContractError(
            f"stopping state {state!r} is not a fixed point")


def local_outputs(trace: ExecutionTrace) -> dict:
    """Map each node to its state at the stopping round.

    Raises ``DidNotHaltError`` when the run exhausted ``max_rounds`` without
    every node stopping.
    """
    if trace.stopped_round is None:
        raise DidNotHaltError("did not halt: no global stopping round")
    return dict(zip(trace._plan.nodes, trace._rows[trace.stopped_round]))
