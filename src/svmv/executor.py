"""Deterministic synchronous executor for port-numbered graphs.

One run is a pure function of (machine, graph, input, max_rounds).  Each
round every node's incoming messages are computed from its neighbours'
previous states and out-port labels, padded with epsilon up to the machine's
degree bound, reduced to a set or multiset per the machine's reception
class, and fed to the transition.  ``max_rounds`` is mandatory: there are no
open-ended runs.

Runs step per partition class, not per node.  Round 0 groups the nodes by
(degree, input); round ``r`` splits each class of round ``r - 1`` by the
(sender's class, sender's out-port) pairs on its nodes' in-ports, taken as
a set for set reception and as a multiset for multiset reception.  Nodes of
one class hold equal states in every machine of that reception class, so
the partition is built once per graph, degree bound, reception class and
input, kept on the graph's :class:`~svmv.graphs.RunPlan`, and shared by
later runs.  A run calls ``init`` once per distinct (degree, input),
``emit`` once per distinct (state, out-port) pair in a round and
``transition`` once per distinct (state, received) pair in the run, each
result shared by every node it covers.  ``init``, ``emit`` and
``transition`` must therefore be pure functions, and states and messages
must be hashable.

A trace keeps, per round, the partition's row of node classes (shared,
not copied) and the state of each class; per-node states, and the
delivered messages through the machine's ``emit``, are rebuilt from them
when first read.
"""

from __future__ import annotations

from array import array
from functools import cache, cached_property
from itertools import count
from operator import add
from typing import Any

from .errors import DidNotHaltError, MachineContractError, NumberingError
from .graphs import PortNumberedGraph, RunPlan, int_array
from .machines import EPSILON, MV, StateMachine, vmset_reduce, vset_reduce


class ExecutionTrace:
    """Complete record of one synchronous run.

    ``states[r][v]`` is the state of ``v`` in round ``r``.  ``messages[r-1]
    [v]`` is the padded length-delta vector delivered to ``v`` in round
    ``r``, slots ordered by in-port label with epsilon padding at the end.
    ``stopped_round`` is the first round in which every node is stopping, or
    None if ``max_rounds`` ran out first.

    The run records each round as the partition's row of node classes
    and the state of each class; ``states`` and ``messages`` are rebuilt
    from them on read.
    """

    def __init__(self, delta: int, plan: RunPlan, emit):
        self.delta = delta
        self.stopped_round: int | None = None
        self._plan = plan
        self._emit = emit
        self._rows: list[tuple[array, dict]] = []

    def _node_states(self, r: int) -> list:
        """The states of round ``r`` in node order."""
        row, held = self._rows[r]
        return list(map(held.__getitem__, row))

    @cached_property
    def states(self) -> list[dict[Any, Any]]:
        return [dict(zip(self._plan.index, self._node_states(r)))
                for r in range(len(self._rows))]

    @cached_property
    def messages(self) -> list[dict[Any, tuple]]:
        plan, emit = self._plan, cache(self._emit)  # emit is pure
        pads = [(EPSILON,) * (self.delta - s.stop + s.start)
                for s in plan.slices()]
        out = []
        for r in range(len(self._rows) - 1):
            row = self._node_states(r)
            flat = tuple(map(emit, map(row.__getitem__, plan.senders),
                             plan.ports))
            out.append(dict(zip(plan.index, map(add, map(flat.__getitem__,
                                                         plan.slices()),
                                                     pads))))
        return out

    def rounds(self) -> int:
        return len(self._rows) - 1

    def state(self, r: int, v):
        if r >= 0 and (r < len(self._rows) or self.stopped_round is not None):
            row, held = self._rows[min(r, len(self._rows) - 1)]
            i = self._plan.index[v]
            if i >= len(row):  # v joined the graph after the run
                raise KeyError(v)
            return held[row[i]]
        raise IndexError(f"round {r} is negative or past an unhalted run")


class _Partition:
    """The node classes of every round for one reception class and input.

    Classes are numbered as first seen; class ``i`` has id ``i * (delta +
    1)``, stored nowhere, so code ``class id + port`` names one (class,
    out-port) pair, and ``code % (delta + 1)`` is the port; 0 is the epsilon
    pad.  ``rounds[r]`` is ``(row, prevs, keys, codes)``: each node's class
    id in round ``r``, an :func:`~svmv.graphs.int_array` in node order;
    each class's round-``r - 1`` class by position, an ``int_array`` (empty
    in round 0); the rest of what fixes a class's states, ``(degree,
    input)`` in round 0, later its pads and received codes as one sorted
    tuple, of distinct codes if ``distinct``; and the distinct codes on the
    graph's edges, an ``int_array`` (none in round 0).
    """

    def __init__(self, plan: RunPlan, inputs: tuple, delta: int,
                 distinct: bool):
        self.inputs, self.distinct, self.width = inputs, distinct, delta + 1
        degrees = (s.stop - s.start for s in plan.slices())
        row, keys = self._number(zip(degrees, inputs))
        self.rounds = [(row, int_array([]), keys, ())]
        # Every pair's code is positive, so a class's pads (0s, one at
        # most for set reception) go in front of its sorted codes.
        self._pads = [(0,) * (min(1, delta - degree) if distinct
                              else delta - degree) for degree, _ in keys]

    def extend(self, plan: RunPlan):
        if len(self.rounds) > 1 and \
                len(self.rounds[-1][2]) == len(self.rounds[-2][2]):
            # Nothing split, so nothing ever will: later rounds repeat this.
            self.rounds.append(self.rounds[-1])
            return
        pads, prev, width = self._pads, self.rounds[-1][0], self.width
        codes = list(map(add, map(prev.__getitem__, plan.senders), plan.ports))
        got = map(codes.__getitem__, plan.slices())
        if self.distinct:
            got = map(set, got)
        row, keys = self._number(zip(prev, map(tuple, map(sorted, got))))
        prevs = int_array([p // width for p, _ in keys])
        self._pads = list(map(pads.__getitem__, prevs))
        self.rounds.append((row, prevs,
                            [pad + got for pad, (_, got)
                             in zip(self._pads, keys)],
                            int_array(list(dict.fromkeys(codes)))))

    def _number(self, keys) -> tuple[array, list]:
        """Each node's class and the classes' keys: keys numbered as first
        seen, as they stream in."""
        ids, width = {}, self.width
        return int_array([ids.setdefault(key, width * len(ids))
                          for key in keys]), list(ids)


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
    inputs = colouring if colouring is not None else graph.colours
    local = tuple(map(inputs.get, plan.index))
    if machine.input_alphabet is not None:
        for v, value in zip(plan.index, local):
            if value not in machine.input_alphabet:
                raise NumberingError(
                    f"local input {value!r} of node {v!r} is outside the "
                    f"machine's input alphabet "
                    f"{', '.join(sorted(map(str, machine.input_alphabet)))}")
    # One partition is kept per reception class, for its latest input.
    kind = machine.reception_class
    partition = plan.partitions.get(kind)
    if partition is None or partition.inputs != local:
        partition = plan.partitions[kind] = _Partition(plan, local, delta,
                                                       kind != MV)
    trace = ExecutionTrace(delta, plan, machine.emit)
    _rounds(machine, partition, trace, max_rounds)
    return trace


def _sorted(codes) -> tuple:
    return tuple(sorted(codes))


def _rounds(machine, partition, trace, max_rounds):
    """The rounds of a run, stepped per partition class.

    Distinct states get ids that are multiples of ``delta + 1``, so ``state
    id + out-port`` names a (state, out-port) pair, and distinct messages
    get ids from 0 (epsilon).  A class's next state is memoised per run on
    (state id, its received message ids as a sorted tuple for multiset
    reception, a frozenset for set reception).
    """
    emit, transition, stopping = (machine.emit, machine.transition,
                                  machine.stopping)
    if machine.reception_class == MV:
        reduce, canonical = vmset_reduce, _sorted
    else:
        reduce, canonical = vset_reduce, frozenset
    width, plan = partition.width, trace._plan
    delta = machine.delta
    state_of, state_id, stops = {}, {}, set()
    message_of, message_id = [EPSILON], {EPSILON: 0}

    def identify(state):
        sid = state_id.get(state)
        if sid is None:
            sid = state_id[state] = width * len(state_id)
            state_of[sid] = state
            if stopping(state):
                for port in range(1, delta + 1):
                    if emit(state, port) is not EPSILON:
                        raise MachineContractError(
                            f"stopping state {state!r} emits a message on "
                            f"port {port}")
                if transition(state, reduce((EPSILON,) * delta)) != state:
                    raise MachineContractError(
                        f"stopping state {state!r} is not a fixed point")
                stops.add(sid)
        return sid

    current = [identify(machine.init(*key))
               for key in partition.rounds[0][2]]
    memo = {}
    for r in range(max_rounds + 1):
        if r == len(partition.rounds):
            partition.extend(plan)
        row, prevs, keys, codes = partition.rounds[r]
        if r:
            pairs = [current[c // width] + c % width for c in codes]
            emitted, talked = dict.fromkeys(pairs), False
            for pair in emitted:
                port = pair % width
                m = emit(state_of[pair - port], port)
                mid = message_id.get(m)
                if mid is None:
                    mid = message_id[m] = len(message_of)
                    message_of.append(m)
                emitted[pair] = mid
                talked = talked or (mid and pair - port in stops)
            mid_of = dict(zip(codes, map(emitted.__getitem__, pairs)))
            mid_of[0] = 0
            if talked:
                sids = [current[c // width]
                        for c in partition.rounds[r - 1][0]]
                for u, port in zip(plan.senders, plan.ports):
                    mid = emitted[sids[u] + port]
                    if mid and sids[u] in stops:
                        raise MachineContractError(
                            f"stopped node {list(plan.index)[u]!r} emitted "
                            f"{message_of[mid]!r} in round {r}")
            nxt = []
            for prev, got in zip(prevs, keys):
                sid = current[prev]
                if sid not in stops:
                    key = (sid, canonical(map(mid_of.__getitem__, got)))
                    sid = memo.get(key)
                    if sid is None:
                        received = reduce(map(message_of.__getitem__, key[1]))
                        sid = memo[key] = identify(
                            transition(state_of[key[0]], received))
                nxt.append(sid)
            current = nxt
        held = map(state_of.__getitem__, current)  # class i has id i * width
        trace._rows.append((row, dict(zip(count(0, width), held))))
        if stops.issuperset(current):
            trace.stopped_round = r
            return


def local_outputs(trace: ExecutionTrace) -> dict:
    """Map each node to its state at the stopping round.

    Raises ``DidNotHaltError`` when the run exhausted ``max_rounds`` without
    every node stopping.
    """
    if trace.stopped_round is None:
        raise DidNotHaltError("did not halt: no global stopping round")
    return dict(zip(trace._plan.index,
                    trace._node_states(trace.stopped_round)))
