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

A run holds only what its next round needs.  A refinement round cuts
each node's codes from one lazy pass over the slot arrays; a set-reception
run memoises on the frozenset of messages it hands ``transition``; and a
trace keeps, per round, the partition's row of node classes (shared, not
copied) and a tuple of the classes' states.  Per-node states, and the
delivered messages through the machine's ``emit``, are rebuilt from them
when first read.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import cache, cached_property, partial
from itertools import count, islice, repeat
from operator import add, floordiv, sub
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
    and a tuple of the classes' states, class id ``i * (delta + 1)`` at
    position ``i``; ``states`` and ``messages`` are rebuilt from them on
    read.
    """

    def __init__(self, delta: int, plan: RunPlan, emit):
        self.delta = delta
        self.stopped_round: int | None = None
        self._plan = plan
        self._emit = emit
        self._rows: list[tuple[array, tuple]] = []

    def _node_states(self, r: int) -> list:
        """The states of round ``r`` in node order."""
        row, held = self._rows[r]
        return list(map(held.__getitem__,
                        map(floordiv, row, repeat(self.delta + 1))))

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
            return held[row[i] // (self.delta + 1)]
        raise IndexError(f"round {r} is negative or past an unhalted run")


class _Partition:
    """The node classes of every round for one reception class and input.

    Classes are numbered as first seen, in node order; class ``i`` has id
    ``i * (delta + 1)``, stored nowhere, so code ``class id + port`` names
    one (class, out-port) pair, and ``code % (delta + 1)`` is the port; 0
    is the epsilon pad.  ``rounds[r]`` is ``(row, prevs, keys, codes)``:
    each node's class id in round ``r``, an :func:`~svmv.graphs.int_array`
    in node order; each class's round-``r - 1`` class by position, an
    ``int_array`` (empty in round 0); the rest of what fixes a class's
    states, ``(degree, input)`` in round 0, later its pads and received
    codes as one tuple, of distinct codes if ``distinct``; and the distinct
    codes on the graph's edges, a sorted ``int_array`` (none in round 0).

    A round streams: each node's codes are cut from one lazy pass over the
    slots and keyed, with its previous class, as a frozenset (set
    reception) or a sorted tuple (multiset reception), so no per-slot list
    is ever built.
    """

    def __init__(self, plan: RunPlan, inputs: tuple, delta: int,
                 distinct: bool):
        self.inputs, self.distinct, self.width = inputs, distinct, delta + 1
        ids = self._ids()
        row = int_array(list(map(ids.__getitem__,
                                 zip(_degrees(plan), inputs))))
        keys = list(ids)
        self.rounds = [(row, int_array([]), keys, ())]
        # Every pair's code is positive, so a class's pads (0s, one at
        # most for set reception) go in front of its codes.
        self._pads = [(0,) * (min(1, delta - degree) if distinct
                              else delta - degree) for degree, _ in keys]

    def _ids(self) -> defaultdict:
        """Class ids by key, handed out as keys are first looked up."""
        return defaultdict(partial(next, count(0, self.width)))

    def extend(self, plan: RunPlan):
        if len(self.rounds) > 1 and \
                len(self.rounds[-1][2]) == len(self.rounds[-2][2]):
            # Nothing split, so nothing ever will: later rounds repeat this.
            self.rounds.append(self.rounds[-1])
            return
        pads, prev, width = self._pads, self.rounds[-1][0], self.width
        codes = map(add, map(prev.__getitem__, plan.senders), plan.ports)
        got = map(frozenset if self.distinct else _sorted,
                  map(islice, repeat(codes), _degrees(plan)))
        ids = self._ids()
        row = int_array(list(map(ids.__getitem__, zip(prev, got))))
        prevs = int_array([p // width for p, _ in ids])
        self._pads = list(map(pads.__getitem__, prevs))
        self.rounds.append((row, prevs,
                            [pad + tuple(got) for pad, (_, got)
                             in zip(self._pads, ids)],
                            int_array(sorted(set().union(
                                *[got for _, got in ids])))))


def _degrees(plan: RunPlan):
    """Each node's degree, in node order, read off the slot bounds."""
    bounds = plan.bounds
    return map(sub, islice(bounds, 1, None), bounds)


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
    local = (tuple(map(inputs.get, plan.index)) if inputs
             else (None,) * len(plan.index))
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


def _same(value):
    return value


def _rounds(machine, partition, trace, max_rounds):
    """The rounds of a run, stepped per partition class.

    Distinct states get ids that are multiples of ``delta + 1``, state
    ``sid`` at ``states[sid // (delta + 1)]``, so ``state id + out-port``
    names a (state, out-port) pair.  A class's next state is memoised per
    run on (state id, what it received).  For set reception that is the
    frozenset of its messages, passed on as ``received`` as it is; for
    multiset reception, its message ids as a sorted tuple, messages getting
    ids from 0 (epsilon) as first emitted.
    """
    emit, transition, stopping = (machine.emit, machine.transition,
                                  machine.stopping)
    width, plan = partition.width, trace._plan
    delta = machine.delta
    states, state_id, stops = [], {}, set()
    if machine.reception_class == MV:
        reduce, canonical = vmset_reduce, _sorted
        message_of, message_id = [EPSILON], {EPSILON: 0}

        def token(message):
            mid = message_id.get(message)
            if mid is None:
                mid = message_id[message] = len(message_of)
                message_of.append(message)
            return mid

        def received_of(mids):
            return reduce(map(message_of.__getitem__, mids))
    else:
        reduce = canonical = vset_reduce
        token = received_of = _same

    def identify(state):
        sid = state_id.get(state)
        if sid is None:
            sid = state_id[state] = width * len(states)
            states.append(state)
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
    memo, pad = {}, token(EPSILON)
    for r in range(max_rounds + 1):
        if r == len(partition.rounds):
            partition.extend(plan)
        row, prevs, keys, codes = partition.rounds[r]
        if r:
            pairs = [current[c // width] + c % width for c in codes]
            said, loud = dict.fromkeys(pairs), {}
            for pair in said:
                port = pair % width
                m = emit(states[pair // width], port)
                if m is not EPSILON and pair - port in stops:
                    loud[pair] = m
                said[pair] = token(m)
            said_by = dict(zip(codes, map(said.__getitem__, pairs)))
            said_by[0] = pad
            if loud:
                sids = [current[c // width]
                        for c in partition.rounds[r - 1][0]]
                for u, port in zip(plan.senders, plan.ports):
                    if sids[u] + port in loud:
                        raise MachineContractError(
                            f"stopped node {list(plan.index)[u]!r} emitted "
                            f"{loud[sids[u] + port]!r} in round {r}")
            nxt = []
            for prev, got in zip(prevs, keys):
                sid = current[prev]
                if sid not in stops:
                    key = (sid, canonical(map(said_by.__getitem__, got)))
                    sid = memo.get(key)
                    if sid is None:
                        sid = memo[key] = identify(transition(
                            states[key[0] // width], received_of(key[1])))
                nxt.append(sid)
            current = nxt
        trace._rows.append((row, tuple([states[s // width] for s in current])))
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
