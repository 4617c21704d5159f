"""Distributed state machines and their reception-class reductions.

Machines are anonymous and deterministic: a node is initialised from its
degree and local input, then exchanges messages in synchronous rounds.  A
machine never sees the incoming message vector itself -- the executor hands
it the set of distinct messages (class ``sv``) or the message multiset
(class ``mv``), so order-dependence is impossible by construction.

States and messages are opaque hashable values; nothing here inspects them
beyond equality and hashing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from .util import stable_fingerprint

SV = "sv"
MV = "mv"


class _Epsilon:
    """Type of the one "no message" value, :data:`EPSILON`, compared with
    ``is``; its repr ``eps`` enters theorem 1's message fingerprints."""

    def __repr__(self):
        return "eps"


EPSILON = _Epsilon()


def vset_reduce(msgs) -> frozenset:
    """Collapse a padded message vector to its set of distinct entries."""
    return frozenset(msgs)


def vmset_reduce(msgs) -> Counter:
    """Collapse a padded message vector to entry counts (a multiset)."""
    return Counter(msgs)


@dataclass(frozen=True)
class StateMachine:
    """A distributed state machine with a declared reception class.

    ``init(degree, local_input)`` yields the starting state.  ``emit(state,
    port)`` builds the message for out-port ``port`` in ``1..delta`` and must
    return :data:`EPSILON` for stopping states.  ``transition(state,
    received)`` gets a ``frozenset`` for class ``sv`` and a ``Counter`` whose
    counts sum to ``delta`` for class ``mv``; stopping states must be fixed
    points.  ``input_alphabet``, when given, is enforced by the executor.

    The executor steps a run per class of nodes with equal views: it calls
    ``init`` once per distinct (degree, input), ``emit`` once per distinct
    (state, port) pair in a round and ``transition`` once per distinct
    (state, received) pair in a run, so all three must be pure.
    """

    name: str
    delta: int
    reception_class: str
    init: Callable[[int, Any], Any]
    emit: Callable[[Any, int], Any]
    transition: Callable[[Any, Any], Any]
    stopping: Callable[[Any], bool]
    input_alphabet: frozenset | None = None

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be a positive integer")
        if self.reception_class not in (SV, MV):
            raise ValueError(f"unknown reception class {self.reception_class!r}")


def set_fold_hash(delta: int) -> StateMachine:
    """Set-reception probe: fold each round's distinct messages into a
    running fingerprint chain and broadcast it."""

    def init(degree, local_input):
        return ("fold", stable_fingerprint((degree, local_input)))

    def emit(state, port):
        return ("f", state[1])

    def transition(state, received):
        seen = tuple(sorted(stable_fingerprint(m) for m in received))
        return ("fold", stable_fingerprint((state[1], seen)))

    return StateMachine("set-fold-hash", delta, SV, init, emit, transition,
                        lambda s: False)


def parity_probe(delta: int) -> StateMachine:
    """Set-reception probe: a parity bit driven by the distinct bits heard."""

    def init(degree, local_input):
        return degree % 2

    def emit(state, port):
        return ("p", state)

    def transition(state, received):
        bits = {m[1] for m in received if m is not EPSILON}
        return (state + sum(bits)) % 2

    return StateMachine("parity-probe", delta, SV, init, emit, transition,
                        lambda s: False)


def degree_echo(delta: int) -> StateMachine:
    """Set-reception probe: broadcast the state, keep the received set."""

    def init(degree, local_input):
        return degree

    def emit(state, port):
        return ("d", state)

    def transition(state, received):
        return frozenset(received)

    return StateMachine("degree-echo", delta, SV, init, emit, transition,
                        lambda s: False)


# Ad-hoc set-reception machines used to cross-check experiments beyond the
# full-information machine.
AD_HOC_SV_MACHINES = {
    "set-fold-hash": set_fold_hash,
    "parity-probe": parity_probe,
    "degree-echo": degree_echo,
}
