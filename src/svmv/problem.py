"""The neighbourhood-majority colour problem.

Every node is coloured black, white or grey and must output one of the
colours of maximum multiplicity among its *neighbours*.  A one-round
multiset machine solves it by broadcasting its own colour and counting; the
checker accepts any argmax, so the solver's fixed tie order is one valid
choice among possibly several.
"""

from __future__ import annotations

from collections import Counter

from .graphs import PALETTE as COLOURS, PortNumberedGraph
from .machines import EPSILON, MV, StateMachine


def solve_pi_mv(delta: int) -> StateMachine:
    """One-round multiset solver: broadcast own colour, pick a colour of
    maximum received multiplicity, ties broken B before W before G.

    An isolated node hears nothing and outputs its own colour; every value
    is acceptable there since the maximum is vacuous.
    """

    def init(degree, colour):
        return ("ready", colour)

    def emit(state, port):
        if state[0] == "ready":
            return state[1]
        return EPSILON

    def transition(state, received: Counter):
        if state[0] != "ready":
            return state
        counts = {c: n for c, n in received.items() if c in COLOURS and n > 0}
        if not counts:
            return ("done", state[1])
        best = max(counts.values())
        winner = min((c for c, n in counts.items() if n == best),
                     key=COLOURS.index)
        return ("done", winner)

    def stopping(state):
        return state[0] == "done"

    return StateMachine("majority-colour-mv", delta, MV, init, emit,
                        transition, stopping,
                        input_alphabet=frozenset(COLOURS))


def output_colour(state) -> str:
    """Project a solver output state to its colour."""
    return state[1]


def pi_allowed(graph: PortNumberedGraph, colouring: dict, v) -> frozenset:
    """Colours acceptable at ``v``: every argmax of the neighbour counts.

    Isolated nodes are unconstrained (vacuous maximum), so all colours pass.
    """
    counts = Counter(colouring[u] for u in graph.neighbours(v))
    if not counts:
        return frozenset(COLOURS)
    best = max(counts.values())
    return frozenset(c for c, n in counts.items() if n == best)


def check_pi(graph: PortNumberedGraph, colouring: dict,
             candidate: dict) -> tuple[bool, dict | None]:
    """Accept iff every node's candidate value attains the maximum neighbour
    colour multiplicity.  Returns the first violation for diagnostics."""
    for v in graph.nodes:
        allowed = pi_allowed(graph, colouring, v)
        value = candidate.get(v)
        if value not in allowed:
            return False, {"node": v, "value": value,
                           "allowed": sorted(allowed)}
    return True, None
