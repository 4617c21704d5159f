"""Hash-consed view trees and the full-information set-reception machine.

A view is everything a set-reception node can possibly know after a number
of rounds: its degree, its local input, and the *set* of (sender out-port,
sender view) pairs it heard in the latest round.  Views are interned, so
structurally equal views are the same object: equality is identity, which
is exact -- there is no hashing shortcut that could collide.

The machine built from views is the coarsest-distinguishing set-reception
machine: two nodes carry equal views in round r exactly when no machine of
the class can have told them apart by round r.  ``simulate.mv_by_sv``
gathers its signatures with it, and ``simulate.audit_signatures`` checks
its states after 2*delta - 2 rounds.
"""

from __future__ import annotations

import hashlib

from .machines import EPSILON, SV, StateMachine

# (degree, input, round) -> {children: view}, keyed on each view's own
# children tuple, so a view costs no second key.
_INTERN: dict = {}


class ViewTree:
    """Immutable interned view.

    ``view`` builds every view, so two structurally equal views are one
    object and the default identity ``==`` and ``hash`` are exact
    structural equality.  ``children`` is a tuple of distinct (port label,
    child view) pairs, sorted by port and, between equal ports, by the
    children's ``<``: an order by ``id``, which is total and fixed while
    the children live, so one pair set has one tuple.  The order differs
    between processes, and nothing but this canonical form reads it.
    ``digest``, a sha256 of the structure, is computed on first read: a
    run fingerprints few of the views it makes.
    """

    __slots__ = ("degree", "input", "round", "children", "_digest")

    def __init__(self, degree, input, round, children):
        self.degree = degree
        self.input = input
        self.round = round
        self.children = children
        self._digest = None

    @property
    def digest(self) -> str:
        got = self._digest
        if got is None:
            payload = ",".join(sorted(f"{label!r}:{child.digest}"
                                      for label, child in self.children))
            blob = f"{self.degree}|{self.input!r}|{self.round}|{payload}"
            got = self._digest = hashlib.sha256(blob.encode()).hexdigest()
        return got

    def __lt__(self, other):
        return id(self) < id(other)

    def __repr__(self):
        return f"View#{self.digest[:12]}(r={self.round})"


def view(degree, input, round, children) -> ViewTree:
    """Interned constructor; ``children`` yields (port label, child view)
    pairs, in any order and with repeats, and is kept as a set: a sorted
    tuple of the distinct pairs.  A tuple with repeats would count them,
    which set reception cannot."""
    children = tuple(sorted(set(children)))
    bucket = _INTERN.get((degree, input, round))
    if bucket is None:
        bucket = _INTERN[degree, input, round] = {}
    got = bucket.get(children)
    if got is None:
        got = bucket[children] = ViewTree(degree, input, round, children)
    return got


def canonical_sv(delta: int) -> StateMachine:
    """Full-information set-reception machine for degree bound ``delta``.

    State is the node's view; the message on port ``j`` is ``(j, view)``.
    It never stops on its own -- callers bound it with ``max_rounds``.
    """

    def init(degree, local_input):
        return view(degree, local_input, 0, ())

    def emit(state, port):
        return (port, state)

    def transition(state, received):
        return view(state.degree, state.input, state.round + 1,
                    received.difference((EPSILON,)))

    return StateMachine("canonical-sv", delta, SV, init, emit, transition,
                        lambda s: False)
