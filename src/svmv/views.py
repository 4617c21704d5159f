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

# (degree, input, round) -> {flat children: view}, keyed on each view's
# own flat tuple, so a view costs no second key.
_INTERN: dict = {}


class ViewTree:
    """Immutable interned view.

    ``view`` builds every view, so two structurally equal views are one
    object and the default identity ``==`` and ``hash`` are exact
    structural equality.  ``flat`` lays the distinct (port label, child
    view) pairs end to end, so a run's messages die with it, sorted by port
    and, between equal ports, by the children's ``<``: an order by ``id``,
    total and fixed while the children live, so one pair set has one tuple.
    The order differs between processes, and nothing but this canonical
    form reads it.  ``children`` pairs ``flat`` up on read.  ``digest``, a
    sha256 of the structure, and ``restrict()`` are kept from a first read.
    """

    __slots__ = ("degree", "input", "round", "flat", "_digest", "_restriction")

    def __init__(self, degree, input, round, flat):
        self.degree = degree
        self.input = input
        self.round = round
        self.flat = flat
        self._digest = self._restriction = None

    @property
    def children(self) -> tuple:
        return tuple(zip(self.flat[::2], self.flat[1::2]))

    @property
    def digest(self) -> str:
        got = self._digest
        if got is None:
            payload = ",".join(sorted(f"{label!r}:{child.digest}"
                                      for label, child in self.children))
            blob = f"{self.degree}|{self.input!r}|{self.round}|{payload}"
            got = self._digest = hashlib.sha256(blob.encode()).hexdigest()
        return got

    def restrict(self) -> ViewTree:
        """The round-``r - 1`` view inside this round-``r`` view, r >= 1;
        that of a round-1 view is its bare degree and input."""
        got = self._restriction
        if got is None:
            got = self._restriction = view(
                self.degree, self.input, self.round - 1,
                () if self.round == 1 else
                [(label, child.restrict()) for label, child in self.children])
        return got

    def __lt__(self, other):
        return id(self) < id(other)

    def __repr__(self):
        return f"View#{self.digest[:12]}(r={self.round})"


def view(degree, input, round, children) -> ViewTree:
    """Interned constructor; ``children`` yields (port label, child view)
    pairs, in any order and with repeats, and is kept as a set: the
    distinct pairs, sorted and laid flat.  A tuple with repeats would count
    them, which set reception cannot."""
    # Adding up at most degree-many pairs beats an itertools.chain.
    flat = sum(sorted(set(children)), ())
    bucket = _INTERN.get((degree, input, round))
    if bucket is None:
        bucket = _INTERN[degree, input, round] = {}
    got = bucket.get(flat)
    if got is None:
        got = bucket[flat] = ViewTree(degree, input, round, flat)
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
