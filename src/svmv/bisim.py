"""Radius-bounded bisimilarity of pointed, coloured, port-numbered graphs.

Two pointed instances are 0-bisimilar when the points agree on degree and
local input.  For radius r >= 1 they must additionally match neighbours in
both directions: every neighbour w of one point needs a neighbour w' of the
other with the same outgoing label back towards the point and (r-1)-bisimilar
to w.  The matching is an independent existence check per neighbour, not a
perfect matching: the definition quantifies each neighbour separately.

Generalised numberings are fine -- only the labels written towards the
points matter.  Graph backends may be lazy (family trees) or materialised;
a materialised backend raises instead of answering from a truncated ball.

Both queries run one recursion that returns the largest radius that holds,
capped by a budget: ``max_bisim_radius`` descends once with budget ``cap``,
and ``bisimilar`` asks whether radius r is reached, so it returns at the
first neighbour without a good enough match.  A memo miss matches both
directions in one pass over the two neighbour lists: a neighbour of the
second point that an exact pair result from the first direction already
matches is not asked about again.

The recursion runs on suffix keys, not nodes, and reads a backend through
three calls only.  ``suffix_key(v, r)`` is the part of a node that fixes
its radius-r ball; the two points are keyed once, at the top.  From there
on ``key_edges(key, r)`` gives the labelled neighbours as their keys for
r - 1, trimmed to the budget of the call they are passed to, and
``key_local(key)`` the degree and local input.  Two equal keys of one
backend hold for the whole budget.  A pair's memo entry is keyed by the two
keys and holds an interval of radii, so pairs with isomorphic balls and all
radii of one pair share an entry.  Bisimilarity is symmetric, so on one
backend a pair of keys and its mirror share one entry as well: a miss looks
up the swapped keys before it matches, and each unordered pair is settled
once.  A pair on two backends keeps its ordered key.

Equal keys arrive as fresh tuples from every ``key_edges`` call, so the
cache stores each key and each interval once: an entry takes the stored
copies of its two keys when it is first written, and every written
interval is the stored copy.  Lookups store nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any

from .errors import BallExhaustedError
from .graphs import PortNumberedGraph


class MaterializedView:
    """Bisimilarity backend over an explicit graph: the three calls only.

    Degrees come from the declared (pre-truncation) values; the edges of a
    truncated boundary node raise ``BallExhaustedError`` so a short ball can
    never produce a wrong answer.  An explicit graph has no locality rule,
    so a node is its own suffix key at every radius.
    """

    def __init__(self, graph: PortNumberedGraph):
        self.graph = graph

    def suffix_key(self, v, radius: int):
        return v

    def key_edges(self, v, radius: int):
        graph = self.graph
        if graph.degree(v) != graph.declared_degree(v):
            raise BallExhaustedError(
                f"node {v!r} is truncated ({graph.degree(v)} of "
                f"{graph.declared_degree(v)} edges materialised)")
        return [(u, graph.out_port(u, v)) for u in graph.neighbours(v)]

    def key_local(self, v):
        return self.graph.declared_degree(v), self.graph.colours.get(v)


@dataclass(frozen=True)
class PointedInstance:
    """A graph backend plus a distinguished node."""

    view: Any
    point: Any


@dataclass
class BisimCache:
    """Interval memo of bisimilarity radii, shared by the queries of one task.

    A key is ``(view_a, view_b, key_a, key_b)``: the two backends
    themselves (hashed by identity; the cache keeps them alive, so a later
    backend cannot take a cached one's id) and each point's ``suffix_key``
    for the radius budget of the call.  Points with equal keys have
    isomorphic balls within that budget, so they share one entry.  On one
    backend the entry of ``key_a, key_b`` also answers ``key_b, key_a``,
    so there is one entry per unordered pair of keys, in the order it was
    first stored.  The value is the interval ``(held, failed)``: the
    largest radius known to hold and the smallest radius known to fail
    (``inf`` while unknown).
    ``_stored`` maps each key and each interval to the one copy the memo
    holds: an entry's keys come from it only when the entry is first
    written, and its interval whenever it is written.
    One entry serves every radius, which assumes downward closure
    (r-bisimilar implies (r-1)-bisimilar); the monotonicity suite still
    checks that closure from outside, with a fresh cache per query.
    """

    memo: dict = field(default_factory=dict)
    _stored: dict = field(default_factory=dict, init=False, repr=False)


_UNKNOWN = (-1, inf)


def bisimilar(a: PointedInstance, b: PointedInstance, r: int,
              cache: BisimCache | None = None) -> bool:
    """Decide r-bisimilarity of two pointed instances.

    Stops at the first neighbour without an (r-1)-bisimilar match.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    if cache is None:
        cache = BisimCache()
    return _radius(a.view, a.view.suffix_key(a.point, r), b.view,
                   b.view.suffix_key(b.point, r), r, r, cache.memo,
                   cache._stored) == r


def max_bisim_radius(a: PointedInstance, b: PointedInstance, cap: int,
                     cache: BisimCache | None = None) -> int | None:
    """Largest r <= cap with the instances r-bisimilar.

    Returns None when every radius up to ``cap`` holds (read: ">= cap"),
    and -1 when the points are not even 0-bisimilar.
    """
    if cap < 0:
        raise ValueError("radius cap must be >= 0")
    if cache is None:
        cache = BisimCache()
    got = _radius(a.view, a.view.suffix_key(a.point, cap), b.view,
                  b.view.suffix_key(b.point, cap), cap, 0, cache.memo,
                  cache._stored)
    return None if got == cap else got


def _radius(va, x, vb, y, budget, floor, memo, stored) -> int:
    """``min(largest bisimilarity radius of x and y, budget)`` if that is
    at least ``floor``; otherwise some ``r < floor`` with radius r+1
    failing.  ``x`` and ``y`` are suffix keys for ``budget``.  Needs
    ``floor <= budget``: a capped answer below ``floor`` would be stored
    as a failure.

    A lower ``floor`` asks for more exactness: the top of a
    ``max_bisim_radius`` query passes 0, ``bisimilar(.., r)`` passes r and
    so returns as soon as one neighbour falls short.  A memo miss makes
    one ``_match`` call, which settles both directions.  On one backend the
    entry is found, and written, under either order of the two keys.  A new
    entry's keys, and every written interval, are the copies in ``stored``.
    """
    key = (va, vb, x, y)
    entry = memo.get(key)
    if entry is None and va is vb:
        if x == y:
            return budget
        mirror = (va, vb, y, x)
        entry = memo.get(mirror)
        if entry is not None:
            key = mirror
    held, failed = _UNKNOWN if entry is None else entry
    if held >= budget:
        return budget
    if failed <= budget and (failed == held + 1 or failed <= floor):
        return failed - 1
    # A known failure caps the search; the answer below it is the same.
    cap = budget if failed > budget else failed - 1
    if va.key_local(x) != vb.key_local(y):
        got = -1
    elif cap == 0:
        got = 0
    else:
        got = _match(va, x, vb, y, cap, floor, memo, stored)
    if got >= floor:
        held = max(held, got)
        if got < cap:
            failed = got + 1
    else:
        failed = min(failed, got + 1)
    if entry is None:
        if va is vb and mirror in memo:
            # A cycle through the mirror stored it during the match; this
            # result overwrites it, as it would an entry under ``key``.
            key = mirror
        else:
            key = va, vb, stored.setdefault(x, x), stored.setdefault(y, y)
    interval = held, failed
    memo[key] = stored.setdefault(interval, interval)
    return got


def _match(va, x, vb, y, cap, floor, memo, stored) -> int:
    """Lower ``cap`` to one more than the worst neighbour's best match.

    Each neighbour of ``x``, then of ``y``, is matched against the equally
    labelled neighbours of the other point until a match reaches
    ``cap - 1``; the scan stops once ``cap`` drops below ``floor`` or to 0.
    Neighbour keys are for ``cap - 1``, read again whenever ``cap`` drops,
    so a memo key is never longer than its budget needs.

    ``top[j]`` is the best exact result the ``x`` side got for neighbour
    ``j`` of ``y`` (a re-read keeps the order), so the ``y`` side asks
    nothing once it reaches ``cap - 1``.  A call that returned at least its
    ``need`` returned ``min(radius, budget)``, which holds at every lower
    ``cap``; a lower return only bounds the radius from above.  The inner
    loops run once per neighbour pair, so they compare and count in place
    of calling ``max``, ``min`` and ``enumerate``.
    """
    ea, eb, at = va.key_edges(x, cap), vb.key_edges(y, cap), cap
    top = [-1] * len(eb)
    low = floor - 1
    for i in range(len(ea)):
        if cap < floor or cap == 0:
            return cap
        if cap < at:
            ea, eb, at = va.key_edges(x, cap), vb.key_edges(y, cap), cap
        w, lab = ea[i]
        sub = cap - 1
        best = -1
        need = low if low > 0 else 0
        j = -1
        for w2, lab2 in eb:
            j += 1
            if lab2 == lab:
                got = _radius(va, w, vb, w2, sub, need, memo, stored)
                if got >= need and got > top[j]:
                    top[j] = got
                if got > best:
                    best = got
                    if best >= sub:
                        break
                    need = best + 1 if best >= low else low
        if best < sub:
            cap = best + 1
    for j in range(len(eb)):
        best = top[j]
        if best >= cap - 1:
            continue
        if cap < floor or cap == 0:
            return cap
        if cap < at:
            ea, eb, at = va.key_edges(x, cap), vb.key_edges(y, cap), cap
        w2, lab = eb[j]
        sub = cap - 1
        need = best + 1 if best >= low else low
        for w, lab2 in ea:
            if lab2 == lab:
                got = _radius(va, w, vb, w2, sub, need, memo, stored)
                if got > best:
                    best = got
                    if best >= sub:
                        break
                    need = best + 1 if best >= low else low
        if best < sub:
            cap = best + 1
    return cap
