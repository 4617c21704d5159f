"""Compatible and separating walk pairs in the plain tree family.

A walk pair starts at the two depth-1 nodes (1,0) and (2,1) and moves both
walks in lockstep so that the label each new node writes back towards the
previous one agrees across the walks.  Walks may revisit nodes.  A pair
separates when one end has a neighbour whose back-label the other end
cannot match; the shortest separating length is found by breadth-first
search over pair states, with its horizon deepened one step at a time.

Per-label neighbour uniqueness in the generalised numbering makes the
successor of a walk node a function of the back-label alone, so pair states
need no history.  With m moves left to the search horizon, a walk end's
future is fixed by its ``suffix_key`` for radius m + 1 (the last level
still reads back-labels), so the search runs on pairs of keys and keeps
one pair per pair of keys at each level.  Deepening the horizon keeps
these keys as short as the answer allows: the pass that finds the
separating length 2d-3 keys its states for 2d-3 moves, not for the
construction's bound 2d-1.  It never builds a path: the witness is
rebuilt from its label sequence by ``walk_pair_from_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import FormatError, InternalInconsistencyError, ResourceLimitError
from .families import FamilyView, Path, format_path, validate_path

START_1: Path = ((1, 0),)
START_2: Path = ((2, 1),)
DEFAULT_MAX_PAIRS = 50_000_000

PSW = "psw"
PCW = "pcw"
INVALID = "invalid"


@dataclass(frozen=True)
class WalkPair:
    """Two equal-length walks with their shared back-label sequence.

    For separating pairs, ``extension`` is the neighbour of ``walk1``'s end
    whose back-label ``separating_label`` has no match at ``walk2``'s end.
    ``mirrored`` marks a pair whose walks were swapped so that walk1 owns
    the extension; such pairs start at (2,1)/(1,0).
    """

    walk1: tuple[Path, ...]
    walk2: tuple[Path, ...]
    labels: tuple
    separating_label: object = None
    extension: Path | None = None
    mirrored: bool = False


@dataclass(frozen=True)
class VerifyResult:
    status: str
    reason: str | None = None


def successor(view: FamilyView, v: Path, label) -> Path | None:
    """The unique neighbour u of v with label(u -> v) = ``label``, if any.

    Absence is a value, not an error: it is the separation signal.
    """
    return _back_label_map(view, v).get(label)


def _back_label_map(view: FamilyView, v: Path) -> dict:
    """Back-label -> neighbour of ``v``; raises when a label repeats, since
    every search here relies on per-label uniqueness."""
    return _by_label(view.back_edges(v), v, format_path)


def _by_label(edges, node, fmt) -> dict:
    out = {lab: u for u, lab in edges}
    if len(out) != len(edges):
        labels = [lab for _, lab in edges]
        raise InternalInconsistencyError(
            f"neighbours of {fmt(node)} share back-labels {labels}; "
            f"per-label uniqueness is violated")
    return out


def _format_key(key) -> str:
    depth, steps = key
    return f"the depth-{depth} nodes ending {format_path(steps)}"


def find_critical_psw(d: int, max_pairs: int = DEFAULT_MAX_PAIRS
                      ) -> tuple[int, WalkPair]:
    """Minimal separating length in the plain tree for ``d`` plus a witness.

    Breadth-first search over pair states from ((1,0)), ((2,1)); a state is
    separating when the two ends' back-label sets differ (either side may
    own the unmatched label).  A level is scanned whole before it is
    expanded, so the length is minimal.

    The search deepens its horizon h = 1, 2, ... up to 2d-1 (Korf 1985).
    Each pass is a complete search to depth h, so the first pass that
    separates finds the minimal length; aborts loudly if the pass for
    2d-1 finds nothing, which would contradict the construction.  A
    level-j state is the pair of the ends' ``suffix_key`` values for
    radius h - j + 1, the moves left plus the back-labels read at the last
    level, so pairs with the same label futures within the horizon are one
    state and each level keeps a state once.  The search steps from key to
    key with ``FamilyView.key_edges`` and keeps, per state, its parent's
    index and the label that led to it; the witness is rebuilt from those
    labels by ``walk_pair_from_labels``.  ``max_pairs`` caps the states of
    all passes together: 525 at d=4 and 4,067 at d=5.
    """
    if d < 2:
        raise FormatError("d must be >= 2")
    view = FamilyView("g", d)
    states = 0
    for horizon in range(1, 2 * d):
        radius = horizon + 1
        frontier = [(view.suffix_key(START_1, radius),
                     view.suffix_key(START_2, radius))]
        history = []  # per later level: (parent's index, label) per state
        states += 1
        for depth in range(horizon + 1):
            maps = {}
            for key in chain.from_iterable(frontier):
                if key not in maps:
                    maps[key] = _by_label(view.key_edges(key, radius), key,
                                          _format_key)
            level = [(maps[x], maps[y]) for x, y in frontier]
            for i, (m1, m2) in enumerate(level):
                if m1.keys() != m2.keys():
                    labels = []
                    for back in reversed(history):
                        i, label = back[i]
                        labels.append(label)
                    labels.reverse()
                    return depth, walk_pair_from_labels(
                        d, labels, swap=not m1.keys() - m2.keys())
            if depth == horizon:
                break  # no separation within this horizon: deepen
            found = {}  # state -> (parent's index, label), in BFS order
            for i, (m1, m2) in enumerate(level):
                for label in sorted(m1):
                    child = (m1[label], m2[label])
                    if child in found:
                        continue
                    if states >= max_pairs:
                        raise ResourceLimitError(
                            f"pair search exceeded {max_pairs} states "
                            f"(d={view.d})")
                    found[child] = (i, label)
                    states += 1
            if not found:
                raise InternalInconsistencyError(
                    f"pair frontier died out for d={d}")
            frontier = list(found)
            history.append(list(found.values()))
            radius -= 1
    raise InternalInconsistencyError(
        f"no separating pair within depth {2 * d - 1} for d={d}")


def verify_psw(pair: WalkPair, d: int, *,
               allow_mirrored: bool = False) -> VerifyResult:
    """Re-validate a walk pair from scratch against the generation rules.

    Independent of the search: adjacency, labels, the length bound and the
    separation condition are all recomputed.  Mirrored pairs (walks swapped
    so walk1 starts at (2,1)) fail the start condition unless allowed.
    """
    view = FamilyView("g", d)
    w1, w2 = pair.walk1, pair.walk2
    if len(w1) != len(w2) or not w1:
        return VerifyResult(INVALID, "walks empty or of different lengths")
    k = len(w1) - 1
    if len(pair.labels) != k:
        return VerifyResult(INVALID, "label sequence length mismatch")
    starts = (w1[0], w2[0])
    if starts != (START_1, START_2):
        if not (allow_mirrored and starts == (START_2, START_1)):
            return VerifyResult(
                INVALID, "walks must start at (1,0) and (2,1)")
    for walk in (w1, w2):
        for v in walk:
            try:
                validate_path("g", v, d)
            except FormatError as exc:
                return VerifyResult(INVALID, str(exc))
    for j in range(1, k + 1):
        for walk in (w1, w2):
            a, b = walk[j - 1], walk[j]
            if a == b or (b[:-1] != a and a[:-1] != b):
                return VerifyResult(
                    INVALID,
                    f"step {j}: {format_path(a)} and {format_path(b)} "
                    f"are not adjacent")
        lab1 = view.out_label(w1[j], w1[j - 1])
        lab2 = view.out_label(w2[j], w2[j - 1])
        if lab1 != lab2:
            return VerifyResult(
                INVALID, f"step {j}: back-labels differ ({lab1} vs {lab2})")
        if lab1 != pair.labels[j - 1]:
            return VerifyResult(
                INVALID, f"step {j}: recorded label {pair.labels[j - 1]} "
                f"does not match {lab1}")
    if k > 2 * d - 3:
        return VerifyResult(INVALID, f"length {k} exceeds 2d-3 = {2 * d - 3}")
    m1 = _back_label_map(view, w1[-1])
    m2 = _back_label_map(view, w2[-1])
    extra = sorted(set(m1) - set(m2))
    if not extra:
        return VerifyResult(PCW, None)
    if pair.separating_label is not None:
        if pair.separating_label not in extra:
            return VerifyResult(
                INVALID, f"recorded separating label "
                f"{pair.separating_label!r} has a match on walk2")
        if pair.extension is not None and \
                m1.get(pair.separating_label) != pair.extension:
            return VerifyResult(INVALID, "recorded extension node is not the "
                                         "labelled neighbour of walk1's end")
    return VerifyResult(PSW, None)


def walk_pair_from_labels(d: int, labels, *, swap: bool = False) -> WalkPair:
    """Build the unique walk pair following ``labels`` from the two starts.

    Raises ``FormatError`` if some label has no successor on either side.
    """
    view = FamilyView("g", d)
    walks = []
    starts = (START_2, START_1) if swap else (START_1, START_2)
    for start in starts:
        walk = [start]
        for j, label in enumerate(labels, start=1):
            nxt = successor(view, walk[-1], label)
            if nxt is None:
                raise FormatError(
                    f"label {label!r} at step {j} has no successor from "
                    f"{format_path(walk[-1])}")
            walk.append(nxt)
        walks.append(tuple(walk))
    m1 = _back_label_map(view, walks[0][-1])
    m2 = _back_label_map(view, walks[1][-1])
    extra = sorted(set(m1) - set(m2))
    if extra:
        return WalkPair(walks[0], walks[1], tuple(labels),
                        extra[0], m1[extra[0]], swap)
    return WalkPair(walks[0], walks[1], tuple(labels), mirrored=swap)
