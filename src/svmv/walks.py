"""Compatible and separating walk pairs in the plain tree family.

A walk pair starts at the two depth-1 nodes (1,0) and (2,1) and moves both
walks in lockstep so that the label each new node writes back towards the
previous one agrees across the walks.  Walks may revisit nodes.  A pair
separates when one end has a neighbour whose back-label the other end
cannot match.

Per-label neighbour uniqueness in the generalised numbering makes a
label sequence fix the pair.  The shortest separating length is one less
than the first round at which the two starts' set-reception views differ,
and descending both views reads a witness's labels, which
``walk_pair_from_labels`` replays into walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, InternalInconsistencyError
from .families import (FamilyView, Path, format_path, require_unique_labels,
                       validate_path)

START_1: Path = ((1, 0),)
START_2: Path = ((2, 1),)
# The largest d a psw search runs for, in a reproduce row or through
# ``svmv psw``: its view memo holds 316,525 entries at d=8 (3.6-4.2 s and
# 125 MiB, measured in README) and about 5M at d=9, some 160 s and 7 GiB
# by an estimate that predates views keeping their children flat.
PSW_D_MAX = 8

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
    """Back-label -> neighbour of ``v``."""
    edges = view.back_edges(v)
    require_unique_labels(format_path(v), [lab for _, lab in edges])
    return {lab: u for u, lab in edges}


def find_critical_psw(d: int) -> tuple[int, WalkPair]:
    """Minimal separating length in the plain tree for ``d`` plus a witness.

    Find the first round R <= 2d-1 at which the set-reception views of
    (1,0) and (2,1), ``FamilyView.view_of``, are different objects.
    Descend both, always along the smallest label whose two children
    differ, until their label sets differ.  The labels read rebuild the
    pair by ``walk_pair_from_labels``, mirrored when (2,1)'s end owns the
    unmatched label.

    Minimality: with unique back-labels, a separating pair of length k
    splits the start views by round k + 1, since the ends' round-1 views
    differ and each shared label carries a difference one round up.  So
    views equal through round R - 1 rule out any pair shorter than the
    R - 1 labels read.  A repeated label in the rule-table entries the
    views read (``FamilyView.require_unique_back_labels``), or no split by
    round 2d-1, raises ``InternalInconsistencyError``.
    """
    view = FamilyView("g", d)
    root, *starts = (view.suffix_key(v, 1) for v in ((), START_1, START_2))
    for r in range(1, 2 * d):
        above = view.view_of(root, None, r - 1)
        v1, v2 = (view.view_of(key, above, r) for key in starts)
        if v1 is not v2:
            break
    view.require_unique_back_labels()
    if v1 is v2:
        raise InternalInconsistencyError(
            f"the start views do not split by round {2 * d - 1} for d={d}")
    labels = []
    m1, m2 = dict(v1.children), dict(v2.children)
    while m1.keys() == m2.keys():
        label = min((lab for lab in m1 if m1[lab] is not m2[lab]),
                    default=None)
        if label is None:
            raise InternalInconsistencyError(
                f"round-{v1.round} views differ in no child (d={d})")
        labels.append(label)
        v1, v2 = m1[label], m2[label]
        m1, m2 = dict(v1.children), dict(v2.children)
    return len(labels), walk_pair_from_labels(
        d, labels, swap=not m1.keys() - m2.keys())


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
    if starts != (START_1, START_2) and not (
            allow_mirrored and starts == (START_2, START_1)):
        return VerifyResult(INVALID, "walks must start at (1,0) and (2,1)")
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
    extra = m1.keys() - _back_label_map(view, w2[-1]).keys()
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
    extra = min(m1.keys() - _back_label_map(view, walks[1][-1]).keys(),
                default=None)
    return WalkPair(walks[0], walks[1], tuple(labels), extra, m1.get(extra),
                    swap)
