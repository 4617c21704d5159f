import pytest

from oracles import brute_critical_length
from svmv.bisim import PointedInstance, max_bisim_radius
from svmv.errors import FormatError, InternalInconsistencyError
from svmv.families import FamilyView, ROOT
from svmv.walks import (INVALID, PCW, PSW, WalkPair, find_critical_psw,
                        successor, verify_psw, walk_pair_from_labels)

U, W = ((1, 0),), ((2, 1),)


def test_successor_examples_d5():
    view = FamilyView("g", 5)
    child = successor(view, U, 2)
    assert child == ((1, 0), (2, 2))
    assert successor(view, W, 2) == ROOT
    leaf = ((1, 0), (2, 2), (1, 0), (2, 2))
    view2 = FamilyView("g", 2)
    assert successor(view2, leaf, 2) == leaf[:-1]
    assert successor(view2, leaf, 1) is None


@pytest.mark.parametrize("d,expected", [(2, 1), (3, 3), (4, 5), (5, 7)])
def test_critical_lengths(d, expected):
    k, witness = find_critical_psw(d)
    assert k == expected
    assert verify_psw(witness, d, allow_mirrored=True).status == PSW


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_critical_length_matches_brute_enumeration(d):
    assert brute_critical_length(d, 2 * d - 1) == find_critical_psw(d)[0]


def test_paper_style_witness_labels_d5():
    pair = walk_pair_from_labels(5, (2, 2, 3, 3, 4, 4, 5))
    result = verify_psw(pair, 5)
    assert result.status == PSW
    assert pair.separating_label == 5
    assert pair.extension is not None


def test_truncated_witness_is_merely_compatible():
    d = 4
    _, witness = find_critical_psw(d)
    trimmed = WalkPair(witness.walk1[:-1], witness.walk2[:-1],
                       witness.labels[:-1])
    assert verify_psw(trimmed, d, allow_mirrored=True).status == PCW


def test_swapped_starts_reading():
    pair = walk_pair_from_labels(2, (1,), swap=True)
    assert verify_psw(pair, 2).status == INVALID
    assert verify_psw(pair, 2, allow_mirrored=True).status == PSW


def test_over_long_pair_rejected():
    # Extend the critical witness by one shared label: still label-matched,
    # but length 4 exceeds the compatible-walk bound 2d-3 = 3.
    d = 3
    _, witness = find_critical_psw(d)
    view = FamilyView("g", d)
    m1 = {lab: u for u, lab in view.back_edges(witness.walk1[-1])}
    m2 = {lab: u for u, lab in view.back_edges(witness.walk2[-1])}
    shared = sorted(set(m1) & set(m2))[0]
    pair = WalkPair(witness.walk1 + (m1[shared],),
                    witness.walk2 + (m2[shared],),
                    witness.labels + (shared,))
    result = verify_psw(pair, d, allow_mirrored=True)
    assert result.status == INVALID
    assert "exceeds" in result.reason


def test_bad_label_sequence_has_no_walks():
    with pytest.raises(FormatError):
        walk_pair_from_labels(2, (1, 1, 1, 1, 1))


def test_corrupted_labels_detected():
    pair = walk_pair_from_labels(3, (1, 1, 2))
    forged = WalkPair(pair.walk1, pair.walk2, (1, 2, 2),
                      pair.separating_label, pair.extension)
    assert verify_psw(forged, 3).status == INVALID


@pytest.mark.parametrize("d", [3, 4])
def test_critical_witness_prefix_separates_one_parameter_down(d):
    _, witness = find_critical_psw(d)
    trimmed = WalkPair(witness.walk1[:-2], witness.walk2[:-2],
                       witness.labels[:-2])
    assert verify_psw(trimmed, d - 1, allow_mirrored=True).status == PSW


@pytest.mark.parametrize("d", [2, 3, 4])
def test_extension_law_two_steps_per_parameter(d):
    assert find_critical_psw(d + 1)[0] == find_critical_psw(d)[0] + 2


@pytest.mark.parametrize("d", [2, 3])
def test_critical_length_equals_bisimilarity_radius(d):
    view = FamilyView("g", d)
    radius = max_bisim_radius(PointedInstance(view, U),
                              PointedInstance(view, W), cap=2 * d)
    assert find_critical_psw(d)[0] == radius


def test_duplicate_back_label_is_an_internal_error(monkeypatch):
    # The last neighbour of every node writes the first one's label, so a
    # label no longer names one neighbour and the witness replay, which
    # steps on paths, must stop.
    back_edges = FamilyView.back_edges

    def repeated(self, v):
        edges = back_edges(self, v)
        if len(edges) > 1:
            edges[-1] = (edges[-1][0], edges[0][1])
        return edges

    monkeypatch.setattr(FamilyView, "back_edges", repeated)
    with pytest.raises(InternalInconsistencyError):
        find_critical_psw(3)


def test_duplicate_back_label_stops_the_view_search(monkeypatch):
    # The same fault in the rule table stops the search itself, naming the
    # class whose neighbours share a label.  The views cannot show it:
    # they keep each (label, child) pair once.
    entry = FamilyView._entry

    def repeated(self, depth, steps):
        up, down, near = entry(self, depth, steps)
        if len(down) > 1:
            step, _, child = down[-1]
            down = down[:-1] + ((step, down[0][1], child),)
        return up, down, near

    monkeypatch.setattr(FamilyView, "_entry", repeated)
    with pytest.raises(InternalInconsistencyError, match="the depth-"):
        find_critical_psw(3)


@pytest.mark.parametrize("d,entries", [(2, 14), (3, 59), (4, 197), (5, 627)])
def test_view_memo_sizes(monkeypatch, d, entries):
    # The views find_critical_psw builds: one memo entry per node type,
    # parent view and round it reads on the way to round 2d-2.
    made = []

    class Recorded(FamilyView):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr("svmv.walks.FamilyView", Recorded)
    assert find_critical_psw(d)[0] == 2 * d - 3
    assert len(made[0]._views) == entries


def test_an_unseparable_pair_is_searched_to_every_horizon(monkeypatch):
    # Numbering each node's neighbours 0, 1, ... in table order keeps the
    # two walks at one depth, so the start views never split: every round
    # up to the bound 2d-1 is built before the search gives up.
    entry, view_of = FamilyView._entry, FamilyView.view_of
    rounds = []

    def positional(self, depth, steps):
        up, down, near = entry(self, depth, steps)
        return 0, tuple((step, i, child) for i, (step, _, child)
                        in enumerate(down, start=1)), near

    def recorded(self, key, parent, r):
        if key == (1, ((1, 0),)):
            rounds.append(r)
        return view_of(self, key, parent, r)

    monkeypatch.setattr(FamilyView, "_entry", positional)
    monkeypatch.setattr(FamilyView, "view_of", recorded)
    with pytest.raises(InternalInconsistencyError, match="by round 5"):
        find_critical_psw(3)
    assert sorted(set(rounds)) == list(range(6))


def test_critical_length_d7():
    k, witness = find_critical_psw(7)
    assert k == 11
    assert verify_psw(witness, 7, allow_mirrored=True).status == PSW

