import random
import weakref

import pytest

from oracles import naive_bisimilar
from svmv import bisim
from svmv.bisim import (BisimCache, MaterializedView, PointedInstance,
                        bisimilar, max_bisim_radius)
from svmv.errors import BallExhaustedError
from svmv.families import (FamilyView, ROOT, build_ball, children,
                           family_collapse, h_counterpart)
from svmv.graphs import random_colouring, random_graph
from svmv.propsuite import _random_path
from test_experiments import _traced

U, W = ((1, 0),), ((2, 1),)


def g_pair(d, collapse=False):
    view = FamilyView("g", d,
                      family_collapse("g", d) if collapse else None)
    return PointedInstance(view, U), PointedInstance(view, W)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_first_branches_bisimilar_up_to_threshold(d):
    a, b = g_pair(d)
    cache = BisimCache()
    assert bisimilar(a, b, 2 * d - 3, cache)
    assert not bisimilar(a, b, 2 * d - 2, cache)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_max_radius_matches_threshold(d):
    a, b = g_pair(d)
    assert max_bisim_radius(a, b, cap=2 * d) == 2 * d - 3


def test_reflexivity():
    view = FamilyView("g", 3)
    x = PointedInstance(view, ((3, 2), (1, 1)))
    assert bisimilar(x, x, 9)
    assert max_bisim_radius(x, x, cap=7) is None


def test_degree_mismatch_fails_radius_zero():
    view = FamilyView("g", 2)
    leaf = ((1, 0), (2, 2), (1, 0), (2, 2))
    a = PointedInstance(view, ROOT)
    b = PointedInstance(view, leaf)
    assert not bisimilar(a, b, 0)
    assert max_bisim_radius(a, b, cap=3) == -1


@pytest.mark.parametrize("d", [2, 3])
def test_counterpart_pairs_hold_to_two_d_minus_two(d):
    collapse = family_collapse("hb", d)
    vb = FamilyView("hb", d, collapse)
    vw = FamilyView("hw", d, collapse)
    rng = random.Random(d)
    points = [ROOT] + [
        _random_path(rng, vb, first_step=lambda s: s[0] >= 2)
        for _ in range(5)]
    for v in points:
        u = h_counterpart(v)
        assert u is not None
        got = max_bisim_radius(PointedInstance(vb, v),
                               PointedInstance(vw, u), cap=2 * d - 2)
        assert got is None, (v, got)


def test_roots_of_opposite_families_split_eventually():
    d = 2
    collapse = family_collapse("hb", d)
    a = PointedInstance(FamilyView("hb", d, collapse), ROOT)
    b = PointedInstance(FamilyView("hw", d, collapse), ROOT)
    # Guaranteed through 2d-2 = 2; observed to split right after at d=2.
    assert bisimilar(a, b, 2)
    assert not bisimilar(a, b, 3)


def _path_at_depth(rng, view, depth):
    """A uniform walk down ``view``'s tree by the rules, ``depth`` steps."""
    v = ROOT
    while len(v) < depth:
        v = rng.choice(children(view.family, v, view.d))
    return v


def _oracle_disagreements(cases=400):
    """The seeded pairs on which ``bisimilar`` and the naive recursion
    differ.  Tree pairs are drawn at one depth, from ``g`` d=3 and ``hb``/
    ``hw`` d=2, so their degrees agree, radius 0 mostly holds and the
    recursion reaches the table entries far from both points."""
    rng = random.Random(42)
    bad = []
    for _ in range(cases):
        kind = rng.randrange(3)
        if kind == 2:
            graph = random_graph(rng, rng.randint(2, 8), 3)
            if rng.random() < 0.5:
                graph.colours.update(random_colouring(rng, graph))
            view = MaterializedView(graph)
            a = PointedInstance(view, rng.choice(graph.nodes))
            b = PointedInstance(view, rng.choice(graph.nodes))
        else:
            fa, fb, d = ("g", "g", 3) if kind == 0 else \
                (*rng.choice((("hb", "hw"), ("hb", "hb"), ("hw", "hw"))), 2)
            va, vb = FamilyView(fa, d), FamilyView(fb, d)
            depth = rng.randint(0, 2 * d)
            a = PointedInstance(va, _path_at_depth(rng, va, depth))
            b = PointedInstance(vb, _path_at_depth(rng, vb, depth))
        r = rng.randint(0, 3)
        if bisimilar(a, b, r) != \
                naive_bisimilar(a.view, a.point, b.view, b.point, r):
            bad.append((a.point, b.point, r))
    return bad


def test_agreement_with_naive_recursion():
    assert _oracle_disagreements() == []


def test_oracle_catches_a_wrong_table_label(monkeypatch):
    # One wrong rule-table label: depth-3 nodes read their parent's label 2
    # as 0.  The checker reads the table; the oracle reads the rules.
    entry = FamilyView._entry

    def wrong(self, depth, steps):
        up, down, near = entry(self, depth, steps)
        if depth == 3 and up == 2:
            return 0, down, [(near[0][0], 0), *near[1:]]
        return up, down, near

    monkeypatch.setattr(FamilyView, "_entry", wrong)
    assert _oracle_disagreements()


class ThreeCalls:
    """A backend with only the three calls the recursion makes, counting
    its ``key_edges`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.key_edges_calls = 0

    def suffix_key(self, v, radius):
        return self._inner.suffix_key(v, radius)

    def key_edges(self, key, radius):
        self.key_edges_calls += 1
        return self._inner.key_edges(key, radius)

    def key_local(self, key):
        return self._inner.key_local(key)


def test_a_backend_needs_only_three_calls():
    rng = random.Random(23)
    graph = random_graph(rng, 12, 3)
    graph.colours.update(random_colouring(rng, graph))
    full = MaterializedView(graph)
    bare = ThreeCalls(full)
    answers = set()
    for _ in range(30):
        x, y = rng.choice(graph.nodes), rng.choice(graph.nodes)
        a, b = PointedInstance(full, x), PointedInstance(full, y)
        a3, b3 = PointedInstance(bare, x), PointedInstance(bare, y)
        for r in range(5):
            want = bisimilar(a, b, r)
            assert bisimilar(a3, b3, r) == want, (x, y, r)
            answers.add(want)
            assert max_bisim_radius(a3, b3, r) == max_bisim_radius(a, b, r)
    assert answers == {True, False}


def test_truncated_ball_errors_instead_of_answering():
    ball = build_ball("g", 3, ROOT, 2)
    view = MaterializedView(ball)
    a = PointedInstance(view, U)
    b = PointedInstance(view, W)
    assert bisimilar(a, b, 1)
    with pytest.raises(BallExhaustedError):
        bisimilar(a, b, 2)


def test_shared_cache_consistent_with_fresh_queries():
    a, b = g_pair(3)
    cache = BisimCache()
    shared = [bisimilar(a, b, r, cache) for r in range(7)]
    fresh = [bisimilar(a, b, r) for r in range(7)]
    assert shared == fresh


def test_shared_cache_survives_short_lived_views():
    # Views created and dropped in turn may take one another's id(); the
    # cache must still tell them apart.
    cache = BisimCache()
    for i in range(200):
        d = 3 if i % 2 == 0 else 2
        view = FamilyView("g", d)
        ref = weakref.ref(view)
        similar = bisimilar(PointedInstance(view, U), PointedInstance(view, W),
                            2, cache)
        del view
        assert similar == (2 <= 2 * d - 3), i
        # The cache holds the views it has verdicts for, so no later view
        # can reuse a cached view's id.
        assert ref() is not None, i


@pytest.mark.parametrize("family", ["g", "h"])
def test_shared_cache_matches_naive_recursion(family):
    rng = random.Random(family)
    if family == "g":
        d = 3
        view = FamilyView("g", d, family_collapse("g", d))
        views = (view, view)
    else:
        d = 2
        views = tuple(FamilyView(name, d, family_collapse(name, d))
                      for name in ("hb", "hw"))
    cache = BisimCache()
    for _ in range(12):
        points = [rng.choice([ROOT, _random_path(rng, view)])
                  for view in views]
        a, b = (PointedInstance(view, point)
                for view, point in zip(views, points))
        truth = [naive_bisimilar(a.view, a.point, b.view, b.point, r)
                 for r in range(5)]
        for r in rng.sample(range(5), 5):
            assert bisimilar(a, b, r, cache) == truth[r], (points, r)
            held = [r2 for r2 in range(r + 1) if truth[r2]]
            best = held[-1] if held else -1
            want = None if best == r else best
            assert max_bisim_radius(a, b, r, cache) == want, (points, r)


def test_shared_cache_matches_naive_recursion_on_graphs():
    # Each graph has a twin, built from the same seed, that differs in the
    # colour of one node, so a point and its twin stay bisimilar for about
    # their distance from that node.  Two neighbours of a node often write
    # the same port towards it: a neighbour then has several equally
    # labelled candidates, and the second side of a match reads the pair
    # results that the first side kept.
    rng = random.Random(0)
    shared, answers = 0, []
    for n in range(20):
        seed, size = rng.random(), rng.randint(4, 12)
        graph, twin = (random_graph(random.Random(seed), size, 3 + n % 2)
                       for _ in range(2))
        if n % 2:
            colours = random_colouring(rng, graph)
            graph.colours.update(colours)
            twin.colours.update(colours)
        p = rng.choice(graph.nodes)
        twin.colours[p] = "W" if graph.colours.get(p) == "B" else "B"
        shared += sum(len(labels) > len(set(labels)) for labels in (
            [graph.out_port(u, v) for u in graph.neighbours(v)]
            for v in graph.nodes))
        va, vb = MaterializedView(graph), MaterializedView(twin)
        cache = BisimCache()
        for _ in range(3):
            x = rng.choice(graph.nodes)
            y = x if rng.random() < 0.7 else rng.choice(graph.nodes)
            a, b = PointedInstance(va, x), PointedInstance(vb, y)
            truth = [naive_bisimilar(va, x, vb, y, r) for r in range(5)]
            for r in rng.sample(range(5), 5):
                assert bisimilar(a, b, r, cache) == truth[r], (n, x, y, r)
                held = [r2 for r2 in range(r + 1) if truth[r2]]
                best = held[-1] if held else -1
                want = None if best == r else best
                assert max_bisim_radius(a, b, r, cache) == want, (n, x, y, r)
                answers.append(want)
    assert len(answers) * 2 >= 200 and shared > 0
    assert {-1, 0, 1, 2, 3, None} <= set(answers)


# A match that scanned the second side as a pass of its own, asking every
# pair again, read 998 key_edges lists and made 1,911 _radius calls on the
# first query, and 4,824 and 11,986 on the second.  With one memo entry per
# ordered pair of keys, so that a pair and its mirror were each settled, the
# one-pass match read 506 and made 1,039, and 2,384 and 5,886.
@pytest.mark.parametrize("d, collapse, cap, key_edges_calls, radius_calls", [
    (4, True, 8, 428, 873),
    (5, False, 10, 1928, 4746),
])
def test_a_memo_miss_asks_each_neighbour_pair_once(
        monkeypatch, d, collapse, cap, key_edges_calls, radius_calls):
    view = ThreeCalls(
        FamilyView("g", d, family_collapse("g", d) if collapse else None))
    calls = 0
    radius = bisim._radius

    def counted(*args):
        nonlocal calls
        calls += 1
        return radius(*args)

    monkeypatch.setattr(bisim, "_radius", counted)
    got = max_bisim_radius(PointedInstance(view, U), PointedInstance(view, W),
                           cap)
    assert got == 2 * d - 3
    assert (view.key_edges_calls, calls) == (key_edges_calls, radius_calls)


@pytest.mark.parametrize("collapse, entries", [(False, 918), (True, 1875)])
def test_one_backend_keeps_one_entry_per_unordered_pair(collapse, entries):
    # An entry per ordered pair held 1,159 and 2,530 entries here, 482 and
    # 1,310 of them with their mirror present.
    a, b = g_pair(5, collapse)
    cache = BisimCache()
    assert max_bisim_radius(a, b, 10, cache) == 7
    mirrored = [key for key in cache.memo
                if (key[0], key[1], key[3], key[2]) in cache.memo]
    assert mirrored == []
    assert len(cache.memo) == entries


def test_memo_stores_each_key_and_interval_once():
    # Equal keys arrive as fresh tuples from every key_edges call.  With a
    # key pair and an interval tuple of each entry's own, the 1,875 entries
    # held 3,513 key objects for 764 keys and 1,875 interval objects for 23
    # intervals.
    a, b = g_pair(5, collapse=True)
    cache = BisimCache()
    assert max_bisim_radius(a, b, 10, cache) == 7
    assert len(cache.memo) == 1875
    copies = {}
    for key in cache.memo:
        for x in key[2:]:
            copies.setdefault(x, set()).add(id(x))
    assert all(len(ids) == 1 for ids in copies.values())
    intervals = list(cache.memo.values())
    assert len({id(i) for i in intervals}) <= len(set(intervals))


def test_hb_hw_d5_roots_cache_memory():
    # The roots' cache of 14,732 entries, with both backends' rule tables,
    # holds about 3.16 MiB with each suffix key and interval stored once; it
    # held 6.41 when each entry kept its own two keys and interval.
    _, held = _traced(
        "from svmv.bisim import BisimCache, PointedInstance, max_bisim_radius\n"
        "from svmv.families import FamilyView, ROOT, family_collapse\n"
        "collapse = family_collapse('hb', 5)\n"
        "a, b = (PointedInstance(FamilyView(name, 5, collapse), ROOT)\n"
        "        for name in ('hb', 'hw'))\n"
        "cache = BisimCache()\n"
        "assert max_bisim_radius(a, b, 10, cache) == 8\n"
        "assert len(cache.memo) == 14732")
    assert held < 4.5 * 2**20


def test_two_backends_keep_ordered_pairs():
    d = 4
    collapse = family_collapse("hb", d)
    a, b = (PointedInstance(FamilyView(name, d, collapse), ROOT)
            for name in ("hb", "hw"))
    cache = BisimCache()
    assert max_bisim_radius(a, b, 2 * d, cache) == 2 * d - 2
    assert len(cache.memo) == 1295


def _one_backend_pairs(rng):
    """Seeded point pairs, each list on one backend: random graphs, then
    collapsed ``g`` d=3 and ``hb`` d=2 trees."""
    for n in range(8):
        graph = random_graph(rng, rng.randint(3, 10), 3)
        if n % 2:
            graph.colours.update(random_colouring(rng, graph))
        yield MaterializedView(graph), [
            tuple(rng.choice(graph.nodes) for _ in range(2))
            for _ in range(4)]
    for family, d in (("g", 3), ("hb", 2)):
        view = FamilyView(family, d, family_collapse(family, d))
        yield view, [tuple(rng.choice([ROOT, _random_path(rng, view)])
                           for _ in range(2)) for _ in range(8)]


def test_swapped_queries_share_one_entry_and_match_the_oracle():
    rng = random.Random(26)
    answers = set()
    for view, pairs in _one_backend_pairs(rng):
        cache = BisimCache()
        for x, y in pairs:
            a, b = PointedInstance(view, x), PointedInstance(view, y)
            truth = [naive_bisimilar(view, x, view, y, r) for r in range(5)]
            for r in rng.sample(range(5), 5):
                held = [r2 for r2 in range(r + 1) if truth[r2]]
                best = held[-1] if held else -1
                want = None if best == r else best
                kx, ky = view.suffix_key(x, r), view.suffix_key(y, r)
                top = (view, view, kx, ky), (view, view, ky, kx)
                stored = []
                for p, q in ((a, b), (b, a)):
                    assert bisimilar(p, q, r, cache) == truth[r], (x, y, r)
                    assert max_bisim_radius(p, q, r, cache) == want, (x, y, r)
                    answers.add(want)
                    stored.append([key in cache.memo for key in top])
                # The swapped query reads and writes the first one's entry.
                assert stored[1] == stored[0], (x, y, r)
                assert sum(stored[0]) == (kx != ky), (x, y, r)
    assert {-1, 0, None} <= answers and len(answers) >= 4
