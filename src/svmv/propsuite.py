"""Seeded property suites over the constructions and the checker.

Each suite is a generator over one seeded ``random.Random`` and a
``views(family, d, collapsed=False)`` that hands out the run's one
``FamilyView`` per tree; it yields a message per failure instead of
asserting.  :func:`run_all_suites`, the only driver, seeds each suite from
the base seed and its name, so a seed always exercises the same instances;
it runs every case and keeps the first 11 failures for both the test suite
and the reproduction command.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from functools import cache

from .bisim import BisimCache, MaterializedView, PointedInstance, bisimilar, \
    max_bisim_radius
from .executor import execute
from .families import (FAMILIES, FamilyView, ROOT, build_collapsed, children,
                       family_collapse, h_counterpart, node_degree)
from .graphs import random_colouring, random_graph
from .util import derive_seed
from .views import canonical_sv
from .walks import START_1, START_2, successor

# Cases each suite draws; the executor-agreement suite runs the
# full-information machine on every case, so it draws fewer.
CASES = 500
AGREEMENT_CASES = 50
# Failures kept per suite; a failing row reads "11+ failures".
KEPT_FAILURES = 11


def _random_path(rng, view: FamilyView, max_depth: int | None = None,
                 first_step=None):
    """A node of ``view``'s tree: a uniform depth, then uniform children
    (in rule order, the first step only among those ``first_step`` keeps)
    until the depth or a leaf is reached."""
    depth = rng.randint(0, 2 * view.d if max_depth is None else max_depth)
    v = ROOT
    for level in range(depth):
        kids = [u for u, _ in view.back_edges(v) if len(u) > len(v)]
        if level == 0 and first_step is not None:
            kids = [k for k in kids if first_step(k[-1])]
        if not kids:
            break
        v = rng.choice(kids)
    return v


def degree_law_suite(rng, views) -> Iterator[str]:
    """Degrees are {1, d} in the plain family and {1, d, 2d-1} in the
    coloured ones; each tree embeds in the next parameter's tree with its
    child lists as prefixes."""
    for _ in range(CASES):
        family = rng.choice(FAMILIES)
        d = rng.randint(2, 5)
        v = _random_path(rng, views(family, d))
        kids = children(family, v, d)
        actual = len(kids) + (1 if v else 0)
        expected = node_degree(family, v, d)
        if actual != expected:
            yield f"{family} d={d} {v}: degree {actual} != {expected}"
        allowed = {1, d} if family == "g" else {1, d, 2 * d - 1}
        if expected not in allowed:
            yield (f"{family} d={d} {v}: degree {expected} outside "
                   f"{sorted(allowed)}")
        grown = children(family, v, d + 1)
        if family == "g":
            # New labels are always picked last, so the child list nests as
            # a prefix; in the coloured families the same-colour block grows
            # and shifts the flip block, leaving set containment.
            if grown[:len(kids)] != kids:
                yield (f"{family} d={d} {v}: children not a prefix of "
                       f"the d+1 children")
        elif not set(kids) <= set(grown):
            yield (f"{family} d={d} {v}: children not contained in the "
                   f"d+1 children")


def label_uniqueness_suite(rng, views) -> Iterator[str]:
    """A node never reuses an outgoing label, and in the plain family no
    two neighbours of a node write the same label towards it.

    The per-label neighbour uniqueness is plain-family only: a grey node's
    same-colour and flip-colour child blocks share back-labels by design.
    """
    for _ in range(CASES):
        family = rng.choice(FAMILIES)
        d = rng.randint(2, 5)
        view = views(family, d)
        v = _random_path(rng, view)
        if family == "g":
            back = [lab for _, lab in view.back_edges(v)]
            if len(set(back)) != len(back):
                yield f"d={d} {v}: duplicate back-labels {back}"
        out = [view.out_label(v, u) for u, _ in view.back_edges(v)]
        if len(set(out)) != len(out):
            yield f"{family} d={d} {v}: duplicate out-labels {out}"
        if family == "g" and {0, 1} <= set(out):
            # This is what keeps the 0 -> 1 collapse injective per node.
            yield f"d={d} {v}: carries both 0 and 1"


def back_label_coverage_suite(rng, views) -> Iterator[str]:
    """At internal plain-tree nodes the incoming back-labels cover 1..d at
    odd depth, and {0..d-1} or {0..d-2, d} at even depth, where a back-label
    of d can only come from the parent."""
    for _ in range(CASES):
        d = rng.randint(2, 5)
        view = views("g", d)
        v = _random_path(rng, view, max_depth=2 * d - 1)
        labels = {lab for _, lab in view.back_edges(v)}
        if len(v) % 2 == 1:
            if labels != set(range(1, d + 1)):
                yield f"d={d} {v}: odd coverage {sorted(labels)}"
        else:
            low = set(range(0, d))
            high = set(range(0, d - 1)) | {d}
            if labels not in (low, high):
                yield f"d={d} {v}: even coverage {sorted(labels)}"
            if d in labels and successor(view, v, d) != v[:-1]:
                yield f"d={d} {v}: back-label d not from the parent"


def _instance_pool(rng, views, pool_size: int) -> list[PointedInstance]:
    """Pointed instances sharing one context, tilted towards bisimilar
    pairs: tree nodes of equal depth parity, or nodes of one random graph."""
    kind = rng.randrange(3)
    if kind == 0:
        d = rng.randint(2, 3)
        view = views("g", d)
        points = [_random_path(rng, view) for _ in range(pool_size)]
        return [PointedInstance(view, p) for p in points]
    if kind == 1:
        picked = [views(rng.choice(("hb", "hw")), 2)
                  for _ in range(pool_size)]
        return [PointedInstance(view, _random_path(rng, view))
                for view in picked]
    n = rng.randint(2, 10)
    graph = random_graph(rng, n, delta=rng.randint(1, 3))
    if rng.random() < 0.5:
        graph.colours.update(random_colouring(rng, graph))
    view = MaterializedView(graph)
    return [PointedInstance(view, rng.choice(graph.nodes))
            for _ in range(pool_size)]


def bisim_monotonicity_suite(rng, views) -> Iterator[str]:
    """Bisimilarity at radius r implies it at every smaller radius."""
    for _ in range(CASES):
        a, b = _instance_pool(rng, views, 2)
        top = rng.randint(1, 5)
        flags = [bisimilar(a, b, r, BisimCache()) for r in range(top + 1)]
        for lo, hi in zip(flags, flags[1:]):
            if hi and not lo:
                yield (f"{a.point} vs {b.point}: held at a larger "
                       f"radius but not a smaller one ({flags})")
                break


def bisim_symmetry_suite(rng, views) -> Iterator[str]:
    """bisimilar(a, b, r) agrees with bisimilar(b, a, r)."""
    for _ in range(CASES):
        a, b = _instance_pool(rng, views, 2)
        r = rng.randint(0, 4)
        if bisimilar(a, b, r) != bisimilar(b, a, r):
            yield f"{a.point} vs {b.point} at r={r}: asymmetric"


def bisim_transitivity_suite(rng, views) -> Iterator[str]:
    """Wherever a~b and b~c hold at radius r, a~c holds too."""
    for _ in range(CASES):
        pool = _instance_pool(rng, views, 4)
        r = rng.randint(0, 3)
        cache = BisimCache()
        related = {}
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                related[i, j] = bisimilar(a, b, r, cache) if i != j else True
        for i in range(len(pool)):
            for j in range(len(pool)):
                for k in range(len(pool)):
                    if related[i, j] and related[j, k] and not related[i, k]:
                        yield (
                            f"r={r}: {pool[i].point} ~ {pool[j].point} ~ "
                            f"{pool[k].point} but ends unrelated")


def collapse_preservation_suite(rng, views) -> Iterator[str]:
    """Bisimilarity under the generalised numbering survives the collapse
    onto plain integer ports (``hb`` and ``hw`` share one collapse)."""
    for _ in range(CASES):
        d = rng.randint(2, 3)
        if rng.random() < 0.5:
            fam_a = fam_b = "g"
        else:
            fam_a, fam_b = rng.choice((("hb", "hb"), ("hw", "hw"),
                                       ("hb", "hw")))
        ga, gb = views(fam_a, d), views(fam_b, d)
        x = _random_path(rng, ga)
        y = _random_path(rng, gb)
        r = rng.randint(0, 2 * d)
        general = bisimilar(PointedInstance(ga, x), PointedInstance(gb, y), r)
        if general:
            collapsed = bisimilar(PointedInstance(views(fam_a, d, True), x),
                                  PointedInstance(views(fam_b, d, True), y),
                                  r)
            if not collapsed:
                yield (f"{fam_a}/{fam_b} d={d} r={r}: {x} ~ {y} held "
                       f"generalised but broke under the collapse")


def executor_agreement_suite(rng, views) -> Iterator[str]:
    """The checker and the executor tell the same story: points r-bisimilar
    exactly as long as the full-information machine keeps their states
    equal, checked through the first failing radius when one exists."""
    prepared = []

    for d in (2, 3):
        graph = build_collapsed("g", d)
        prepared.append((graph, graph, START_1, START_2, 2 * d))
    d = 2
    gb, gw = build_collapsed("hb", d), build_collapsed("hw", d)
    for _ in range(6):
        v = _random_path(rng, views("hb", d),
                         first_step=lambda s: s[0] >= 2)
        prepared.append((gb, gw, v, h_counterpart(v), 2 * d - 2))

    for _ in range(AGREEMENT_CASES):
        if prepared:
            graph_a, graph_b, x, y, cap = prepared.pop()
        else:
            graph_a = graph_b = random_graph(rng, rng.randint(2, 10),
                                             rng.randint(1, 3))
            if rng.random() < 0.5:
                graph_a.colours.update(random_colouring(rng, graph_a))
            x, y = rng.choice(graph_a.nodes), rng.choice(graph_a.nodes)
            cap = 4
        view_a = MaterializedView(graph_a)
        view_b = view_a if graph_b is graph_a else MaterializedView(graph_b)
        radius = max_bisim_radius(PointedInstance(view_a, x),
                                  PointedInstance(view_b, y), cap)
        machine = canonical_sv(max(1, graph_a.max_degree(),
                                   graph_b.max_degree()))
        trace_a = execute(machine, graph_a, max_rounds=cap + 1)
        trace_b = trace_a if graph_b is graph_a else \
            execute(machine, graph_b, max_rounds=cap + 1)
        limit = cap if radius is None else radius
        for r in range(0, limit + 1):
            if trace_a.state(r, x) != trace_b.state(r, y):
                yield (f"{x!r} vs {y!r}: bisimilar to radius {limit} "
                       f"but states split at round {r}")
                break
        else:
            if radius is not None and radius < cap:
                fail = radius + 1
                if trace_a.state(fail, x) == trace_b.state(fail, y):
                    yield (f"{x!r} vs {y!r}: radius {radius} reported "
                           f"but states still equal at round {fail}")


ALL_SUITES = (
    ("degree-law", CASES, degree_law_suite),
    ("label-uniqueness", CASES, label_uniqueness_suite),
    ("back-label-coverage", CASES, back_label_coverage_suite),
    ("bisim-monotonicity", CASES, bisim_monotonicity_suite),
    ("bisim-symmetry", CASES, bisim_symmetry_suite),
    ("bisim-transitivity", CASES, bisim_transitivity_suite),
    ("collapse-preservation", CASES, collapse_preservation_suite),
    ("executor-agreement", AGREEMENT_CASES, executor_agreement_suite),
)


def run_all_suites(seed: int) -> list[tuple[str, int, list[str]]]:
    """``(name, cases, failures)`` per suite, each suite seeded from ``seed``
    and its name, with at most :data:`KEPT_FAILURES` failures kept.  The
    suites share one ``FamilyView`` per (family, d, collapsed) for the run,
    so each tree's rule table is filled once."""

    @cache
    def views(family: str, d: int, collapsed: bool = False) -> FamilyView:
        return FamilyView(family, d,
                          family_collapse(family, d) if collapsed else None)

    results = []
    for name, cases, suite in ALL_SUITES:
        # list() runs every case, so a later case's exception still surfaces.
        failures = list(suite(random.Random(derive_seed(seed, name)), views))
        results.append((name, cases, failures[:KEPT_FAILURES]))
    return results
