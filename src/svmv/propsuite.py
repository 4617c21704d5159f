"""Seeded property suites over the constructions and the checker.

Each suite draws its cases from one deterministic generator, so a given
seed always exercises the same instances.  Suites return a result record
instead of asserting, which lets both the test suite and the reproduction
command consume them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bisim import BisimCache, MaterializedView, PointedInstance, bisimilar, \
    max_bisim_radius
from .executor import execute
from .families import (FamilyView, ROOT, build_collapsed, children,
                       family_collapse, h_counterpart, node_degree)
from .graphs import random_colouring, random_graph
from .util import derive_seed
from .views import canonical_sv
from .walks import successor

# Cases each suite draws; the executor-agreement suite runs the
# full-information machine on every case, so it draws fewer.
CASES = 500
AGREEMENT_CASES = 50


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, message: str):
        if len(self.failures) < 10:
            self.failures.append(message)
        elif len(self.failures) == 10:
            self.failures.append("... more failures suppressed")

    def summary(self) -> str:
        if self.ok:
            return f"{self.cases} cases, all held"
        return f"{self.cases} cases, {len(self.failures)}+ failures: " \
               f"{self.failures[0]}"


def _random_path(rng, family: str, d: int, max_depth: int | None = None,
                 first_step=None):
    depth = rng.randint(0, 2 * d if max_depth is None else max_depth)
    v = ROOT
    for level in range(depth):
        kids = children(family, v, d)
        if level == 0 and first_step is not None:
            kids = [k for k in kids if first_step(k[-1])]
        if not kids:
            break
        v = rng.choice(kids)
    return v


def degree_law_suite(seed: int) -> SuiteResult:
    """Degrees are {1, d} in the plain family and {1, d, 2d-1} in the
    coloured ones; each tree embeds in the next parameter's tree with its
    child lists as prefixes."""
    rng = random.Random(derive_seed(seed, "degree-law"))
    result = SuiteResult("degree-law", CASES)
    for _ in range(CASES):
        family = rng.choice(("g", "hb", "hw"))
        d = rng.randint(2, 5)
        v = _random_path(rng, family, d)
        kids = children(family, v, d)
        actual = len(kids) + (1 if v else 0)
        expected = node_degree(family, v, d)
        if actual != expected:
            result.note(f"{family} d={d} {v}: degree {actual} != {expected}")
        allowed = {1, d} if family == "g" else {1, d, 2 * d - 1}
        if expected not in allowed:
            result.note(f"{family} d={d} {v}: degree {expected} outside "
                        f"{sorted(allowed)}")
        grown = children(family, v, d + 1)
        if family == "g":
            # New labels are always picked last, so the child list nests as
            # a prefix; in the coloured families the same-colour block grows
            # and shifts the flip block, leaving set containment.
            if grown[:len(kids)] != kids:
                result.note(f"{family} d={d} {v}: children not a prefix of "
                            f"the d+1 children")
        elif not set(kids) <= set(grown):
            result.note(f"{family} d={d} {v}: children not contained in the "
                        f"d+1 children")
    return result


def label_uniqueness_suite(seed: int) -> SuiteResult:
    """A node never reuses an outgoing label, and in the plain family no
    two neighbours of a node write the same label towards it.

    The per-label neighbour uniqueness is plain-family only: a grey node's
    same-colour and flip-colour child blocks share back-labels by design.
    """
    rng = random.Random(derive_seed(seed, "label-uniqueness"))
    result = SuiteResult("label-uniqueness", CASES)
    for _ in range(CASES):
        family = rng.choice(("g", "hb", "hw"))
        d = rng.randint(2, 5)
        view = FamilyView(family, d)
        v = _random_path(rng, family, d)
        if family == "g":
            back = [lab for _, lab in view.back_edges(v)]
            if len(set(back)) != len(back):
                result.note(f"d={d} {v}: duplicate back-labels {back}")
        out = [view.out_label(v, u) for u in view.neighbours(v)]
        if len(set(out)) != len(out):
            result.note(f"{family} d={d} {v}: duplicate out-labels {out}")
        if family == "g" and {0, 1} <= set(out):
            # This is what keeps the 0 -> 1 collapse injective per node.
            result.note(f"d={d} {v}: carries both 0 and 1")
    return result


def back_label_coverage_suite(seed: int) -> SuiteResult:
    """At internal plain-tree nodes the incoming back-labels cover 1..d at
    odd depth, and {0..d-1} or {0..d-2, d} at even depth, where a back-label
    of d can only come from the parent."""
    rng = random.Random(derive_seed(seed, "back-label-coverage"))
    result = SuiteResult("back-label-coverage", CASES)
    for _ in range(CASES):
        d = rng.randint(2, 5)
        view = FamilyView("g", d)
        v = _random_path(rng, "g", d, max_depth=2 * d - 1)
        labels = {lab for _, lab in view.back_edges(v)}
        if len(v) % 2 == 1:
            if labels != set(range(1, d + 1)):
                result.note(f"d={d} {v}: odd coverage {sorted(labels)}")
        else:
            low = set(range(0, d))
            high = set(range(0, d - 1)) | {d}
            if labels not in (low, high):
                result.note(f"d={d} {v}: even coverage {sorted(labels)}")
            if d in labels and successor(view, v, d) != v[:-1]:
                result.note(f"d={d} {v}: back-label d not from the parent")
    return result


def _instance_pool(rng, pool_size: int) -> list[PointedInstance]:
    """Pointed instances sharing one context, tilted towards bisimilar
    pairs: tree nodes of equal depth parity, or nodes of one random graph."""
    kind = rng.randrange(3)
    if kind == 0:
        d = rng.randint(2, 3)
        view = FamilyView("g", d)
        points = [_random_path(rng, "g", d) for _ in range(pool_size)]
        return [PointedInstance(view, p) for p in points]
    if kind == 1:
        d = 2
        fams = [rng.choice(("hb", "hw")) for _ in range(pool_size)]
        return [PointedInstance(FamilyView(f, d), _random_path(rng, f, d))
                for f in fams]
    n = rng.randint(2, 10)
    graph = random_graph(rng, n, delta=rng.randint(1, 3))
    if rng.random() < 0.5:
        graph.colours.update(random_colouring(rng, graph))
    view = MaterializedView(graph)
    return [PointedInstance(view, rng.choice(graph.nodes))
            for _ in range(pool_size)]


def bisim_monotonicity_suite(seed: int) -> SuiteResult:
    """Bisimilarity at radius r implies it at every smaller radius."""
    rng = random.Random(derive_seed(seed, "bisim-monotonicity"))
    result = SuiteResult("bisim-monotonicity", CASES)
    for _ in range(CASES):
        a, b = _instance_pool(rng, 2)
        top = rng.randint(1, 5)
        flags = [bisimilar(a, b, r, BisimCache()) for r in range(top + 1)]
        for lo, hi in zip(flags, flags[1:]):
            if hi and not lo:
                result.note(f"{a.point} vs {b.point}: held at a larger "
                            f"radius but not a smaller one ({flags})")
                break
    return result


def bisim_symmetry_suite(seed: int) -> SuiteResult:
    """bisimilar(a, b, r) agrees with bisimilar(b, a, r)."""
    rng = random.Random(derive_seed(seed, "bisim-symmetry"))
    result = SuiteResult("bisim-symmetry", CASES)
    for _ in range(CASES):
        a, b = _instance_pool(rng, 2)
        r = rng.randint(0, 4)
        if bisimilar(a, b, r) != bisimilar(b, a, r):
            result.note(f"{a.point} vs {b.point} at r={r}: asymmetric")
    return result


def bisim_transitivity_suite(seed: int) -> SuiteResult:
    """Wherever a~b and b~c hold at radius r, a~c holds too."""
    rng = random.Random(derive_seed(seed, "bisim-transitivity"))
    result = SuiteResult("bisim-transitivity", CASES)
    for _ in range(CASES):
        pool = _instance_pool(rng, 4)
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
                        result.note(
                            f"r={r}: {pool[i].point} ~ {pool[j].point} ~ "
                            f"{pool[k].point} but ends unrelated")
    return result


def collapse_preservation_suite(seed: int) -> SuiteResult:
    """Bisimilarity under the generalised numbering survives the collapse
    onto plain integer ports."""
    rng = random.Random(derive_seed(seed, "collapse-preservation"))
    result = SuiteResult("collapse-preservation", CASES)
    for _ in range(CASES):
        d = rng.randint(2, 3)
        if rng.random() < 0.5:
            fam_a = fam_b = "g"
        else:
            fam_a, fam_b = rng.choice((("hb", "hb"), ("hw", "hw"),
                                       ("hb", "hw")))
        collapse = family_collapse(fam_a, d)
        ga = FamilyView(fam_a, d)
        gb = FamilyView(fam_b, d)
        ca = FamilyView(fam_a, d, collapse)
        cb = FamilyView(fam_b, d, collapse)
        x = _random_path(rng, fam_a, d)
        y = _random_path(rng, fam_b, d)
        r = rng.randint(0, 2 * d)
        general = bisimilar(PointedInstance(ga, x), PointedInstance(gb, y), r)
        if general:
            collapsed = bisimilar(PointedInstance(ca, x),
                                  PointedInstance(cb, y), r)
            if not collapsed:
                result.note(f"{fam_a}/{fam_b} d={d} r={r}: {x} ~ {y} held "
                            f"generalised but broke under the collapse")
    return result


def executor_agreement_suite(seed: int) -> SuiteResult:
    """The checker and the executor tell the same story: points r-bisimilar
    exactly as long as the full-information machine keeps their states
    equal, checked through the first failing radius when one exists."""
    rng = random.Random(derive_seed(seed, "executor-agreement"))
    result = SuiteResult("executor-agreement", AGREEMENT_CASES)
    prepared = []

    for d in (2, 3):
        graph = build_collapsed("g", d)
        view = MaterializedView(graph)
        prepared.append(((view, view), (graph, graph), ((1, 0),), ((2, 1),),
                         2 * d))
    d = 2
    gb, gw = build_collapsed("hb", d), build_collapsed("hw", d)
    for _ in range(6):
        v = _random_path(rng, "hb", d, first_step=lambda s: s[0] >= 2)
        u = h_counterpart(v)
        prepared.append(((MaterializedView(gb), MaterializedView(gw)),
                         (gb, gw), v, u, 2 * d - 2))

    for _ in range(AGREEMENT_CASES):
        if prepared:
            entry = prepared.pop()
        else:
            n = rng.randint(2, 10)
            delta = rng.randint(1, 3)
            graph = random_graph(rng, n, delta)
            if rng.random() < 0.5:
                graph.colours.update(random_colouring(rng, graph))
            x, y = rng.choice(graph.nodes), rng.choice(graph.nodes)
            view = MaterializedView(graph)
            entry = ((view, view), (graph, graph), x, y, 4)
        views, graphs, x, y, cap = entry
        radius = max_bisim_radius(PointedInstance(views[0], x),
                                  PointedInstance(views[1], y), cap)
        delta = max(1, max(g.max_degree() for g in graphs))
        machine = canonical_sv(delta)
        horizon = cap + 1
        first = execute(machine, graphs[0], max_rounds=horizon)
        traces = (first, first if graphs[1] is graphs[0] else
                  execute(machine, graphs[1], max_rounds=horizon))
        limit = cap if radius is None else radius
        for r in range(0, limit + 1):
            if traces[0].state(r, x) != traces[1].state(r, y):
                result.note(f"{x!r} vs {y!r}: bisimilar to radius {limit} "
                            f"but states split at round {r}")
                break
        else:
            if radius is not None and radius < cap:
                fail = radius + 1
                if traces[0].state(fail, x) == traces[1].state(fail, y):
                    result.note(f"{x!r} vs {y!r}: radius {radius} reported "
                                f"but states still equal at round {fail}")
    return result


ALL_SUITES = (
    degree_law_suite,
    label_uniqueness_suite,
    back_label_coverage_suite,
    bisim_monotonicity_suite,
    bisim_symmetry_suite,
    bisim_transitivity_suite,
    collapse_preservation_suite,
    executor_agreement_suite,
)


def run_all_suites(seed: int) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
