"""The three benchmark workloads: inputs from a seed, one timed pass, and
the correctness gate that turns each operation into pass or fail.

Every workload is split in two.  ``prepare(seed, tiny)`` builds the inputs
(this counts as set-up) and returns a zero-argument callable; calling it
runs the workload through public ``svmv`` functions, checks every answer
and returns an :class:`Outcome`.  Nothing here times anything: the caller
does, so the same code runs with tracing on and off.

Calls go through module attributes (``walks.find_critical_psw``), never
through names bound here, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass, field

from svmv import bisim, cli, families, problem, simulate, walks
from svmv.errors import SvmvError
from svmv.graphs import PortNumberedGraph

# sim-differential: the shape of the i-th instance follows a fixed schedule
# so that two seeds ask for about the same amount of work; the seed draws
# the edges, the port numbering and the colouring.
SIM_INSTANCES = 600
SIM_INSTANCES_TINY = 20
SIM_MIN_NODES = 2
SIM_MAX_NODES = 80
SIM_DELTAS = (2, 3, 4, 5)


@dataclass
class Outcome:
    """What one pass attempted, how much of it failed, and why."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    digest: str | None = None

    def record(self, ok: bool, note: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


# -- reproduce --------------------------------------------------------------


def prepare_reproduce(seed: int, tiny: bool = False,
                      inject_collapse_fault: bool = False):
    """The acceptance table as users run it: ``svmv reproduce``.

    One operation is one CSV row; a row passes when it reads ``pass``.  A
    non-zero exit code with every row passing still fails the pass.  At the
    tiny size the walk rows stop at d=3.
    """
    argv = ["reproduce", "--seed", str(seed), "--out", "-"]
    if tiny:
        argv += ["--d-max", "3"]
    if inject_collapse_fault:
        argv.append("--inject-collapse-fault")

    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        outcome = Outcome(digest=hashlib.sha256(text.encode()).hexdigest())
        for row in csv.DictReader(io.StringIO(text)):
            outcome.record(row["pass"] == "pass",
                           f"{row['criterion']} {row['parameter']}: "
                           f"{row['observed']}")
        if code != 0 and not outcome.failed:
            outcome.record(False, f"exit code {code} with every row passing")
        if not outcome.attempted:
            outcome.record(False, f"no CSV rows (exit code {code})")
        return outcome

    return run


# -- lazy-search ------------------------------------------------------------


def lazy_queries(tiny: bool = False) -> list[tuple]:
    """Every query of the lazy path with the answer it must give.

    ``("psw", d)``: critical separating length ``2d-3``, witness verified.
    ``("bisim-g", d, collapsed)``: largest bisimilarity radius of (1,0) and
    (2,1), generalised or collapsed ports, ``2d-3``.
    ``("bisim-h", d)``: the coloured roots under the family collapse,
    ``2d-2`` (the bisimulation side of theorem 2).
    """
    g_top, h_top = (3, 3) if tiny else (5, 4)
    queries = [("psw", d) for d in range(2, g_top + 1)]
    queries += [("bisim-g", d, collapsed) for d in range(2, g_top + 1)
                for collapsed in (False, True)]
    queries += [("bisim-h", d) for d in range(2, h_top + 1)]
    return queries


def _lazy_answer(query) -> tuple[int, int, bool]:
    """Run one query; return (answer, expected answer, witness verified)."""
    kind, d = query[0], query[1]
    if kind == "psw":
        k, witness = walks.find_critical_psw(d)
        audit = walks.verify_psw(witness, d, allow_mirrored=True)
        return k, 2 * d - 3, audit.status == walks.PSW
    if kind == "bisim-g":
        collapse = families.collapse_g(d) if query[2] else None
        view = families.FamilyView("g", d, collapse)
        a = bisim.PointedInstance(view, ((1, 0),))
        b = bisim.PointedInstance(view, ((2, 1),))
        got = bisim.max_bisim_radius(a, b, 2 * d, bisim.BisimCache())
        return got, 2 * d - 3, True
    a, b = (bisim.PointedInstance(
        families.FamilyView(name, d, families.family_collapse(name, d)),
        families.ROOT) for name in ("hb", "hw"))
    got = bisim.max_bisim_radius(a, b, 2 * d, bisim.BisimCache())
    return got, 2 * d - 2, True


def prepare_lazy_search(seed: int, tiny: bool = False):
    """Walk and bisimilarity queries on the lazy family trees only: no
    executor, no materialised graph.

    The queries and their answers are fixed by the closed forms, so the
    seed changes nothing.  Their order is fixed too: peak RSS depends on
    which large memo is built after which.
    """
    queries = lazy_queries(tiny)

    def run() -> Outcome:
        outcome = Outcome()
        for query in queries:
            try:
                got, want, verified = _lazy_answer(query)
            except SvmvError as exc:
                outcome.record(False, f"{query}: {type(exc).__name__}: {exc}")
                continue
            outcome.record(got == want and verified,
                           f"{query}: got {got}, want {want}, witness "
                           f"verified={verified}")
        return outcome

    return run


# -- sim-differential -------------------------------------------------------


def random_instance(rng: random.Random, n: int, delta: int
                    ) -> tuple[PortNumberedGraph, dict]:
    """A random simple graph on ``0..n-1`` with degrees at most ``delta``,
    independent random out- and in-port permutations at every node, and a
    random B/W/G colouring.

    Edges are drawn as random pairs under the degree cap until half of the
    cap's edge budget is reached or the draws run out.
    """
    target = n * min(delta, n - 1) // 4 + 1
    degree = [0] * n
    edges: set[tuple[int, int]] = set()
    for _ in range(20 * target):
        if len(edges) >= target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or degree[u] >= delta or degree[v] >= delta:
            continue
        edge = (min(u, v), max(u, v))
        if edge in edges:
            continue
        edges.add(edge)
        degree[u] += 1
        degree[v] += 1
    ordered = sorted(edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for u, v in ordered:
        incident[u].append(v)
        incident[v].append(u)
    out_port, in_port = {}, {}
    for u in range(n):
        for ports in (out_port, in_port):
            labels = list(range(1, len(incident[u]) + 1))
            rng.shuffle(labels)
            for v, label in zip(incident[u], labels):
                ports[u, v] = label
    graph = PortNumberedGraph()
    for v in range(n):
        graph.add_node(v, rng.choice(problem.COLOURS))
    for u, v in ordered:
        graph.add_edge(u, v, out_port[u, v], out_port[v, u],
                       in_uv=in_port[u, v], in_vu=in_port[v, u])
    return graph, dict(graph.colours)


def sim_schedule(count: int) -> list[tuple[int, int, int | None]]:
    """(nodes, delta, echo rounds) of each instance, independent of the
    seed.  Even instances run the majority-colour solver (rounds None), odd
    ones the multiset echo.  Node counts step by 37, coprime to the 79
    possible counts, so they sweep the whole range; every block of eight
    pairs both machines with every delta.
    """
    span = SIM_MAX_NODES - SIM_MIN_NODES + 1
    return [(SIM_MIN_NODES + (i * 37) % span,
             SIM_DELTAS[(i // 2) % len(SIM_DELTAS)],
             None if i % 2 == 0 else 1 + (i // 8) % 3)
            for i in range(count)]


def prepare_sim_differential(seed: int, tiny: bool = False):
    """Multiset machines run directly and through the set-reception
    wrapper on seeded random graphs, the inner machine alternating between
    the majority-colour solver and the multiset echo.

    An instance passes when the outputs agree node by node and the
    overhead is exactly ``2*delta - 2``; a raised ``SvmvError`` fails it.
    """
    rng = random.Random(seed)
    instances = []
    for n, delta, rounds in sim_schedule(SIM_INSTANCES_TINY if tiny
                                         else SIM_INSTANCES):
        graph, colouring = random_instance(rng, n, delta)
        inner = (problem.solve_pi_mv(delta) if rounds is None
                 else simulate.multiset_echo(delta, rounds))
        instances.append((graph, colouring, inner))

    def run() -> Outcome:
        outcome = Outcome()
        for i, (graph, colouring, inner) in enumerate(instances):
            try:
                report = simulate.run_simulation(inner, graph, colouring)
            except SvmvError as exc:
                outcome.record(False, f"instance {i}: {type(exc).__name__}: "
                                      f"{exc}")
                continue
            want = simulate.gather_rounds(inner.delta)
            outcome.record(report.outputs_equal and report.overhead == want,
                           f"instance {i}: outputs_equal="
                           f"{report.outputs_equal} overhead="
                           f"{report.overhead} want {want}")
        return outcome

    return run


PREPARE = {
    "reproduce": prepare_reproduce,
    "lazy-search": prepare_lazy_search,
    "sim-differential": prepare_sim_differential,
}
