"""Per-layer spans and counts, recorded from outside the package.

The tracer wraps public ``svmv`` functions at every module attribute that
binds them (``svmv.experiments.execute`` as well as
``svmv.executor.execute``), so calls made inside the package are seen.
Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`; an untraced run never sees them.

Each wrapped call is a span.  Spans are aggregated per name in memory:
call count, inclusive time (outermost call of a name only, so recursion is
not counted twice) and self time (inclusive time minus the child spans).
Time spent in the tracer's own bookkeeping after a call is taken out of
every enclosing span.  A target that no longer exists is skipped, and the
metrics that depend on it are left out instead of failing the run.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path).  One span may cover several targets.
TARGETS = (
    ("executor.execute", "svmv.executor", "execute"),
    ("util.stable_fingerprint", "svmv.util", "stable_fingerprint"),
    ("views.view", "svmv.views", "view"),
    ("families.build", "svmv.families", "build_ball"),
    ("families.build", "svmv.families", "build_collapsed"),
    ("families.build", "svmv.families", "PortCollapse.apply_graph"),
    ("families.children", "svmv.families", "children"),
    ("families.pi", "svmv.families", "pi"),
    ("families.back_edges", "svmv.families", "FamilyView.back_edges"),
    ("walks.find_critical_psw", "svmv.walks", "find_critical_psw"),
    ("bisim.max_bisim_radius", "svmv.bisim", "max_bisim_radius"),
    ("simulate.audit_signatures", "svmv.simulate", "audit_signatures"),
    ("simulate.run_simulation", "svmv.simulate", "run_simulation"),
    ("experiments.run_theorem1", "svmv.experiments", "run_theorem1"),
    ("experiments.run_theorem2", "svmv.experiments", "run_theorem2"),
    ("propsuite.run_all_suites", "svmv.propsuite", "run_all_suites"),
    ("problem.check_pi", "svmv.problem", "check_pi"),
)

# Probe machines whose executor throughput is reported on its own.  A
# machine's name up to its first "(" selects the entry.
MACHINES = ("canonical-sv", "set-fold-hash", "parity-probe", "degree-echo",
            "mv-by-sv")


class _Span:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Install with :meth:`install`, always :meth:`restore` afterwards."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: dict[str, _Span] = {}
        self.missing: list[str] = []
        # (parent span or None, child span) -> calls
        self.calls_under: Counter = Counter()
        self.counts: Counter = Counter()
        self.machine_time: Counter = Counter()
        self.machine_node_rounds: Counter = Counter()
        self._views: set[int] = set()
        self._stack: list[list] = []  # [name, child time, excluded time]
        self._patches: list[tuple[object, str, object]] = []
        self._epsilon = None

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "execute": (None, self._after_execute),
            "view": (None, self._after_view),
            "build_ball": (None, self._after_build_ball),
            "max_bisim_radius": (self._before_bisim, self._after_bisim),
        }
        machines = sys.modules.get("svmv.machines")
        self._epsilon = getattr(machines, "EPSILON", None)
        for name, module_name, path in self.targets:
            owner, attr = _resolve_owner(module_name, path)
            original = getattr(owner, attr, None) if owner else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            self.spans.setdefault(name, _Span())
            wrapper = self._wrap(name, original, *hooks.get(attr, (None, None)))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, before, after):
        span = self.spans[name]
        stack = self._stack
        calls_under = self.calls_under

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            calls_under[stack[-1][0] if stack else None, name] += 1
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            span.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - frame[2]
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_time += elapsed - frame[1]
                if not span.depth:
                    span.total += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if after:
                mark = perf_counter()
                after(token, args, kwargs, result, elapsed)
                spent = perf_counter() - mark
                for outer in stack:
                    outer[2] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks --------------------------------------------------------------

    def _after_execute(self, token, args, kwargs, trace, elapsed):
        machine = args[0] if args else kwargs["machine"]
        node_rounds = trace.rounds() * len(trace.states[0])
        key = machine.name.split("(")[0]
        self.counts["executor.node_rounds"] += node_rounds
        self.machine_node_rounds[key] += node_rounds
        self.machine_time[key] += elapsed
        eps = self._epsilon
        self.counts["executor.messages_delivered"] += sum(
            len(slots) - slots.count(eps)
            for delivered in trace.messages for slots in delivered.values())

    def _after_view(self, token, args, kwargs, result, elapsed):
        self._views.add(id(result))

    def _after_build_ball(self, token, args, kwargs, graph, elapsed):
        self.counts["families.nodes_built"] += len(graph.nodes)

    @staticmethod
    def _before_bisim(args, kwargs):
        cache = args[3] if len(args) > 3 else kwargs.get("cache")
        memo = getattr(cache, "memo", None)
        return (memo, len(memo)) if isinstance(memo, dict) else None

    def _after_bisim(self, token, args, kwargs, result, elapsed):
        if token is not None:
            memo, before = token
            self.counts["bisim.memo_entries"] += len(memo) - before

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics as ``{name: {"value": v, "unit": u}}``.

        A metric is left out when a span it depends on was not installed.
        """
        out: dict[str, dict] = {}
        spans = self.spans

        def put(metric, value, unit, *needs):
            if all(name in spans for name in needs):
                out[metric] = {"value": value, "unit": unit}

        def seconds(name):
            return spans[name].total if name in spans else 0.0

        def calls(name):
            return spans[name].calls if name in spans else 0

        def rate(num, den):
            return num / den if den else 0.0

        ex = "executor.execute"
        node_rounds = self.counts["executor.node_rounds"]
        put("executor.execute_s", seconds(ex), "s", ex)
        put("executor.execute_self_s",
            spans[ex].self_time if ex in spans else 0.0, "s", ex)
        put("executor.node_rounds", node_rounds, "count", ex)
        put("executor.node_rounds_per_s", rate(node_rounds, seconds(ex)),
            "1/s", ex)
        put("executor.messages_delivered",
            self.counts["executor.messages_delivered"], "count", ex)
        for machine in MACHINES:
            put(f"executor.{machine}.node_rounds_per_s",
                rate(self.machine_node_rounds[machine],
                     self.machine_time[machine]), "1/s", ex)

        fp = "util.stable_fingerprint"
        put("util.stable_fingerprint_calls", calls(fp), "count", fp)
        put("util.stable_fingerprint_s", seconds(fp), "s", fp)

        view_calls = calls("views.view")
        put("views.view_calls", view_calls, "count", "views.view")
        put("views.interned", len(self._views), "count", "views.view")
        put("views.intern_hit_ratio",
            rate(view_calls - len(self._views), view_calls), "ratio",
            "views.view")

        kids, pis = "families.children", "families.pi"
        put("families.build_s", seconds("families.build"), "s",
            "families.build")
        put("families.nodes_built", self.counts["families.nodes_built"],
            "count", "families.build")
        put("families.children_calls", calls(kids), "count", kids)
        put("families.pi_calls", calls(pis), "count", pis)
        put("families.rule_calls_per_s",
            rate(calls(kids) + calls(pis),
                 seconds(kids) + seconds(pis)), "1/s", kids, pis)

        walk, bis, back = ("walks.find_critical_psw", "bisim.max_bisim_radius",
                           "families.back_edges")
        memo = self.counts["bisim.memo_entries"]
        put("walks.find_critical_psw_s", seconds(walk), "s", walk)
        put("walks.back_edges_calls", self.calls_under[walk, back], "count",
            walk, back)
        put("bisim.max_bisim_radius_s", seconds(bis), "s", bis)
        put("bisim.memo_entries", memo, "count", bis)
        put("bisim.back_edges_per_memo_entry",
            rate(self.calls_under[bis, back], memo), "ratio", bis, back)

        for name in ("simulate.audit_signatures", "simulate.run_simulation",
                     "experiments.run_theorem1", "experiments.run_theorem2",
                     "propsuite.run_all_suites", "problem.check_pi"):
            put(f"{name}_s", seconds(name), "s", name)
        put("simulate.instances", calls("simulate.run_simulation"), "count",
            "simulate.run_simulation")
        return out

    def span_table(self) -> dict[str, dict]:
        """Every span: calls, inclusive and self seconds."""
        return {name: {"calls": s.calls, "total_s": s.total,
                       "self_s": s.self_time}
                for name, s in sorted(self.spans.items())}


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "svmv" or name.startswith("svmv."))]


def _resolve_owner(module_name: str, path: str):
    """The object holding the last attribute of ``path`` and that name."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr
