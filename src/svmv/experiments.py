"""Desk-scale experiments: symmetry-breaking floor and the one-round gap.

Both experiments execute the full-information set-reception machine on
fully materialised trees with collapsed (integer) port numberings, so every
recorded state is exact -- no truncation is involved.
"""

from __future__ import annotations

import time

from .errors import FormatError, ResourceLimitError
from .executor import execute, local_outputs
from .families import ROOT, build_collapsed, node_degree
from .machines import AD_HOC_SV_MACHINES
from .problem import check_pi, output_colour, pi_allowed, solve_pi_mv
from .util import stable_fingerprint
from .views import canonical_sv
from .walks import START_1, START_2


def run_theorem1(delta: int) -> dict:
    """Messages into the root from its first two children, round by round.

    On the collapsed plain tree both children write out-port 1 towards the
    root, so their messages coincide exactly as long as their states do.
    The report records equality per round for the full-information machine
    (and a few ad-hoc set-reception machines) up to round 2*delta - 1.  The
    message of round ``r`` is emitted from the states of round ``r - 1``,
    so each run executes 2*delta - 2 rounds.
    """
    if delta < 2:
        raise FormatError(f"delta must be >= 2 (got {delta})")
    if delta > 4:
        raise ResourceLimitError(
            f"full-tree runs are capped at delta <= 4 (asked for {delta})")
    t0 = time.perf_counter()
    graph = build_collapsed("g", delta)
    horizon = 2 * delta - 1
    port_u = graph.out_port(START_1, ROOT)
    port_w = graph.out_port(START_2, ROOT)

    def message_rows(machine):
        trace = execute(machine, graph, max_rounds=horizon - 1)
        rows = []
        for r in range(1, horizon + 1):
            mu = machine.emit(trace.state(r - 1, START_1), port_u)
            mw = machine.emit(trace.state(r - 1, START_2), port_w)
            rows.append({"r": r, "msg_u": stable_fingerprint(mu),
                         "msg_w": stable_fingerprint(mw),
                         "equal": mu == mw})
        return rows

    rows = message_rows(canonical_sv(delta))
    equal_through, first_diff = _agreement(rows)
    extra = {}
    for name, factory in AD_HOC_SV_MACHINES.items():
        erows = message_rows(factory(delta))
        extra[name] = {
            "rounds": erows,
            "equal_through": _agreement(erows)[0],
        }
    report = {
        "delta": delta,
        "nodes": len(graph.nodes),
        "ports_to_root": [port_u, port_w],
        "rounds": rows,
        "equal_through": equal_through,
        "first_difference_round": first_diff,
        "extra_machines": extra,
        "conclusion": (
            f"both neighbours delivered identical messages to the root in "
            f"rounds 1..{equal_through}; first observed difference at "
            f"round {first_diff}"),
        "timings_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    return report


def _agreement(rows) -> tuple[int, int | None]:
    """``(equal_through, first_difference)`` of consecutive per-round rows:
    the rounds before and at the first unequal row, or the last round and
    None when every row is equal."""
    for row in rows:
        if not row["equal"]:
            return row["r"] - 1, row["r"]
    return rows[-1]["r"], None


def run_theorem2(d: int) -> dict:
    """Root behaviour on the two coloured trees, round by round.

    Records root-state equality of the full-information machine on the
    black-rooted vs white-rooted instance, the forced root answers of the
    majority-colour problem, and the one-round multiset solver's results.
    Each tree is built, run and judged by :func:`_coloured_root` before
    the next is built, so one tree and its run plan are alive at a time.
    """
    if d < 2:
        raise FormatError(f"d must be >= 2 (got {d})")
    if d > 3:
        raise ResourceLimitError(
            f"full coloured-tree runs are capped at d <= 3 (got {d})")
    t0 = time.perf_counter()
    delta = node_degree("hb", ROOT, d)
    horizon = 4 * d - 3
    nodes_b, states_b, allowed_b, solved_b = _coloured_root("hb", d, horizon)
    nodes_w, states_w, allowed_w, solved_w = _coloured_root("hw", d, horizon)
    rows = [{"r": r, "root_b": stable_fingerprint(sb),
             "root_w": stable_fingerprint(sw), "equal": sb == sw}
            for r, (sb, sw) in enumerate(zip(states_b, states_w))]
    equal_through, first_diff = _agreement(rows)

    report = {
        "d": d,
        "delta": delta,
        "nodes": [nodes_b, nodes_w],
        "rounds": rows,
        "equal_through": equal_through,
        "first_difference_round": first_diff,
        "pi_allowed_at_roots": {"b": allowed_b, "w": allowed_w},
        "mv_solver": {"b": solved_b, "w": solved_w},
        "conclusion": (
            f"the roots are indistinguishable to any set-reception machine "
            f"through round {equal_through}, yet their forced answers are "
            f"{allowed_b} vs {allowed_w}: a machine halting by round "
            f"{2 * d - 2} answers identically and fails on one instance, "
            f"while the multiset solver finishes in 1 round"),
        "timings_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    return report


def _coloured_root(family: str, d: int, horizon: int):
    """``(nodes, root states, allowed, solver result)`` on one coloured
    tree: its node count, the root's ``canonical_sv`` state in rounds
    0..horizon, the colours Π allows at the root, and how the one-round
    multiset solver fares on the whole tree."""
    delta = node_degree(family, ROOT, d)
    graph = build_collapsed(family, d)
    trace = execute(canonical_sv(delta), graph, max_rounds=horizon)
    states = [trace.state(r, ROOT) for r in range(horizon + 1)]
    allowed = sorted(pi_allowed(graph, graph.colours, ROOT))
    trace = execute(solve_pi_mv(delta), graph, max_rounds=4)
    outputs = {v: output_colour(s) for v, s in local_outputs(trace).items()}
    ok, violation = check_pi(graph, graph.colours, outputs)
    solved = {
        "rounds": trace.stopped_round,
        "accepted": ok,
        "violation": violation,
        "root_output": outputs[ROOT],
    }
    return len(graph.nodes), states, allowed, solved
