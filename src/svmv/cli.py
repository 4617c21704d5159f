"""Command-line front end.

Exit codes: 0 success, 1 criterion failure (or a stdout closed before the
output was written), 2 usage error, 3 resource cap.
The one randomised command, reproduce, requires an explicit --seed, which
fixes every draw; its CSV holds counts and pass/fail only, so seeds whose
checks all hold print the same file.  Identical invocations produce
identical files (modulo the timings_ms fields of experiment reports).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bisim import PointedInstance, max_bisim_radius
from .errors import (FormatError, NumberingError, ResourceLimitError,
                     SvmvError)
from .families import (DEFAULT_MAX_NODES, FAMILIES, FamilyView, build_ball,
                       build_full, family_collapse, format_path, parse_path,
                       validate_path)
from .graphs import PortNumberedGraph
from .problem import COLOURS, check_pi, solve_pi_mv
from .reproduce import rows_to_csv, run_reproduction
from .simulate import multiset_echo, run_simulation
from .experiments import run_theorem1, run_theorem2
from .walks import PSW_D_MAX, find_critical_psw, verify_psw

INNER_MACHINES = {
    "pi-solver": solve_pi_mv,
    "multiset-echo": multiset_echo,
}

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str | None, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _file_base(out: str | None, default: str) -> str:
    """Base path of a command that writes a file pair, which stdout is not."""
    if out == "-":
        raise FormatError("--out - cannot take this command's two files")
    return out or default


def cmd_build(args) -> int:
    base = _file_base(args.out, f"{args.family}_d{args.d}_r{args.radius}")
    collapse = family_collapse(args.family, args.d) if args.collapse else None
    graph = build_ball(args.family, args.d, parse_path(args.center, args.family),
                       args.radius, max_nodes=args.max_nodes, collapse=collapse)
    _write_text(base + ".json", graph.to_json(node_fmt=format_path) + "\n")
    _write_text(base + ".dot", graph.to_dot(node_fmt=format_path))
    print(f"{len(graph.nodes)} nodes, {len(graph.edges())} edges "
          f"-> {base}.json, {base}.dot")
    return EXIT_OK


def cmd_psw(args) -> int:
    dot = (_file_base(args.out, "psw") + ".dot" if args.format == "dot"
           else None)
    if args.d > PSW_D_MAX:
        raise ResourceLimitError(
            f"psw searches are capped at d <= {PSW_D_MAX} (got {args.d})")
    # Built first, so a tree past the node cap is refused before the search.
    ball = build_full("g", args.d) if dot else None
    k, witness = find_critical_psw(args.d)
    audit = verify_psw(witness, args.d, allow_mirrored=True)
    payload = {
        "d": args.d,
        "k": k,
        "labels": list(witness.labels),
        "walk1": [format_path(v) for v in witness.walk1],
        "walk2": [format_path(v) for v in witness.walk2],
        "separating_label": witness.separating_label,
        "extension": format_path(witness.extension),
        "mirrored": witness.mirrored,
        "verified": audit.status,
    }
    _write_json(args.out, payload)
    if dot:
        marked = set(witness.walk1) | set(witness.walk2)
        _write_text(dot, ball.to_dot(node_fmt=format_path, highlight=marked))
    return EXIT_OK


def cmd_bisim(args) -> int:
    collapse = family_collapse(args.family, args.d) if args.collapsed else None
    view = FamilyView(args.family, args.d, collapse)
    points = [parse_path(text, args.family) for text in (args.a, args.b)]
    for v in points:
        validate_path(args.family, v, args.d)
    a, b = (PointedInstance(view, v) for v in points)
    # None when every radius up to --radius holds, -1 when radius 0 fails.
    best = max_bisim_radius(a, b, args.radius)
    failing = None if best is None else best + 1
    _write_json(args.out, {"similar": best is None, "failing_radius": failing})
    return EXIT_OK


def cmd_theorem1(args) -> int:
    _write_json(args.out, run_theorem1(args.delta))
    return EXIT_OK


def cmd_theorem2(args) -> int:
    _write_json(args.out, run_theorem2(args.d))
    return EXIT_OK


def _load_graph(path: str) -> PortNumberedGraph:
    with open(path) as fh:
        return PortNumberedGraph.from_json(fh.read())


def cmd_simulate(args) -> int:
    graph = _load_graph(args.graph)
    # Ports outside 1..delta or inputs outside the inner alphabet put the
    # graph outside the model; the first run's set-up refuses them.
    try:
        inner = INNER_MACHINES[args.inner](max(1, graph.max_degree()))
        report = run_simulation(inner, graph, graph.colours or None,
                                max_rounds=args.max_rounds)
    except NumberingError as exc:
        raise FormatError(f"{args.graph}: {exc}") from exc
    _write_json(args.out, report.to_json_dict())
    return EXIT_OK if report.outputs_equal else EXIT_CRITERION


def cmd_check_pi(args) -> int:
    graph = _load_graph(args.graph)
    with open(args.candidate) as fh:
        candidate = json.load(fh)
    # Π judges a node-to-colour map on a B/W/G-coloured graph; a list or
    # an object is no colour, while any other value is merely a wrong one.
    if not isinstance(candidate, dict) or any(
            isinstance(value, (list, dict)) for value in candidate.values()):
        raise FormatError(f"{args.candidate}: not a JSON object of colours")
    for v in graph.nodes:
        if graph.colours.get(v) not in COLOURS:
            raise FormatError(f"{args.graph}: node {v!r} has colour "
                              f"{graph.colours.get(v)!r}, not B, W or G")
    # JSON keys are text: a node's key is its id if a string, else its JSON.
    keys = {v: v if isinstance(v, str) else json.dumps(v) for v in graph.nodes}
    if len(set(keys.values())) < len(keys):
        raise FormatError(f"{args.graph}: two node ids have one JSON text")
    ok, violation = check_pi(graph, graph.colours, {
        v: candidate[key] for v, key in keys.items() if key in candidate})
    _write_json(args.out, {"ok": ok, "violation": violation})
    return EXIT_OK if ok else EXIT_CRITERION


def cmd_reproduce(args) -> int:
    rows = run_reproduction(args.seed, d_max=args.d_max,
                            inject_collapse_fault=args.inject_collapse_fault)
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            rows_to_csv(rows, fh)
    else:
        rows_to_csv(rows, sys.stdout)
    failed = [row for row in rows if not row.passed]
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"[{status}] {row.criterion} {row.parameter}", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svmv",
        description="Simulator and verification toolkit for set- vs "
                    "multiset-reception anonymous networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialise a tree ball as JSON + DOT")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--center", default="()")
    p.add_argument("--collapse", action="store_true",
                   help="apply the family's port collapse")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--out", help="output base path (writes .json and .dot)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("psw", help="critical separating-walk search")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_psw)

    p = sub.add_parser("bisim", help="radius-bounded bisimilarity query")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True, help='node path, e.g. "(1,0)"')
    p.add_argument("--b", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--collapsed", action="store_true",
                   help="query under the collapsed integer ports")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("theorem1", help="message-equality experiment")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("theorem2", help="coloured-tree root experiment")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("simulate",
                       help="differential multiset-by-set simulation run")
    p.add_argument("--inner", choices=sorted(INNER_MACHINES), required=True)
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--max-rounds", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-pi",
                       help="check a candidate majority-colour solution")
    p.add_argument("--graph", required=True)
    p.add_argument("--candidate", required=True,
                   help="JSON file mapping node id to colour")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_pi)

    p = sub.add_parser("reproduce", help="run the full acceptance table")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d-max", type=int, default=5)
    p.add_argument("--inject-collapse-fault", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return code
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        ran_out = "memory"
    except RecursionError:
        ran_out = "stack depth"
    except BrokenPipeError:  # the reader left: drop what stdout still holds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed, output not written", file=sys.stderr)
        return EXIT_CRITERION
    except (FormatError, OSError, ValueError) as exc:
        # Bad values, unreadable files and malformed JSON (a ValueError).
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SvmvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRITERION
    # Out of the except block, the failed frames and their data are freed.
    print(f"resource cap: {args.command} ran out of {ran_out}",
          file=sys.stderr)
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
