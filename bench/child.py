"""One measured pass of one workload in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace] [--tiny]
                           [--inject-collapse-fault]

Prints one JSON object on its last line of standard output:

- ``setup_s``: interpreter start-up (the process's CPU time on entering
  this script), plus importing ``svmv`` and generating the workload's
  inputs from the seed (wall time);
- ``wall_s``: from the first timed call into ``svmv`` to the checked
  result;
- ``peak_rss_mb``: this process's peak resident set, from ``RUSAGE_SELF``;
- ``attempted``, ``failed``, ``notes``: the correctness gate's verdicts;
- ``digest``: sha256 of the primary output where the workload has one;
- with ``--trace``: ``layers`` (per-layer metrics) and ``spans``.

Run by ``bench/run.py``; a process measures one pass only because
``svmv.views`` interns views in a module-global table that is never
freed, so a second pass in the same process would start warm.
"""

import resource

_STARTUP_CPU_S = sum(resource.getrusage(resource.RUSAGE_SELF)[:2])

import argparse  # noqa: E402  (after the start-up reading on purpose)
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-collapse-fault", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import svmv
    import workloads
    if not Path(svmv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"svmv imported from {svmv.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.PREPARE:
        parser.error(f"unknown workload {args.workload!r}")
    options = {"tiny": args.tiny}
    if args.inject_collapse_fault:
        options["inject_collapse_fault"] = True
    run = workloads.PREPARE[args.workload](args.seed, **options)
    setup_s = _STARTUP_CPU_S + time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        outcome = run()
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes,
        "digest": outcome.digest,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_table()
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
