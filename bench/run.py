"""svmv benchmark: time to verdict per workload, and per-layer spans.

    python3 bench/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; ``svmv`` is imported from the
checkout's ``src``.  Workloads: ``reproduce`` (the acceptance table),
``lazy-search`` (walk and bisimilarity queries on the lazy trees) and
``sim-differential`` (multiset machines simulated on set reception).

Each pass runs in a fresh single-threaded interpreter (``bench/child.py``),
one after another, until ``--seconds`` is used up; at least one pass runs.

- ``--trace 0``: untraced passes.  Reports ``wall_s`` as the mean pass
  time (the timed wall time of all passes divided by their number) and the
  medians of ``setup_s`` and ``peak_rss_mb``.  The mean, not the median:
  the host switches between a fast and a slow state every few seconds to
  minutes, and the median of a few passes jumps between the two states
  where the mean only follows the share of time spent in each.
- ``--trace 1``: pairs of one untraced and one traced pass.  Reports the
  per-layer metrics of the traced passes (medians), the traced wall time
  and the tracing overhead (traced minus untraced mean ``wall_s``).  The
  primary output must be byte-identical with tracing on and off.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name the
machine and list every per-pass sample.  Exit code 0 once a result is
printed; 2 without a result (no ``svmv`` source in this checkout, or no
pass finished).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "svmv"
WORKLOADS = ("reproduce", "lazy-search", "sim-differential")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# A run must print its result well inside three minutes.
HARD_LIMIT_S = 170


def machine_info() -> dict:
    """CPU model, processor count, Python version and the svmv revision."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "svmv_commit": _git_commit(),
        "svmv_src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_pass(args, traced: bool, timeout: float) -> dict:
    """One fresh child process; its JSON result, or a failure record."""
    cmd = [sys.executable, str(BENCH / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_collapse_fault:
        cmd.append("--inject-collapse-fault")
    started = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s", "duration_s":
                time.perf_counter() - started}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"error": f"exit code {done.returncode}: {' | '.join(tail)}",
                "duration_s": time.perf_counter() - started}
    result = json.loads(lines[-1])
    result["duration_s"] = time.perf_counter() - started
    return result


def collect(args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes, run one after another within budget."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for is_traced, bucket in ((False, plain), (True, traced)):
            if is_traced and not args.trace:
                continue
            left = HARD_LIMIT_S - (time.perf_counter() - start)
            bucket.append(run_pass(args, is_traced, max(left, 1.0)))
        elapsed = time.perf_counter() - start
        last = sum(p["duration_s"] for p in (plain[-1:] + traced[-1:]))
        if elapsed + last > min(args.seconds, HARD_LIMIT_S - 10):
            return plain, traced


def mean_wall(passes: list[dict]) -> float:
    return statistics.fmean(p["wall_s"] for p in passes)


def end_to_end_metrics(passes: list[dict]) -> dict:
    """``wall_s`` as the mean pass time; the rest as medians."""
    return {name: {"value": mean_wall(passes) if name == "wall_s" else
                   statistics.median(p[name] for p in passes), "unit": unit}
            for name, unit in END_TO_END}


def summarise(args, plain: list[dict], traced: list[dict]) -> dict | None:
    everything = plain + traced
    good = [p for p in plain if "error" not in p]
    good_traced = [p for p in traced if "error" not in p]
    if not good or (args.trace and not good_traced):
        return None
    attempted = sum(p.get("attempted", 1) for p in everything)
    failed = sum(p.get("failed", 1) for p in everything)
    notes = [p["error"] for p in everything if "error" in p]
    notes += [n for p in everything for n in p.get("notes", [])]
    digests = {p["digest"] for p in everything if p.get("digest")}
    if len(digests) > 1:
        notes.append(f"primary output differs between passes: "
                     f"{sorted(digests)}")
    if not args.trace:
        metrics = end_to_end_metrics(good)
    else:
        layer_names = {name: m["unit"] for p in good_traced
                       for name, m in p["layers"].items()}
        metrics = {name: {"value": statistics.median(
            p["layers"][name]["value"] for p in good_traced
            if name in p["layers"]), "unit": unit}
            for name, unit in layer_names.items()}
        traced_wall = mean_wall(good_traced)
        plain_wall = mean_wall(good)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall,
                                       "unit": "s"}
    return {
        "correct": failed == 0 and len(digests) <= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes[:10],
    }


def report(args, plain, traced, summary) -> None:
    print(f"# svmv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={int(args.trace)}")
    print("# machine: " + json.dumps(machine_info(), sort_keys=True))
    samples = {"untraced": [_sample(p) for p in plain],
               "traced": [_sample(p) for p in traced]}
    print("# samples: " + json.dumps(samples, sort_keys=True))
    if args.trace:
        spans = [p["spans"] for p in traced if "spans" in p]
        if spans:
            print("# spans (last traced pass): " + json.dumps(spans[-1]))
    n_plain = len([p for p in plain if "error" not in p])
    n_traced = len([p for p in traced if "error" not in p])
    for name, metric in summary["metrics"].items():
        n = n_plain if name in dict(END_TO_END) else n_traced
        kind = ("mean" if name == "wall_s" or name.startswith("trace.")
                else "median")
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"{kind} of {n}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{'fail_frac':44s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations")
    for note in summary["notes"]:
        print(f"# failure: {note}")


def _sample(p: dict) -> dict:
    keys = ("wall_s", "setup_s", "peak_rss_mb", "attempted", "failed",
            "error")
    return {k: p[k] for k in keys if k in p}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="svmv benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    parser.add_argument("--inject-collapse-fault", action="store_true",
                        help="reproduce only: corrupt a port collapse, so "
                             "the correctness gate must fail")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "__init__.py").is_file():
        print(f"no svmv source at {SRC}; run inside an svmv checkout",
              file=sys.stderr)
        return 2
    plain, traced = collect(args)
    summary = summarise(args, plain, traced)
    if summary is None:
        for p in plain + traced:
            print(f"pass failed: {p.get('error')}", file=sys.stderr)
        return 2
    report(args, plain, traced, summary)
    result = {k: summary[k] for k in ("correct", "attempted", "failed",
                                      "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
