"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py [--seeds 0-9] [--seconds N]
        [--workloads reproduce,lazy-search] [--trace] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run after another,
and prints for every end-to-end metric its median over the runs, the
quartiles, the spread ((Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound, the number of runs and ``fail_frac`` (failed / attempted operations
over all runs).  Run length, bounds and the default workloads come from
``BENCHMARK.json``.  With
``--trace`` it adds one traced run per workload on the first seed and
prints its per-layer metrics.  ``--out`` writes everything, with the
machine and every per-pass sample, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["seed"] = seed
    for line in lines:
        for tag in ("machine", "samples"):
            if line.startswith(f"# {tag}: "):
                run[tag] = json.loads(line.split(": ", 1)[1])
    return run


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def summarise(runs: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    names = runs[0]["metrics"]
    out = {name: dict(spread([r["metrics"][name]["value"] for r in runs]),
                      unit=names[name]["unit"]) for name in names}
    out["fail_frac"] = {"value": failed / attempted, "failed": failed,
                        "attempted": attempted}
    out["correct"] = all(r["correct"] for r in runs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    record = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench_run(workload, seed, args.seconds, False)
                for seed in seeds]
        record["machine"] = runs[-1]["machine"]
        entry = {"runs": runs, "summary": summarise(runs)}
        if args.trace:
            entry["traced"] = bench_run(workload, seeds[0], args.seconds,
                                        True)
        record["workloads"][workload] = entry
        print(f"== {workload}: {len(runs)} runs, seeds {args.seeds}")
        for name, s in entry["summary"].items():
            if name == "fail_frac":
                print(f"  {name:12s} {s['value']:.6g} "
                      f"({s['failed']} of {s['attempted']} operations)")
            elif name != "correct":
                print(f"  {name:12s} median {s['median']:.6g} {s['unit']}  "
                      f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  "
                      f"spread {s['spread']:.4f} (bound {BOUNDS.get(name)})  "
                      f"n={s['n']}")
        print(f"  correct      {entry['summary']['correct']}")
        if args.trace:
            for name, m in entry["traced"]["metrics"].items():
                print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
