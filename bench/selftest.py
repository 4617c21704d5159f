"""Tests of the benchmark itself, at the tiny input size.

    python3 bench/selftest.py        (about a minute)

Kept out of the package's pytest suite on purpose: the file name does not
match ``test_*.py``, so timing code never runs as part of tier-1.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

THEOREM1_DELTA4_NODE_ROUNDS = 4 * 7 * 13_121


def bench(*args: str, script: Path = BENCH / "run.py", cwd: Path = ROOT
          ) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def run_result(*args: str) -> dict:
    code, lines = bench(*args)
    assert code == 0, lines
    return json.loads(lines[-1])


def traced_child(workload: str) -> dict:
    code, lines = bench("--workload", workload, "--seed", "0", "--tiny",
                        "--trace", script=BENCH / "child.py")
    assert code == 0, lines
    return json.loads(lines[-1])


class WorkloadsRunTiny(unittest.TestCase):

    def test_each_workload_passes_its_gate(self):
        for workload in workloads.PREPARE:
            with self.subTest(workload=workload):
                result = run_result("--workload", workload, "--seed", "0",
                                    "--seconds", "1", "--tiny")
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]),
                                 {"wall_s", "setup_s", "peak_rss_mb"})
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_injected_collapse_fault_is_caught(self):
        result = run_result("--workload", "reproduce", "--seed", "0",
                            "--seconds", "1", "--tiny",
                            "--inject-collapse-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_refuses_to_run_without_the_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "lazy-search", "--seed", "0",
                                "--seconds", "1",
                                script=Path(tmp) / BENCH.name / "run.py",
                                cwd=Path(tmp))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class Inputs(unittest.TestCase):

    def test_sim_inputs_follow_the_seed(self):
        def graphs(seed):
            rng = random.Random(seed)
            return [workloads.random_instance(rng, n, delta)[0].to_json()
                    for n, delta, _ in workloads.sim_schedule(12)]

        self.assertEqual(graphs(3), graphs(3))
        self.assertNotEqual(graphs(3), graphs(4))

    def test_sim_instances_respect_the_degree_bound(self):
        rng = random.Random(0)
        for n, delta, _ in workloads.sim_schedule(40):
            graph, colouring = workloads.random_instance(rng, n, delta)
            self.assertEqual(len(graph.nodes), n)
            self.assertLessEqual(graph.max_degree(), delta)
            graph.require_runnable(delta)
            self.assertEqual(set(colouring), set(graph.nodes))


class Tracing(unittest.TestCase):

    def test_counts_repeat_exactly(self):
        for workload in ("lazy-search", "sim-differential"):
            with self.subTest(workload=workload):
                first, second = traced_child(workload), traced_child(workload)
                counts = {name: m["value"]
                          for name, m in first["layers"].items()
                          if m["unit"] == "count"}
                self.assertTrue(counts)
                self.assertEqual(counts, {
                    name: second["layers"][name]["value"]
                    for name in counts})

    def test_layers_seen_per_workload(self):
        lazy = traced_child("lazy-search")["layers"]
        self.assertEqual(lazy["executor.node_rounds"]["value"], 0)
        self.assertGreater(lazy["bisim.memo_entries"]["value"], 0)
        self.assertGreater(lazy["walks.back_edges_calls"]["value"], 0)
        repro = traced_child("reproduce")["layers"]
        self.assertGreaterEqual(repro["executor.node_rounds"]["value"],
                                THEOREM1_DELTA4_NODE_ROUNDS)
        self.assertGreater(repro["util.stable_fingerprint_calls"]["value"],
                           0)

    def test_traced_run_keeps_reproduce_output_identical(self):
        result = run_result("--workload", "reproduce", "--seed", "0",
                            "--seconds", "1", "--tiny", "--trace", "1")
        self.assertTrue(result["correct"])
        self.assertIn("trace.overhead_s", result["metrics"])
        self.assertIn("executor.execute_s", result["metrics"])

    def test_wrappers_are_restored(self):
        import svmv

        def bindings():
            return {(name, key): value
                    for name, module in list(sys.modules.items())
                    if name == "svmv" or name.startswith("svmv.")
                    for key, value in vars(module).items()}

        before = bindings()
        execute = svmv.experiments.execute
        back_edges = svmv.families.FamilyView.back_edges
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(svmv.experiments.execute, execute)
            self.assertIsNot(svmv.families.FamilyView.back_edges, back_edges)
        finally:
            t.restore()
        self.assertIs(svmv.experiments.execute, execute)
        self.assertIs(svmv.families.FamilyView.back_edges, back_edges)
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_missing_function_leaves_its_metrics_out(self):
        targets = tuple(
            (name, module, "no_such_function" if name.startswith("walks.")
             else path) for name, module, path in tracer.TARGETS)
        t = tracer.Tracer(targets)
        t.install()
        try:
            outcome = workloads.prepare_lazy_search(0, tiny=True)()
        finally:
            t.restore()
        self.assertEqual(outcome.failed, 0)
        self.assertEqual(t.missing, ["svmv.walks.no_such_function"])
        metrics = t.metrics()
        self.assertNotIn("walks.find_critical_psw_s", metrics)
        self.assertNotIn("walks.back_edges_calls", metrics)
        self.assertIn("bisim.max_bisim_radius_s", metrics)


if __name__ == "__main__":
    unittest.main()
