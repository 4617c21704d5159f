import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svmv
from svmv import experiments
from svmv.errors import FormatError, ResourceLimitError
from svmv.executor import execute
from svmv.experiments import run_theorem1, run_theorem2
from svmv.machines import AD_HOC_SV_MACHINES


def test_message_equality_report_smallest_parameter():
    report = run_theorem1(2)
    assert report["ports_to_root"] == [1, 1]
    assert report["equal_through"] == 2
    assert report["first_difference_round"] == 3
    assert [row["equal"] for row in report["rounds"]] == [True, True, False]
    for extra in report["extra_machines"].values():
        assert extra["equal_through"] >= 2
    assert "timings_ms" in report


def test_message_equality_guard():
    # Above the desk-scale cap is a resource limit; below the model's
    # minimum is a usage error.
    with pytest.raises(ResourceLimitError):
        run_theorem1(5)
    with pytest.raises(FormatError):
        run_theorem1(1)


def test_theorem1_executes_only_the_rounds_its_rows_read(monkeypatch):
    # Row r compares messages emitted from the states of round r - 1, so
    # the rows up to 2*delta - 1 read nothing past round 2*delta - 2.
    rounds = []

    def recorded(machine, graph, colouring=None, *, max_rounds):
        trace = execute(machine, graph, colouring, max_rounds=max_rounds)
        rounds.append(trace.rounds())
        return trace

    monkeypatch.setattr(experiments, "execute", recorded)
    for delta in (2, 3, 4):
        rounds.clear()
        run_theorem1(delta)
        assert rounds == [2 * delta - 2] * (1 + len(AD_HOC_SV_MACHINES))


def _traced(call: str) -> tuple[int, int]:
    """tracemalloc peak of ``call`` in a fresh interpreter, so no view is
    interned beforehand, and the memory still traced after it and a full
    collection: what the call leaves behind."""
    root = str(Path(svmv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    script = ("import gc, tracemalloc\n"
              "from svmv.experiments import run_theorem1, run_theorem2\n"
              "from svmv.walks import find_critical_psw\n"
              "tracemalloc.start()\n"
              f"{call}\n"
              "peak = tracemalloc.get_traced_memory()[1]\n"
              "gc.collect()\n"
              "print(peak, tracemalloc.get_traced_memory()[0])\n")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    peak, held = map(int, done.stdout.split())
    return peak, held


def test_theorem1_delta4_memory_peak():
    # It reads about 5.9 MiB.  It read 6.3 when each refinement round built a
    # list of every slot's code, set-reception runs numbered their messages and
    # memoised on frozensets of those numbers, and each trace round kept its
    # class states in a dict.  It read 7.0 when each view kept its children as
    # (port, view) pair tuples, each partition class a (class id, (previous
    # class, received codes)) tuple pair, and every int array 4 bytes a value;
    # and 7.2 when the run plan also kept a tuple of the index's node keys and
    # a tuple of degrees, where it now reads node order off the shared index
    # and degrees off its slot bounds.  A label dict per node, out- and in-maps
    # from node to dict and an index of the run plan's own read about 10.0, and
    # with them: Python ints and tuples in the run plan, the partition rows and
    # the graph's edge list, and frozensets in the partition and the views,
    # about 12.3; one slice object per node in the run plan and a true_degree
    # entry for every node of the whole tree, about 13.9; running the unread
    # round 2*delta - 1, about 18.
    peak, _ = _traced("run_theorem1(4)")
    assert peak < 7.0 * 2**20


def test_theorem2_d3_memory_peak():
    # It reads about 4.7 MiB.  A list of every slot's code per refinement
    # round, message numbers and their frozensets in set-reception runs, and a
    # dict of class states per trace round read about 5.7.  Pair tuples as view
    # children, a tuple pair per partition class and 4-byte int arrays read
    # about 6.7, and with them a label dict per node and a second key tuple per
    # interned view about 7.2; with those, Python ints, tuples and frozensets
    # in place of the packed run state and view children read about 9.6.
    # Building both coloured trees before running either, so that two graphs,
    # run plans and partitions are alive at once, read about 13.4.
    peak, _ = _traced("run_theorem2(3)")
    assert peak < 6.1 * 2**20


def test_theorem2_d3_interned_views_memory():
    # The 5,422 views that stay interned read about 1.05 MiB with their
    # children in one flat (port, child, ...) tuple each, 1.5 with a tuple
    # of (port, child) pairs, 1.8 when each view also kept a (degree, input,
    # round, children) key tuple of its own, and 3.0 when each view's
    # children were a frozenset.
    _, held = _traced("run_theorem2(3)")
    assert held < 1.55 * 2**20


def test_psw_d7_memory():
    # The view descent at d=7 peaks at about 8.3 MiB and leaves about 4.7
    # MiB of views interned; with (port, child) pair tuples as children it
    # read 14.0 and 10.6.
    peak, held = _traced("find_critical_psw(7)")
    assert peak < 9.4 * 2**20
    assert held < 5.3 * 2**20


def test_collapsed_g_delta4_graph_and_plan_memory():
    # The 13,121-node tree with its run plan reads about 3.7 to 3.8 MiB: one
    # adjacency tuple per node and one node index, which the plan shares;
    # the plan keeps only its slot arrays beside it, 2-byte senders and
    # bounds and 1-byte ports.  With 4-byte slot arrays it read 3.8 to 4.0;
    # a node tuple and a degree tuple in the plan read about 0.2 more; a
    # label dict per node, out- and in-maps and a plan index of its own
    # read about 6.7.
    _, held = _traced("from svmv.families import build_collapsed\n"
                      "graph = build_collapsed('g', 4)\n"
                      "graph.run_plan(4)")
    assert held < 4.25 * 2**20


def test_root_experiment_smallest_parameter():
    report = run_theorem2(2)
    assert report["equal_through"] >= 2
    assert report["pi_allowed_at_roots"] == {"b": ["B"], "w": ["W"]}
    for tag, want in (("b", "B"), ("w", "W")):
        assert report["mv_solver"][tag]["rounds"] == 1
        assert report["mv_solver"][tag]["accepted"]
        assert report["mv_solver"][tag]["root_output"] == want
    # Observation, not part of the guarantee: the split happens right after.
    assert report["first_difference_round"] == 3


def test_root_experiment_guard():
    with pytest.raises(ResourceLimitError):
        run_theorem2(4)
    with pytest.raises(FormatError):
        run_theorem2(1)


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("run, parameter, name", [
    (run_theorem1, 3, "theorem1_delta3.json"),
    (run_theorem1, 4, "theorem1_delta4.json"),
    (run_theorem2, 3, "theorem2_d3.json"),
])
def test_reports_match_golden_files(run, parameter, name):
    # Pins every field but timings_ms, the mv solver on the coloured trees
    # included; the files use the CLI's JSON layout.
    report = run(parameter)
    del report["timings_ms"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / name).read_text()
