"""Acceptance gate: every criterion at its stated tolerance, one line each.

The rows come from the same functions the `reproduce` command uses, so a
green run here matches a zero exit of `svmv reproduce`.
"""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from svmv import propsuite, reproduce
from svmv.errors import ResourceLimitError
from svmv.families import PortCollapse, build_full
from svmv.reproduce import (bisim_radius_rows, caps_row, collapse_audit_rows,
                            property_rows, psw_rows, psw_witness_row,
                            simulation_rows, theorem1_rows, theorem2_rows)
from svmv.util import derive_seed

SEED = 0
GOLDEN = Path(__file__).resolve().parent / "golden"


def _check(rows):
    failures = []
    for row in rows:
        tag = "PASS" if row.passed else "FAIL"
        print(f"{tag} {row.criterion} [{row.parameter}] expected={row.expected}"
              f" observed={row.observed}")
        if not row.passed:
            failures.append(row)
    assert not failures, \
        f"{len(failures)} criterion rows failed: " \
        f"{[(r.criterion, r.parameter) for r in failures]}"


def test_criterion_1_critical_walk_lengths():
    _check(psw_rows(d_max=5))


def test_criterion_2_explicit_witness_labels():
    _check([psw_witness_row()])


def test_criterion_3_bisimilarity_radii():
    _check(bisim_radius_rows())


def test_criterion_4_message_equality_experiment():
    _check(theorem1_rows())


def test_criterion_5_coloured_root_experiment():
    _check(theorem2_rows())


def test_criterion_6_simulation_differential():
    _check(simulation_rows(SEED))


def test_simulation_rows_pass_the_seed_to_their_draws(monkeypatch):
    # Two seeds whose rows all hold print the same rows, so the graphs the
    # rows run on are what shows that the seed still reaches the draws.
    run_simulation = reproduce.run_simulation

    def graphs_run(seed):
        seen = []

        def recording(inner, graph, colouring=None, **kw):
            seen.append((graph.to_json(), colouring))
            return run_simulation(inner, graph, colouring, **kw)

        monkeypatch.setattr(reproduce, "run_simulation", recording)
        _check(simulation_rows(seed))
        return seen

    first = graphs_run(SEED)
    assert len(first) == 102
    assert graphs_run(SEED) == first
    assert graphs_run(1729) != first


def test_criterion_7_property_suites():
    _check(property_rows(SEED))


def test_property_suites_draw_the_pinned_values(monkeypatch):
    # Passing suites read only "all held", so the draws are what pins the
    # cases each suite checks.  Every generator the suites seed counts and
    # hashes the values it hands out, filed under its seed.
    logs = {}

    class Recording(random.Random):
        def __init__(self, seed):
            self.log = logs.setdefault(seed, [0, hashlib.sha256()])
            super().__init__(seed)

        def _note(self, value):
            self.log[0] += 1
            self.log[1].update(repr(value).encode())
            return value

        def random(self):
            return self._note(super().random())

        def getrandbits(self, k):
            return self._note(super().getrandbits(k))

    monkeypatch.setattr(propsuite, "random", SimpleNamespace(Random=Recording))
    propsuite.run_all_suites(SEED)
    golden = json.loads((GOLDEN / "propsuite_draws_seed0.json").read_text())
    seen = {}
    for name in golden:
        count, digest = logs[derive_seed(SEED, name)]
        seen[name] = {"draws": count, "sha256": digest.hexdigest()}
    assert seen == golden


def test_property_suites_build_one_view_per_tree_per_run(monkeypatch):
    # The suites share the run's views; building one per case made up to
    # 864 views of a single tree.
    built = Counter()

    class Counting(propsuite.FamilyView):
        def __init__(self, family, d, collapse=None):
            built[family, d, collapse is not None] += 1
            super().__init__(family, d, collapse)

    monkeypatch.setattr(propsuite, "FamilyView", Counting)
    for _ in range(2):
        built.clear()
        propsuite.run_all_suites(SEED)
        assert built and set(built.values()) == {1}, built
    assert ("g", 2, True) in built and ("hb", 3, False) in built


def test_a_failing_property_suite_reports_its_first_failure(monkeypatch):
    # Every degree-law case now disagrees with the patched law, twice.
    monkeypatch.setattr(propsuite, "node_degree", lambda family, v, d: 0)
    first, *others = property_rows(SEED)
    assert first.criterion == "property-degree-law"
    assert not first.passed
    assert first.observed == (
        "500 cases, 11+ failures: hw d=2 ((2, 1, 'B'), (2, 1, 'G'), "
        "(2, 1, 'W')): degree 2 != 0")
    assert len(others) == 7
    assert all(row.passed for row in others)


def test_criterion_8_desk_scale_caps_documented():
    row = caps_row()
    _check([row])
    assert "d>=6" in row.observed
    with pytest.raises(ResourceLimitError):
        build_full("g", 6)


def test_collapse_audit_rows_hold():
    _check(collapse_audit_rows())


def test_collapse_audit_counts_improper_internal_nodes(monkeypatch):
    # The fault hook swaps only the g collapse, and a runnable g numbering
    # is proper at every internal node, since each has degree delta.  Here
    # hb d=2 maps (0,G) onto 3: still injective per node and within 1..3,
    # but the degree-2 nodes that write (0,G) now carry port 3.
    family_collapse = reproduce.family_collapse

    def faulty(family, d):
        collapse = family_collapse(family, d)
        if (family, d) != ("hb", 2):
            return collapse
        return PortCollapse("h(d=2)-shifted",
                            {**collapse.mapping, (0, "G"): 3})

    monkeypatch.setattr("svmv.reproduce.family_collapse", faulty)
    rows = {row.parameter: row for row in collapse_audit_rows()}
    assert not rows["hb d=2"].passed
    assert rows["hb d=2"].observed == "4 internal nodes break properness"
    assert all(row.passed for parameter, row in rows.items()
               if parameter != "hb d=2")
