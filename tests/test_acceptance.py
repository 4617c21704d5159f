"""Acceptance gate: every criterion at its stated tolerance, one line each.

The rows come from the same functions the `reproduce` command uses, so a
green run here matches a zero exit of `svmv reproduce`.
"""

import pytest

from svmv.errors import ResourceLimitError
from svmv.families import build_full
from svmv.reproduce import (bisim_radius_rows, caps_row, collapse_audit_rows,
                            property_rows, psw_rows, psw_witness_row,
                            simulation_rows, theorem1_rows, theorem2_rows)

SEED = 0


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


def test_criterion_7_property_suites():
    _check(property_rows(SEED))


def test_criterion_8_desk_scale_caps_documented():
    row = caps_row()
    _check([row])
    assert "d>=6" in row.observed
    with pytest.raises(ResourceLimitError):
        build_full("g", 6, max_nodes=10_000)


def test_collapse_audit_rows_hold():
    _check(collapse_audit_rows())
