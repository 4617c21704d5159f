import json
from pathlib import Path

import pytest

from svmv.errors import FormatError, ResourceLimitError
from svmv.experiments import run_theorem1, run_theorem2


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
