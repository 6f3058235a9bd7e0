"""The summary of tools/ab.py, the paired A/B runner: the numbers its claim rule reads."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRIC = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def runs_of(base, head, workload="w"):
    """Two runs per pair, with ``None`` for a run that is missing."""
    return [
        {
            "workload": workload, "pair": pair, "side": side, "first": side == "base",
            "wall_s": 1.0,
            "result": {"correct": True, "attempted": 4, "failed": 1,
                       "metrics": {"setup_s": {"value": value, "unit": "s"}}},
        }
        for pair, values in enumerate(zip(base, head))
        for side, value in zip(ab.SIDES, values)
        if value is not None
    ]


def test_known_pairs():
    # Paired differences -0.5, -0.5, 0.5, 0, -1: one tie, which counts for neither side.
    summary = ab.summarize(runs_of([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 3.5, 4.0, 4.0]), [METRIC])
    entry = summary["w"]["setup_s"]
    assert entry["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert entry["head"]["median"] == 3.5
    assert entry["median_paired_diff"] == -0.5
    assert entry["diff_over_base_iqr"] == -0.25
    assert entry["relative_change_of_medians"] == 3.5 / 3.0 - 1.0
    assert (entry["head_lower"], entry["pairs"]) == (3, 5)
    assert (entry["unit"], entry["better"], entry["bound"]) == ("s", "lower", 0.25)
    assert summary["w"]["base"] == {"correct": True, "failed": 5, "attempted": 20}


def test_one_pair_and_an_incomplete_pair():
    # A pair with one side missing is left out; one pair has no spread.
    entry = ab.summarize(runs_of([2.0, 9.0], [1.0, None]), [METRIC])["w"]["setup_s"]
    assert entry["pairs"] == 1 and entry["head_lower"] == 1
    assert entry["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert entry["diff_over_base_iqr"] is None
