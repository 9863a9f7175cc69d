"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os

import pytest

import run
from measure import METRIC_NAME, percentile, result_line, tail_percentile
from spans import SpanRecorder, aggregate, patched, self_times
from workloads import (
    AFTER_FAILURE,
    EXPOSED,
    UNEXPLAINED,
    check_fig8,
    check_hammer,
    check_serve,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (1, 50.0),
        (19, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_steps_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 75) == 4.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_over_nested_and_sibling_spans():
    #            0: root [0, 100]
    #   1: a [10, 40]       2: b [50, 70]   3: c [60, 80] (overlaps b)
    #   4: a.x [20, 30]                     5: d [90, 120] (past root)
    starts = [0, 10, 50, 60, 20, 90]
    ends = [100, 40, 70, 80, 30, 120]
    parents = [-1, 0, 0, 0, 1, 0]
    # root: children cover [10,40] + [50,80] + [90,100] = 70.
    assert self_times(starts, ends, parents) == [30, 20, 20, 20, 10, 30]


def test_self_time_does_not_depend_on_span_order():
    starts = [0, 10, 50, 60, 20, 90]
    ends = [100, 40, 70, 80, 30, 120]
    parents = [-1, 0, 0, 0, 1, 0]
    order = [3, 5, 0, 4, 2, 1]
    where = {old: new for new, old in enumerate(order)}
    shuffled = self_times(
        [starts[i] for i in order],
        [ends[i] for i in order],
        [where[parents[i]] if parents[i] >= 0 else -1 for i in order],
    )
    assert shuffled == [[30, 20, 20, 20, 10, 30][i] for i in order]


class _Toy:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


def test_patched_records_nesting_and_restores_originals():
    original_outer = _Toy.__dict__["outer"]
    recorder = SpanRecorder()
    wraps = [("toy.outer", _Toy, "outer"), ("toy.inner", _Toy, "inner")]
    with patched(recorder, wraps):
        assert _Toy().outer() == "done"
    assert _Toy.__dict__["outer"] is original_outer
    table = aggregate(recorder)
    assert table["toy.outer"]["calls"] == 1
    assert table["toy.inner"]["calls"] == 2
    outer_ms = table["toy.outer"]["incl_ms"]
    inner_ms = table["toy.inner"]["incl_ms"]
    assert table["toy.outer"]["self_ms"] == pytest.approx(outer_ms - inner_ms)
    assert list(recorder.parent) == [-1, 0, 0]
    assert recorder.dropped == 0


def test_patched_restores_an_inherited_attribute_by_deleting_it():
    class Child(_Toy):
        pass

    with patched(SpanRecorder(), [("toy.inner", Child, "inner")]):
        assert "inner" in vars(Child)
    assert "inner" not in vars(Child)


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_every_metric_name_keeps_to_the_charset():
    names = [name for name, _ in run.E2E]
    names += [name for name, _, _ in run.per_layer_catalog()]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


@pytest.mark.parametrize("bad", ["has space", "slash/name", "", ".leading", "a" * 65])
def test_result_line_refuses_a_bad_metric_name(bad):
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {bad: {"value": 1.0, "unit": "s"}})


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == run.per_layer_catalog()
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def _fig8_payload() -> dict:
    unlocked = [("layer1", i, 7, True, 0) for i in range(4)]
    locked = [("layer1", i, 7, False, 6000) for i in range(4)]
    return {
        "clean_accuracy": 99.0,
        "unlocked": {
            "flips": unlocked,
            "executed_flips": 4,
            "final_accuracy": 40.0,
        },
        "locked": {
            "flips": locked,
            "witness": [[], [], [], []],
            "executed_flips": 0,
            "final_accuracy": 99.0,
        },
    }


def test_fig8_check_passes_an_honest_payload():
    assert check_fig8(_fig8_payload()) == []


def test_a_locked_arm_flip_before_any_swap_failure_raises_error_rate():
    payload = _fig8_payload()
    attempted = len(payload["unlocked"]["flips"]) + len(payload["locked"]["flips"])
    doctored = copy.deepcopy(payload)
    doctored["locked"]["flips"][2] = ("layer1", 2, 7, True, 0)
    doctored["locked"]["witness"][2] = [UNEXPLAINED]
    doctored["locked"]["executed_flips"] = 1
    doctored["locked"]["final_accuracy"] = 60.0
    failures = check_fig8(doctored)
    assert failures == ["locked iteration 3: a bit flipped before any SWAP failed"]
    assert len(failures) / attempted > len(check_fig8(payload)) / attempted


def test_fig8_check_catches_silent_accuracy_loss_and_a_failed_attack():
    payload = _fig8_payload()
    payload["locked"]["final_accuracy"] = 98.0
    payload["unlocked"]["flips"][0] = ("layer1", 0, 7, False, 0)
    payload["unlocked"]["final_accuracy"] = 99.0
    assert len(check_fig8(payload)) == 3


def test_serve_check_counts_unexplained_flips_and_unbalanced_books():
    book = {"requests": 10, "issued": 6, "blocked": 4}
    payload = {
        "witness": [[], [EXPOSED], [AFTER_FAILURE, UNEXPLAINED]],
        "sla": {"aggregate": dict(book), "tenants": {"tenant-0": dict(book, blocked=3)}},
    }
    assert check_serve(payload) == [
        "slice 3: a bit flipped before any SWAP failed",
        "tenant-0: requests != issued + blocked",
    ]


def test_hammer_check_pins_the_locker_and_undefended_cells():
    def cell(flipped, issued):
        return {"protected_bits_flipped": flipped, "outcomes": [{"issued": issued}]}

    good = {"DRAM-Locker": cell(0, 0), "None": cell(2, 6000), "TRR": cell(0, 6000)}
    assert check_hammer(good, victims=2) == []
    bad = dict(good, **{"DRAM-Locker": cell(0, 1), "None": cell(1, 6000)})
    bad["RRS"] = {"error": "ValueError: boom"}
    assert len(check_hammer(bad, victims=2)) == 3
