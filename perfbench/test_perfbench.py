"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import speed
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# ---------------------------------------------------------------- percentiles
def test_tail_percentile_at_paper_eval_cell_count():
    # 139 cells: 13 samples lie beyond the 90th percentile, 6 beyond the 95th.
    assert measure.samples_beyond(139, 90.0) == 13
    assert measure.samples_beyond(139, 95.0) == 6
    assert measure.tail_percentile(139) == 90.0


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert measure.tail_percentile(count) == expected
    if expected is not None:
        assert measure.samples_beyond(count, expected) >= 10


def test_nearest_rank():
    values = sorted(range(1, 11))
    assert measure.nearest_rank(values, 50.0) == 5
    assert measure.nearest_rank(values, 90.0) == 9
    assert measure.nearest_rank(values, 100.0) == 10
    assert measure.nearest_rank([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        measure.nearest_rank([], 50.0)


def test_summarize_reports_quartiles_and_count():
    stats = measure.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert stats["median"] == 3.0
    assert stats["n"] == 5
    assert (stats["q1"], stats["q3"]) == (1.5, 4.5)  # statistics.quantiles, exclusive
    assert measure.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert measure.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# ------------------------------------------------------------------ self time
def test_self_time_with_nested_and_overlapping_children():
    # (1, 3) and (2, 5) overlap; (2.5, 2.8) nests inside both; (7, 12) sticks
    # out of the parent and is clipped at 10; (11, 13) lies outside entirely.
    children = [(1.0, 3.0), (2.0, 5.0), (2.5, 2.8), (7.0, 12.0), (11.0, 13.0)]
    assert measure.covered_length(0.0, 10.0, children) == pytest.approx(7.0)
    assert measure.self_time(0.0, 10.0, children) == pytest.approx(3.0)
    assert measure.self_time(0.0, 10.0, []) == 10.0
    assert measure.self_time(0.0, 10.0, [(0.0, 10.0), (0.0, 10.0)]) == 0.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_tracer_self_time_of_nested_spans():
    # outer 0..10 holds inner 2..6, which holds leaf 3..4 (a kept span each).
    tracer = tracing.Tracer(clock=FakeClock([0.0, 2.0, 3.0, 4.0, 6.0, 10.0]))

    def leaf():
        return "leaf"

    def inner():
        return tracer.call("leaf", True, None, leaf, (), {})

    def outer():
        return tracer.call("inner", True, None, inner, (), {})

    assert tracer.call("outer", True, "cell-1", outer, (), {}) == "leaf"
    assert tracer.self_s("outer") == pytest.approx(6.0)
    assert tracer.self_s("inner") == pytest.approx(3.0)
    assert tracer.self_s("leaf") == pytest.approx(1.0)
    assert tracer.busy_s("inner") == pytest.approx(4.0)
    by_name = {span["name"]: span for span in tracer.spans}
    assert by_name["leaf"]["parent"] == by_name["inner"]["id"]
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert {span["cell"] for span in tracer.spans} == {"cell-1"}  # inherited


def test_tracer_counts_reentrant_calls_of_one_layer_once():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 5.0]))

    def recursive(depth):
        if depth:
            return tracer.call("layer", False, None, recursive, (depth - 1,), {})
        return depth

    tracer.call("layer", False, None, recursive, (3,), {})
    assert tracer.calls("layer") == 1
    assert tracer.busy_s("layer") == 5.0
    assert tracer.spans == []  # aggregated, not kept


def test_tracer_restores_state_when_the_call_raises():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("layer", True, None, boom, (), {})
    assert tracer.call("layer", True, None, lambda: 7, (), {}) == 7
    assert tracer.calls("layer") == 2


# -------------------------------------------------------------------- digests
def test_digest_ignores_key_order_and_sequence_type():
    assert measure.digest({"a": 1, "b": [1, 2]}) == measure.digest({"b": (1, 2), "a": 1})
    assert measure.digest({1: "x"}) == measure.digest({"1": "x"})
    assert measure.digest({3, 1, 2}) == measure.digest([1, 2, 3])


def test_digest_keeps_every_float_digit():
    assert measure.digest(0.1 + 0.2) != measure.digest(0.3)
    assert measure.canonical_json(0.1 + 0.2) == "0.30000000000000004"


def test_digest_equates_numpy_and_python_values():
    assert measure.digest({"x": np.float64(1.5), "n": np.int64(3), "a": np.arange(3)}) \
        == measure.digest({"x": 1.5, "n": 3, "a": [0, 1, 2]})
    assert measure.digest(np.bool_(True)) == measure.digest(True)


def test_digest_refuses_unknown_types():
    with pytest.raises(TypeError):
        measure.digest({"x": object()})


# ---------------------------------------------------------------- host speed
REF = speed.REFERENCE_KERNEL_S


def test_timeline_leaves_out_probe_windows_and_scales_by_speed():
    # Probe windows [1, 1.1] and [2, 2.1]; the host runs at half the
    # reference speed before the second window's end, at reference after.
    timeline = speed.Timeline([(1.0, 1.1, 2 * REF), (2.0, 2.1, 2 * REF)])
    assert timeline.host_s(0.0, 3.0) == pytest.approx(2.8)
    assert timeline.reference_s(0.0, 3.0) == pytest.approx(1.4)
    assert timeline.speed(0.0, 3.0) == pytest.approx(0.5)
    # Intervals inside one stretch, or inside a probe window.
    assert timeline.reference_s(1.5, 1.7) == pytest.approx(0.1)
    assert timeline.host_s(1.02, 1.08) == 0.0


def test_timeline_stretch_cost_is_the_mean_of_its_two_samples(monkeypatch):
    monkeypatch.setattr(speed, "SMOOTH", 0)
    timeline = speed.Timeline([(0.0, 0.0, REF), (1.0, 1.0, 3 * REF)])
    assert timeline.reference_s(0.0, 1.0) == pytest.approx(0.5)
    assert timeline.reference_s(1.0, 2.0) == pytest.approx(1.0 / 3)


def test_timeline_smooths_a_lone_outlier_sample():
    samples = [(float(i), float(i), REF) for i in range(9)]
    samples[4] = (4.0, 4.0, 50 * REF)
    assert speed.Timeline(samples).reference_s(0.0, 8.0) == pytest.approx(8.0)


def test_pool_speed_is_the_mean_of_worker_speeds(tmp_path):
    (tmp_path / "1.log").write_text(f"0.0 0.0 {REF!r}\n2.0 2.0 {REF!r}\n")
    (tmp_path / "2.log").write_text(f"0.0 0.0 {4 * REF!r}\n1.0 1.0 {4 * REF!r}\n1.5 1.")
    workers = speed.read_samples(sorted(tmp_path.glob("*.log")))
    assert [len(samples) for samples in workers] == [2, 2]  # torn line skipped
    assert speed.pool_speed(workers, 0.0, 2.0) == pytest.approx((1.0 + 0.25) / 2)


def test_probe_samples_while_work_runs_and_writes_its_sink(tmp_path):
    sink = tmp_path / "probe.log"
    probe = speed.SpeedProbe(sink=sink, interval_s=0.005).start()
    try:
        start = speed.time.monotonic()
        while speed.time.monotonic() - start < 0.1:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert len(speed.read_samples([sink])[0]) == len(probe.samples)
    timeline = probe.timeline()
    assert 0 < timeline.host_s(start, start + 0.1) < 0.1
    assert timeline.reference_s(start, start + 0.1) > 0


# ------------------------------------------------------------------- identity
_HASH_SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import measure
from workloads import OpenLoopMicro, PoolDispatch
from pathlib import Path
out = {{}}
for cls in (OpenLoopMicro, PoolDispatch):
    workload = cls(7, Path("unused"))
    workload.plan()
    out[cls.name] = workload.definition_hash()
out["fixed"] = measure.definition_hash("w", {{"workers": 2}}, ["a", "b"])
print(json.dumps(out))
"""


def _hashes_in_fresh_process(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", _HASH_SCRIPT.format(here=str(HERE), src=str(SRC))],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_definition_hash_is_stable_across_processes():
    first, second = _hashes_in_fresh_process("1"), _hashes_in_fresh_process("2")
    assert first == second
    assert first["fixed"] == measure.definition_hash("w", {"workers": 2}, ["a", "b"])
    assert first["open-loop-micro"] != first["pool-dispatch"]


def test_definition_hash_changes_with_cells_and_parameters():
    base = measure.definition_hash("w", {"workers": 2}, ["a", "b"])
    assert base != measure.definition_hash("w", {"workers": 1}, ["a", "b"])
    assert base != measure.definition_hash("w", {"workers": 2}, ["b", "a"])
    assert base != measure.definition_hash("w", {"workers": 2}, ["a"])


def test_incomparable_records_are_named():
    left = {"workload": "w", "definition_hash": "d", "benchmark_revision": "r",
            "run_seconds": 10, "trace": 0, "machine": {"cpu_count": 2}, "seed": 1}
    assert measure.comparability_problems(left, dict(left, seed=2)) == []
    problems = measure.comparability_problems(
        left, dict(left, definition_hash="e", machine={"cpu_count": 4}))
    assert [problem.split()[0] for problem in problems] == ["definition_hash", "machine"]


def _write_records(directory: Path, walls, **identity):
    directory.mkdir()
    base = {"workload": "paper-eval", "trace": 0, "definition_hash": "d",
            "benchmark_revision": "r", "run_seconds": 20, "machine": {"cpu_count": 2}}
    base.update(identity)
    for seed, wall in enumerate(walls):
        record = dict(base, seed=seed, metrics={
            "wall_s": {"median": wall, "q1": wall, "q3": wall, "n": 1, "unit": "s"}})
        (directory / f"run{seed}.json").write_text(json.dumps(record))


def test_compare_refuses_a_different_machine_or_definition(tmp_path):
    import compare

    _write_records(tmp_path / "a", [10.0, 10.1, 9.9])
    _write_records(tmp_path / "b", [10.0, 10.1, 9.9], machine={"cpu_count": 4})
    _write_records(tmp_path / "c", [10.0, 10.1, 9.9], definition_hash="other")
    assert compare.compare(tmp_path / "a", tmp_path / "b", out=io.StringIO()) == 3
    assert compare.compare(tmp_path / "a", tmp_path / "c", out=io.StringIO()) == 3


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    import compare

    _write_records(tmp_path / "a", [10.0, 10.1, 9.9])
    _write_records(tmp_path / "same", [10.2, 9.8, 10.0])
    _write_records(tmp_path / "slow", [14.0, 14.1, 13.9])
    assert compare.compare(tmp_path / "a", tmp_path / "same", out=io.StringIO()) == 0
    assert compare.compare(tmp_path / "a", tmp_path / "slow", out=io.StringIO()) == 1
