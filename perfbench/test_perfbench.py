"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ehpolicy import evaluation, metrics  # noqa: E402


def _run(name, trace=0):
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, size="tiny", setup_samples=1)


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(name):
    record = _run(name)
    assert record["attempted"] == sum(op.cells for op in workloads.build(name, 3, "tiny").ops)
    assert set(record["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}
    for item in record["metrics"].values():
        assert item["value"] > 0
    assert record["failed"] == 0, record["failures"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_add_up_to_wall(name):
    record = _run(name, trace=1)
    values = {k: v["value"] for k, v in record["metrics"].items()}
    assert list(values) == [m["name"] for m in _benchmark_json()["per_layer"]]
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s")) + values["trace.root_self_s"]
    assert self_total == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert record["attempted"] == 2 * sum(op.cells for op in workloads.build(name, 3, "tiny").ops)


def test_workload_names_agree():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(workloads.WORKLOADS)


def test_seed_fixes_inputs():
    first = [op.label for op in workloads.build("mc_wide", 5, "tiny").ops]
    assert first == [op.label for op in workloads.build("mc_wide", 5, "tiny").ops]
    assert first != [op.label for op in workloads.build("mc_wide", 6, "tiny").ops]


def _scaled(fn, factor):
    def wrong(*args, **kwargs):
        result = fn(*args, **kwargs)
        return replace(result, value=result.value * factor)

    return wrong


@pytest.mark.parametrize(
    "name, owner, attr",
    [
        ("series_bernoulli", metrics, "bernoulli_reward"),
        ("vi_uniform", metrics, "policy_gain"),
        ("mc_long", evaluation, "simulate"),
        ("mc_wide", evaluation, "simulate"),
    ],
)
def test_value_off_by_one_percent_fails_its_op(monkeypatch, name, owner, attr):
    monkeypatch.setattr(owner, attr, _scaled(getattr(owner, attr), 1.01))
    record = _run(name)
    assert record["failed"] == record["attempted"]
    assert all(item["causes"] for item in record["failures"])


def test_understated_series_tolerance_is_noted_not_failed():
    # sqrt at c=2, p=0.5: maximin is greedy in exact arithmetic, and the
    # bisection leaves the reported optimum 6e-14 below greedy's gain.
    record = _run("series_bernoulli")
    assert record["failed"] == 0
    assert any("sqrt c=2.0 p=0.5 greedy" in note for note in record["notes"])


def test_inversion_slack_is_small():
    sqrt = workloads.REWARDS["sqrt"]()
    assert workloads.inversion_slack(sqrt, 0.5) == pytest.approx(1e-12)
    assert workloads.inversion_slack(workloads.REWARDS["awgn:1"](), 0.5) == 0.0


def test_raising_op_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(metrics, "sweep", broken)
    record = _run("vi_uniform")
    assert record["failed"] == record["attempted"]
    assert "broken on purpose" in record["failures"][0]["causes"][0]


def test_recorder_restores_what_it_wraps():
    before = (metrics.sweep, evaluation.simulate, workloads.metrics.make_policy)
    rec = spans.Recorder()
    rec.install()
    assert metrics.sweep is not before[0]
    rec.uninstall()
    assert (metrics.sweep, evaluation.simulate, workloads.metrics.make_policy) == before


def test_calibration_rescales_to_nominal_speed():
    # kernel at half the nominal speed: every op counts half its time
    rounds = [(0.0, [], [1.0, 2.0], [2 * run.CAL_NOMINAL_S] * 3)] * 3
    assert run._typical_round_s(rounds) == 3.0
    assert run._typical_round_s(rounds, calibrate=True) == pytest.approx(1.5)


def test_self_time_is_span_minus_children():
    rec = spans.Recorder()
    inner = rec._wrap(lambda: sum(range(20000)), "inner")
    outer = rec._wrap(lambda: [inner() for _ in range(3)], "outer")
    rec.start()
    outer()
    rec.stop()
    node = rec.root.children["outer"]
    child = node.children["inner"]
    assert child.calls == 3
    assert node.self_s == pytest.approx(node.total_s - child.total_s)
    assert [span[2] for span in rec.raw] == ["outer", "inner", "inner", "inner"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
