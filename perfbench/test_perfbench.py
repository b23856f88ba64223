"""Tests of the benchmark itself, on the tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_workload_runs_tiny_and_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    combined = _last_json(proc.stdout)
    assert combined["correct"] is True
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for workload in run.WORKLOADS:
        for name in names:
            metric = combined["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == units[name]
            assert metric["value"] > 0
    # The seed's known failures stay in the schedule and are counted.
    for line in ("failed_share 0.111111", "failed_share 0.014085", "failed_share 0.000000"):
        assert line in proc.stdout


def _tiny(workload, tmp_path, trace=0, seed=1):
    return workloads.run(workload, seed, 1, trace, True, tmp_path)


@pytest.mark.parametrize(
    "workload, section, key, bad",
    [
        ("powers", "powers", "T3/rm/3", "0" * 64),
        ("queries", "answers", "T3^2/sig", [3, 42, 1]),
        ("queries", "answers", "U5^1/orbit", [2, 2, 2, 2, 2, 2, 3]),
        ("queries", "elements", "T5^2", "0" * 64),
    ],
)
def test_corrupted_expected_value_fails_the_gate(monkeypatch, tmp_path, workload, section, key, bad):
    table = workloads.EXPECTED["powers"] if section == "powers" else workloads.EXPECTED["queries"][section]
    assert key in table
    assert not _tiny(workload, tmp_path).wrong
    monkeypatch.setitem(table, key, bad)
    outcome = _tiny(workload, tmp_path)
    assert any(w.startswith(key) for w in outcome.wrong), outcome.wrong


def test_wrong_product_fails_the_gate(monkeypatch, tmp_path):
    """A product off by one factor breaks the homomorphism checks even where
    no digest is recorded: the seeded words."""
    real_build = workloads.build_inputs

    def build_then_break(workload, tx, words, size):
        inputs = real_build(workload, tx, words, size)
        real = tx.group_product
        tx.group_product = lambda a, b: real(real(a, b), b)
        return inputs

    monkeypatch.setattr(workloads, "build_inputs", build_then_break)
    outcome = _tiny("powers", tmp_path)
    words = [w for w in outcome.wrong if not w.startswith("T3/")]
    assert words and all("digest" not in w for w in words), outcome.wrong


def test_traced_run_counters_repeat_and_cover_every_layer_metric(tmp_path):
    first = _tiny("powers", tmp_path, trace=1)
    second = _tiny("powers", tmp_path, trace=1)
    assert not first.wrong and not second.wrong
    counters = {k: v for k, (v, unit) in first.layer.items() if unit == "count" and k != "trace.spans"}
    assert counters == {k: v for k, (v, unit) in second.layer.items() if unit == "count" and k != "trace.spans"}
    assert counters["transducer.product_states"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (v, u) in first.layer.items()} == declared
    assert first.layer["trace.overhead_s"][0] > 0
    assert (tmp_path / "powers-seed1-tiny.json").is_file()


def test_traced_verify_reports_check_times(tmp_path):
    outcome = _tiny("verify", tmp_path, trace=1)
    assert not outcome.wrong
    assert outcome.layer["verify.F-relations_s"][0] > 0
    assert outcome.layer["verify.outside_largest_share"] == (0.0, "ratio")


def test_attempted_is_fixed_per_seed(tmp_path):
    a = _tiny("queries", tmp_path, seed=5)
    b = _tiny("queries", tmp_path, seed=5)
    assert [r.label for r in a.records] == [r.label for r in b.records]
    assert a.failed == b.failed == 1


def test_later_passes_only_add_samples(tmp_path):
    once = workloads.run("powers", 1, 0, 0, True, tmp_path)
    again = workloads.run("powers", 1, 6, 0, True, tmp_path)
    assert once.passes == 1 and again.passes > 1
    assert [r.label for r in once.records] == [r.label for r in again.records]
    assert once.failed == again.failed > 0 and not again.wrong
    assert again.samples > once.samples
    assert all(len(r.samples) == len(r.raw) for r in again.records)


def test_samples_are_scaled_by_the_calibration_around_the_call(monkeypatch):
    slices = iter([4e-4, 2e-4])  # the median calibration call before, after
    monkeypatch.setattr(workloads, "calibration_slice", lambda seconds: next(slices))
    runner = workloads.Runner(None)
    runner.speed = workloads.Speedometer()
    rec = runner.call("op", lambda: sum(range(1000)))
    assert rec.samples == [pytest.approx(rec.raw[0] * workloads.REFERENCE_S / 3e-4)]
    assert runner.speed.before == 2e-4


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "powers", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_quantile_interpolates_and_counts_samples_above():
    values = sorted([float(i) for i in range(1, 101)] + [float("inf")] * 5)
    assert run.quantile(values, 0.5) == (53.0, 52)
    assert run.quantile(values, 0.9) == (pytest.approx(94.6), 10)
    assert run.quantile(values, 0.99)[0] == float("inf")
    assert run.quantile([1.0, 3.0], 0.5) == (2.0, 0)
