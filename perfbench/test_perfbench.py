"""Self-tests of the benchmark at small sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from flowrecon import reconstruct  # noqa: E402
from flowrecon.ingest import parse_sensor_csv  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ["--months", "1", "--seconds", "1"]


def _bench(workload, *extra, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", *SMALL, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, env=env)
    return proc, json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else None


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_each_workload_prints_every_end_to_end_metric_with_its_unit(workload):
    proc, result = _bench(workload, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_writes_spans():
    proc, result = _bench("year-csv", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    shares = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".share")}
    assert max(shares, key=shares.get) == "ingest.parse.share"
    spans = (ROOT / ".perfbench_work" / "year-csv" / "spans.jsonl").read_text().splitlines()
    names = {json.loads(line)[1] for line in spans}
    assert {"driver.pass", "ingest.parse", "metrics.evaluate", "reconstruct.rebuild"} <= names


def test_benchmark_json_lists_the_metrics_the_command_prints():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.per_layer_specs()
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_command_fails_without_the_library_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "export", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def _small_pass(tmp_path, workload, seed=3):
    inputs.generate(workload, seed, tmp_path, months=1)
    inp = workloads.load(workload, tmp_path)
    sample = checks.sample_keys(seed, inp)
    res = workloads.run_pass(tracing.Api(), workloads.NullTracer(), inp, sample)
    return inp, res


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_the_library_as_it_is(tmp_path, workload):
    inp, res = _small_pass(tmp_path, workload)
    assert checks.check_pass(inp, res) == []
    assert res.failed == 0 and res.samples


def _perturb_one_slot(monkeypatch):
    original = reconstruct.reconstruct_day

    def perturbed(*args, **kwargs):
        day = original(*args, **kwargs)
        values = day.values.copy()
        values[100] += 0.5
        return type(day)(day.date, day.sensor_id, values, day.filled_slots)

    monkeypatch.setattr(reconstruct, "reconstruct_day", perturbed)


def test_a_reconstruction_off_by_one_slot_fails_the_checks(tmp_path, monkeypatch):
    _perturb_one_slot(monkeypatch)
    inp, res = _small_pass(tmp_path, "recon-sweep")
    fails = checks.check_pass(inp, res)
    assert any("Haar oracle" in f for f in fails)
    assert any("rescaled window sums" in f for f in fails)


def test_a_failed_check_makes_the_command_exit_nonzero(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(
        "import flowrecon.reconstruct as r\n"
        "_orig = r.reconstruct_day\n"
        "def _perturbed(*a, **k):\n"
        "    day = _orig(*a, **k)\n"
        "    day.values[100] += 0.5\n"
        "    return day\n"
        "r.reconstruct_day = _perturbed\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{tmp_path}:{ROOT / 'src'}"}
    proc, result = _bench("recon-sweep", "--trace", "0", env=env)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "CHECK FAILED: reconstruct_day differs from the Haar oracle" in proc.stdout


def test_injected_defect_counts_round_trip(tmp_path):
    inputs.generate("year-csv", 5, tmp_path, months=2)
    meta = json.loads((tmp_path / "meta.json").read_text())
    parsed = [parse_sensor_csv(path) for path in sorted(tmp_path.glob("input-*.csv"))]
    assert len(parsed) == 2
    rejected = sum(p.rejected_rows for p in parsed)
    duplicates = sum(p.duplicate_rows for p in parsed)
    assert (rejected, duplicates) == (meta["rejected"], meta["duplicates"])
    assert meta["rejected"] >= len(inputs.BAD_ROW_KINDS) and meta["duplicates"] > 0
    text = "".join(path.read_text() for path in sorted(tmp_path.glob("input-*.csv")))
    for pattern in (r" 25:\d\d:00,", r":\d[27]:00,", r"\+02:00,", r",-4\n", r",n/a\n"):
        assert re.search(pattern, text), pattern
    kept = np.load(tmp_path / "kept.npy")
    assert sum(len(p.records) for p in parsed) == kept.sum()
    assert (~kept).all(axis=1).sum() == len(meta["outage_days"]) == 1


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for path, seed in ((a, 1), (b, 1), (c, 2)):
        path.mkdir()
        inputs.generate("year-csv", seed, path, months=1)
    assert _file_bytes(a) == _file_bytes(b) != _file_bytes(c)


def _file_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_times_are_scaled_by_the_speed_around_them():
    ref_ms = speed.REF_MS / 1e3
    assert speed.factor([ref_ms] * 99 + [1.0]) == pytest.approx(1.0)
    assert speed.factor([2 * ref_ms] * 100) == pytest.approx(0.5)
    window = speed.DAY_WINDOW
    after = [ref_ms] * (2 * window + 1) + [2 * ref_ms] * (2 * window + 1)
    days = speed.day_factors(after)
    assert days[window] == pytest.approx(1.0) and days[-window - 1] == pytest.approx(0.5)
    # the window of the last day at full speed holds window + 1 days at full speed and window at half
    assert days[2 * window] == pytest.approx((2 * window + 1) / (3 * window + 1))
    passes = [
        {"day_ms": [2.0, 4.0], "day_speed": [1.0, 1.0], "wall_s": 1.0, "days": 2, "speed": 1.0},
        {"day_ms": [4.0, 4.0], "day_speed": [0.5, 1.0], "wall_s": 2.0, "days": 2, "speed": 0.5},
        {"day_ms": [2.0, 8.0], "day_speed": [1.0, 0.5], "wall_s": 1.0, "days": 2, "speed": 1.0},
    ]
    assert worker.day_times(passes) == [2.0, 4.0]
    assert worker.days_per_s(passes) == 2.0


def test_each_timed_piece_is_followed_by_reference_runs(tmp_path):
    inp, res = _small_pass(tmp_path, "recon-sweep")
    assert len(res.ref_s) > res.days
    assert 0.0 < speed.factor(res.ref_s) <= 2.0
