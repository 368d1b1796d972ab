"""Smoke test of the benchmark harness (``python -m repro.bench --quick``).

The quick run is a fixed, tiny run of every workload — not a measurement —
that proves the harness emits every metric ``BENCHMARK.json`` declares,
with its unit and a finite value, and that no correctness check fails.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.compare import compare, format_rows, verdict
from repro.bench.measure import Recorder
from repro.bench.spec import BENCHMARK_PATH, WORKLOADS_PATH, MetricSpec, load
from repro.obs.cli import main as obs_main

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SCRIPT = Path(BENCHMARK_PATH).parent / "src" / "repro" / "bench" / "run.py"


def _contract():
    with open(BENCHMARK_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _run(tmp_path, argv):
    """Run the benchmark script in a fresh process with ``tmp_path`` as the
    working directory; return (last stdout line as JSON, the --out JSON).

    A fresh process keeps the test runner's frames out of the profiled
    Python call paths, which would otherwise make every capture slower.
    """
    out = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, str(SCRIPT)] + argv + ["--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    last = completed.stdout.strip().splitlines()[-1]
    return json.loads(last), json.loads(out.read_text(encoding="utf-8"))


def test_contract_shape():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = ([entry["name"] for entry in contract["workloads"]]
             + [entry["name"] for entry in contract["end_to_end"]]
             + [entry["name"] for entry in contract["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert all(entry["bound"] <= 0.10 for entry in contract["end_to_end"])
    setup = next(entry for entry in contract["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in contract["end_to_end"])


def test_every_layer_metric_names_what_it_moves():
    contract = _contract()
    with open(WORKLOADS_PATH, encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    end_to_end = {entry["name"] for entry in contract["end_to_end"]}
    workloads = {entry["name"] for entry in contract["workloads"]}
    assert set(layers) == {entry["name"] for entry in contract["per_layer"]}
    for name, entry in layers.items():
        assert entry["moves"] and set(entry["moves"]) <= end_to_end, name
        assert entry["workloads"] and set(entry["workloads"]) <= workloads, name


def _assert_emitted(metrics, declared):
    assert set(metrics) == {spec.name for spec in declared}
    for spec in declared:
        record = metrics[spec.name]
        assert record["unit"] == spec.unit, spec.name
        assert isinstance(record["value"], float) and math.isfinite(record["value"]), spec.name


def test_quick_run_emits_every_end_to_end_metric(tmp_path):
    bench = load(quick=True)
    summary, result = _run(tmp_path, ["--quick"])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    for name, workload in result["sets"][0]["workloads"].items():
        assert workload["error_rate"] == 0, (name, workload["failures"])
        _assert_emitted(workload["metrics"], bench.end_to_end)
    assert result["env"]["threads"] == 1  # one process, one OS thread
    assert not (tmp_path / ".bench_work").exists()


def test_quick_traced_run_emits_every_per_layer_metric(tmp_path, capsys):
    bench = load(quick=True)
    trace = tmp_path / "trace.json"
    summary, result = _run(tmp_path, ["--quick", "--trace", "1", "--workload", "jit_fused",
                                      "--trace-out", str(trace)])
    assert summary["correct"] is True and summary["failed"] == 0
    workload = result["sets"][0]["workloads"]["jit_fused"]
    _assert_emitted(workload["metrics"], bench.per_layer)
    _assert_emitted(summary["metrics"], bench.per_layer)
    assert workload["consistency"]["rung"] == "+cpu_time"
    assert workload["spans_dropped"] == 0
    assert any(name.startswith("bench.") for name in workload["self_time_ms_per_cycle"])
    assert obs_main([str(trace)]) == 0
    assert "bench.fleet.ingest" in capsys.readouterr().out


def test_fails_without_the_profiler_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's paths: exit non-zero, print no result."""
    root = Path(BENCHMARK_PATH).parent
    shutil.copy(BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    for path in _contract()["paths"]:
        shutil.copytree(root / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "src/repro/bench/run.py", "--workload", "jit_fused",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"})
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_timings_are_divided_by_the_measured_host_slowdown():
    recorder = Recorder()
    recorder.calibrate()
    assert recorder.slowdown > 0 and recorder.slowdowns == [recorder.slowdown]
    recorder.slowdown = 2.0
    assert 0.5 <= recorder.since(time.perf_counter() - 1.0) < 0.6


LOWER = "lower"


def _stats(median, q1=None, q3=None):
    return {"median": median, "q1": median if q1 is None else q1,
            "q3": median if q3 is None else q3}


@pytest.mark.parametrize("a, b, better, expected", [
    (_stats(10, 9.9, 10.1), _stats(10.2, 10.1, 10.3), LOWER, "same"),
    (_stats(10, 9.9, 10.1), _stats(11.5, 11.4, 11.6), LOWER, "worse"),
    (_stats(10, 9.9, 10.1), _stats(8.5, 8.4, 8.6), LOWER, "better"),
    # A gain smaller than the bound is not called.
    (_stats(10, 9.9, 10.1), _stats(9.5, 9.4, 9.6), LOWER, "same"),
    # Spread wider than the bound, overlapping quartiles: undecided.
    (_stats(10, 8, 12), _stats(10.5, 8.5, 12.5), LOWER, "unresolved"),
    # Spread wider than the bound, but every quartile of B is worse.
    (_stats(10, 9, 11), _stats(14, 13, 15), LOWER, "worse"),
    (_stats(10, 9, 11), _stats(6, 5, 7), LOWER, "better"),
    # Higher is better: a drop is a regression.
    (_stats(0.9, 0.89, 0.91), _stats(0.7, 0.69, 0.71), "higher", "worse"),
    (_stats(100.0), _stats(100.0), LOWER, "same"),
])
def test_compare_verdicts(a, b, better, expected):
    assert verdict(a, b, better, 0.1)[0] == expected


def test_compare_rows_give_ratio_bases_and_error_rates():
    def result(overhead, base, failed):
        metrics = {"overhead_x": dict(_stats(overhead, overhead * 0.99, overhead * 1.01),
                                      value=overhead, n=10, base={"median": base})}
        return {"sets": [{"workloads": {"eager_llm": {
            "metrics": metrics, "error_rate": failed}}}]}

    rows = compare(result(4.0, 18.0, 0.0), result(3.0, 18.1, 0.01),
                   [MetricSpec("overhead_x", "ratio", LOWER, 0.05)])
    assert [row["verdict"] for row in rows] == ["better", "worse"]
    text = format_rows(rows)
    assert "base 18 ms" in text and "base 18.1 ms" in text
