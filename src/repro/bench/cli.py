"""``python -m repro.bench``: run the benchmark, or compare two results.

::

    PYTHONPATH=src python -m repro.bench [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE]
        [--sets K] [--quick]
    PYTHONPATH=src python -m repro.bench --compare A.json B.json

Every run prints each metric by name with its unit, then, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics.  Stores, streamed files and saved profiles live in
``.bench_work/`` under the working directory and are removed on exit; a
traced run writes its Chrome trace only to the file ``--trace-out`` names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import threading
import time
from typing import Dict, List, Optional

from . import compare as compare_results
from .measure import summarize
from .spec import REPO_ROOT, Benchmark, load
from .workload import WorkloadRun

SCHEMA = "repro.bench/1"
WORK_DIR = ".bench_work"


def _finite(value) -> Optional[float]:
    return value if value is not None and math.isfinite(value) else None


def run_one(bench: Benchmark, name: str, seed: int, seconds: float, traced: bool,
            trace_out: Optional[str]) -> Dict[str, object]:
    """Run one workload; the result record of ``--out`` files."""
    spec = bench.workloads[name]
    workdir = os.path.join(WORK_DIR, f"{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    run = WorkloadRun(bench, spec, seed, seconds, traced, workdir)
    try:
        run.run()
        result: Dict[str, object] = {
            "seed": seed, "trace": traced, "models": run.models,
            "cycles": run.cycles, "attempted": run.ledger.attempted,
            "failed": run.ledger.failed, "error_rate": run.ledger.error_rate,
            "failures": run.ledger.failures[:20],
            "host_slowdown": summarize(run.recorder.slowdowns)}
        metrics: Dict[str, Dict[str, object]] = {}
        if traced:
            values = run.per_layer()
            for metric in bench.per_layer:
                metrics[metric.name] = {"value": _finite(values.get(metric.name)),
                                        "unit": metric.unit}
            result.update({
                "ladder_rounds": run.ladder_rounds,
                "ladder": run.ladder_summary(),
                "consistency": run.consistency(),
                "trace_file": trace_out,
                "self_time_ms_per_cycle": run.export_trace(trace_out),
                "spans_dropped": run.spans_dropped})
        else:
            for metric, summary in run.end_to_end().items():
                record = dict(summary or {})
                record.update({"value": _finite(record.get("value")),
                               "unit": _unit(bench, metric)})
                metrics[metric] = record
        result["metrics"] = metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["elapsed_s"] = time.perf_counter() - started
    return result


def _unit(bench: Benchmark, metric: str) -> str:
    return next(spec.unit for spec in bench.end_to_end + bench.per_layer
                if spec.name == metric)


def _git_revision() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); "unknown" outside git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_revision": _git_revision(),
            "threads": threading.active_count()}


def _print_workload(bench: Benchmark, name: str, result: Dict[str, object]) -> None:
    print(f"== {name}: {bench.why[name]}")
    print(f"   seed {result['seed']}, {result['cycles']} cycles, "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(error_rate {result['error_rate']:.3g}), {result['elapsed_s']:.1f} s")
    slowdown = result["host_slowdown"]
    if slowdown is not None:
        print(f"   host slowdown (timings are divided by it): median {slowdown['median']:.3g}, "
              f"q1 {slowdown['q1']:.3g}, q3 {slowdown['q3']:.3g}, n {slowdown['n']}")
    for metric, record in result["metrics"].items():
        value = record["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        detail = ""
        if "q1" in record:
            detail = (f"  [median {record['median']:.4g}, q1 {record['q1']:.4g}, "
                      f"q3 {record['q3']:.4g}, n {record['n']}")
            if record.get("tail") is not None:
                detail += f", p{record['tail_pct']:g} {record['tail']:.4g}"
            detail += "]"
        if "base" in record:
            detail += f"  base: {record['base']['name']} {record['base']['median']:.4g} ms"
        print(f"   {metric:<36} {text:>12} {record['unit']:<12}{detail}")
    consistency = result.get("consistency")
    if consistency:
        print(f"   ladder {consistency['rung']} ratio {consistency['ladder_ratio']:.4g} vs "
              f"overhead_x {consistency['overhead_x']:.4g}: gap {consistency['gap']:.2%} "
              f"(bound {consistency['bound']:.0%}) "
              f"{'passed' if consistency['passed'] else 'FAILED'}")
    if result.get("trace_file"):
        print(f"   chrome trace: {result['trace_file']} "
              f"({result['spans_dropped']} spans dropped)")


def _summary_line(results: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """The contract's last line; metric names get a workload prefix when
    several workloads ran."""
    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for metric, record in result["metrics"].items():
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": record["value"], "unit": record["unit"]}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    complete = all(record["value"] is not None for record in metrics.values())
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description="DeepContext profiler benchmark.")
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-out", help="Chrome trace path of a traced run")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole run this many times into --out")
    parser.add_argument("--quick", action="store_true",
                        help="fixed tiny run for smoke tests (not a measurement)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files (FILE, or FILE#N for its "
                             "set N) instead of running")
    arguments = parser.parse_args(argv)

    if arguments.compare:
        bench = load()
        try:
            a, b = (compare_results.load_result(path) for path in arguments.compare)
        except (OSError, ValueError) as error:
            print(f"repro.bench: {error}", file=sys.stderr)
            return 2
        rows = compare_results.compare(a, b, bench.end_to_end)
        print(compare_results.format_rows(rows))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    bench = load(quick=arguments.quick)
    names = list(bench.workloads)
    if arguments.workload is not None:
        if arguments.workload not in bench.workloads:
            print(f"repro.bench: unknown workload {arguments.workload!r} "
                  f"(known: {names})", file=sys.stderr)
            return 2
        names = [arguments.workload]
    if arguments.trace_out and len(names) > 1:
        print("repro.bench: --trace-out names one file; pick a --workload",
              file=sys.stderr)
        return 2
    seconds =arguments.seconds if arguments.seconds is not None else bench.run_seconds
    traced = bool(arguments.trace)
    sets = []
    try:
        for _ in range(arguments.sets):
            results = {}
            for name in names:
                results[name] = run_one(bench, name, arguments.seed, seconds, traced,
                                        arguments.trace_out)
                _print_workload(bench, name, results[name])
            sets.append({"seed": arguments.seed, "trace": traced, "workloads": results})
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": SCHEMA, "env": environment(), "sets": sets},
                      handle, indent=1)
            handle.write("\n")
    print(json.dumps(_summary_line(sets[-1]["workloads"])))
    return 0
