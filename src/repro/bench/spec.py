"""Benchmark configuration: ``BENCHMARK.json`` plus ``workloads.json``.

``BENCHMARK.json`` at the repository root is the contract: the command,
the workload names, every metric with its unit, direction and regression
bound, and the run length.  ``workloads.json`` beside this module holds what
the contract has no room for: each workload's parameters and, for every
per-layer metric, the end-to-end metric and workload it should move.

The expansion follows the PARAM benchmark style: the config lists the
workloads, :func:`expand` merges the shared defaults, the workload's own
settings and (for ``--quick``) the quick overrides into one
:class:`WorkloadSpec` per workload, and one runner runs each spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[2]
BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"
WORKLOADS_PATH = PACKAGE_DIR / "workloads.json"


@dataclass(frozen=True)
class WorkloadSpec:
    """Every parameter one workload run needs."""

    name: str
    #: Models the workload rotates through (one for collection workloads).
    models: List[str]
    #: "eager" or "jit".
    mode: str
    #: ``ProfilerConfig`` preset of the profiled session: a classmethod name.
    profiler: str
    warmup: int
    iterations: int
    #: Stream the profiled session to disk, sealing every iteration.
    stream: bool
    #: Analyzer + flame graph + HTML renders per cycle.
    reports_per_cycle: int
    #: Rounds of the three reads per cycle, one ``query_ms`` sample each.
    read_rounds: int
    #: Runs the store holds before the first cycle, so every measured
    #: ingest and query meets a store at its retention size.
    seed_runs: int
    #: How many times seeding is repeated and timed as ``setup_s`` (its
    #: median).  0: seeding is untimed preparation, and ``setup_s`` is the
    #: profiled sessions' build + ``start()`` + warm-up.
    setups: int
    #: ``ProfileStore.prune(max_runs=...)`` after every ingest.
    max_runs: int
    #: Cycles between verification passes (the offset is seeded).
    verify_every: int
    #: Cycles run before the measured window, their timings discarded.
    warmup_cycles: int
    #: Exact cycle count (``--quick``); None runs until the time is up.
    cycles: Optional[int]
    #: The ladder rung equal to this workload's profiler configuration.
    matching_rung: Optional[str]
    ladder_warmup: int
    ladder_iterations: int
    #: Exact ladder rounds (``--quick``); None shares the time budget.
    ladder_rounds: Optional[int]


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


@dataclass(frozen=True)
class Benchmark:
    """The parsed contract plus the expanded workload specs."""

    run_seconds: int
    workloads: Dict[str, WorkloadSpec]
    why: Dict[str, str]
    end_to_end: List[MetricSpec]
    per_layer: List[MetricSpec]
    ladder_rungs: List[str]


def _load_json(path: Path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def expand(config: Dict, names: List[str], quick: bool) -> Dict[str, WorkloadSpec]:
    """One :class:`WorkloadSpec` per workload name, defaults merged in."""
    known = {spec_field.name for spec_field in fields(WorkloadSpec)}
    specs = {}
    for name in names:
        settings = dict(config["defaults"])
        settings.update(config["workloads"][name])
        if quick:
            settings.update(config["quick"]["defaults"])
            settings.update(config["quick"].get(name, {}))
        unknown = set(settings) - known
        if unknown:
            raise ValueError(f"workloads.json: unknown settings for {name!r}: "
                             f"{sorted(unknown)}")
        specs[name] = WorkloadSpec(name=name, **settings)
    return specs


def load(quick: bool = False) -> Benchmark:
    contract = _load_json(BENCHMARK_PATH)
    config = _load_json(WORKLOADS_PATH)
    names = [entry["name"] for entry in contract["workloads"]]
    return Benchmark(
        run_seconds=int(contract["run_seconds"]),
        workloads=expand(config, names, quick),
        why={entry["name"]: entry["why"] for entry in contract["workloads"]},
        end_to_end=[MetricSpec(**entry) for entry in contract["end_to_end"]],
        per_layer=[MetricSpec(**entry) for entry in contract["per_layer"]],
        ladder_rungs=list(config["ladder_rungs"]),
    )
