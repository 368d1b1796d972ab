"""One measured session: fresh engine, fresh workload, optional fresh profiler.

A session builds the model on a new :class:`EagerEngine`, starts the
profiler (when one is configured), runs the warm-up iterations, then times
each measured iteration, and finally stops the profiler.  Everything it
learned comes back as a plain :class:`SessionResult`; the engine and the
profiler are dropped before the caller starts the next session, so two
engines are never live at once.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import (METRIC_GPU_TIME, METRIC_KERNEL_COUNT, CallingContextTree,
                    DeepContextProfiler, ProfileDatabase, ProfilerConfig,
                    ShardedCallingContextTree)
from ..dlmonitor.callpath import CallPath, FrameKind
from ..experiments.runner import MODE_JIT
from ..framework.eager import EagerEngine
from ..framework.jit import JitCompiler, jit
from ..obs import TELEMETRY
from ..workloads import create_workload
from .measure import Recorder


@dataclass
class SessionResult:
    """What one session measured and counted."""

    model: str
    #: Wall seconds of each measured iteration (checkpoint included); only
    #: their ratios are reported, so they are not host-calibrated.
    iter_seconds: List[float]
    #: Build + profiler start + warm-up, in the recorder's calibrated seconds.
    setup_seconds: float
    #: Kernel launches per measured iteration.
    launches_per_iter: float
    #: Kernel launches since the profiler started (warm-up included).
    launches_since_start: int
    database: Optional[ProfileDatabase] = None
    #: Public counters of the profiler and its collectors (profiled only).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Calibrated seconds of each explicit streamed checkpoint.
    seal_seconds: List[float] = field(default_factory=list)


def _step_function(workload, engine: EagerEngine, mode: str,
                   compiler: Optional[JitCompiler]) -> Callable[[int], None]:
    if mode == MODE_JIT:
        compiled = jit(workload.step_fn(engine), engine=engine,
                       with_grad=workload.training, compiler=compiler)
        return lambda iteration: compiled(*workload.make_batch(engine, iteration))
    return lambda iteration: workload.run_iteration(engine, iteration)


def run_session(model: str, mode: str, device: str,
                config: Optional[ProfilerConfig], recorder: Recorder,
                warmup: int, iterations: int,
                checkpoint_each_iteration: bool = False) -> SessionResult:
    """Run one session; ``config=None`` runs it unprofiled.

    ``gc.collect()`` runs first, outside every timing, so garbage from the
    previous session is not collected inside this one; GC itself stays on
    because users pay for the collections their own work triggers.
    """
    gc.collect()
    started = time.perf_counter()
    engine = EagerEngine(device)
    compiler = JitCompiler(engine) if mode == MODE_JIT else None
    workload = create_workload(model, small=True)
    profiler: Optional[DeepContextProfiler] = None
    seals: List[float] = []
    with engine:
        with recorder.timed(model, "framework.build"):
            workload.build(engine)
        if config is not None:
            with recorder.timed(model, "profiler.start"):
                profiler = DeepContextProfiler(engine, config,
                                               jit_compiler=compiler).start()
        launches_at_start = engine.kernel_launches
        step = _step_function(workload, engine, mode, compiler)

        def iterate(iteration: int) -> None:
            step(iteration)
            if profiler is not None:
                profiler.mark_iteration()
                if checkpoint_each_iteration:
                    seals.append(profiler.checkpoint().wall_seconds / recorder.slowdown)

        for iteration in range(warmup):
            iterate(iteration)
        setup_seconds = recorder.since(started)
        nodes_after_warmup = (profiler.overhead_statistics()["cct_nodes"]
                              if profiler is not None else 0.0)
        launches_before = engine.kernel_launches
        iter_seconds = []
        for iteration in range(warmup, warmup + iterations):
            with TELEMETRY.span("bench.workload.iteration", model=model):
                begin = time.perf_counter()
                iterate(iteration)
                iter_seconds.append(time.perf_counter() - begin)
        engine.synchronize()
        result = SessionResult(
            model=model, iter_seconds=iter_seconds, setup_seconds=setup_seconds,
            launches_per_iter=(engine.kernel_launches - launches_before) / iterations,
            launches_since_start=engine.kernel_launches - launches_at_start,
            seal_seconds=seals)
        if profiler is not None:
            # The stop-to-query chain starts from a collected heap, so where
            # the iterations left the GC generations cannot decide whether a
            # full collection lands inside stop, ingest or the first query.
            gc.collect()
            with recorder.timed(model, "profiler.stop"):
                result.database = profiler.stop()
            result.counts = _profiler_counts(profiler, nodes_after_warmup)
    return result


def _profiler_counts(profiler: DeepContextProfiler,
                     nodes_after_warmup: float) -> Dict[str, float]:
    """The public counters of a stopped profiler, flattened."""
    overhead = profiler.overhead_statistics()
    counts = {
        "iterations": float(profiler.iterations),
        "cct_nodes": overhead["cct_nodes"],
        "cct_size_bytes": overhead["cct_size_bytes"],
        "cct_shards": overhead.get("cct_shards", 1.0),
        "nodes_after_warmup": nodes_after_warmup,
        "cache_hit_rate": overhead["cache_hit_rate"],
        "unwind_steps": overhead["unwind_steps"],
        "checkpoints": float(profiler.checkpoints_written),
        "unresolved": float(profiler.correlations.unresolved),
        "swept": float(profiler.correlations.swept),
        "cpu_samples": float(profiler.cpu_collector.samples_attributed),
        "activities": 0.0,
        "pc_samples": 0.0,
    }
    counts.update({key: float(value)
                   for key, value in profiler.monitor.stats.as_dict().items()})
    if profiler.gpu_collector is not None:
        counts["activities"] = float(profiler.gpu_collector.activities_attributed)
        counts["pc_samples"] = float(profiler.gpu_collector.samples_attributed)
    return counts


def peak_memory_bytes(run: Callable[[], object]) -> int:
    """``tracemalloc`` peak of one call (tracing is on only for the call)."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kernel_paths(tree) -> List[Tuple[CallPath, Dict[str, float]]]:
    """Every kernel context of ``tree`` as (root→leaf call path, metrics)."""
    shards = (list(tree.shards().values())
              if isinstance(tree, ShardedCallingContextTree) else [tree])
    paths = []
    for shard in shards:
        for node in shard.nodes_of_kind(FrameKind.GPU_KERNEL):
            # The root's frame is the tree's own, not part of the call path.
            path = CallPath.of(step.frame for step in node.path_from_root()[1:])
            metrics = {METRIC_GPU_TIME: node.exclusive.sum(METRIC_GPU_TIME),
                       METRIC_KERNEL_COUNT: 1.0}
            paths.append((path, metrics))
    return paths


def replay_cost_us(tree, repeats: int = 3) -> Tuple[float, float]:
    """µs per kernel call path to insert+attribute into a fresh tree.

    Returns ``(cold, warm)``: the first pass creates every node, the second
    pass over the same tree only finds and attributes them.  Medians over
    ``repeats`` fresh trees.
    """
    paths = _kernel_paths(tree)
    if not paths:
        return 0.0, 0.0
    cold, warm = [], []
    for _ in range(repeats):
        replay = CallingContextTree("replay")
        for passes in (cold, warm):
            begin = time.perf_counter()
            for path, metrics in paths:
                replay.insert_and_attribute(path, metrics)
            passes.append((time.perf_counter() - begin) / len(paths) * 1e6)
    return sorted(cold)[len(cold) // 2], sorted(warm)[len(warm) // 2]
