"""Tests for the experiment drivers (tables, overhead sweeps, case studies)."""

import pytest

from repro.experiments import (
    MODE_EAGER,
    MODE_JIT,
    PROFILER_DEEPCONTEXT,
    PROFILER_DEEPCONTEXT_NATIVE,
    PROFILER_FRAMEWORK,
    PROFILER_NONE,
    case_study_dlrm_index,
    case_study_transformer_fusion,
    case_study_unet_amd_vs_nvidia,
    deepcontext_dominates,
    format_table1,
    format_table2,
    format_table3,
    jax_vs_pytorch,
    measure_overhead,
    median_overheads,
    run_named_workload,
    table1_matrix,
    table2_rows,
)
from repro.experiments.overhead import memory_growth_with_iterations


class TestRunner:
    def test_run_without_profiler(self):
        result = run_named_workload("resnet", iterations=1)
        assert result.profiler == PROFILER_NONE
        assert result.database is None
        assert result.kernel_launches > 0 and result.gpu_kernel_seconds > 0
        assert result.memory_overhead == 1.0

    def test_run_with_deepcontext(self):
        result = run_named_workload("gnn", profiler=PROFILER_DEEPCONTEXT, iterations=1)
        assert result.database is not None
        assert result.profile_bytes > 0
        assert result.memory_overhead > 1.0

    def test_run_with_framework_baseline(self):
        result = run_named_workload("gnn", profiler=PROFILER_FRAMEWORK, iterations=1)
        assert result.database is None and result.profile_bytes > 0

    def test_run_jit_mode(self):
        eager = run_named_workload("unet", mode=MODE_EAGER, iterations=1)
        jitted = run_named_workload("unet", mode=MODE_JIT, iterations=1)
        assert jitted.kernel_launches < eager.kernel_launches

    def test_run_on_amd(self):
        result = run_named_workload("resnet", device="mi250", iterations=1,
                                    profiler=PROFILER_DEEPCONTEXT)
        assert result.database.metadata.vendor == "amd"

    def test_run_persists_profile_through_storage_engine(self, tmp_path):
        from repro.core import LazyProfileView, ProfileDatabase

        path = str(tmp_path / "run.cctb")
        result = run_named_workload("gnn", profiler=PROFILER_DEEPCONTEXT,
                                    iterations=1, profile_path=path)
        assert result.extra["profile_file_bytes"] > 0
        reloaded = ProfileDatabase.load(path)
        assert isinstance(reloaded.tree, LazyProfileView)
        assert reloaded.total_gpu_time() == pytest.approx(
            result.database.total_gpu_time(), rel=1e-9)
        assert reloaded.top_kernels(3) == result.database.top_kernels(3)
        # The run's profiler-config snapshot rode along in the meta block.
        assert reloaded.metadata.config["sharded_cct"] == \
            result.database.metadata.config["sharded_cct"]

    def test_profile_path_without_deepcontext_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="profile_path requires"):
            run_named_workload("gnn", profiler=PROFILER_FRAMEWORK, iterations=1,
                               profile_path=str(tmp_path / "never.prof"))


class TestTables:
    def test_table1(self):
        rows = table1_matrix()
        assert len(rows) == 5
        assert deepcontext_dominates()
        text = format_table1(rows)
        assert "DeepContext" in text and "Nsight Systems" in text

    def test_table2(self):
        rows = table2_rows()
        assert {row["GPU"] for row in rows} == {"A100 SXM", "MI250"}
        assert "A100" in format_table2()


class TestOverheadSweep:
    def test_measure_overhead_single_workload(self):
        row = measure_overhead("gnn", iterations=1)
        assert set(row.time_overhead) == {PROFILER_FRAMEWORK, PROFILER_DEEPCONTEXT,
                                          PROFILER_DEEPCONTEXT_NATIVE}
        assert all(value > 0 for value in row.time_overhead.values())
        assert all(value >= 1.0 for value in row.memory_overhead.values())
        assert row.as_dict()["workload"] == "GNN"
        medians = median_overheads([row])
        assert set(medians) == set(row.time_overhead)

    def test_memory_growth_shapes(self):
        growth = memory_growth_with_iterations("gnn", iteration_counts=(1, 4))
        assert growth[PROFILER_FRAMEWORK][1] > 2 * growth[PROFILER_FRAMEWORK][0]
        assert growth[PROFILER_DEEPCONTEXT][1] < 1.5 * growth[PROFILER_DEEPCONTEXT][0]

    def test_jax_vs_pytorch_rows(self):
        rows = jax_vs_pytorch(("gnn",), iterations=1)
        assert rows[0]["jit_kernels"] < rows[0]["eager_kernels"]
        assert rows[0]["speedup"] >= 1.0


class TestCaseStudies:
    def test_dlrm_case_study_shape(self):
        result = case_study_dlrm_index(iterations=1)
        assert result.speedup is not None and result.speedup > 1.2
        assert result.analysis_client == 3
        assert "index_select" in result.optimization

    def test_transformer_fusion_case_study(self):
        result = case_study_transformer_fusion(iterations=1)
        assert result.speedup is not None and result.speedup > 1.0
        assert result.details["optimized_kernels"] < result.details["baseline_kernels"]

    def test_amd_vs_nvidia_case_study(self):
        result = case_study_unet_amd_vs_nvidia(iterations=1)
        assert result.speedup is None
        assert result.details["amd_instance_norm_fraction"] > \
            result.details["nvidia_instance_norm_fraction"]

    def test_format_table3_renders_all_rows(self):
        results = [case_study_dlrm_index(iterations=1)]
        table = format_table3(results)
        assert "DLRM-small" in table and "Speedup" in table
