"""Tests for the GUI layer: flame graphs, colours, exporters, IDE bridge."""

import json
import os

import pytest

from repro.analyzer import PerformanceAnalyzer, Severity
from repro.core import DeepContextProfiler, ProfilerConfig
from repro.dlmonitor.callpath import FrameKind
from repro.dlmonitor.fusion_map import FusionMap, OriginalOperator
from repro.framework import EagerEngine, modules, tensor
from repro.gui import (
    FlameGraphBuilder,
    IdeBridge,
    VisualizationEvent,
    flamegraph_to_dict,
    flamegraph_to_folded,
    flamegraph_to_json,
    flamegraph_to_speedscope,
    frame_color,
    heat_color,
    kind_color,
    render_html,
    render_svg,
    save_html,
    save_svg,
    severity_color,
)


@pytest.fixture(scope="module")
def profile():
    engine = EagerEngine("a100")
    profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="gui"))
    with engine, profiler.profile():
        net = modules.Sequential(modules.Conv2d(3, 8), modules.ReLU(),
                                 modules.Conv2d(8, 16), name="net")
        loss_fn = modules.MSELoss()
        for _ in range(2):
            out = net(tensor((2, 3, 32, 32)))
            loss = loss_fn(out, out.like())
            engine.backward(loss)
        engine.synchronize()
    database = profiler.database
    report = PerformanceAnalyzer().analyze(database)
    return database, report


class TestFlameGraphs:
    def test_top_down_mirrors_tree_totals(self, profile):
        database, report = profile
        graph = FlameGraphBuilder().top_down(database.tree, issues=report.issues)
        assert graph.view == "top_down"
        assert graph.total == pytest.approx(database.total_gpu_time())
        fractions = [node.fraction for node in graph.root.walk()]
        assert all(0.0 <= fraction <= 1.0 + 1e-9 for fraction in fractions)
        hottest = graph.hottest_path()
        assert hottest[0] is graph.root and len(hottest) > 3

    def test_children_sorted_by_value(self, profile):
        database, _report = profile
        graph = FlameGraphBuilder().top_down(database.tree)
        for node in graph.root.walk():
            values = [child.value for child in node.children]
            assert values == sorted(values, reverse=True)

    def test_bottom_up_aggregates_kernels(self, profile):
        database, _report = profile
        graph = FlameGraphBuilder().bottom_up(database.tree, kind=FrameKind.GPU_KERNEL)
        assert graph.view == "bottom_up"
        labels = [child.label for child in graph.root.children]
        assert len(labels) == len(set(labels)), "bottom-up entries must be unique per kernel"
        assert graph.total == pytest.approx(database.total_gpu_time())
        # Entries expand into caller chains.
        assert graph.root.children[0].children

    def test_issue_annotations_attach_to_nodes(self, profile):
        database, report = profile
        if not report.issues:
            pytest.skip("no issues flagged for this profile")
        graph = FlameGraphBuilder().top_down(database.tree, issues=report.issues)
        annotated = [node for node in graph.root.walk() if node.issues]
        assert annotated


class TestColors:
    def test_heat_scale_endpoints(self):
        assert heat_color(0.0) != heat_color(1.0)
        assert heat_color(2.0) == heat_color(1.0)

    def test_kind_and_severity_palettes(self):
        assert kind_color("gpu_kernel").startswith("#")
        assert kind_color("unknown-kind").startswith("#")
        assert severity_color(Severity.CRITICAL) != severity_color(Severity.INFO)

    def test_issue_frames_use_severity_color(self):
        assert frame_color("python", 0.5, has_issue=True) == severity_color(Severity.WARNING)
        assert frame_color("python", 0.9) == heat_color(0.9)
        assert frame_color("python", 0.001) == kind_color("python")


class TestExports:
    def test_json_and_folded_exports(self, profile):
        database, _report = profile
        graph = FlameGraphBuilder().top_down(database.tree)
        data = flamegraph_to_dict(graph)
        assert data["view"] == "top_down" and data["root"]["children"]
        parsed = json.loads(flamegraph_to_json(graph))
        assert parsed["metric"] == "gpu_time"
        folded = flamegraph_to_folded(graph)
        assert folded.endswith("\n")
        assert any(";" in line for line in folded.splitlines())

    def test_speedscope_document_structure(self, profile):
        database, _report = profile
        graph = FlameGraphBuilder().top_down(database.tree)
        doc = flamegraph_to_speedscope(graph, name="gui-test")
        assert doc["profiles"][0]["type"] == "evented"
        events = doc["profiles"][0]["events"]
        assert len(events) % 2 == 0
        opens = sum(1 for event in events if event["type"] == "O")
        closes = sum(1 for event in events if event["type"] == "C")
        assert opens == closes == len(events) // 2
        assert doc["profiles"][0]["endValue"] >= doc["profiles"][0]["startValue"]

    def test_svg_and_html_rendering(self, profile, tmp_path):
        database, report = profile
        graph = FlameGraphBuilder().top_down(database.tree, issues=report.issues)
        svg = render_svg(graph, title="test")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "<rect" in svg and "title" in svg
        html = render_html(graph, report=report, title="GUI test")
        assert "<!DOCTYPE html>" in html and "deepcontext-flamegraph" in html
        svg_path = save_svg(graph, str(tmp_path / "graph.svg"))
        html_path = save_html(graph, str(tmp_path / "graph.html"), report=report)
        assert (tmp_path / "graph.svg").exists() and (tmp_path / "graph.html").exists()
        assert svg_path.endswith(".svg") and html_path.endswith(".html")


class TestIdeBridge:
    def test_python_frame_click_opens_file(self, profile):
        database, _report = profile
        python_nodes = database.tree.nodes_of_kind(FrameKind.PYTHON)
        bridge = IdeBridge()
        actions = bridge.handle(VisualizationEvent(kind="click", node=python_nodes[0]))
        assert actions[0].command == "open_file"
        assert actions[0].file == python_nodes[0].frame.file
        assert bridge.actions_log

    def test_kernel_click_walks_up_to_python_ancestor(self, profile):
        database, _report = profile
        kernel = database.tree.kernels[0]
        actions = IdeBridge().handle(VisualizationEvent(kind="click", node=kernel))
        assert actions[0].command in ("open_file", "show_message")
        if actions[0].command == "open_file":
            assert actions[0].file.endswith(".py")

    def test_fused_operator_click_uses_fusion_map(self):
        from repro.core.cct import CCTNode
        from repro.dlmonitor.callpath import framework_frame
        fusion_map = FusionMap()
        fusion_map.record("xla::gelu_relu", "step", [
            OriginalOperator("aten::gelu", 1, (("model.py", 12, "ffn"),)),
            OriginalOperator("aten::relu", 2, (("model.py", 13, "ffn"),)),
        ])
        node = CCTNode(framework_frame("xla::gelu_relu"))
        actions = IdeBridge(fusion_map=fusion_map).handle(
            VisualizationEvent(kind="click", node=node))
        assert len(actions) == 2
        assert {action.line for action in actions} == {12, 13}

    def test_click_without_node_shows_message(self):
        actions = IdeBridge().handle(VisualizationEvent(kind="click", label="mystery"))
        assert actions[0].command == "show_message"


class TestDashboard:
    def _store(self, tmp_path):
        from repro.core import ProfileDatabase, ProfileMetadata
        from repro.core import metrics as M
        from repro.core.cct import ShardedCallingContextTree
        from repro.dlmonitor.callpath import (CallPath, framework_frame,
                                              gpu_kernel_frame, python_frame,
                                              root_frame, thread_frame)
        from repro.fleet import ProfileStore

        store = ProfileStore(tmp_path / "store")
        for index in range(2):
            tree = ShardedCallingContextTree("unet")
            shard = tree.shard_for_tid(1, thread_name="main")
            node = shard.insert(CallPath.of([
                root_frame("unet"), thread_frame("main", 1),
                python_frame("train.py", 10, "train_step"),
                framework_frame("aten::conv"), gpu_kernel_frame("k_conv")]))
            shard.attribute_many(node, {M.METRIC_GPU_TIME: 1.0 + index,
                                        M.METRIC_KERNEL_COUNT: 1.0})
            metadata = ProfileMetadata(program="unet", workload="unet",
                                       device="A100")
            store.ingest(ProfileDatabase(tree, metadata))
        return store

    def test_empty_dashboard_still_renders(self):
        from repro.gui import render_dashboard
        page = render_dashboard()
        assert '<meta http-equiv="refresh" content="5"/>' in page
        assert "No live runs." in page
        assert "No health time-series." in page
        assert "No issue log." in page
        state = json.loads(page.split(
            'id="repro-dashboard-state">')[1].split("</script>")[0])
        assert state["live"] == []

    def test_store_panels_render_from_catalog(self, tmp_path):
        from repro.gui import render_dashboard
        store = self._store(tmp_path)
        page = render_dashboard(store=store, title="fleet <dash>")
        assert "fleet &lt;dash&gt;" in page  # titles are escaped
        assert "runs in store" in page
        assert "unet" in page
        state = json.loads(page.split(
            'id="repro-dashboard-state">')[1].split("</script>")[0])
        assert state["store"]["runs"] == 2
        assert state["store"]["workloads"] == {"unet": 2}
        assert "catalog_lock" in state["store"]

    def test_live_runs_render_flame_graphs_and_stall_badges(self, tmp_path):
        from repro.fleet import WatchedRun
        from repro.gui import render_dashboard

        store = self._store(tmp_path)
        run_id = store.run_ids()[0]
        view = store.open_view(run_id)
        try:
            live = [
                WatchedRun(path="/x/run-live.cctb", view=view, nodes=5,
                           metric_total=1.0),
                WatchedRun(path="/x/run-stuck.cctb", view=None, nodes=3,
                           metric_total=0.5, stalled=True),
            ]
            page = render_dashboard(live=live)
        finally:
            view.close()
        assert "run-live" in page
        assert "<svg" in page  # the live view got flame-graphed
        assert "run-stuck" in page
        assert "stalled (serving last sealed prefix)" in page

    def test_health_sparklines_and_issue_rows(self, tmp_path):
        from repro.gui import render_dashboard
        from repro.obs import HealthTimeSeries

        health = HealthTimeSeries(str(tmp_path / "h.jsonl"), fsync=False)
        for tick in range(3):
            health.append({"gauges": {"watcher.runs_live": float(tick)}},
                          ts=float(tick))
        issues = HealthTimeSeries(str(tmp_path / "i.jsonl"), fsync=False)
        issues.append({"analysis": "regression", "node": "k_hot",
                       "severity": "critical",
                       "message": "gpu_time grew 1 -> 9"}, ts=1.0)
        page = render_dashboard(health=health, issue_log=issues)
        assert "live runs — now 2" in page
        assert "polyline" in page  # the sparkline SVG
        assert "regression" in page
        assert "k_hot" in page
        assert 'class="issue critical"' in page
        assert "1 issue(s) on file" in page

    def test_save_dashboard_is_atomic_overwrite(self, tmp_path):
        from repro.gui import save_dashboard
        target = str(tmp_path / "dash.html")
        save_dashboard(target, title="first")
        save_dashboard(target, title="second")
        page = open(target, encoding="utf-8").read()
        assert "second" in page and "first" not in page
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_failed_dashboard_write_keeps_the_old_page(self, tmp_path):
        from repro.core.faultfs import FaultInjector, FaultPlan, enospc_at_write
        from repro.gui import save_dashboard
        target = str(tmp_path / "dash.html")
        save_dashboard(target, title="first")
        with FaultInjector(tmp_path, FaultPlan([enospc_at_write(1)])):
            with pytest.raises(OSError):
                save_dashboard(target, title="second")
        page = open(target, encoding="utf-8").read()
        assert "first" in page and "second" not in page
        assert os.listdir(tmp_path) == ["dash.html"]
