"""Per-rule tests for repro.lint: every rule catches its seeded violation
and stays quiet on the conforming pattern — including the real repo code
each rule was written to protect.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.lint import lint_source, rule_by_id
from repro.lint.engine import STATUS_SUPPRESSED

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROD_PATH = "src/repro/core/synthetic.py"
FLEET_PATH = "src/repro/fleet/synthetic.py"


def run_rule(rule_id, source, path=PROD_PATH):
    findings = lint_source(textwrap.dedent(source), path,
                           rules=[rule_by_id(rule_id)])
    return [f for f in findings if f.rule == rule_id]


def run_rule_on_file(rule_id, relpath):
    full = os.path.join(REPO_ROOT, relpath)
    with open(full, "r", encoding="utf-8") as handle:
        source = handle.read()
    findings = lint_source(source, relpath, rules=[rule_by_id(rule_id)])
    return [f for f in findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# RL001 — descriptor emission
# ---------------------------------------------------------------------------

class TestRL001:
    def test_raw_struct_pack_write_outside_emitters(self):
        findings = run_rule("RL001", """\
            import struct

            def rogue_save(handle, a, b):
                handle.write(struct.pack("<II", a, b))
            """)
        assert [f.line for f in findings] == [4]
        assert "blessed emitters" in findings[0].message

    def test_struct_instance_pack_is_flagged(self):
        findings = run_rule("RL001", """\
            import struct

            _DESC = struct.Struct("<QQ8s")

            def encode(a, b, c):
                return _DESC.pack(a, b, c)
            """)
        assert [f.line for f in findings] == [6]

    def test_private_emitter_import_is_flagged(self):
        findings = run_rule("RL001", """\
            from repro.core.storage import _encode_frames_block
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [1]
        assert "_encode_frames_block" in findings[0].message

    def test_blessed_modules_are_exempt(self):
        source = """\
            import struct

            def emit(handle, a, b):
                handle.write(struct.pack("<II", a, b))
            """
        assert run_rule("RL001", source,
                        path="src/repro/core/storage.py") == []
        # The streaming writer is policy only: its bytes go through the
        # storage module's seal writer, so a raw write there is a finding.
        findings = run_rule("RL001", source,
                            path="src/repro/core/streaming.py")
        assert [f.line for f in findings] == [4]

    def test_text_writes_are_not_flagged(self):
        findings = run_rule("RL001", """\
            def export(handle, rows):
                handle.write("header\\n")
                for row in rows:
                    handle.write(str(row))
            """)
        assert findings == []

    def test_real_storage_and_streaming_are_clean(self):
        assert run_rule_on_file("RL001", "src/repro/core/storage.py") == []
        assert run_rule_on_file("RL001", "src/repro/core/streaming.py") == []
        assert run_rule_on_file("RL001", "src/repro/fleet/store.py") == []


# ---------------------------------------------------------------------------
# RL002 — durable writes
# ---------------------------------------------------------------------------

class TestRL002:
    def test_in_place_write_of_final_path(self):
        findings = run_rule("RL002", """\
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """)
        assert [f.line for f in findings] == [2]
        assert "os.replace" in findings[0].message

    def test_temp_then_replace_is_conforming(self):
        findings = run_rule("RL002", """\
            import os

            def save(path, data):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            """)
        assert findings == []

    def test_replace_promotion_without_temp_name_is_conforming(self):
        findings = run_rule("RL002", """\
            import os

            def save(path, data):
                staging = path + ".partial"
                with open(staging, "w") as handle:
                    handle.write(data)
                os.replace(staging, path)
            """)
        assert findings == []

    def test_read_mode_is_ignored(self):
        assert run_rule("RL002", """\
            def load(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """) == []

    def test_outside_core_and_fleet_is_out_of_scope(self):
        assert run_rule("RL002", """\
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """, path="src/repro/gui/export.py") == []

    def test_real_writers_are_clean(self):
        assert run_rule_on_file("RL002", "src/repro/core/storage.py") == []
        assert run_rule_on_file("RL002", "src/repro/core/streaming.py") == []
        assert run_rule_on_file("RL002", "src/repro/fleet/store.py") == []

    def test_faultfs_corruption_helpers_are_the_known_findings(self):
        findings = run_rule_on_file("RL002", "src/repro/core/faultfs.py")
        assert sorted(f.symbol for f in findings) == ["flip_bit",
                                                      "truncate_file"]


# ---------------------------------------------------------------------------
# RL003 — generation counter
# ---------------------------------------------------------------------------

_RL003_HEADER = textwrap.dedent("""\
    class Tree:
        def __init__(self):
            self._generation = 0
            self._dirty = {}
            self._cache = None

        def total(self):
            if self._cache is not None and self._cache[0] == self._generation:
                return self._cache[1]
            return 0

""")


def rl003_class(mutator):
    return _RL003_HEADER + textwrap.indent(textwrap.dedent(mutator), "    ")


class TestRL003:
    def test_unbumped_dirty_write(self):
        findings = run_rule("RL003", rl003_class("""\
            def attribute(self, node):
                self._dirty[id(node)] = node
            """))
        assert len(findings) == 1
        assert "Tree.attribute" in findings[0].message

    def test_unbumped_alias_write(self):
        findings = run_rule("RL003", rl003_class("""\
            def attribute(self, node):
                dirty = self._dirty
                dirty[id(node)] = node
            """))
        assert len(findings) == 1

    def test_unbumped_exclusive_mutation(self):
        findings = run_rule("RL003", rl003_class("""\
            def attribute(self, node, value):
                node.exclusive.add("time", value)
            """))
        assert len(findings) == 1
        assert "exclusive" in findings[0].message

    def test_direct_bump_is_conforming(self):
        findings = run_rule("RL003", rl003_class("""\
            def attribute(self, node):
                self._dirty[id(node)] = node
                self._generation += 1
            """))
        assert findings == []

    def test_transitive_bump_via_sibling_is_conforming(self):
        findings = run_rule("RL003", rl003_class("""\
            def attribute(self, node):
                self._dirty[id(node)] = node
                self._bump()

            def _bump(self):
                self._generation += 1
            """))
        assert findings == []

    def test_class_without_generation_cache_is_out_of_scope(self):
        findings = run_rule("RL003", """\
            class Plain:
                def __init__(self):
                    self._dirty = {}

                def attribute(self, node):
                    self._dirty[id(node)] = node
            """)
        assert findings == []

    def test_real_cct_is_clean(self):
        assert run_rule_on_file("RL003", "src/repro/core/cct.py") == []
        assert run_rule_on_file("RL003", "src/repro/core/database.py") == []


# ---------------------------------------------------------------------------
# RL004 — exception contract
# ---------------------------------------------------------------------------

class TestRL004:
    def test_raw_oserror_reraise(self):
        findings = run_rule("RL004", """\
            def load(path):
                try:
                    return path.read()
                except OSError:
                    raise
            """)
        assert [f.line for f in findings] == [5]
        assert "ProfileFormatError" in findings[0].message

    def test_raw_struct_error_in_tuple_rebound_and_reraised(self):
        findings = run_rule("RL004", """\
            import struct

            def decode(payload):
                try:
                    return struct.unpack("<I", payload)
                except (ValueError, struct.error) as error:
                    raise error
            """)
        assert [f.line for f in findings] == [7]

    def test_wrapping_is_conforming(self):
        findings = run_rule("RL004", """\
            from .storage import ProfileFormatError

            def load(path):
                try:
                    return path.read()
                except OSError as error:
                    raise ProfileFormatError(f"{path}: {error}") from error
            """)
        assert findings == []

    def test_unguarded_json_load(self):
        findings = run_rule("RL004", """\
            import json

            def load(handle):
                return json.load(handle)
            """)
        assert [f.line for f in findings] == [4]

    def test_guarded_json_load_is_conforming(self):
        findings = run_rule("RL004", """\
            import json

            def load(handle, path):
                try:
                    return json.load(handle)
                except ValueError as error:
                    raise RuntimeError(f"{path}: {error}") from None
            """)
        assert findings == []

    def test_outside_core_and_fleet_is_out_of_scope(self):
        assert run_rule("RL004", """\
            def load(path):
                try:
                    return path.read()
                except OSError:
                    raise
            """, path="src/repro/gui/export.py") == []

    def test_real_storage_and_store_are_clean(self):
        assert run_rule_on_file("RL004", "src/repro/core/storage.py") == []
        assert run_rule_on_file("RL004", "src/repro/fleet/store.py") == []
        assert run_rule_on_file("RL004", "src/repro/fleet/aggregate.py") == []


# ---------------------------------------------------------------------------
# RL005 — catalog lock
# ---------------------------------------------------------------------------

class TestRL005:
    def test_unlocked_catalog_write(self):
        findings = run_rule("RL005", """\
            import json

            def save(root, data):
                catalog_path = root + "/catalog.json"
                with open(catalog_path, "w") as handle:
                    json.dump(data, handle)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [5]
        assert "_CatalogLock" in findings[0].message

    def test_unlocked_replace_onto_catalog(self):
        findings = run_rule("RL005", """\
            import os

            def promote(tmp_path, root):
                os.replace(tmp_path, root + "/catalog.json")
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [4]

    def test_locked_write_is_conforming(self):
        findings = run_rule("RL005", """\
            import os

            def save(root, data, lock):
                with _CatalogLock(lock):
                    temp_path = root + "/catalog.json.tmp"
                    with open(temp_path, "w") as handle:
                        handle.write(data)
                    os.replace(temp_path, root + "/catalog.json")
            """, path=FLEET_PATH)
        assert findings == []

    def test_non_catalog_write_is_out_of_scope(self):
        assert run_rule("RL005", """\
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """, path=FLEET_PATH) == []

    def test_real_store_is_clean(self):
        assert run_rule_on_file("RL005", "src/repro/fleet/store.py") == []


# ---------------------------------------------------------------------------
# RL006 — merged-view mutation
# ---------------------------------------------------------------------------

class TestRL006:
    def test_mutator_on_merged_view_node(self):
        findings = run_rule("RL006", """\
            def update(tree, obs):
                merged = tree.merged()
                node = merged.kernels[0]
                node.attribute(obs)
            """)
        assert [f.line for f in findings] == [4]

    def test_merged_node_passed_to_shard_attribute(self):
        findings = run_rule("RL006", """\
            def update(tree, shard, obs):
                node = tree.merged().find("kernel", "gemm")
                shard.attribute(node, obs)
            """)
        assert [f.line for f in findings] == [3]

    def test_metric_mutation_through_merged_accessor_chain(self):
        findings = run_rule("RL006", """\
            def update(tree):
                tree.merged().root.exclusive.add("time", 1.0)
            """)
        assert [f.line for f in findings] == [2]

    def test_taint_flows_through_loops(self):
        findings = run_rule("RL006", """\
            def update(tree, obs):
                for node in tree.merged().kernels:
                    node.attribute(obs)
            """)
        assert [f.line for f in findings] == [3]

    def test_reads_on_merged_view_are_conforming(self):
        findings = run_rule("RL006", """\
            def report(tree):
                merged = tree.merged()
                total = merged.total_metric("time")
                return total, [n.name for n in merged.kernels]
            """)
        assert findings == []

    def test_mutating_shard_nodes_is_conforming(self):
        findings = run_rule("RL006", """\
            def update(tree, obs):
                node = tree.kernels[0]
                node.attribute(obs)
            """)
        assert findings == []

    def test_real_sharded_tests_are_clean(self):
        assert run_rule_on_file("RL006", "tests/test_sharded_cct.py") == []
        assert run_rule_on_file("RL006", "src/repro/core/cct.py") == []


# ---------------------------------------------------------------------------
# RL007 — monkeypatching
# ---------------------------------------------------------------------------

class TestRL007:
    def test_module_attribute_assignment(self):
        findings = run_rule("RL007", """\
            import builtins

            def patch(fake):
                builtins.open = fake
            """)
        assert [f.line for f in findings] == [4]
        assert "builtins.open" in findings[0].message

    def test_setattr_on_module(self):
        findings = run_rule("RL007", """\
            import os

            def patch(fake):
                setattr(os, "replace", fake)
            """)
        assert [f.line for f in findings] == [4]

    def test_instance_attributes_are_conforming(self):
        findings = run_rule("RL007", """\
            import os

            class Holder:
                def __init__(self, fake):
                    self.replace = fake
                    self.os = None
            """)
        assert findings == []

    def test_faultfs_patch_is_suppressed_not_new(self):
        findings = run_rule_on_file("RL007", "src/repro/core/faultfs.py")
        assert len(findings) == 2
        assert all(f.status == STATUS_SUPPRESSED for f in findings)
        assert all(f.justification for f in findings)


# ---------------------------------------------------------------------------
# RL008 — fleet-index lock discipline
# ---------------------------------------------------------------------------

class TestRL008:
    def test_unlocked_index_write(self):
        findings = run_rule("RL008", """\
            import json

            def publish(root, names):
                index_path = root + "/index/names.json"
                with open(index_path, "w") as handle:
                    json.dump(names, handle)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [5]
        assert "_CatalogLock" in findings[0].message
        assert "index" in findings[0].message

    def test_unlocked_replace_onto_index(self):
        findings = run_rule("RL008", """\
            import os

            def promote(tmp_path, root):
                os.replace(tmp_path, root + "/index/runs/abc.json")
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [4]

    def test_taint_flows_through_assignment(self):
        findings = run_rule("RL008", """\
            import os

            def promote(store, payload):
                destination = store.index_dir + "/names.json"
                os.replace(payload, destination)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [5]

    def test_locked_write_is_conforming(self):
        findings = run_rule("RL008", """\
            import os

            def publish(root, data, lock):
                with _CatalogLock(lock):
                    temp_index_path = root + "/index/names.json.tmp"
                    with open(temp_index_path, "w") as handle:
                        handle.write(data)
                    os.replace(temp_index_path, root + "/index/names.json")
            """, path=FLEET_PATH)
        assert findings == []

    def test_non_index_write_is_out_of_scope(self):
        assert run_rule("RL008", """\
            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
            """, path=FLEET_PATH) == []

    def test_real_index_module_is_clean(self):
        assert run_rule_on_file("RL008", "src/repro/fleet/index.py") == []
        assert run_rule_on_file("RL008", "src/repro/fleet/store.py") == []


# ---------------------------------------------------------------------------
# RL009 — span discipline
# ---------------------------------------------------------------------------

class TestRL009:
    def test_unreported_clock_delta(self):
        findings = run_rule("RL009", """\
            import time

            def lap(work):
                start = time.monotonic()
                work()
                return time.monotonic() - start
            """)
        assert [f.line for f in findings] == [6]
        assert "repro.obs" in findings[0].message

    def test_delta_of_clock_assigned_names(self):
        findings = run_rule("RL009", """\
            import time

            def lap(work):
                start = time.perf_counter()
                work()
                end = time.perf_counter()
                return end - start
            """)
        assert [f.line for f in findings] == [7]

    def test_observed_delta_is_conforming(self):
        assert run_rule("RL009", """\
            import time

            from repro.obs import TELEMETRY

            def lap(work):
                start = time.monotonic()
                work()
                elapsed = time.monotonic() - start
                TELEMETRY.observe("lap.seconds", elapsed)
                return elapsed
            """) == []

    def test_relative_obs_import_is_conforming(self):
        assert run_rule("RL009", """\
            import time

            from ..obs import TELEMETRY

            def seal(work):
                start = time.time()
                work()
                TELEMETRY.observe("seal.seconds", time.time() - start)
            """, path=FLEET_PATH) == []

    def test_span_in_same_function_is_conforming(self):
        assert run_rule("RL009", """\
            import time

            from repro.obs import TELEMETRY

            def run(work):
                with TELEMETRY.span("run"):
                    start = time.monotonic()
                    work()
                return time.monotonic() - start
            """) == []

    def test_deadline_comparison_is_out_of_scope(self):
        assert run_rule("RL009", """\
            import time

            def expired(deadline):
                return time.monotonic() >= deadline
            """) == []

    def test_non_clock_subtraction_is_out_of_scope(self):
        assert run_rule("RL009", """\
            def width(lo, hi):
                return hi - lo
            """) == []

    def test_outside_instrumented_packages_is_out_of_scope(self):
        assert run_rule("RL009", """\
            import time

            def lap(work):
                start = time.monotonic()
                work()
                return time.monotonic() - start
            """, path="src/repro/framework/synthetic.py") == []

    def test_real_instrumented_seams_are_clean(self):
        for relpath in ("src/repro/core/streaming.py",
                        "src/repro/fleet/store.py",
                        "src/repro/experiments/runner.py"):
            assert run_rule_on_file("RL009", relpath) == []

    def test_profiler_carries_exactly_the_baselined_findings(self):
        findings = run_rule_on_file("RL009", "src/repro/core/profiler.py")
        assert sorted(f.symbol for f in findings) == [
            "DeepContextProfiler._metadata_snapshot",
            "DeepContextProfiler.maybe_checkpoint",
        ]


# ---------------------------------------------------------------------------
# RL010 — bounded poll
# ---------------------------------------------------------------------------

class TestRL010:
    def test_unbounded_sleep_loop_is_flagged(self):
        findings = run_rule("RL010", """\
            import os
            import time

            def wait_for(path):
                while not os.path.exists(path):
                    time.sleep(0.1)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [5]
        assert "unbounded polling loop" in findings[0].message

    def test_unbounded_event_wait_loop_is_flagged(self):
        findings = run_rule("RL010", """\
            def pump(stop, work):
                while True:
                    work()
                    stop.wait(1.0)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [2]

    def test_infinite_generator_with_sleep_is_flagged(self):
        findings = run_rule("RL010", """\
            import itertools
            import time

            def pump(work):
                for tick in itertools.count():
                    work(tick)
                    time.sleep(0.5)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [5]

    def test_deadline_comparison_bounds_the_loop(self):
        assert run_rule("RL010", """\
            import os
            import time

            def wait_for(path, timeout_s):
                deadline = time.monotonic() + timeout_s
                while not os.path.exists(path):
                    if time.monotonic() >= deadline:
                        raise TimeoutError(path)
                    time.sleep(0.1)
            """, path=FLEET_PATH) == []

    def test_derived_deadline_name_bounds_the_loop(self):
        # ``deadline`` is arithmetic on a clock-derived local, compared
        # against a plain name inside the loop — still a deadline check.
        assert run_rule("RL010", """\
            import time

            def wait_for(ready, timeout_s):
                started = time.monotonic()
                deadline = started + timeout_s
                while not ready():
                    now = time.monotonic()
                    if now >= deadline:
                        return False
                    time.sleep(0.05)
                return True
            """, path=FLEET_PATH) == []

    def test_counter_comparison_bounds_the_loop(self):
        assert run_rule("RL010", """\
            import time

            def wait_for(ready, attempts_max):
                attempts = 0
                while attempts < attempts_max:
                    if ready():
                        return True
                    attempts += 1
                    time.sleep(0.1)
                return False
            """, path=FLEET_PATH) == []

    def test_finite_for_loop_with_sleep_is_fine(self):
        assert run_rule("RL010", """\
            import time

            def wait_for(ready):
                for attempt in range(50):
                    if ready():
                        return True
                    time.sleep(0.1)
                return False
            """, path=FLEET_PATH) == []

    def test_loop_without_blocking_is_out_of_scope(self):
        assert run_rule("RL010", """\
            def drain(queue):
                while queue:
                    queue.pop()
            """, path=FLEET_PATH) == []

    def test_outside_instrumented_packages_is_out_of_scope(self):
        assert run_rule("RL010", """\
            import time

            def wait_forever(ready):
                while not ready():
                    time.sleep(0.1)
            """, path="src/repro/framework/synthetic.py") == []

    def test_nested_function_does_not_bound_the_outer_loop(self):
        # The deadline comparison lives in a callback defined inside the
        # loop, not in the loop's own control flow — still unbounded.
        findings = run_rule("RL010", """\
            import time

            def pump(work, deadline):
                while True:
                    def check():
                        return time.monotonic() >= deadline
                    work(check)
                    time.sleep(0.5)
            """, path=FLEET_PATH)
        assert [f.line for f in findings] == [4]

    def test_real_poll_loops_are_clean(self):
        for relpath in ("src/repro/fleet/store.py",
                        "src/repro/fleet/watcher.py",
                        "src/repro/obs/timeseries.py"):
            assert run_rule_on_file("RL010", relpath) == []


# ---------------------------------------------------------------------------
# The real gate: the repo itself, against the committed baseline
# ---------------------------------------------------------------------------

class TestRepoGate:
    def test_repo_lints_clean_against_committed_baseline(self, monkeypatch,
                                                         capsys):
        from repro.lint.cli import main
        monkeypatch.chdir(REPO_ROOT)
        assert main(["src", "tests", "--baseline",
                     "lint-baseline.json"]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out

    def test_seeded_violation_fails_with_rule_id_and_location(self, tmp_path):
        rogue_dir = tmp_path / "src" / "repro" / "fleet"
        rogue_dir.mkdir(parents=True)
        rogue = rogue_dir / "rogue.py"
        rogue.write_text(textwrap.dedent("""\
            import struct

            def leak(handle, offset, length):
                handle.write(struct.pack("<QQ8s", offset, length, b"x" * 8))
            """))
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path / "src"),
             "--no-baseline", "--format", "json"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["summary"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RL001"
        assert finding["path"].endswith("src/repro/fleet/rogue.py")
        assert finding["line"] == 4

    def test_deleting_a_baseline_entry_fails_the_gate(self, tmp_path,
                                                      monkeypatch, capsys):
        from repro.lint.cli import main
        monkeypatch.chdir(REPO_ROOT)
        with open("lint-baseline.json", "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["entries"], "baseline must not be empty"
        trimmed = {"version": payload["version"],
                   "entries": payload["entries"][1:]}
        baseline = tmp_path / "trimmed.json"
        baseline.write_text(json.dumps(trimmed))
        assert main(["src", "tests", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        dropped = payload["entries"][0]
        assert dropped["rule"] in out
        assert dropped["path"] in out
