"""Seeded violations and conforming cases for the source invariants checked
in ``test_invariants.py``: every check flags exactly its seeded lines and
stays quiet on the conforming pattern, including the real modules it was
written to protect.  One class per check, named for the rule id the check
had in the retired linter (RL001 ... RL010).
"""

import textwrap

from test_invariants import (
    ALLOWED,
    CHECKS,
    Module,
    durations_reported_through_obs,
    gate,
    mutators_bump_generation,
    no_monkeypatching,
    parsed,
    polls_are_bounded,
    storage_errors_are_wrapped,
    struct_only_in_storage,
    writes_only_through_atomic_write,
)

PROD_PATH = "src/repro/core/synthetic.py"
FLEET_PATH = "src/repro/fleet/synthetic.py"


def flagged(check, source, path=PROD_PATH):
    """The line numbers ``check`` flags in the dedented ``source``."""
    module = Module(textwrap.dedent(source), path)
    return sorted(node.lineno for node in check(module))


def report(check, source, path=PROD_PATH):
    """What the tree gate reports for ``source`` when nothing is allowed."""
    violations, _ = gate(check, [Module(textwrap.dedent(source), path)],
                         allowed={})
    return violations


def symbols_in_file(check, relpath):
    """The enclosing symbols of ``check``'s findings in a repository file."""
    module = parsed(relpath)
    return sorted(module.enclosing_symbol(node) for node in check(module))


def assert_allowed_with_reason(check, relpaths):
    """Every finding of ``check`` in ``relpaths`` is an ``ALLOWED`` site
    with a reason, and its source line is the one the entry names."""
    for relpath in relpaths:
        for symbol in symbols_in_file(check, relpath):
            _, reason = ALLOWED[(check.__name__, relpath, symbol)]
            assert reason
    violations, _ = gate(check, map(parsed, relpaths))
    assert violations == []


# ---------------------------------------------------------------------------
# RL001: struct_only_in_storage
# ---------------------------------------------------------------------------

class TestRL001:
    def test_raw_struct_pack_write_outside_emitters(self):
        assert report(struct_only_in_storage, """\
            import struct

            def rogue_save(handle, a, b):
                handle.write(struct.pack("<II", a, b))
            """) == [f"{PROD_PATH}:1 (module level): import struct"]
        assert "SealWriter" in struct_only_in_storage.__doc__

    def test_struct_instance_pack_is_flagged(self):
        assert flagged(struct_only_in_storage, """\
            import struct as s

            _DESC = s.Struct("<QQ8s")

            def encode(a, b, c):
                return _DESC.pack(a, b, c)
            """) == [1]

    def test_from_struct_import_is_flagged(self):
        assert report(struct_only_in_storage, """\
            from struct import pack
            """, path=FLEET_PATH) == [
                f"{FLEET_PATH}:1 (module level): from struct import pack"]

    def test_private_emitter_import_is_flagged(self):
        assert report(struct_only_in_storage, """\
            from repro.core.storage import SealWriter, _encode_frames_block
            """, path=FLEET_PATH) == [
                f"{FLEET_PATH}:1 (module level): from repro.core.storage "
                "import SealWriter, _encode_frames_block"]
        for source, path in (("from .storage import _TAIL\n",
                              "src/repro/core/streaming.py"),
                             ("from ..core.storage import _encode_column_block\n",
                              FLEET_PATH),
                             ("from .storage import _TAIL\n",
                              "src/repro/core/__init__.py")):
            assert flagged(struct_only_in_storage, source, path=path) == [1]

    def test_private_name_through_the_module_is_flagged(self):
        assert flagged(struct_only_in_storage, """\
            from repro.core import storage

            def encode(tree):
                return storage._encode_frames_block(tree)
            """, path=FLEET_PATH) == [4]

    def test_public_storage_names_are_conforming(self):
        assert flagged(struct_only_in_storage, """\
            from repro.core import storage
            from .storage import SealWriter, save_binary

            def save(database, path):
                return storage.save_binary(database, path)
            """) == []

    def test_blessed_modules_are_exempt(self):
        source = """\
            import struct

            def emit(handle, a, b):
                handle.write(struct.pack("<II", a, b))
            """
        assert flagged(struct_only_in_storage, source,
                       path="src/repro/core/storage.py") == []
        # The streaming writer is policy only: its bytes go through the
        # storage module's seal writer, so importing struct there is a
        # violation.
        assert flagged(struct_only_in_storage, source,
                       path="src/repro/core/streaming.py") == [1]

    def test_text_writes_are_not_flagged(self):
        assert flagged(struct_only_in_storage, """\
            def export(handle, rows):
                handle.write("header\\n")
                for row in rows:
                    handle.write(str(row))
            """) == []

    def test_real_storage_and_streaming_are_clean(self):
        for relpath in ("src/repro/core/storage.py",
                        "src/repro/core/streaming.py",
                        "src/repro/core/__init__.py",
                        "src/repro/fleet/store.py",
                        "src/repro/fleet/index.py"):
            assert symbols_in_file(struct_only_in_storage, relpath) == []


# ---------------------------------------------------------------------------
# RL002: writes_only_through_atomic_write
# ---------------------------------------------------------------------------

class TestRL002:
    def test_in_place_write_of_final_path(self):
        for path in (PROD_PATH, FLEET_PATH, "src/repro/obs/synthetic.py"):
            assert report(writes_only_through_atomic_write, """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """, path=path) == [
                    f'{path}:2 (save): with open(path, "w") as handle:']
        assert "atomic_write" in writes_only_through_atomic_write.__doc__

    def test_hand_rolled_temp_then_replace_is_flagged(self):
        assert flagged(writes_only_through_atomic_write, """\
            import os

            def save(path, data):
                tmp = f"{path}.tmp"
                with open(tmp, "w") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            """) == [5, 7]

    def test_bare_replace_is_flagged(self):
        assert flagged(writes_only_through_atomic_write, """\
            from os import replace

            def promote(staged, root):
                replace(staged, root + "/catalog.json")
            """, path=FLEET_PATH) == [4]

    def test_dynamic_mode_is_flagged(self):
        assert flagged(writes_only_through_atomic_write, """\
            def reopen(path, mode):
                return open(path, mode)
            """) == [2]

    def test_temp_then_replace_is_conforming(self):
        assert flagged(writes_only_through_atomic_write, """\
            from repro.durable import atomic_write

            def save(path, data):
                with atomic_write(path, "w") as handle:
                    handle.write(data)
            """) == []

    def test_replace_promotion_without_temp_name_is_conforming(self):
        # A write that is correct by design is listed in ALLOWED with its
        # reason; without the entry the same site is a violation.
        module = Module(textwrap.dedent("""\
            import os

            def promote(staged, digest):
                os.replace(staged, digest)
            """), PROD_PATH)
        allowed = {
            ("writes_only_through_atomic_write", PROD_PATH, "promote"): (
                "os.replace(staged, digest)",
                "the name is the staged bytes' digest")}
        assert gate(writes_only_through_atomic_write, [module],
                    allowed) == ([], [])
        assert gate(writes_only_through_atomic_write, [module], {}) == (
            [f"{PROD_PATH}:4 (promote): os.replace(staged, digest)"], [])

    def test_read_mode_is_ignored(self):
        assert flagged(writes_only_through_atomic_write, """\
            def load(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """) == []

    def test_outside_core_and_fleet_is_out_of_scope(self):
        source = """\
            import os

            def save(path, data):
                with open(path, "w") as handle:
                    handle.write(data)
                os.replace(path, path + ".bak")
            """
        for path in ("src/repro/gui/export.py", "src/repro/durable.py",
                     "tests/test_synthetic.py"):
            assert flagged(writes_only_through_atomic_write, source,
                           path=path) == []

    def test_real_writers_are_clean(self):
        for relpath in ("src/repro/core/storage.py",
                        "src/repro/fleet/index.py",
                        "src/repro/obs/telemetry.py"):
            assert symbols_in_file(writes_only_through_atomic_write,
                                   relpath) == []

    def test_writes_correct_by_design_carry_their_reason(self):
        relpaths = ("src/repro/core/streaming.py",
                    "src/repro/fleet/store.py",
                    "src/repro/obs/timeseries.py")
        assert_allowed_with_reason(writes_only_through_atomic_write, relpaths)
        assert sorted(
            symbol for relpath in relpaths
            for symbol in symbols_in_file(writes_only_through_atomic_write,
                                          relpath)) == [
            "HealthTimeSeries.append",
            "ProfileStore._ingest",
            "StreamingProfileWriter.__init__",
            "StreamingProfileWriter._checkpoint"]

    def test_faultfs_corruption_helpers_are_the_known_findings(self):
        assert symbols_in_file(writes_only_through_atomic_write,
                               "src/repro/core/faultfs.py") == [
            "flip_bit", "truncate_file"]


# ---------------------------------------------------------------------------
# RL003: mutators_bump_generation
# ---------------------------------------------------------------------------

_RL003_HEADER = textwrap.dedent("""\
    class Tree:
        def __init__(self):
            self._generation = 0
            self._registry = []
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
        assert report(mutators_bump_generation, rl003_class("""\
            def register(self, node):
                self._registry.append(node)
            """)) == [
                f"{PROD_PATH}:13 (Tree.register): self._registry.append(node)"]

    def test_unbumped_alias_write(self):
        assert flagged(mutators_bump_generation, rl003_class("""\
            def register(self, node):
                registry = self._registry
                registry.append(node)
            """)) == [14]

    def test_unbumped_exclusive_mutation(self):
        assert report(mutators_bump_generation, rl003_class("""\
            def attribute(self, node, value):
                node.exclusive.add("time", value)
            """)) == [f'{PROD_PATH}:13 (Tree.attribute): '
                      'node.exclusive.add("time", value)']

    def test_direct_bump_is_conforming(self):
        assert flagged(mutators_bump_generation, rl003_class("""\
            def register(self, node):
                self._registry.append(node)
                self._generation += 1
            """)) == []

    def test_transitive_bump_via_sibling_is_conforming(self):
        assert flagged(mutators_bump_generation, rl003_class("""\
            def register(self, node):
                self._registry.append(node)
                self._bump()

            def _bump(self):
                self._generation += 1
            """)) == []

    def test_class_without_generation_cache_is_out_of_scope(self):
        assert flagged(mutators_bump_generation, """\
            class Plain:
                def __init__(self):
                    self._registry = []

                def register(self, node):
                    self._registry.append(node)
            """) == []

    def test_real_cct_is_clean(self):
        assert symbols_in_file(mutators_bump_generation,
                               "src/repro/core/cct.py") == []
        assert symbols_in_file(mutators_bump_generation,
                               "src/repro/core/database.py") == []


# ---------------------------------------------------------------------------
# RL004: storage_errors_are_wrapped
# ---------------------------------------------------------------------------

class TestRL004:
    def test_raw_oserror_reraise(self):
        assert flagged(storage_errors_are_wrapped, """\
            def load(path):
                try:
                    return path.read()
                except OSError:
                    raise
            """) == [5]
        assert "ProfileFormatError" in storage_errors_are_wrapped.__doc__

    def test_raw_struct_error_in_tuple_rebound_and_reraised(self):
        assert flagged(storage_errors_are_wrapped, """\
            import struct

            def decode(payload):
                try:
                    return struct.unpack("<I", payload)
                except (ValueError, struct.error) as error:
                    raise error
            """) == [7]

    def test_wrapping_is_conforming(self):
        assert flagged(storage_errors_are_wrapped, """\
            from .storage import ProfileFormatError

            def load(path):
                try:
                    return path.read()
                except OSError as error:
                    raise ProfileFormatError(f"{path}: {error}") from error
            """) == []

    def test_unguarded_json_load(self):
        assert flagged(storage_errors_are_wrapped, """\
            import json

            def load(handle):
                return json.load(handle)
            """) == [4]

    def test_guarded_json_load_is_conforming(self):
        assert flagged(storage_errors_are_wrapped, """\
            import json

            def load(handle, path):
                try:
                    return json.load(handle)
                except ValueError as error:
                    raise RuntimeError(f"{path}: {error}") from None
            """) == []

    def test_outside_core_and_fleet_is_out_of_scope(self):
        assert flagged(storage_errors_are_wrapped, """\
            def load(path):
                try:
                    return path.read()
                except OSError:
                    raise
            """, path="src/repro/gui/export.py") == []

    def test_real_storage_and_store_are_clean(self):
        for relpath in ("src/repro/core/storage.py",
                        "src/repro/fleet/store.py",
                        "src/repro/fleet/aggregate.py"):
            assert symbols_in_file(storage_errors_are_wrapped, relpath) == []


# ---------------------------------------------------------------------------
# RL007: no_monkeypatching
# ---------------------------------------------------------------------------

class TestRL007:
    def test_module_attribute_assignment(self):
        assert report(no_monkeypatching, """\
            import builtins

            def patch(fake):
                builtins.open = fake
            """) == [f"{PROD_PATH}:4 (patch): builtins.open = fake"]

    def test_setattr_on_module(self):
        assert flagged(no_monkeypatching, """\
            import os

            def patch(fake):
                setattr(os, "replace", fake)
            """) == [4]

    def test_instance_attributes_are_conforming(self):
        assert flagged(no_monkeypatching, """\
            import os

            class Holder:
                def __init__(self, fake):
                    self.replace = fake
                    self.os = None
            """) == []

    def test_faultfs_patch_is_suppressed_not_new(self):
        relpath = "src/repro/core/faultfs.py"
        assert symbols_in_file(no_monkeypatching, relpath) == [
            "FaultInjector.__enter__", "FaultInjector.__exit__"]
        assert_allowed_with_reason(no_monkeypatching, [relpath])


# ---------------------------------------------------------------------------
# RL009: durations_reported_through_obs
# ---------------------------------------------------------------------------

class TestRL009:
    def test_unreported_clock_delta(self):
        assert flagged(durations_reported_through_obs, """\
            import time

            def lap(work):
                start = time.monotonic()
                work()
                return time.monotonic() - start
            """) == [6]
        assert "repro.obs" in durations_reported_through_obs.__doc__

    def test_delta_of_clock_assigned_names(self):
        assert flagged(durations_reported_through_obs, """\
            import time

            def lap(work):
                start = time.perf_counter()
                work()
                end = time.perf_counter()
                return end - start
            """) == [7]

    def test_observed_delta_is_conforming(self):
        assert flagged(durations_reported_through_obs, """\
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
        assert flagged(durations_reported_through_obs, """\
            import time

            from ..obs import TELEMETRY

            def seal(work):
                start = time.time()
                work()
                TELEMETRY.observe("seal.seconds", time.time() - start)
            """, path=FLEET_PATH) == []

    def test_span_in_same_function_is_conforming(self):
        assert flagged(durations_reported_through_obs, """\
            import time

            from repro.obs import TELEMETRY

            def run(work):
                with TELEMETRY.span("run"):
                    start = time.monotonic()
                    work()
                return time.monotonic() - start
            """) == []

    def test_deadline_comparison_is_out_of_scope(self):
        assert flagged(durations_reported_through_obs, """\
            import time

            def expired(deadline):
                return time.monotonic() >= deadline
            """) == []

    def test_non_clock_subtraction_is_out_of_scope(self):
        assert flagged(durations_reported_through_obs, """\
            def width(lo, hi):
                return hi - lo
            """) == []

    def test_outside_instrumented_packages_is_out_of_scope(self):
        assert flagged(durations_reported_through_obs, """\
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
            assert symbols_in_file(durations_reported_through_obs,
                                   relpath) == []

    def test_profiler_carries_exactly_the_baselined_findings(self):
        relpath = "src/repro/core/profiler.py"
        assert symbols_in_file(durations_reported_through_obs, relpath) == [
            "DeepContextProfiler._metadata_snapshot",
            "DeepContextProfiler.maybe_checkpoint",
        ]
        assert_allowed_with_reason(durations_reported_through_obs, [relpath])


# ---------------------------------------------------------------------------
# RL010: polls_are_bounded
# ---------------------------------------------------------------------------

class TestRL010:
    def test_unbounded_sleep_loop_is_flagged(self):
        assert report(polls_are_bounded, """\
            import os
            import time

            def wait_for(path):
                while not os.path.exists(path):
                    time.sleep(0.1)
            """, path=FLEET_PATH) == [
                f"{FLEET_PATH}:5 (wait_for): while not os.path.exists(path):"]

    def test_unbounded_event_wait_loop_is_flagged(self):
        assert flagged(polls_are_bounded, """\
            def pump(stop, work):
                while True:
                    work()
                    stop.wait(1.0)
            """, path=FLEET_PATH) == [2]

    def test_infinite_generator_with_sleep_is_flagged(self):
        assert flagged(polls_are_bounded, """\
            import itertools
            import time

            def pump(work):
                for tick in itertools.count():
                    work(tick)
                    time.sleep(0.5)
            """, path=FLEET_PATH) == [5]

    def test_deadline_comparison_bounds_the_loop(self):
        assert flagged(polls_are_bounded, """\
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
        # against a plain name inside the loop: still a deadline check.
        assert flagged(polls_are_bounded, """\
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
        assert flagged(polls_are_bounded, """\
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
        assert flagged(polls_are_bounded, """\
            import time

            def wait_for(ready):
                for attempt in range(50):
                    if ready():
                        return True
                    time.sleep(0.1)
                return False
            """, path=FLEET_PATH) == []

    def test_loop_without_blocking_is_out_of_scope(self):
        assert flagged(polls_are_bounded, """\
            def drain(queue):
                while queue:
                    queue.pop()
            """, path=FLEET_PATH) == []

    def test_outside_instrumented_packages_is_out_of_scope(self):
        assert flagged(polls_are_bounded, """\
            import time

            def wait_forever(ready):
                while not ready():
                    time.sleep(0.1)
            """, path="src/repro/framework/synthetic.py") == []

    def test_nested_function_does_not_bound_the_outer_loop(self):
        # The deadline comparison lives in a callback defined inside the
        # loop, not in the loop's own control flow: still unbounded.
        assert flagged(polls_are_bounded, """\
            import time

            def pump(work, deadline):
                while True:
                    def check():
                        return time.monotonic() >= deadline
                    work(check)
                    time.sleep(0.5)
            """, path=FLEET_PATH) == [4]

    def test_real_poll_loops_are_clean(self):
        for relpath in ("src/repro/fleet/store.py",
                        "src/repro/fleet/watcher.py",
                        "src/repro/obs/timeseries.py"):
            assert symbols_in_file(polls_are_bounded, relpath) == []


# ---------------------------------------------------------------------------
# The gate itself: the tree against ALLOWED
# ---------------------------------------------------------------------------

class TestRepoGate:
    def test_seeded_violation_fails_with_rule_id_and_location(self):
        rogue = Module(textwrap.dedent("""\
            import struct

            def leak(handle, offset, length):
                handle.write(struct.pack("<QQ8s", offset, length, b"x" * 8))
            """), "src/repro/fleet/rogue.py")
        reports = {check.__name__: gate(check, [rogue])[0]
                   for check in CHECKS}
        assert {name: violations for name, violations in reports.items()
                if violations} == {"struct_only_in_storage": [
                    "src/repro/fleet/rogue.py:1 (module level): import struct"]}

    def test_deleting_a_baseline_entry_fails_the_gate(self):
        checks = {check.__name__: check for check in CHECKS}
        for key, (line, _) in ALLOWED.items():
            trimmed = {other: entry for other, entry in ALLOWED.items()
                       if other[1] == key[1] and other != key}
            violations, stale = gate(checks[key[0]], [parsed(key[1])],
                                     trimmed)
            assert stale == []
            (violation,) = violations
            assert violation.startswith(f"{key[1]}:")
            assert violation.endswith(f" ({key[2]}): {line}")
