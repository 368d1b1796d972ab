"""Tests for ``repro.durable.atomic_write``, the one durable-write helper:
a clean exit renames the temp file over the target, a failure keeps the old
file and leaves no temp file, and every write goes through the builtin
``open`` the fault injector patches.
"""

import os

import pytest

from repro.core.faultfs import (FaultInjector, FaultPlan, InjectedCrash,
                                crash_at_write)
from repro.durable import atomic_write


def test_clean_exit_replaces_the_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with atomic_write(str(target), "w") as handle:
        assert handle.name == f"{target}.{os.getpid()}.tmp"
        handle.write("naïve")
        handle.flush()
        assert target.read_text() == "old"  # nothing lands before the exit
    assert target.read_bytes() == "naïve".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.json"]


def test_failure_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="encoder failed"):
        with atomic_write(str(target)) as handle:
            handle.write(b"half")
            raise RuntimeError("encoder failed")
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_the_fault_injector_sees_every_write(tmp_path):
    target = tmp_path / "out.bin"
    plan = FaultPlan([crash_at_write(2)])
    with FaultInjector(tmp_path, plan), pytest.raises(InjectedCrash):
        with atomic_write(str(target)) as handle:
            handle.write(b"a")
            handle.write(b"b")
    assert plan.counts["write"] == 2
    assert os.listdir(tmp_path) == []
