"""Deterministic fault injection for profile file I/O.

The durability guarantees this codebase makes — every sealed prefix is a
valid profile, recovery always lands on the last intact seal, a corrupt
block is *detected*, never silently aggregated — are only worth anything if
the failure paths are actually exercised.  This module is the harness that
exercises them: a :class:`FaultInjector` wraps ``builtins.open`` for files
under one directory, and a scripted :class:`FaultPlan` decides which write
or read trips which fault:

* **crash** — the nth write raises :class:`InjectedCrash` before any byte
  lands and the "process" is dead: every later I/O call on an injected file
  raises too, exactly like a killed writer;
* **torn** — the nth write lands only its first ``keep`` bytes, then the
  process dies (the classic half-written block a power cut leaves behind);
* **enospc** — the nth write lands ``keep`` bytes and raises
  ``OSError(ENOSPC)``; the process *survives*, modelling a full disk the
  caller may retry after;
* **short** — the nth read returns at most ``keep`` bytes regardless of the
  request (a reader racing a truncation).

Faults are matched by a deterministic per-operation counter, so a test can
sweep "crash at write #k" over every k and assert the recovery property at
each point.  With an empty plan every call passes straight through — the
wrapper adds one counter increment per operation, which is what the CI
overhead smoke pins down.

Bit rot is injected after the fact, not through the plan:
:func:`flip_bit` / :func:`truncate_file` mutate a finished file directly.

Everything here is test/validation machinery: production code never imports
it, and it never monkeypatches anything outside the ``with`` block.
"""

from __future__ import annotations

import builtins
import errno
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "InjectedCrash",
    "crash_at_write",
    "torn_write",
    "enospc_at_write",
    "short_read",
    "flip_bit",
    "truncate_file",
]


class InjectedCrash(OSError):
    """A scripted process death at an I/O call.

    Subclasses ``OSError`` so code that treats I/O failure generically (and
    the streaming writer's best-effort rewind) handles it like the real
    thing, while tests can still catch it by name.
    """


#: Fault modes a plan may script.
MODE_CRASH = "crash"
MODE_TORN = "torn"
MODE_ENOSPC = "enospc"
MODE_SHORT = "short"

_WRITE_MODES = (MODE_CRASH, MODE_TORN, MODE_ENOSPC)
_READ_MODES = (MODE_SHORT,)


@dataclass
class Fault:
    """One scripted fault: trip on the ``at``-th matching operation.

    ``op`` is ``"write"`` or ``"read"``; ``at`` is 1-based and counts — per
    fault — every matching operation on injected files, in program order,
    which is what makes a plan deterministic for a deterministic workload.
    ``match`` narrows matching to paths containing the substring ("" matches
    every injected file), so a fault can target e.g. only the catalog temp
    file while profile writes pass untouched.  ``keep`` is how many bytes
    still land (torn/enospc writes) or may be returned (short reads).
    """

    op: str
    at: int
    mode: str
    keep: int = 0
    match: str = ""
    #: How many matching operations this fault has seen (advances even after
    #: it fired, harmlessly).
    seen: int = 0

    def __post_init__(self) -> None:
        valid = _WRITE_MODES if self.op == "write" else _READ_MODES
        if self.op not in ("write", "read"):
            raise ValueError(f"unknown fault op {self.op!r}: "
                             f"expected 'write' or 'read'")
        if self.mode not in valid:
            raise ValueError(f"fault mode {self.mode!r} does not apply to "
                             f"op {self.op!r}; valid: {valid}")
        if self.at < 1:
            raise ValueError(f"fault position must be 1-based, got {self.at}")


def crash_at_write(at: int, match: str = "") -> Fault:
    return Fault(op="write", at=at, mode=MODE_CRASH, match=match)


def torn_write(at: int, keep: int, match: str = "") -> Fault:
    return Fault(op="write", at=at, mode=MODE_TORN, keep=keep, match=match)


def enospc_at_write(at: int, keep: int = 0, match: str = "") -> Fault:
    return Fault(op="write", at=at, mode=MODE_ENOSPC, keep=keep, match=match)


def short_read(at: int, keep: int, match: str = "") -> Fault:
    return Fault(op="read", at=at, mode=MODE_SHORT, keep=keep, match=match)


@dataclass
class FaultPlan:
    """The scripted faults plus the deterministic operation counters.

    A plan is single-use: counters only ever advance.  ``tripped`` records
    every fault that actually fired (tests assert on it so a plan that never
    matched is a test bug, not a silent pass); ``dead`` goes True once a
    crash-class fault fired, after which every injected I/O call raises
    :class:`InjectedCrash` — a dead process does not keep writing.
    ``counts`` tracks every operation on injected files regardless of plan
    contents, so a dry run with an empty plan measures how many writes a
    workload performs (the domain a crash sweep then covers).
    """

    faults: List[Fault] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    tripped: List[Fault] = field(default_factory=list)
    dead: bool = False

    def next_fault(self, op: str, path: str) -> Optional[Fault]:
        """Advance the counters; the fault scheduled at this operation."""
        self.counts[op] = self.counts.get(op, 0) + 1
        hit: Optional[Fault] = None
        for fault in self.faults:
            if fault.op != op or (fault.match and fault.match not in path):
                continue
            fault.seen += 1
            if fault.seen == fault.at and hit is None:
                self.tripped.append(fault)
                hit = fault
        return hit


class _FaultyFile:
    """Proxy around a real file object that routes I/O through the plan."""

    def __init__(self, raw, plan: FaultPlan, path: str) -> None:
        self._raw = raw
        self._plan = plan
        self._path = path

    # -- faulted operations ----------------------------------------------------------

    def _check_dead(self) -> None:
        if self._plan.dead:
            raise InjectedCrash(
                "injected crash: the simulated process is dead; no further "
                "I/O may land")

    def write(self, data):
        self._check_dead()
        fault = self._plan.next_fault("write", self._path)
        if fault is None:
            return self._raw.write(data)
        if fault.mode == MODE_CRASH:
            self._plan.dead = True
            raise InjectedCrash(
                f"injected crash at write #{fault.at}: no bytes landed")
        if fault.mode == MODE_TORN:
            self._raw.write(bytes(data)[:fault.keep])
            self._raw.flush()
            self._plan.dead = True
            raise InjectedCrash(
                f"injected torn write at write #{fault.at}: only the first "
                f"{fault.keep} of {len(data)} bytes landed, then the "
                f"process died")
        if fault.mode == MODE_ENOSPC:
            if fault.keep:
                self._raw.write(bytes(data)[:fault.keep])
                self._raw.flush()
            raise OSError(errno.ENOSPC,
                          f"injected ENOSPC at write #{fault.at}: no space "
                          f"left on device")
        raise AssertionError(f"unhandled write fault mode {fault.mode!r}")

    def read(self, size: int = -1):
        self._check_dead()
        fault = self._plan.next_fault("read", self._path)
        if fault is not None and fault.mode == MODE_SHORT:
            size = fault.keep if size < 0 else min(size, fault.keep)
        return self._raw.read(size)

    # -- pass-through surface the storage/streaming code touches ----------------------

    def flush(self):
        self._check_dead()
        return self._raw.flush()

    def truncate(self, size=None):
        self._check_dead()
        return (self._raw.truncate() if size is None
                else self._raw.truncate(size))

    def seek(self, offset, whence=0):
        self._check_dead()
        return self._raw.seek(offset, whence)

    def close(self):
        # Closing is always allowed: even a dead process's descriptors close.
        return self._raw.close()

    def __getattr__(self, name):
        return getattr(self._raw, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __iter__(self):
        return iter(self._raw)


class FaultInjector:
    """Patch ``builtins.open`` so files under ``root`` obey a fault plan.

    Only paths under ``root`` (after ``abspath``) are wrapped; every other
    ``open`` — pytest internals, imports, unrelated temp files — passes
    through untouched, which keeps the patch safe to hold across a whole
    profiler run.  Use as a context manager::

        plan = FaultPlan([crash_at_write(7)])
        with FaultInjector(tmp_path, plan):
            ...drive the writer until InjectedCrash...
        recovered = recover_profile(path)   # outside: real I/O again

    The injector is re-entrant-unsafe on purpose (one at a time): nesting
    would make the operation counters ambiguous.
    """

    def __init__(self, root, plan: FaultPlan) -> None:
        self.root = os.path.abspath(os.fspath(root))
        self.plan = plan
        self._real_open = None

    def _matches(self, file) -> bool:
        if not isinstance(file, (str, bytes, os.PathLike)):
            return False  # descriptor-based opens are never wrapped
        try:
            path = os.path.abspath(os.fsdecode(os.fspath(file)))
        except (TypeError, ValueError):
            return False
        return path == self.root or path.startswith(self.root + os.sep)

    def __enter__(self) -> "FaultInjector":
        if self._real_open is not None:
            raise RuntimeError("FaultInjector is already active")
        real_open = builtins.open
        self._real_open = real_open

        def faulted_open(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)
            if self._matches(file):
                path = os.path.abspath(os.fsdecode(os.fspath(file)))
                return _FaultyFile(handle, self.plan, path)
            return handle

        # The one sanctioned monkeypatch (see `no_monkeypatching` in
        # tests/test_invariants.py): the injector is a scoped context
        # manager that restores the real `open` in __exit__, and it is the
        # only way to exercise I/O fault paths without a kernel-level fault
        # filesystem.
        builtins.open = faulted_open
        return self

    def __exit__(self, *exc_info) -> None:
        # Undoes the scoped patch of __enter__ (also allowed by the check).
        builtins.open = self._real_open
        self._real_open = None


# ---------------------------------------------------------------------------
# Post-hoc corruption helpers (bit rot, truncation)
# ---------------------------------------------------------------------------

def flip_bit(path: str, byte_offset: int, bit: int = 0) -> None:
    """Flip one bit in place — the minimal possible on-disk corruption."""
    if not 0 <= bit <= 7:
        raise ValueError(f"bit must be 0..7, got {bit}")
    # In-place mutation is the whole point: tests corrupt an already-sealed
    # artifact to prove the readers detect it, so this write does not go
    # through atomic_write.
    with open(path, "r+b") as handle:
        handle.seek(byte_offset)
        original = handle.read(1)
        if len(original) != 1:
            raise ValueError(
                f"{path!r}: byte offset {byte_offset} is past EOF "
                f"({os.path.getsize(path)} bytes)")
        handle.seek(byte_offset)
        handle.write(bytes([original[0] ^ (1 << bit)]))


def truncate_file(path: str, size: int) -> None:
    """Cut a file to ``size`` bytes (a crash that lost its tail)."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
