"""Durable file writes: the one place a file is promoted over its final name.

Readers open profiles, the fleet catalog and query index, telemetry exports,
the health series and the dashboard page at any moment, so none of them may
ever see a half-written file.  :func:`atomic_write` is the protocol every
such writer shares: write a sibling temp file ``<path>.<pid>.tmp``, rename it
over ``path`` once the write finished, and delete it when the write failed.
A crash, a full disk or an encoding error mid-write leaves the previous file
intact.

This module imports nothing from the rest of ``repro``, so every layer uses
it: ``repro.obs`` sits below ``repro.core``.  The
``writes_only_through_atomic_write`` check in ``tests/test_invariants.py``
keeps it the only code in ``repro.core``, ``repro.fleet`` and ``repro.obs``
that opens a file for writing or calls ``os.replace``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str, mode: str = "wb") -> Iterator[IO]:
    """Yield a handle on ``<path>.<pid>.tmp``; a clean exit renames it over
    ``path``, any exception unlinks it and propagates.

    The temp file is opened through the builtin ``open``, so the fault
    injector (``repro.core.faultfs``) sees every write.  Text modes write
    UTF-8.
    """
    temp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp_path, mode,
                  encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
