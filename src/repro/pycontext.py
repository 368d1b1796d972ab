"""Capture of *user-level* Python frames.

DeepContext obtains the Python part of the unified call path through CPython's
``PyFrame`` APIs.  In this reproduction the model code, the workloads and the
examples are ordinary Python, so the interpreter stack is real; what needs
care is filtering out the frames that belong to the simulated framework,
profiler and substrate internals — those correspond to C++ code in the real
stack and are represented by the simulated *native* call path instead.

Frames from ``repro.workloads``, ``examples``, ``tests`` and any user script
are considered user code; frames from the rest of the ``repro`` package are
internal and filtered out.

DLMonitor walks the whole interpreter stack once per operator that needs a
call path, so the verdict is memoized per ``co_filename``.  The memo is
bounded by source files and stays exact: an absolute name's verdict never
changes, and a relative name (such as ``<frozen runpy>``) is memoized per
working directory, because that is what it resolves against.
"""

from __future__ import annotations

import os
import sys
from types import FrameType
from typing import Dict, List, Optional, Tuple

#: (file, line, function) — the same frame triple used throughout the package.
PyFrame = Tuple[str, int, str]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
# Directory prefixes end in a separator, so siblings such as
# ``<site-packages>/repro_ext`` or ``repro/workloads_extra`` do not match.
_PACKAGE_PREFIX = _PACKAGE_DIR + os.sep
_USER_PREFIXES = (os.path.join(_PACKAGE_DIR, "workloads") + os.sep,)

#: Verdicts of absolute file names.
_VERDICTS: Dict[str, bool] = {}
#: Verdicts of relative file names, keyed by (working directory, name).
_RELATIVE_VERDICTS: Dict[Tuple[str, str], bool] = {}


def _is_user_path(path: str) -> bool:
    return not path.startswith(_PACKAGE_PREFIX) or path.startswith(_USER_PREFIXES)


def is_user_frame(filename: str) -> bool:
    """True when a Python frame belongs to user-level code.

    Everything outside the ``repro`` package is user code; inside the package
    only the workload models count (they stand in for the user's model code).
    """
    verdict = _VERDICTS.get(filename)
    if verdict is not None:
        return verdict
    if os.path.isabs(filename):
        verdict = _VERDICTS[filename] = _is_user_path(os.path.normpath(filename))
        return verdict
    key = (os.getcwd(), filename)
    verdict = _RELATIVE_VERDICTS.get(key)
    if verdict is None:
        verdict = _RELATIVE_VERDICTS[key] = _is_user_path(
            os.path.normpath(os.path.join(*key)))
    return verdict


def capture_user_frames(skip: int = 1, limit: int = 128,
                        start: Optional[FrameType] = None) -> List[PyFrame]:
    """Walk the live interpreter stack and keep only user frames.

    The walk begins ``skip`` frames above this function, or at ``start``.
    Returns frames ordered from the outermost caller to the innermost callee,
    which is the order call paths are stored in throughout the repository.
    """
    frames: List[PyFrame] = []
    verdicts = _VERDICTS
    frame = start if start is not None else sys._getframe(skip)
    depth = 0
    while frame is not None and depth < limit:
        code = frame.f_code
        filename = code.co_filename
        # The absolute-name memo inline: one dict probe per frame on the hot path.
        verdict = verdicts.get(filename)
        if verdict is None:
            verdict = is_user_frame(filename)
        if verdict:
            frames.append((filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
        depth += 1
    frames.reverse()
    return frames


def format_frame(frame: PyFrame) -> str:
    """Human-readable ``function (file:line)`` rendering of a frame triple."""
    filename, line, function = frame
    return f"{function} ({os.path.basename(filename)}:{line})"
