"""The user-frame filter: which Python frames belong in call paths."""

import os

import pytest

from repro import pycontext
from repro.pycontext import capture_user_frames, is_user_frame

PACKAGE = pycontext._PACKAGE_DIR
WORKLOADS = os.path.join(PACKAGE, "workloads")


def uncached_rule(filename):
    """The filter's rule, evaluated from scratch against the current directory."""
    path = os.path.abspath(filename)
    if not path.startswith(PACKAGE + os.sep):
        return True
    return path.startswith(WORKLOADS + os.sep)


NAMES = [
    pycontext.__file__,
    os.path.join(PACKAGE, "core", "cct.py"),
    os.path.join(WORKLOADS, "models", "llm.py"),
    os.path.join(PACKAGE, "..", "repro", "core", "cct.py"),
    __file__,
    "<frozen runpy>",
    "<string>",
    "model.py",
    os.path.join("workloads", "models", "llm.py"),
    os.path.join("..", "core", "cct.py"),
]


@pytest.mark.parametrize("where", ["tmp", "package", "workloads", "models", "above"])
def test_memoized_verdict_matches_uncached_rule_in_every_directory(where, tmp_path,
                                                                  monkeypatch):
    directory = {
        "tmp": str(tmp_path),
        "package": PACKAGE,
        "workloads": WORKLOADS,
        "models": os.path.join(WORKLOADS, "models"),
        "above": os.path.dirname(PACKAGE),
    }[where]
    monkeypatch.chdir(directory)
    for name in NAMES:
        expected = uncached_rule(name)
        assert is_user_frame(name) is expected, (name, directory)
        assert is_user_frame(name) is expected, (name, directory)  # memo hit


def test_relative_names_follow_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert is_user_frame("<frozen runpy>")
    monkeypatch.chdir(PACKAGE)
    assert not is_user_frame("<frozen runpy>")
    monkeypatch.chdir(WORKLOADS)
    assert is_user_frame("<frozen runpy>")
    monkeypatch.chdir(tmp_path)
    assert is_user_frame("<frozen runpy>")


def test_sibling_directories_are_not_the_package():
    # A user package installed next to ``repro`` is user code, and a
    # directory named like ``workloads`` is not the workloads package.
    assert is_user_frame(os.path.join(os.path.dirname(PACKAGE), "repro_ext", "train.py"))
    assert not is_user_frame(os.path.join(PACKAGE, "workloads_extra", "model.py"))
    assert not is_user_frame(os.path.join(PACKAGE, "core", "cct.py"))
    assert is_user_frame(os.path.join(WORKLOADS, "models", "llm.py"))


def test_capture_keeps_user_frames_outermost_first():
    def inner():
        return capture_user_frames()

    frames = inner()
    assert frames[-1][2] == "inner"
    assert frames[-2][2] == "test_capture_keeps_user_frames_outermost_first"
    assert all(is_user_frame(filename) for filename, _line, _function in frames)
