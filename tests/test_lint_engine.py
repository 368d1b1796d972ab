"""Engine-level tests for repro.lint: suppressions, baseline mechanics,
CLI behaviour, and a hypothesis property — synthetic modules assembled from
violating and conforming fragments must produce exactly the seeded
(rule, line) findings, no false negatives and no duplicates.
"""

import json
import os
import re
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint import (all_rules, lint_paths, lint_source, load_baseline,
                        write_baseline)
from repro.lint.baseline import Baseline, BaselineEntry, BaselineError
from repro.lint.cli import main
from repro.lint.engine import (META_RULE_ID, STATUS_BASELINED, STATUS_NEW,
                               STATUS_SUPPRESSED, iter_python_files)

PROD_PATH = "src/repro/core/synthetic.py"
LINT_DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "docs", "LINT.md")

EXPECTED_RULE_IDS = ["RL001", "RL002", "RL003", "RL004", "RL007", "RL009",
                     "RL010"]


def lint(source, path=PROD_PATH):
    return lint_source(textwrap.dedent(source), path)


# ---------------------------------------------------------------------------
# Registry and engine basics
# ---------------------------------------------------------------------------

class TestEngine:
    def test_all_builtin_rules_are_registered(self):
        assert [rule.id for rule in all_rules()] == EXPECTED_RULE_IDS
        for rule in all_rules():
            assert rule.name and rule.contract and rule.severity

    def test_lint_docs_have_one_section_per_rule(self):
        with open(LINT_DOC, "r", encoding="utf-8") as handle:
            headings = re.findall(r"^### (RL\d{3})\b", handle.read(),
                                  flags=re.MULTILINE)
        assert sorted(headings) == sorted(
            [rule.id for rule in all_rules()] + [META_RULE_ID])

    def test_syntax_error_yields_meta_finding(self):
        findings = lint("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == META_RULE_ID
        assert "does not parse" in findings[0].message

    def test_findings_carry_symbol_and_snippet(self):
        findings = lint("""\
            import builtins

            class Harness:
                def patch(self, fake):
                    builtins.open = fake
            """)
        (finding,) = findings
        assert finding.rule == "RL007"
        assert finding.symbol == "Harness.patch"
        assert finding.snippet == "builtins.open = fake"
        assert finding.location.endswith(":5:9")

    def test_iter_python_files_dedupes_and_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / ".hidden").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "b.py").write_text("x = 1\n")
        (tmp_path / ".hidden" / "c.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([str(tmp_path),
                                        str(tmp_path / "pkg" / "a.py")]))
        assert len(files) == 1
        assert files[0].endswith("pkg/a.py")


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_trailing_suppression_with_reason(self):
        findings = lint("""\
            import builtins

            def patch(fake):
                builtins.open = fake  # repro-lint: disable=RL007 scoped test harness
            """)
        (finding,) = findings
        assert finding.status == STATUS_SUPPRESSED
        assert finding.justification == "scoped test harness"

    def test_standalone_suppression_guards_next_code_line(self):
        findings = lint("""\
            import builtins

            def patch(fake):
                # repro-lint: disable=RL007 scoped test harness
                builtins.open = fake
            """)
        (finding,) = findings
        assert finding.status == STATUS_SUPPRESSED

    def test_reasonless_suppression_is_rejected_and_not_applied(self):
        findings = lint("""\
            import builtins

            def patch(fake):
                builtins.open = fake  # repro-lint: disable=RL007
            """)
        by_rule = {finding.rule: finding for finding in findings}
        assert by_rule["RL007"].status == STATUS_NEW
        meta = by_rule[META_RULE_ID]
        assert "mandatory" in meta.message

    def test_suppression_only_covers_listed_rules(self):
        findings = lint("""\
            import struct  # repro-lint: disable=RL007 wrong rule id

            def rogue(handle, a):
                handle.write(struct.pack("<I", a))
            """)
        (finding,) = [f for f in findings if f.rule == "RL001"]
        assert finding.status == STATUS_NEW

    def test_multiple_ids_in_one_comment(self):
        findings = lint("""\
            import json

            def repair(path, payload):
                json.dump(json.loads(payload), open(path, "w"))  # repro-lint: disable=RL002,RL004 offline repair tool; the caller validated the payload
            """)
        assert {finding.rule for finding in findings} == {"RL002", "RL004"}
        assert all(finding.status == STATUS_SUPPRESSED
                   for finding in findings)


# ---------------------------------------------------------------------------
# Baseline mechanics
# ---------------------------------------------------------------------------

def _violation_findings():
    return lint("""\
        import builtins

        def patch(fake):
            builtins.open = fake
        """)


class TestBaseline:
    def test_baselined_finding_does_not_fail(self):
        findings = _violation_findings()
        entry = BaselineEntry(rule="RL007", path=PROD_PATH,
                              symbol="patch",
                              snippet="builtins.open = fake",
                              justification="known debt")
        annotated, stale = Baseline([entry]).apply(findings)
        assert stale == []
        assert annotated[0].status == STATUS_BASELINED
        assert annotated[0].justification == "known debt"

    def test_baseline_matching_survives_line_churn(self):
        shifted = lint("""\
            import builtins

            PADDING = 1


            def patch(fake):
                builtins.open = fake
            """)
        entry = BaselineEntry(rule="RL007", path=PROD_PATH,
                              symbol="patch",
                              snippet="builtins.open = fake",
                              justification="known debt")
        annotated, stale = Baseline([entry]).apply(shifted)
        assert stale == []
        assert annotated[0].status == STATUS_BASELINED

    def test_unconsumed_entry_is_stale(self):
        entry = BaselineEntry(rule="RL001", path="src/repro/gone.py",
                              symbol="f", snippet="handle.write(x)",
                              justification="was fixed")
        annotated, stale = Baseline([entry]).apply(_violation_findings())
        assert stale == [entry]
        assert annotated[0].status == STATUS_NEW

    def test_empty_justification_is_invalid(self):
        baseline = Baseline([BaselineEntry(
            rule="RL007", path=PROD_PATH, symbol="patch",
            snippet="builtins.open = fake", justification="  ")])
        with pytest.raises(BaselineError, match="justification"):
            baseline.validate()

    def test_written_skeleton_cannot_be_loaded_until_justified(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline(path, _violation_findings())
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for entry in payload["entries"]:
            entry["justification"] = "grandfathered"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        baseline = load_baseline(path)
        assert len(baseline.entries) == 1

    def test_corrupt_baseline_raises_baseline_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError, match="cannot read"):
            load_baseline(str(path))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_rogue_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "rogue.py").write_text(textwrap.dedent("""\
        import builtins

        def patch(fake):
            builtins.open = fake
        """))
    return str(tmp_path / "src")


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "fine.py").write_text("VALUE = 1\n")
        assert main([str(tmp_path / "src"), "--no-baseline"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_new_finding_exits_one_with_location(self, tmp_path, capsys):
        root = _write_rogue_tree(tmp_path)
        assert main([root, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RL007" in out
        assert "rogue.py:4" in out

    def test_rule_filter(self, tmp_path, capsys):
        root = _write_rogue_tree(tmp_path)
        assert main([root, "--no-baseline", "--rule", "RL001"]) == 0
        assert main([root, "--no-baseline", "--rule", "rl007"]) == 1
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rule", "RL999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_json_format_summary(self, tmp_path, capsys):
        root = _write_rogue_tree(tmp_path)
        assert main([root, "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"new": 1, "baselined": 0,
                                      "suppressed": 0, "stale": 0}
        (finding,) = payload["findings"]
        assert finding["rule"] == "RL007"
        assert finding["line"] == 4

    def test_write_then_justify_then_pass(self, tmp_path, capsys):
        root = _write_rogue_tree(tmp_path)
        baseline = str(tmp_path / "baseline.json")
        assert main([root, "--write-baseline", baseline]) == 0
        # The skeleton is unusable until justified...
        assert main([root, "--baseline", baseline]) == 2
        with open(baseline, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for entry in payload["entries"]:
            entry["justification"] = "sanctioned harness patch"
        with open(baseline, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        # ...and green once every entry says why it lives.
        assert main([root, "--baseline", baseline]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out


# ---------------------------------------------------------------------------
# Hypothesis: seeded synthetic modules report exactly the seeded findings
# ---------------------------------------------------------------------------

_HEADER = ("import builtins\nimport json\nimport os\nimport time\n\n"
           "from repro.durable import atomic_write\n"
           "from repro.obs import TELEMETRY\n\n")
_HEADER_LINES = _HEADER.count("\n")

# Each fragment: (template keyed on {i}, [(rule, line offset within the
# fragment)]).  Offsets are 1-based from the fragment's first line.
VIOLATING_FRAGMENTS = [
    ("import struct\n"
     "def leak_{i}(handle, a, b):\n"
     "    handle.write(struct.pack(\"<II\", a, b))\n",
     [("RL001", 1)]),
    ("def save_{i}(path, data):\n"
     "    with open(path, \"w\") as fh:\n"
     "        fh.write(data)\n",
     [("RL002", 2)]),
    ("def promote_{i}(tmp_path, root):\n"
     "    os.replace(tmp_path, root + \"/catalog.json\")\n",
     [("RL002", 2)]),
    ("class Tree_{i}:\n"
     "    def __init__(self):\n"
     "        self._generation = 0\n"
     "        self._registry = []\n"
     "    def cached_{i}(self):\n"
     "        return self._cache[0] == self._generation\n"
     "    def mutate_{i}(self, node):\n"
     "        registry = self._registry\n"
     "        registry.append(node)\n",
     [("RL003", 9)]),
    ("def load_{i}(path):\n"
     "    try:\n"
     "        return path.read()\n"
     "    except OSError:\n"
     "        raise\n",
     [("RL004", 5)]),
    ("def parse_{i}(payload):\n"
     "    return json.loads(payload)\n",
     [("RL004", 2)]),
    ("def patch_{i}(fake):\n"
     "    builtins.open = fake\n",
     [("RL007", 2)]),
    ("def lap_{i}(work):\n"
     "    start = time.monotonic()\n"
     "    work()\n"
     "    return time.monotonic() - start\n",
     [("RL009", 4)]),
    ("def spin_{i}(ready):\n"
     "    while not ready():\n"
     "        time.sleep(0.01)\n",
     [("RL010", 2)]),
]

CONFORMING_FRAGMENTS = [
    "def ok_{i}(values):\n"
    "    return [value * 2 for value in values]\n",
    "def ok_{i}(path, data):\n"
    "    with atomic_write(path, \"w\") as fh:\n"
    "        fh.write(data)\n",
    "def ok_{i}(payload):\n"
    "    try:\n"
    "        return json.loads(payload)\n"
    "    except ValueError as error:\n"
    "        raise RuntimeError(str(error)) from None\n",
    "def ok_{i}(lock, root, names):\n"
    "    with lock:\n"
    "        lock.write_json(root + \"/index/names.json\", names)\n",
    "def ok_{i}(path):\n"
    "    with open(path, \"rb\") as fh:\n"
    "        return fh.read()\n",
    "class Good_{i}:\n"
    "    def __init__(self):\n"
    "        self._generation = 0\n"
    "        self._registry = []\n"
    "    def cached_{i}(self):\n"
    "        return self._cache[0] == self._generation\n"
    "    def mutate_{i}(self, node):\n"
    "        self._registry.append(node)\n"
    "        self._generation += 1\n",
    "def ok_{i}(work):\n"
    "    start = time.monotonic()\n"
    "    work()\n"
    "    elapsed = time.monotonic() - start\n"
    "    TELEMETRY.observe(\"ok.seconds\", elapsed)\n"
    "    return elapsed\n",
    "def ok_{i}(deadline):\n"
    "    return time.monotonic() >= deadline\n",
    "def ok_{i}(ready, timeout_s):\n"
    "    deadline = time.monotonic() + timeout_s\n"
    "    while not ready():\n"
    "        if time.monotonic() >= deadline:\n"
    "            raise TimeoutError(timeout_s)\n"
    "        time.sleep(0.01)\n",
    "def ok_{i}(ready, attempts_max):\n"
    "    attempts = 0\n"
    "    while attempts < attempts_max:\n"
    "        if ready():\n"
    "            break\n"
    "        attempts += 1\n"
    "        time.sleep(0.01)\n",
]

_FRAGMENT_POOL = (
    [(template, seeds) for template, seeds in VIOLATING_FRAGMENTS]
    + [(template, []) for template in CONFORMING_FRAGMENTS])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENT_POOL), min_size=1, max_size=8))
def test_seeded_violations_reported_exactly(fragments):
    source = _HEADER
    expected = []
    line = _HEADER_LINES
    for index, (template, seeds) in enumerate(fragments):
        body = template.format(i=index)
        for rule, offset in seeds:
            expected.append((rule, line + offset))
        line += body.count("\n") + 1
        source += body + "\n"
    findings = lint_source(source, PROD_PATH)
    reported = [(finding.rule, finding.line) for finding in findings
                if finding.rule != META_RULE_ID]
    assert sorted(reported) == sorted(expected)
    assert all(finding.status == STATUS_NEW for finding in findings)
