"""repro.lint — an AST-based invariant checker for this repository.

The durability, caching and concurrency contracts the profiler's correctness
rests on — one block emitter, one durable-write helper, generation-counter
cache invalidation, wrapped storage exceptions, bounded polls — are stated
once here as checkable rules instead of being re-litigated in every review.
Each rule
has a stable id (``RL001``…), a severity, documentation (``docs/LINT.md``)
and precise ``file:line`` findings.

Run it as a CLI::

    python -m repro.lint [paths...] [--rule ID] [--format json|text]
                         [--baseline FILE]

Findings in existing code are either fixed or grandfathered into the
committed baseline (``lint-baseline.json``) with a per-entry justification;
new findings always fail.  Individual lines opt out with an inline
``# repro-lint: disable=RLxxx <reason>`` comment — the reason is mandatory.
"""

from .baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from .engine import (Finding, LintEngine, ModuleInfo, Rule, Severity,
                     all_rules, lint_paths, lint_source, rule_by_id)
from . import rules as _rules  # noqa: F401  (registers the built-in rules)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "Rule",
    "Severity",
    "all_rules",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "rule_by_id",
    "write_baseline",
]
