"""The rule engine: parsed modules, import/attribute resolution, findings.

The engine parses each file once with :mod:`ast`, wraps it in a
:class:`ModuleInfo` (source lines, parent links, an import map that resolves
local names to dotted targets, enclosing-symbol lookup, inline-suppression
table) and hands it to every registered :class:`Rule`.  Rules are pure
functions of a module: they yield :class:`Finding`\\ s and never mutate.

Suppressions are inline comments::

    builtins.open = faulted_open  # repro-lint: disable=RL007 scoped harness

The reason text after the rule ids is mandatory: a bare ``disable`` does not
suppress and instead surfaces as an ``RL000`` finding, so every opt-out in
the tree carries its own justification.  A suppression comment on a line of
its own applies to the next code line.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Severity levels findings carry (both fail the gate; severity is for
#: readers prioritising a burn-down, not for the exit code).
class Severity:
    ERROR = "error"
    WARNING = "warning"


#: Finding lifecycle states.
STATUS_NEW = "new"
STATUS_SUPPRESSED = "suppressed"
STATUS_BASELINED = "baselined"

#: The meta-rule id for malformed suppressions (always active).
META_RULE_ID = "RL000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s+(\S.*))?$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a precise location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: Dotted enclosing symbol (``Class.method``), "" at module level.
    symbol: str = ""
    #: The stripped source line — what baseline entries match on, so
    #: findings survive unrelated line-number churn.
    snippet: str = ""
    status: str = STATUS_NEW
    #: Reason attached to the suppression/baseline entry covering this
    #: finding ("" for new findings).
    justification: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "snippet": self.snippet,
            "status": self.status,
            "justification": self.justification,
        }


@dataclass
class _Suppression:
    ids: Tuple[str, ...]
    reason: str
    comment_line: int


class ModuleInfo:
    """One parsed module plus everything rules commonly need from it."""

    def __init__(self, source: str, path: str) -> None:
        self.source = source
        self.path = _normalize(path)
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.imports = self._import_map()
        #: line -> suppression covering that line.
        self.suppressions: Dict[int, _Suppression] = {}
        #: Suppression comments missing their mandatory reason.
        self.bad_suppressions: List[_Suppression] = []
        self._scan_suppressions()

    # -- identity -----------------------------------------------------------------

    @property
    def module_name(self) -> str:
        """Dotted module path anchored at the ``repro`` package ("" when the
        file lives outside it — tests, scripts)."""
        parts = self.path.split("/")
        stem = list(parts)
        if stem and stem[-1].endswith(".py"):
            stem[-1] = stem[-1][:-3]
        if "repro" in stem:
            anchored = stem[stem.index("repro"):]
            if anchored[-1] == "__init__":
                anchored = anchored[:-1]
            return ".".join(anchored)
        return ""

    @property
    def is_test(self) -> bool:
        name = os.path.basename(self.path)
        return ("/tests/" in f"/{self.path}" or name.startswith("test_")
                or name == "conftest.py")

    @property
    def is_production(self) -> bool:
        return bool(self.module_name) and not self.is_test

    def in_packages(self, *prefixes: str) -> bool:
        name = self.module_name
        return any(name == prefix or name.startswith(prefix + ".")
                   for prefix in prefixes)

    # -- structure ----------------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_symbol(self, node: ast.AST) -> str:
        names: List[str] = []
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                names.append(ancestor.name)
        return ".".join(reversed(names))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    # -- name resolution ----------------------------------------------------------

    def _import_map(self) -> Dict[str, str]:
        """Local name → dotted target, from this module's import statements.

        ``import struct`` maps ``struct → struct``; ``from .storage import
        SealWriter`` (in ``repro.core.streaming``) maps ``SealWriter →
        repro.core.storage.SealWriter``.  Relative imports resolve against
        the module's own package path so repo-internal provenance — "was this
        name imported from the blessed emitter module?" — is exact.
        """
        mapping: Dict[str, str] = {}
        package = self.module_name.rsplit(".", 1)[0] if self.module_name else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mapping[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = self.module_name.split(".")
                    # level=1 strips the module segment, each extra level one
                    # package more.
                    base_parts = base_parts[:len(base_parts) - node.level]
                    base = ".".join(base_parts)
                else:
                    base = ""
                prefix = ".".join(part for part in (base, node.module or "")
                                  if part)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mapping[local] = ".".join(
                        part for part in (prefix, alias.name) if part)
        _ = package
        return mapping

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, import-aware, or None.

        ``struct.pack`` resolves to ``struct.pack`` when ``import struct``
        is in effect; a name imported ``from repro.core.storage`` resolves to
        its fully qualified origin.  Unresolvable expressions (calls,
        subscripts) return None.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def text_of(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - defensive
            return ""

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # -- suppressions ---------------------------------------------------------------

    def _scan_suppressions(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.source).readline))
        except tokenize.TokenError:  # pragma: no cover - ast already parsed
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = tuple(part.strip().upper()
                        for part in match.group(1).split(",") if part.strip())
            reason = (match.group(2) or "").strip()
            line = token.start[0]
            suppression = _Suppression(ids=ids, reason=reason,
                                       comment_line=line)
            if not ids or not reason:
                self.bad_suppressions.append(suppression)
                continue
            target = line
            stripped = self.lines[line - 1].lstrip() if line <= len(self.lines) else ""
            if stripped.startswith("#"):
                # Standalone comment: guards the next code line.
                target = line + 1
                while (target <= len(self.lines)
                       and (not self.lines[target - 1].strip()
                            or self.lines[target - 1].lstrip().startswith("#"))):
                    target += 1
            self.suppressions[target] = suppression

    def suppression_for(self, rule_id: str, line: int) -> Optional[_Suppression]:
        suppression = self.suppressions.get(line)
        if suppression and rule_id.upper() in suppression.ids:
            return suppression
        return None


class Rule:
    """One checkable invariant: id, severity, docs, and a module checker."""

    id: str = ""
    name: str = ""
    severity: str = Severity.ERROR
    #: One-paragraph statement of the contract (shown by ``--list-rules``).
    contract: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            symbol=module.enclosing_symbol(node),
            snippet=module.line_text(line),
        )


_RULES: Dict[str, Rule] = {}


def register_rule(rule_cls: Callable[[], Rule]):
    """Class decorator: instantiate and register a rule under its id."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls!r} has no id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def rule_by_id(rule_id: str) -> Rule:
    rule = _RULES.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule id {rule_id!r}; known rules: {known}")
    return rule


def _normalize(path: str) -> str:
    return os.path.normpath(path).replace(os.sep, "/")


@dataclass
class LintEngine:
    """Runs a set of rules over sources and applies inline suppressions."""

    rules: List[Rule] = field(default_factory=all_rules)

    def lint_source(self, source: str, path: str) -> List[Finding]:
        """Lint one in-memory module (the unit the property tests drive)."""
        try:
            module = ModuleInfo(source, path)
        except SyntaxError as error:
            return [Finding(rule=META_RULE_ID, severity=Severity.ERROR,
                            path=_normalize(path), line=error.lineno or 1,
                            col=(error.offset or 0) + 1,
                            message=f"file does not parse: {error.msg}")]
        findings: List[Finding] = []
        for bad in module.bad_suppressions:
            findings.append(Finding(
                rule=META_RULE_ID, severity=Severity.ERROR, path=module.path,
                line=bad.comment_line, col=1,
                message=("suppression comment is missing its mandatory "
                         "reason (write `# repro-lint: disable=RLxxx "
                         "<why this is safe>`); the suppression was NOT "
                         "applied"),
                symbol="", snippet=module.line_text(bad.comment_line)))
        for rule in self.rules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                suppression = module.suppression_for(finding.rule,
                                                     finding.line)
                if suppression is not None:
                    finding = replace(finding, status=STATUS_SUPPRESSED,
                                      justification=suppression.reason)
                findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    def lint_file(self, path: str) -> List[Finding]:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        return self.lint_source(source, path)

    def lint_paths(self, paths: Iterable[str]) -> List[Finding]:
        findings: List[Finding] = []
        for file_path in iter_python_files(paths):
            findings.extend(self.lint_file(file_path))
        return findings


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted, with
    caches and hidden directories skipped."""
    seen: set = set()
    for path in paths:
        if os.path.isfile(path):
            normalized = _normalize(path)
            if normalized not in seen:
                seen.add(normalized)
                yield normalized
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if not name.startswith(".") and name != "__pycache__")
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                normalized = _normalize(os.path.join(dirpath, filename))
                if normalized not in seen:
                    seen.add(normalized)
                    yield normalized


def lint_source(source: str, path: str,
                rules: Optional[List[Rule]] = None) -> List[Finding]:
    return LintEngine(rules=rules or all_rules()).lint_source(source, path)


def lint_paths(paths: Iterable[str],
               rules: Optional[List[Rule]] = None) -> List[Finding]:
    return LintEngine(rules=rules or all_rules()).lint_paths(paths)
