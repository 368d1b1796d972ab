"""Source invariants of ``src/repro`` that no general-purpose linter knows.

Each check is a generator over one parsed module that yields the AST nodes
breaking its invariant; ``test_source_tree_holds`` runs every check over
every module under ``src/repro``.  A site that is correct by design is
listed in ``ALLOWED`` with its reason.  Its key includes the stripped source
line, so a new violation on another line of an allowed function still
fails, and an entry that no longer matches fails as stale.  Each check's
seeded violations and conforming cases are in ``test_lint_rules.py``, one
class per check, named for the rule id the check had in the retired linter.
"""

import ast
import functools
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Module:
    """One parsed module: parent links, import map and name resolution."""

    def __init__(self, source, path):
        self.path = path
        parts = path[:-len(".py")].split("/")
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        self.is_package = parts[-1] == "__init__"
        #: Dotted module name, e.g. ``repro.core.storage``.
        self.name = ".".join(parts[:-1] if self.is_package else parts)
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.parents = {child: parent for parent in ast.walk(self.tree)
                        for child in ast.iter_child_nodes(parent)}
        #: Local name -> dotted target, relative imports resolved.
        self.imports = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.imports[alias.asname or root] = (
                        alias.name if alias.asname else root)
            elif isinstance(node, ast.ImportFrom):
                source_module = self.import_source(node)
                for alias in node.names:
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = ".".join(
                            part for part in (source_module, alias.name)
                            if part)

    def in_packages(self, *packages):
        return any(self.name == package or self.name.startswith(package + ".")
                   for package in packages)

    def import_source(self, node):
        """The absolute module a ``from ... import`` reads from.

        Level 1 is the module's own package (a package's ``__init__`` is its
        own package); each further level is one package up.
        """
        if not node.level:
            return node.module or ""
        parts = self.name.split(".")
        if not self.is_package:
            parts = parts[:-1]
        parts = parts[:len(parts) - node.level + 1]
        return ".".join(parts + [node.module] if node.module else parts)

    def resolve(self, node):
        """Import-aware dotted name of ``a.b.c``; None for other expressions."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def ancestors(self, node):
        while node in self.parents:
            node = self.parents[node]
            yield node

    def enclosing_function(self, node):
        return next((ancestor for ancestor in self.ancestors(node)
                     if isinstance(ancestor, FUNCTIONS)), None)

    def enclosing_symbol(self, node):
        """``Class.method`` around ``node``; "" at module level."""
        return ".".join(reversed([
            ancestor.name for ancestor in self.ancestors(node)
            if isinstance(ancestor, (*FUNCTIONS, ast.ClassDef))]))


def _self_attr(node):
    """``name`` for a ``self.name`` expression, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _calls(module, node, *names):
    return isinstance(node, ast.Call) and module.resolve(node.func) in names


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

STORAGE = "repro.core.storage"


def struct_only_in_storage(module):
    """Only ``repro.core.storage`` imports ``struct`` or reaches a private
    name of ``repro.core.storage``, so its ``SealWriter`` stays the one
    writer of binary blocks and stamps every descriptor with its CRC-32.
    Blocks packed anywhere else are unchecksummed: bit rot in them is
    invisible to the lazy reader.
    """
    if module.name == STORAGE:
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = module.import_source(node)
            names = [f"{source}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and module.resolve(node.value) == STORAGE):
            names = [f"{STORAGE}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[0] == "struct"
               or name.startswith(STORAGE + "._") for name in names):
            yield node


def _opens_for_writing(call):
    """Whether an ``open()`` call's mode can write; a dynamic mode can."""
    mode = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return not mode.value or any(flag in mode.value for flag in "wax+")
    return True


def writes_only_through_atomic_write(module):
    """In ``repro.core``, ``repro.fleet`` and ``repro.obs`` no code opens a
    file for writing or calls ``os.replace()``: durable files are written
    through ``repro.durable.atomic_write``.  Any other write can leave a
    truncated file behind when a crash or ENOSPC hits mid-write.
    """
    if not module.in_packages("repro.core", "repro.fleet", "repro.obs"):
        return
    for node in ast.walk(module.tree):
        if _calls(module, node, "os.replace") or (
                _calls(module, node, "open") and _opens_for_writing(node)):
            yield node


def _first_mutation(method):
    """The first call in ``method`` that appends to ``self._registry`` (or
    an alias of it) or mutates ``.exclusive`` metrics, else None."""
    aliases = {target.id for node in ast.walk(method)
               if isinstance(node, ast.Assign)
               and _self_attr(node.value) == "_registry"
               for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(method):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr == "append" and (
                _self_attr(func.value) == "_registry"
                or (isinstance(func.value, ast.Name)
                    and func.value.id in aliases)):
            return node
        if (func.attr in ("add", "add_many", "merge", "put")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "exclusive"):
            return node
    return None


def mutators_bump_generation(module):
    """In a class whose cache is stamped with ``self._generation`` (any
    comparison against it), every method that mutates the node registry or
    exclusive metrics bumps ``self._generation``, itself or through a
    sibling method it calls.  An unbumped mutation makes the
    generation-keyed memos serve stale numbers with no error.
    """
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef) or not any(
                isinstance(node, ast.Compare)
                and any(_self_attr(operand) == "_generation"
                        for operand in (node.left, *node.comparators))
                for node in ast.walk(cls)):
            continue
        methods = {statement.name: statement for statement in cls.body
                   if isinstance(statement, ast.FunctionDef)}
        bumping = {name for name, method in methods.items() if any(
            (isinstance(node, ast.AugAssign)
             and _self_attr(node.target) == "_generation")
            or (isinstance(node, ast.Assign)
                and _self_attr(node.targets[0]) == "_generation")
            for node in ast.walk(method))}
        calls = {name: {_self_attr(node.func) for node in ast.walk(method)
                        if isinstance(node, ast.Call)}
                 for name, method in methods.items()}
        changed = True
        while changed:  # calling a bumping sibling counts as bumping
            changed = False
            for name, callees in calls.items():
                if name not in bumping and callees & bumping:
                    bumping.add(name)
                    changed = True
        for name, method in methods.items():
            if name != "__init__" and name not in bumping:
                mutation = _first_mutation(method)
                if mutation is not None:
                    yield mutation


RAW_ERRORS = {"OSError", "IOError", "struct.error", "json.JSONDecodeError"}


def _caught(module, handler):
    if handler.type is None:
        return []
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return [module.resolve(node) or "" for node in types]


def _json_guarded(module, call):
    """Whether ``call`` sits in the body of a ``try`` whose handlers
    translate decode failures (a bare ``except``, ``Exception`` or any
    ``...Error``)."""
    child = call
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, ast.Try) and child in ancestor.body and any(
                handler.type is None
                or any(name in ("Exception", "BaseException")
                       or name.endswith("Error")
                       for name in _caught(module, handler))
                for handler in ancestor.handlers):
            return True
        child = ancestor
    return False


def storage_errors_are_wrapped(module):
    """In ``repro.core`` and ``repro.fleet``, a handler that catches a raw
    ``OSError``, ``struct.error`` or ``json.JSONDecodeError`` does not
    re-raise it unwrapped, and every ``json.load``/``json.loads`` sits in a
    ``try`` that translates decode errors.  Fleet queries degrade gracefully
    only because every storage failure arrives as a ``ProfileFormatError``
    naming the path and the condition.
    """
    if not module.in_packages("repro.core", "repro.fleet"):
        return
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.ExceptHandler)
                and RAW_ERRORS.intersection(_caught(module, node))):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Raise) and (
                        inner.exc is None
                        or (isinstance(inner.exc, ast.Name)
                            and inner.exc.id == node.name)):
                    yield inner
        elif (_calls(module, node, "json.load", "json.loads")
              and not _json_guarded(module, node)):
            yield node


def no_monkeypatching(module):
    """No code assigns to an attribute of an imported module or calls
    ``setattr`` on one.  Such a patch changes behaviour process-wide, for
    every caller and thread; the fault injector's scoped patch of
    ``builtins.open`` is the one sanctioned instance.
    """
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(module.tree)
                if isinstance(node, ast.Import) for alias in node.names}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imported):
                yield node
        if (_calls(module, node, "setattr") and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in imported):
            yield node


CLOCKS = ("time.monotonic", "time.time", "time.perf_counter")


def durations_reported_through_obs(module):
    """In ``repro.core``, ``repro.fleet`` and ``repro.experiments``, a
    function that subtracts a clock reading (``time.monotonic()``,
    ``time.time()`` or ``time.perf_counter()``, directly or through a local
    assigned from one) also calls ``repro.obs``.  A duration measured beside
    the telemetry layer shows up in no trace, snapshot or overhead gate;
    deadline comparisons are not durations and pass.
    """
    if not module.in_packages("repro.core", "repro.fleet",
                              "repro.experiments"):
        return
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            continue
        function = module.enclosing_function(node)
        clock_names = set() if function is None else {
            target.id for statement in ast.walk(function)
            if isinstance(statement, ast.Assign)
            and _calls(module, statement.value, *CLOCKS)
            for target in statement.targets if isinstance(target, ast.Name)}
        if not any(_calls(module, side, *CLOCKS)
                   or (isinstance(side, ast.Name) and side.id in clock_names)
                   for side in (node.left, node.right)):
            continue
        if function is not None and any(
                isinstance(call, ast.Call)
                and (module.resolve(call.func) or "").split(".")[:2]
                == ["repro", "obs"]
                for call in ast.walk(function)):
            continue
        yield node


def _loop_nodes(loop):
    """A loop's test and body, without the bodies of functions defined in
    it: a callback is not part of the loop's control flow."""
    stack = ([loop.test, *loop.body] if isinstance(loop, ast.While)
             else list(loop.body))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _clock_derived_names(module, loop):
    """Names the loop's enclosing function assigns from a clock reading,
    directly or by arithmetic on one (``deadline = started + timeout``)."""
    scope = module.enclosing_function(loop) or module.tree
    names = set()
    grew = True
    while grew:
        grew = False
        for statement in ast.walk(scope):
            if (isinstance(statement, ast.Assign)
                    and isinstance(statement.targets[0], ast.Name)
                    and statement.targets[0].id not in names
                    and any(_calls(module, node, *CLOCKS)
                            or (isinstance(node, ast.Name) and node.id in names)
                            for node in ast.walk(statement.value))):
                names.add(statement.targets[0].id)
                grew = True
    return names


def _advanced_counters(loop):
    """Names the loop body advances (``n += 1``, ``n = n + step``)."""
    names = set()
    for node in _loop_nodes(loop):
        if isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                          ast.Name):
            names.add(node.target.id)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.BinOp)
              and any(isinstance(child, ast.Name)
                      and child.id == node.targets[0].id
                      for child in ast.walk(node.value))):
            names.add(node.targets[0].id)
    return names


def _while_is_bounded(module, loop):
    bounds = _clock_derived_names(module, loop) | _advanced_counters(loop)
    return any(
        _calls(module, operand, *CLOCKS)
        or (isinstance(operand, ast.Name) and operand.id in bounds)
        for node in _loop_nodes(loop) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators))


def polls_are_bounded(module):
    """In ``repro.core``, ``repro.fleet`` and ``repro.obs``, a loop that
    blocks every iteration in ``time.sleep(...)`` or a ``.wait(...)``
    compares, inside the loop, a wall clock against a deadline or a counter
    the loop advances; a ``for`` loop is bounded by its iterable unless that
    is ``itertools.count()``.  An unbounded poll turns one wedged lock or
    vanished file into a silent hang.
    """
    if not module.in_packages("repro.core", "repro.fleet", "repro.obs"):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.While, ast.For)) or not any(
                _calls(module, inner, "time.sleep")
                or (isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "wait")
                for inner in _loop_nodes(node)):
            continue
        if isinstance(node, ast.While):
            if not _while_is_bounded(module, node):
                yield node
        elif _calls(module, node.iter, "itertools.count"):
            yield node


CHECKS = [struct_only_in_storage, writes_only_through_atomic_write,
          mutators_bump_generation, storage_errors_are_wrapped,
          no_monkeypatching, durations_reported_through_obs,
          polls_are_bounded]

#: ``(check, file, enclosing symbol) -> (stripped source line, reason)``:
#: the sites that are correct by design.
ALLOWED = {
    ("writes_only_through_atomic_write", "src/repro/core/faultfs.py",
     "flip_bit"): (
        'with open(path, "r+b") as handle:',
        "flips one bit of a sealed file in place so tests can prove the "
        "checksummed readers detect bit rot"),
    ("writes_only_through_atomic_write", "src/repro/core/faultfs.py",
     "truncate_file"): (
        'with open(path, "r+b") as handle:',
        "truncates a sealed file in place to simulate a crash that lost "
        "its tail"),
    ("writes_only_through_atomic_write", "src/repro/core/streaming.py",
     "StreamingProfileWriter.__init__"): (
        'self._handle = open(self._pending_path, "wb")',
        "the stream is staged here and promoted at its first seal; every "
        "seal leaves a valid prefix"),
    ("writes_only_through_atomic_write", "src/repro/core/streaming.py",
     "StreamingProfileWriter._checkpoint"): (
        "os.replace(self._pending_path, self.path)",
        "promotes a stream whose first seal just landed; later seals "
        "append to a valid prefix"),
    ("writes_only_through_atomic_write", "src/repro/fleet/store.py",
     "ProfileStore._ingest"): (
        "os.replace(temp_path, os.path.join(self.root, relative))",
        "the final name is the digest of the staged bytes, known only once "
        "they are written"),
    ("writes_only_through_atomic_write", "src/repro/obs/timeseries.py",
     "HealthTimeSeries.append"): (
        'with open(self.path, "a", encoding="utf-8") as handle:',
        "append-only log: a crash tears at most the last line, which "
        "records() skips"),
    ("no_monkeypatching", "src/repro/core/faultfs.py",
     "FaultInjector.__enter__"): (
        "builtins.open = faulted_open",
        "the scoped fault harness; __exit__ restores the real open"),
    ("no_monkeypatching", "src/repro/core/faultfs.py",
     "FaultInjector.__exit__"): (
        "builtins.open = self._real_open",
        "restores the real open patched in __enter__"),
    ("durations_reported_through_obs", "src/repro/core/profiler.py",
     "DeepContextProfiler.maybe_checkpoint"): (
        "if now - self._last_checkpoint_wall < "
        "self.config.checkpoint_interval_s:",
        "an interval gate, not a measurement: the seal it triggers is "
        "spanned by streaming.checkpoint"),
    ("durations_reported_through_obs", "src/repro/core/profiler.py",
     "DeepContextProfiler._metadata_snapshot"): (
        "wall = (time.perf_counter() - self._wall_start if self._running",
        "the profile's own profiler_wall_seconds field, stored in the "
        "artifact, not telemetry"),
}


def _source_modules():
    root = os.path.join(REPO, "src", "repro")
    for directory, dirnames, filenames in os.walk(root):
        dirnames[:] = [name for name in dirnames if name != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                yield os.path.relpath(path, REPO).replace(os.sep, "/")


SOURCE_MODULES = sorted(_source_modules())


@functools.lru_cache(maxsize=None)
def parsed(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as handle:
        return Module(handle.read(), path)


def gate(check, modules, allowed=ALLOWED):
    """``check``'s findings in ``modules`` that ``allowed`` does not list,
    each as ``path:line (symbol): source line``, and the sites ``allowed``
    lists for ``check`` that matched no finding (stale entries)."""
    allowed = {key[1:]: line for key, (line, _) in allowed.items()
               if key[0] == check.__name__}
    matched, violations = set(), []
    for module in modules:
        for node in check(module):
            site = (module.path, module.enclosing_symbol(node))
            line = module.lines[node.lineno - 1].strip()
            if allowed.get(site) == line:
                matched.add(site)
            else:
                violations.append(f"{module.path}:{node.lineno} "
                                  f"({site[1] or 'module level'}): {line}")
    return violations, sorted(set(allowed) - matched)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_source_tree_holds(check):
    violations, stale = gate(check, map(parsed, SOURCE_MODULES))
    assert violations == [], check.__doc__
    assert stale == [], "stale ALLOWED entries"


def test_edited_allowed_line_is_stale():
    """An entry whose source line changed no longer excuses the site."""
    key, (line, reason) = next(iter(ALLOWED.items()))
    check = next(check for check in CHECKS if check.__name__ == key[0])
    edited = {**ALLOWED, key: (line + "  # edited", reason)}
    violations, stale = gate(check, map(parsed, SOURCE_MODULES), edited)
    assert stale == [key[1:]]
    assert [violation.split(": ", 1)[1] for violation in violations] == [line]
