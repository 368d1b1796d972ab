"""The built-in rules: the repository's contracts, stated once, checkable.

Each rule encodes an invariant whose violation was the root cause of a real
bug fixed in a prior PR (the catalog in ``docs/LINT.md`` names them).  Rules
are deliberately repo-specific: they resolve imports and attribute chains
just far enough to recognise *this* codebase's patterns precisely, trading
generality for zero-configuration precision.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleInfo, Rule, Severity, register_rule

#: The storage engine: the one module that packs binary profile blocks.
STORAGE_MODULE = "repro.core.storage"

#: Packages whose files are written only through ``repro.durable``.
DURABLE_PACKAGES = ("repro.core", "repro.fleet", "repro.obs")

#: Raw exception types that must not cross the storage/fleet API boundary.
RAW_EXCEPTION_NAMES = {"OSError", "IOError", "struct.error",
                       "json.JSONDecodeError"}

#: Exception types that count as "the error was handled/translated".
_JSON_GUARDS = {"ValueError", "json.JSONDecodeError", "Exception",
                "BaseException", "ProfileFormatError",
                "repro.core.storage.ProfileFormatError"}

#: ``MetricSet`` mutators (``node.exclusive.add(...)`` and friends).
METRIC_MUTATORS = {"add", "add_many", "merge", "put"}


def _call_name(module: ModuleInfo, node: ast.Call) -> Optional[str]:
    return module.resolve(node.func)


def _open_mode(node: ast.Call) -> str:
    """The mode string of an ``open()`` call ("r" when defaulted, "" when
    dynamic and therefore unknowable statically)."""
    mode_node: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return ""


def _may_write(mode: str) -> bool:
    """Whether an ``open()`` mode can write (a dynamic mode "" can)."""
    return not mode or any(flag in mode for flag in "wax+")


# ---------------------------------------------------------------------------
# RL001 — descriptor-emission discipline
# ---------------------------------------------------------------------------

@register_rule
class DescriptorEmissionRule(Rule):
    """Only the storage engine can pack binary block bytes.

    ``repro.core.storage.SealWriter`` writes every block of one-shot saves,
    streamed checkpoints and compactions, stamping each descriptor with its
    CRC-32.  Packing block bytes anywhere else needs ``struct`` or one of
    storage's private encoders (``_encode_frames_block``,
    ``_encode_column_block``, ``_TAIL``), so neither may be imported or
    reached outside storage: unchecksummed blocks the lazy reader cannot
    verify are exactly the silent-rot class PR 6 closed.
    """

    id = "RL001"
    name = "descriptor-emission"
    severity = Severity.ERROR
    contract = ("Only repro.core.storage imports struct or reaches a private "
                "name of repro.core.storage, so its SealWriter stays the one "
                "writer of binary blocks and every descriptor carries its "
                "checksum.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production and module.module_name != STORAGE_MODULE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = module.import_source(node)
                names = [f"{source}.{alias.name}" for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and module.resolve(node.value) == STORAGE_MODULE):
                names = [f"{STORAGE_MODULE}.{node.attr}"]
            else:
                continue
            reached = [name for name in names
                       if name.split(".")[0] == "struct"
                       or name.startswith(STORAGE_MODULE + "._")]
            if reached:
                yield self.finding(
                    module, node,
                    f"{', '.join(reached)} outside {STORAGE_MODULE}: binary "
                    f"blocks are packed only by its SealWriter, which stamps "
                    f"every descriptor with its checksum")


# ---------------------------------------------------------------------------
# RL002 — durable-write discipline
# ---------------------------------------------------------------------------

@register_rule
class DurableWriteRule(Rule):
    """Files are written only through the durable-write helper.

    A crash or ENOSPC mid-write must never truncate the previous good file
    (PRs 4–6), so every profile, catalog, index and telemetry writer stages
    into a sibling temp file and renames it over the target.  That protocol
    is written once, in :func:`repro.durable.atomic_write`; any other
    write-mode ``open()`` or ``os.replace()`` in these packages is an
    in-place write or a second copy of the protocol.
    """

    id = "RL002"
    name = "durable-write"
    severity = Severity.ERROR
    contract = ("In repro.core, repro.fleet and repro.obs, no code opens a "
                "file for writing or calls os.replace(): durable files are "
                "written through repro.durable.atomic_write.  A write that is "
                "correct by design carries an inline suppression saying why.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production and module.in_packages(*DURABLE_PACKAGES)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(module, node)
            if name == "os.replace" or (name == "open"
                                        and _may_write(_open_mode(node))):
                yield self.finding(
                    module, node,
                    f"{module.text_of(node)} writes outside "
                    f"repro.durable.atomic_write; write durable files with "
                    f"`with atomic_write(path, mode) as handle:`")


# ---------------------------------------------------------------------------
# RL003 — generation-counter discipline
# ---------------------------------------------------------------------------

@register_rule
class GenerationCounterRule(Rule):
    """Mutators of generation-cached state bump the counter they key.

    ``name_rows``/``total_metric``/``approximate_size_bytes`` (and
    every cache layered above them) validate against ``self._generation``;
    a mutation path that touches exclusive metrics or the node registry
    without bumping serves stale query results silently.
    """

    id = "RL003"
    name = "generation-counter"
    severity = Severity.ERROR
    contract = ("In a class with a generation-stamped cache (any comparison "
                "against self._generation), every method that mutates "
                "exclusive metrics or the node registry must bump "
                "self._generation in the same body or call a sibling method "
                "that does.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._is_generation_cached(node):
                yield from self._check_class(module, node)

    @staticmethod
    def _is_self_generation(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and node.attr == "_generation"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _is_generation_cached(self, cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(self._is_self_generation(operand)
                       for operand in operands):
                    return True
        return False

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        methods = {statement.name: statement for statement in cls.body
                   if isinstance(statement, ast.FunctionDef)}
        bumping: Set[str] = set()
        calls: Dict[str, Set[str]] = {}
        for name, method in methods.items():
            if self._bumps(method):
                bumping.add(name)
            calls[name] = {
                node.func.attr for node in ast.walk(method)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"}
        changed = True
        while changed:  # transitive: calling a bumping sibling counts
            changed = False
            for name, callees in calls.items():
                if name not in bumping and callees & bumping:
                    bumping.add(name)
                    changed = True
        for name, method in methods.items():
            if name == "__init__" or name in bumping:
                continue
            evidence = self._mutation_evidence(module, method)
            if evidence is not None:
                node, description = evidence
                yield self.finding(
                    module, node,
                    f"method {cls.name}.{name} mutates generation-cached "
                    f"state ({description}) without bumping "
                    f"self._generation; generation-keyed caches will serve "
                    f"stale results")

    def _bumps(self, method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if (isinstance(node, (ast.AugAssign, ast.Assign))
                    and self._is_self_generation(
                        node.target if isinstance(node, ast.AugAssign)
                        else (node.targets[0] if node.targets else node))):
                return True
        return False

    def _mutation_evidence(
            self, module: ModuleInfo,
            method: ast.FunctionDef) -> Optional[Tuple[ast.AST, str]]:
        def is_registry(node: ast.AST) -> bool:
            return (isinstance(node, ast.Attribute) and node.attr == "_registry"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self")

        aliases = {target.id for node in ast.walk(method)
                   if isinstance(node, ast.Assign) and is_registry(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(method):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr == "append" and (
                    is_registry(func.value)
                    or (isinstance(func.value, ast.Name)
                        and func.value.id in aliases)):
                return node, "appends to the node registry"
            if (func.attr in METRIC_MUTATORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "exclusive"):
                return node, (f"mutates exclusive metrics via "
                              f".exclusive.{func.attr}()")
        return None


# ---------------------------------------------------------------------------
# RL004 — exception contract
# ---------------------------------------------------------------------------

@register_rule
class ExceptionContractRule(Rule):
    """Raw storage errors never cross the core/fleet API boundary unwrapped.

    Since PR 4 every corrupt/truncated/vanished-file condition surfaces as a
    :class:`ProfileFormatError` naming the path and the condition.  An
    ``except OSError: ... raise`` (or an unguarded ``json.load``) hands the
    caller a raw error with no idea which profile, block or catalog file
    went bad.
    """

    id = "RL004"
    name = "exception-contract"
    severity = Severity.ERROR
    contract = ("In repro.core/repro.fleet, handlers that catch raw "
                "OSError/struct.error/json.JSONDecodeError must not "
                "re-raise them unwrapped (wrap in ProfileFormatError naming "
                "path + condition), and json.load/loads calls must sit in a "
                "try block that translates decode failures.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production and module.in_packages("repro.core",
                                                           "repro.fleet")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)
            elif (isinstance(node, ast.Call)
                  and _call_name(module, node) in ("json.load", "json.loads")
                  and not self._json_guarded(module, node)):
                yield self.finding(
                    module, node,
                    f"{_call_name(module, node)}(...) is not guarded by a "
                    f"try block translating decode errors; a corrupt file "
                    f"leaks a raw json.JSONDecodeError across the API "
                    f"boundary instead of a ProfileFormatError/ValueError "
                    f"naming the path")

    def _caught_raw(self, module: ModuleInfo,
                    handler: ast.ExceptHandler) -> List[str]:
        types: List[ast.AST] = []
        if handler.type is None:
            return []
        if isinstance(handler.type, ast.Tuple):
            types = list(handler.type.elts)
        else:
            types = [handler.type]
        caught = []
        for type_node in types:
            resolved = module.resolve(type_node)
            if resolved in RAW_EXCEPTION_NAMES:
                caught.append(resolved)
        return caught

    def _check_handler(self, module: ModuleInfo,
                       handler: ast.ExceptHandler) -> Iterator[Finding]:
        raw = self._caught_raw(module, handler)
        if not raw:
            return
        for node in ast.walk(handler):
            if not isinstance(node, ast.Raise):
                continue
            re_raises = node.exc is None or (
                handler.name is not None
                and isinstance(node.exc, ast.Name)
                and node.exc.id == handler.name)
            if re_raises:
                yield self.finding(
                    module, node,
                    f"handler catches raw {', '.join(raw)} and re-raises it "
                    f"unwrapped across the core/fleet API boundary; wrap in "
                    f"ProfileFormatError naming the path and condition")

    def _json_guarded(self, module: ModuleInfo, call: ast.Call) -> bool:
        child: ast.AST = call
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, ast.Try):
                in_body = any(self._holds(statement, child)
                              for statement in ancestor.body)
                if in_body and any(
                        self._handler_translates(module, handler)
                        for handler in ancestor.handlers):
                    return True
            child = ancestor
        return False

    @staticmethod
    def _holds(statement: ast.AST, node: ast.AST) -> bool:
        return any(descendant is node for descendant in ast.walk(statement))

    def _handler_translates(self, module: ModuleInfo,
                            handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (list(handler.type.elts)
                 if isinstance(handler.type, ast.Tuple) else [handler.type])
        for type_node in types:
            resolved = module.resolve(type_node) or ""
            if resolved in _JSON_GUARDS or resolved.endswith("Error"):
                return True
        return False


# ---------------------------------------------------------------------------
# RL007 — no global monkeypatching in production code
# ---------------------------------------------------------------------------

@register_rule
class MonkeypatchRule(Rule):
    """Production code does not rebind attributes of imported modules.

    Patching a module attribute (``builtins.open = ...``) changes behaviour
    process-wide for every caller, concurrent thread and library; the only
    sanctioned instance is the fault-injection harness, which is scoped,
    re-entrancy-guarded — and carries the suppression that documents it.
    """

    id = "RL007"
    name = "no-monkeypatch"
    severity = Severity.WARNING
    contract = ("Assignments to attributes of imported modules (and "
                "setattr on a module object) are forbidden in production "
                "code; test fixtures and the faultfs harness opt out "
                "explicitly with a justified suppression.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imported_modules = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Import)
            for alias in node.names}
        for node in ast.walk(module.tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in imported_modules):
                    yield self.finding(
                        module, node,
                        f"monkeypatches {target.value.id}.{target.attr}: "
                        f"rebinding an imported module's attribute changes "
                        f"process-wide behaviour for every caller")
            if (isinstance(node, ast.Call)
                    and _call_name(module, node) == "setattr"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in imported_modules):
                yield self.finding(
                    module, node,
                    f"setattr on imported module "
                    f"{node.args[0].id!r}: monkeypatching is forbidden in "
                    f"production code")


# ---------------------------------------------------------------------------
# RL009 — span discipline
# ---------------------------------------------------------------------------

#: Wall-clock sources whose subtraction means "a duration was measured".
CLOCK_CALLS = ("time.monotonic", "time.time", "time.perf_counter")


@register_rule
class SpanDisciplineRule(Rule):
    """Measured durations flow through the telemetry layer, not ad hoc.

    PR 9 gave the repo one self-observation spine (:mod:`repro.obs`):
    counters, histograms and spans under a single naming scheme, one
    exporter, near-zero disabled cost.  A wall-clock delta computed in the
    instrumented packages without touching that spine is a measurement no
    trace or snapshot will ever show — the exact blind spot the telemetry
    layer closed.  Deadline *comparisons* (``time.monotonic() >= deadline``)
    are not deltas and pass untouched.
    """

    id = "RL009"
    name = "span-discipline"
    severity = Severity.WARNING
    contract = ("In repro.core/repro.fleet/repro.experiments, a function "
                "that computes a wall-clock delta (subtracting "
                "time.monotonic()/time.time()/time.perf_counter() readings) "
                "must report through repro.obs in the same function — a "
                "TELEMETRY span, counter or histogram observation.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production and module.in_packages(
            "repro.core", "repro.fleet", "repro.experiments")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Sub)):
                continue
            function = module.enclosing_function(node)
            clock_names = (self._clock_names(module, function)
                           if function is not None else set())
            if not (self._is_clock_reading(module, node.left, clock_names)
                    or self._is_clock_reading(module, node.right,
                                              clock_names)):
                continue
            if function is not None and self._reports_through_obs(module,
                                                                  function):
                continue
            yield self.finding(
                module, node,
                "wall-clock delta computed outside the telemetry layer; "
                "report measured durations through repro.obs (a TELEMETRY "
                "span or histogram observation) so they show up in traces "
                "and snapshots")

    @staticmethod
    def _is_clock_reading(module: ModuleInfo, node: ast.AST,
                          clock_names: Set[str]) -> bool:
        if isinstance(node, ast.Call):
            return _call_name(module, node) in CLOCK_CALLS
        if isinstance(node, ast.Name):
            return node.id in clock_names
        return False

    @staticmethod
    def _clock_names(module: ModuleInfo, function: ast.AST) -> Set[str]:
        """Local names assigned from a clock call in this function."""
        names: Set[str] = set()
        for statement in ast.walk(function):
            if (isinstance(statement, ast.Assign)
                    and isinstance(statement.value, ast.Call)
                    and _call_name(module, statement.value) in CLOCK_CALLS):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _reports_through_obs(module: ModuleInfo, function: ast.AST) -> bool:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            resolved = _call_name(module, node)
            if resolved is not None and (
                    resolved == "repro.obs"
                    or resolved.startswith("repro.obs.")):
                return True
        return False


# ---------------------------------------------------------------------------
# RL010 — bounded poll
# ---------------------------------------------------------------------------

#: Blocking-sleep calls that turn a loop into a polling/retry loop.
SLEEP_CALLS = ("time.sleep",)
#: Attribute spellings of event/condition waits (``stop.wait(...)``,
#: ``condition.wait(...)``) — matched by attribute name since the receiver
#: is an arbitrary local.
WAIT_ATTRIBUTES = ("wait",)


@register_rule
class BoundedPollRule(Rule):
    """Polling and retry loops carry a deadline or an iteration bound.

    The fleet watcher (PR 10) made standing poll loops a first-class
    pattern: a daemon that sleeps and retries forever is one vanished file
    or wedged lock away from a silent hang that no timeout will ever
    surface.  Every loop in the instrumented packages that blocks each
    iteration — ``time.sleep(...)`` or an event/condition ``.wait(...)`` —
    must therefore be *visibly* bounded inside the loop: a comparison
    against a wall-clock deadline (``time.monotonic() >= deadline``, the
    catalog lock's shape), a comparison against a counter the loop body
    advances (``ticks >= max_ticks``, the watcher's shape), or iteration
    over a finite ``range``/collection.  An unconditionally infinite
    generator (``itertools.count``) bounds nothing.
    """

    id = "RL010"
    name = "bounded-poll"
    severity = Severity.ERROR
    contract = ("In repro.core/repro.fleet/repro.obs, a loop that blocks "
                "each iteration via time.sleep(...) or .wait(...) must "
                "contain a deadline comparison against a wall clock or a "
                "comparison against a counter advanced in the loop body "
                "(for-loops over anything but itertools.count are bounded "
                "by their iterable).")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production and module.in_packages(
            "repro.core", "repro.fleet", "repro.obs")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.While):
                if self._polls(module, node) and \
                        not self._while_is_bounded(module, node):
                    yield self._poll_finding(module, node)
            elif isinstance(node, ast.For):
                if self._polls(module, node) and \
                        _call_name_of(module, node.iter) == "itertools.count":
                    yield self._poll_finding(module, node)

    def _poll_finding(self, module: ModuleInfo, node: ast.AST) -> Finding:
        return self.finding(
            module, node,
            "unbounded polling loop: the loop sleeps/waits every iteration "
            "but carries no deadline comparison against a wall clock and no "
            "counter bound advanced in its body; a wedged dependency turns "
            "this into a silent hang — compare time.monotonic() against a "
            "deadline, or count iterations against a cap, inside the loop")

    # -- does the loop block each iteration? -------------------------------------------

    @classmethod
    def _polls(cls, module: ModuleInfo, loop: ast.AST) -> bool:
        for node in cls._walk_loop(loop):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(module, node) in SLEEP_CALLS:
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in WAIT_ATTRIBUTES):
                return True
        return False

    # -- is the loop bounded? ----------------------------------------------------------

    @classmethod
    def _while_is_bounded(cls, module: ModuleInfo, loop: ast.While) -> bool:
        clock_names = cls._clock_derived_names(module, loop)
        counters = cls._advanced_counters(loop)
        for node in cls._walk_loop(loop):
            if not isinstance(node, ast.Compare):
                continue
            for operand in [node.left, *node.comparators]:
                if isinstance(operand, ast.Call) and \
                        _call_name(module, operand) in CLOCK_CALLS:
                    return True
                if isinstance(operand, ast.Name) and \
                        operand.id in clock_names | counters:
                    return True
        return False

    @staticmethod
    def _walk_loop(loop: ast.AST) -> Iterator[ast.AST]:
        """The loop's test and body, excluding nested function bodies (a
        callback defined inside the loop is not part of its control flow)."""
        stack = ([loop.test, *loop.body] if isinstance(loop, ast.While)
                 else list(loop.body))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _clock_derived_names(module: ModuleInfo, loop: ast.AST) -> Set[str]:
        """Names the *enclosing function* assigns from a wall-clock reading —
        directly or via arithmetic on one (``deadline = started + 10``
        counts when ``started`` came from a clock)."""
        function = module.enclosing_function(loop)
        scope = function if function is not None else module.tree
        names: Set[str] = set()
        grew = True
        while grew:
            grew = False
            for statement in ast.walk(scope):
                if not (isinstance(statement, ast.Assign)
                        and isinstance(statement.targets[0], ast.Name)):
                    continue
                target = statement.targets[0].id
                if target in names:
                    continue
                for node in ast.walk(statement.value):
                    if (isinstance(node, ast.Call)
                            and _call_name(module, node) in CLOCK_CALLS) \
                            or (isinstance(node, ast.Name)
                                and node.id in names):
                        names.add(target)
                        grew = True
                        break
        return names

    @classmethod
    def _advanced_counters(cls, loop: ast.AST) -> Set[str]:
        """Names the loop body advances (``n += 1`` / ``n = n + ...``)."""
        names: Set[str] = set()
        for node in cls._walk_loop(loop):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif (isinstance(node, ast.Assign)
                  and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)
                  and isinstance(node.value, ast.BinOp)
                  and any(isinstance(child, ast.Name)
                          and child.id == node.targets[0].id
                          for child in ast.walk(node.value))):
                names.add(node.targets[0].id)
        return names


def _call_name_of(module: ModuleInfo, node: ast.AST) -> Optional[str]:
    """``_call_name`` for nodes that may not be calls at all."""
    if isinstance(node, ast.Call):
        return _call_name(module, node)
    return None
