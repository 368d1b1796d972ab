"""The built-in rules: the repository's contracts, stated once, checkable.

Each rule encodes an invariant whose violation was the root cause of a real
bug fixed in a prior PR (the catalog in ``docs/LINT.md`` names them).  Rules
are deliberately repo-specific: they resolve imports and attribute chains
just far enough to recognise *this* codebase's patterns precisely, trading
generality for zero-configuration precision.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Finding, ModuleInfo, Rule, Severity, register_rule

#: The only modules allowed to assemble or write binary profile blocks.
BLESSED_EMITTER_MODULES = ("repro.core.storage",)

#: Private storage symbols that constitute the block-emission machinery.
PRIVATE_EMITTER_SYMBOLS = ("_encode_frames_block", "_encode_column_block",
                           "_TAIL")

#: The raw block encoders; calling one outside the blessed module bypasses
#: ``SealWriter``, which stamps every descriptor.
RAW_EMITTERS = ("_encode_frames_block", "_encode_column_block")

#: Raw exception types that must not cross the storage/fleet API boundary.
RAW_EXCEPTION_NAMES = {"OSError", "IOError", "struct.error",
                       "json.JSONDecodeError"}

#: Exception types that count as "the error was handled/translated".
_JSON_GUARDS = {"ValueError", "json.JSONDecodeError", "Exception",
                "BaseException", "ProfileFormatError",
                "repro.core.storage.ProfileFormatError"}

#: Shard-tree mutators that must never be called on merged-view objects.
TREE_MUTATORS = {"insert", "attribute", "attribute_many",
                 "insert_and_attribute", "merge_from",
                 "install_exclusive_column"}

#: ``MetricSet`` mutators (``node.exclusive.add(...)`` and friends).
METRIC_MUTATORS = {"add", "add_many", "merge", "put", "zero"}

#: Read accessors through which merged-view taint propagates.
_MERGED_READ_ATTRS = {"root", "kernels", "operators", "scopes"}
_MERGED_READ_CALLS = {"find", "all_nodes", "nodes_of_kind", "bfs", "nodes",
                      "leaves"}

_TEMP_MARKERS = ("tmp", "temp", "pending")


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


def _is_write_mode(mode: str) -> bool:
    return any(flag in mode for flag in ("w", "a", "x", "+"))


def _function_statements(function: ast.AST) -> Iterator[ast.AST]:
    for statement in ast.walk(function):
        yield statement


def _first_arg(node: ast.Call) -> Optional[ast.AST]:
    return node.args[0] if node.args else None


# ---------------------------------------------------------------------------
# RL001 — descriptor-emission discipline
# ---------------------------------------------------------------------------

@register_rule
class DescriptorEmissionRule(Rule):
    """Block bytes are emitted only by the one seal writer in storage.

    ``repro.core.storage.SealWriter`` writes every block of one-shot saves,
    streamed checkpoints and compactions, stamping each descriptor with its
    CRC-32.  A raw ``struct.pack`` + ``handle.write`` of block bytes
    anywhere else produces unchecksummed blocks the lazy reader cannot
    verify — exactly the silent-rot class PR 6 closed.
    """

    id = "RL001"
    name = "descriptor-emission"
    severity = Severity.ERROR
    contract = ("Binary profile blocks (struct-packed bytes) may only be "
                "assembled and written inside repro.core.storage, by its "
                "SealWriter, so every descriptor carries its checksum.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return (module.is_production
                and not module.in_packages(*BLESSED_EMITTER_MODULES))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        struct_instances = self._struct_instances(module)
        pack_calls: List[ast.Call] = []
        emitter_calls: List[ast.Call] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import(module, node)
            if not isinstance(node, ast.Call):
                continue
            if self._is_pack_call(module, node, struct_instances):
                pack_calls.append(node)
            elif self._is_emitter_call(module, node):
                emitter_calls.append(node)

        flagged_inner: Set[int] = set()
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write"):
                continue
            inner = [call for call in pack_calls + emitter_calls
                     if self._contains(node, call)]
            if inner:
                flagged_inner.update(id(call) for call in inner)
                yield self.finding(
                    module, node,
                    "raw write of struct-packed block bytes outside the "
                    "blessed emitters; route block emission through "
                    "repro.core.storage.SealWriter so the descriptor carries "
                    "its checksum")
        for call in pack_calls:
            if id(call) in flagged_inner:
                continue
            yield self.finding(
                module, call,
                f"{module.text_of(call.func)}(...) assembles struct-packed "
                f"bytes outside {', '.join(BLESSED_EMITTER_MODULES)}; block "
                f"encoding belongs behind the blessed emitters")
        for call in emitter_calls:
            if id(call) in flagged_inner:
                continue
            yield self.finding(
                module, call,
                f"call to block emitter {module.text_of(call.func)!r} "
                f"outside the blessed writer module")

    @staticmethod
    def _struct_instances(module: ModuleInfo) -> Set[str]:
        instances: Set[str] = set()
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and module.resolve(node.value.func) == "struct.Struct"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        instances.add(target.id)
        return instances

    def _check_import(self, module: ModuleInfo,
                      node: ast.ImportFrom) -> Iterator[Finding]:
        base = module.module_name.rsplit(".", 1)[0] if node.level else ""
        prefix = ".".join(part for part in (base, node.module or "") if part)
        if not prefix.endswith("storage"):
            return
        for alias in node.names:
            if alias.name in PRIVATE_EMITTER_SYMBOLS:
                yield self.finding(
                    module, node,
                    f"import of private block-emission symbol "
                    f"{alias.name!r} from the storage engine; only the "
                    f"blessed writer module may touch the raw encoders")

    def _is_pack_call(self, module: ModuleInfo, node: ast.Call,
                      struct_instances: Set[str]) -> bool:
        resolved = _call_name(module, node)
        if resolved in ("struct.pack", "struct.pack_into"):
            return True
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("pack",
                                                             "pack_into"):
            if isinstance(func.value, ast.Name):
                if func.value.id in struct_instances:
                    return True
                origin = module.imports.get(func.value.id, "")
                if origin.endswith("._TAIL"):
                    return True
        return False

    @staticmethod
    def _is_emitter_call(module: ModuleInfo, node: ast.Call) -> bool:
        resolved = _call_name(module, node)
        if resolved is None:
            return False
        tail = resolved.rsplit(".", 1)[-1]
        if tail not in RAW_EMITTERS:
            return False
        # Only flag names that actually originate in the storage engine (or
        # unqualified local spellings of the same names).
        return resolved == tail or "storage" in resolved

    @staticmethod
    def _contains(outer: ast.AST, inner: ast.AST) -> bool:
        return any(child is inner for child in ast.walk(outer))


# ---------------------------------------------------------------------------
# RL002 — durable-write discipline
# ---------------------------------------------------------------------------

@register_rule
class DurableWriteRule(Rule):
    """Durable files are written temp-file-then-``os.replace``, never in place.

    Every catalog/profile writer since PR 4 stages into a sibling temp file
    and promotes it atomically, so a crash or ENOSPC mid-write can never
    truncate the previous good artifact.  An in-place write-mode ``open`` of
    a final path reopens that failure mode.
    """

    id = "RL002"
    name = "durable-write"
    severity = Severity.ERROR
    contract = ("In repro.core/repro.fleet, write-mode open() must target a "
                "staging path (named *tmp*/*temp*/*pending*, or promoted via "
                "os.replace in the same function); final paths are never "
                "written in place.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production and module.in_packages("repro.core",
                                                           "repro.fleet")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and _call_name(module, node) == "open"):
                continue
            mode = _open_mode(node)
            if not mode or not _is_write_mode(mode):
                continue
            target = _first_arg(node)
            if target is None or self._is_staging_path(module, node, target):
                continue
            yield self.finding(
                module, node,
                f"open({module.text_of(target)}, {mode!r}) writes a final "
                f"path in place; durable writes must stage into a sibling "
                f"temp file and promote it with os.replace")

    def _is_staging_path(self, module: ModuleInfo, call: ast.Call,
                         target: ast.AST) -> bool:
        text = module.text_of(target).lower()
        if any(marker in text for marker in _TEMP_MARKERS):
            return True
        function = module.enclosing_function(call)
        if function is None or not isinstance(target, ast.Name):
            return False
        name = target.id
        for statement in _function_statements(function):
            # The variable was assigned a temp-marked expression earlier...
            if isinstance(statement, ast.Assign) and any(
                    isinstance(assigned, ast.Name) and assigned.id == name
                    for assigned in statement.targets):
                if any(marker in module.text_of(statement.value).lower()
                       for marker in _TEMP_MARKERS):
                    return True
            # ...or it is promoted over a final path in this same function.
            if (isinstance(statement, ast.Call)
                    and module.resolve(statement.func) == "os.replace"
                    and statement.args
                    and isinstance(statement.args[0], ast.Name)
                    and statement.args[0].id == name):
                return True
        # Parameters whose very name marks them as staging paths.
        args = getattr(function, "args", None)
        if args is not None:
            for arg in list(args.args) + list(args.kwonlyargs):
                if arg.arg == name and any(marker in name.lower()
                                           for marker in _TEMP_MARKERS):
                    return True
        return False


# ---------------------------------------------------------------------------
# RL003 — generation-counter discipline
# ---------------------------------------------------------------------------

@register_rule
class GenerationCounterRule(Rule):
    """Mutators of generation-cached state bump the counter they key.

    ``name_rows``/``total_metric``/``approximate_size_bytes`` (and
    every cache layered above them) validate against ``self._generation``;
    a mutation path that touches exclusive metrics, the dirty set or the
    node registry without bumping serves stale query results silently.
    """

    id = "RL003"
    name = "generation-counter"
    severity = Severity.ERROR
    contract = ("In a class with a generation-stamped cache (any comparison "
                "against self._generation), every method that mutates "
                "exclusive metrics, the dirty set or the node registry must "
                "bump self._generation in the same body or call a sibling "
                "method that does.")

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
        aliases = {"_dirty": set(), "_registry": set()}
        for node in ast.walk(method):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr in aliases
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[node.value.attr].add(target.id)

        def refers_to(node: ast.AST, attr: str) -> bool:
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return True
            return isinstance(node, ast.Name) and node.id in aliases[attr]

        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and refers_to(target.value, "_dirty")):
                        return node, "writes the dirty set"
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                func = node.func
                if (func.attr == "append"
                        and refers_to(func.value, "_registry")):
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
# RL005 — catalog lock discipline
# ---------------------------------------------------------------------------

@register_rule
class CatalogLockRule(Rule):
    """Catalog writes happen only under the advisory catalog lock.

    The catalog's read-merge-write cycle is what lets two processes ingest
    into one store without losing each other's rows (PR 6); a catalog write
    outside ``with _CatalogLock(...)`` reopens the lost-update race.
    """

    id = "RL005"
    name = "catalog-lock"
    severity = Severity.ERROR
    contract = ("Any write-mode open() or os.replace() whose target derives "
                "from the catalog path must be lexically inside a `with "
                "_CatalogLock(...)` block.")

    #: The noun that marks a write target as belonging to this rule's
    #: protected structure; subclasses (RL008) retarget the same machinery.
    target_noun = "catalog"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_production

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            description = self._catalog_write(module, node)
            if description is None:
                continue
            if not self._under_lock(module, node):
                yield self.finding(
                    module, node,
                    f"{description} outside the catalog lock; "
                    f"{self.target_noun} mutations must run inside `with "
                    f"_CatalogLock(...)` so concurrent writers serialize "
                    f"their read-merge-write cycles")

    def _catalog_write(self, module: ModuleInfo,
                       node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        resolved = _call_name(module, node)
        if resolved == "open":
            mode = _open_mode(node)
            target = _first_arg(node)
            if (mode and _is_write_mode(mode) and target is not None
                    and self._is_catalogish(module, node, target)):
                return (f"write-mode open of {self.target_noun} path "
                        f"{module.text_of(target)}")
        elif resolved == "os.replace" and len(node.args) >= 2:
            destination = node.args[1]
            if self._is_catalogish(module, node, destination):
                return (f"os.replace onto {self.target_noun} path "
                        f"{module.text_of(destination)}")
        return None

    def _is_catalogish(self, module: ModuleInfo, call: ast.Call,
                       target: ast.AST) -> bool:
        if self._text_is_catalogish(module.text_of(target)):
            return True
        function = module.enclosing_function(call)
        if function is None or not isinstance(target, ast.Name):
            return False
        # One level of local dataflow: a variable assigned from a
        # catalog-flavoured expression carries the taint.
        for statement in _function_statements(function):
            if isinstance(statement, ast.Assign) and any(
                    isinstance(assigned, ast.Name)
                    and assigned.id == target.id
                    for assigned in statement.targets):
                if self._text_is_catalogish(module.text_of(statement.value)):
                    return True
        return False

    @classmethod
    def _text_is_catalogish(cls, text: str) -> bool:
        lowered = text.lower()
        return (cls.target_noun in lowered
                and "cataloglock" not in lowered.replace("_", ""))

    @staticmethod
    def _under_lock(module: ModuleInfo, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    text = module.text_of(item.context_expr).lower()
                    if ("cataloglock" in text.replace("_", "")
                            or "catalog_lock" in text):
                        return True
        return False


# ---------------------------------------------------------------------------
# RL006 — merged-view mutation guard
# ---------------------------------------------------------------------------

@register_rule
class MergedViewMutationRule(Rule):
    """Objects obtained from ``merged()`` views are read-only caches.

    The merged tree is rebuilt (and discarded) when any shard changes
    (PR 2): attributing into it — or into nodes fetched from it — silently
    loses the observation on the next rebuild.  The runtime guard catches
    this at attribution time; this rule catches it in review.
    """

    id = "RL006"
    name = "merged-view-mutation"
    severity = Severity.ERROR
    contract = ("No shard mutator (insert/attribute/attribute_many/"
                "merge_from/install_exclusive_column, or "
                ".exclusive.<mutator>) may be called on an object obtained "
                "from a .merged() accessor, nor may such an object be "
                "passed as the node of attribute/attribute_many.")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(node for node in ast.walk(module.tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        for scope in scopes:
            yield from self._check_scope(module, scope)

    def _check_scope(self, module: ModuleInfo,
                     scope: ast.AST) -> Iterator[Finding]:
        own_nodes = self._own_nodes(scope)
        tainted = self._tainted_names(own_nodes)

        def is_tainted(expr: ast.AST) -> bool:
            return self._expr_tainted(expr, tainted)

        seen: Set[int] = set()
        for node in own_nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if id(node) in seen:
                continue
            attr = node.func.attr
            if attr in TREE_MUTATORS and is_tainted(node.func.value):
                seen.add(id(node))
                yield self.finding(
                    module, node,
                    f".{attr}(...) called on an object obtained from a "
                    f"merged() view; merged views are discardable query "
                    f"caches — mutate through the owning shard instead")
            elif (attr in ("attribute", "attribute_many") and node.args
                  and is_tainted(node.args[0])):
                seen.add(id(node))
                yield self.finding(
                    module, node,
                    f"node passed to .{attr}(...) was obtained from a "
                    f"merged() view; attributing into merged-view nodes "
                    f"silently loses the observation on the next rebuild")
            elif (attr in METRIC_MUTATORS
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr in ("exclusive", "inclusive")
                  and is_tainted(node.func.value.value)):
                seen.add(id(node))
                yield self.finding(
                    module, node,
                    f"direct metric mutation "
                    f".{node.func.value.attr}.{attr}(...) on an object "
                    f"obtained from a merged() view")

    @staticmethod
    def _own_nodes(scope: ast.AST) -> List[ast.AST]:
        """Nodes belonging to this scope, not to nested function scopes."""
        nodes: List[ast.AST] = []
        stack: List[ast.AST] = [scope]
        while stack:
            current = stack.pop()
            nodes.append(current)
            for child in ast.iter_child_nodes(current):
                if (current is not scope
                        and isinstance(child, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))):
                    continue
                if (current is scope and scope is not child
                        and isinstance(child, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                        and not isinstance(scope, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef))):
                    # Module scope: functions are their own scopes.
                    continue
                stack.append(child)
        return nodes

    def _tainted_names(self, nodes: Sequence[ast.AST]) -> Set[str]:
        tainted: Set[str] = set()
        for _ in range(4):  # tiny fixpoint: taint flows through assignments
            before = len(tainted)
            for node in nodes:
                if isinstance(node, ast.Assign):
                    if self._expr_tainted(node.value, tainted):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                tainted.add(target.id)
                            elif isinstance(target, (ast.Tuple, ast.List)):
                                for element in target.elts:
                                    if isinstance(element, ast.Name):
                                        tainted.add(element.id)
                elif isinstance(node, ast.For):
                    if (self._expr_tainted(node.iter, tainted)
                            and isinstance(node.target, ast.Name)):
                        tainted.add(node.target.id)
            if len(tainted) == before:
                break
        return tainted

    def _expr_tainted(self, expr: ast.AST, tainted: Set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Call):
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "merged"):
                return True
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in _MERGED_READ_CALLS):
                return self._expr_tainted(expr.func.value, tainted)
            return False
        if isinstance(expr, ast.Attribute):
            if expr.attr in _MERGED_READ_ATTRS or expr.attr in ("exclusive",
                                                                "inclusive"):
                return self._expr_tainted(expr.value, tainted)
            return False
        if isinstance(expr, ast.Subscript):
            return self._expr_tainted(expr.value, tainted)
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
# RL008 — fleet-index lock discipline
# ---------------------------------------------------------------------------

@register_rule
class IndexLockRule(CatalogLockRule):
    """Fleet-index writes happen only under the advisory catalog lock.

    The index's name dictionary is a read-intern-append cycle shared by
    every ingesting process (PR 8): a dictionary or summary write outside
    ``with _CatalogLock(...)`` can drop another writer's interned names,
    leaving summaries whose ids resolve to the wrong strings.  Same taint
    machinery as RL005, retargeted at index-flavoured paths.
    """

    id = "RL008"
    name = "index-lock"
    severity = Severity.ERROR
    contract = ("Any write-mode open() or os.replace() whose target derives "
                "from the fleet-index path must be lexically inside a `with "
                "_CatalogLock(...)` block.")

    target_noun = "index"


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
