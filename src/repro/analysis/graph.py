"""Project-level program graphs for pacorlint dataflow rules.

The per-file rules in :mod:`repro.analysis.lint.rules` see one module at
a time, which is enough for local invariants (seeded RNGs, taxonomy
raises) but blind to the properties the service era actually risks:
*which code runs on a worker or dispatcher thread*, *which objects cross
the process boundary*, and *which kernel function writes shared state*.
Those are reachability questions over the whole of ``src/repro``.

:class:`ProjectGraph` answers them.  It is built once per lint run from
the already-parsed :class:`~repro.analysis.lint.core.ParsedFile` list
and offers three views:

* an **import graph** — per-module binding tables mapping local names to
  fully-qualified targets, with ``from X import Y`` re-exports recorded
  as aliases so names resolve through package ``__init__`` façades;
* a **symbol table** — every module-level function, class and method
  under a stable qualified name (``repro.service.jobs.JobStore.save``);
* a **call graph** — edges resolved through the binding tables, local
  variable types (constructor calls and annotations), parameter
  annotations and ``self`` attribute types inferred from ``__init__``.
  Functions passed as arguments (``Thread(target=self._loop)``,
  tracer listeners) also become edges, so callback-driven control flow
  stays reachable.

The resolution is deliberately *conservative-by-omission*: an edge is
added only when the callee resolves to a known symbol.  Dynamic dispatch
the analysis cannot see simply produces no edge — rules built on top
(RACE001/SPAWN001/PURE001) are tuned so that missing edges cost recall,
never precision.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.core import ParsedFile

#: Mutable-container constructors whose module-level bindings count as
#: shared mutable state (see :meth:`ModuleInfo.mutable_globals`).
_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}

#: Names that are never class references even when they resolve.
_BUILTIN_NAMES = {
    "len", "range", "sorted", "enumerate", "zip", "min", "max", "sum",
    "abs", "print", "isinstance", "issubclass", "getattr", "setattr",
    "hasattr", "repr", "str", "int", "float", "bool", "tuple", "list",
    "dict", "set", "frozenset", "open", "iter", "next", "super", "type",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """Return the dotted name of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One module-level function or method in the symbol table."""

    qname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class qname for methods

    @property
    def name(self) -> str:
        """Return the unqualified function name."""
        return self.qname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class definition in the symbol table."""

    qname: str
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # resolved qnames


@dataclass
class ModuleInfo:
    """One parsed module with its name-binding table."""

    name: str
    parsed: ParsedFile
    #: local name -> fully-qualified target (import bindings).
    bindings: Dict[str, str] = field(default_factory=dict)
    #: module-global name -> definition line, for names bound to mutable
    #: containers at module level.
    mutable_globals: Dict[str, int] = field(default_factory=dict)


class ProjectGraph:
    """Import graph + symbol table + call graph over parsed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qname -> callee qnames.
        self.calls: Dict[str, Set[str]] = {}
        #: ``from X import Y`` re-exports: "mod.Y" -> "X.Y".
        self.aliases: Dict[str, str] = {}
        #: functions passed as Thread/Process ``target=``.
        self.thread_targets: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(cls, files: Sequence[ParsedFile]) -> "ProjectGraph":
        """Build the graph over ``files`` (one pass symbols, one calls)."""
        graph = cls()
        for parsed in files:
            graph._index_module(parsed)
        for parsed in files:
            graph._resolve_bases(parsed)
        for parsed in files:
            graph._index_calls(parsed)
        return graph

    def _resolve_bases(self, parsed: ParsedFile) -> None:
        """Resolve base-class names of every class in ``parsed``.

        Runs as its own pass so inherited-method resolution works no
        matter which module the call graph visits first.
        """
        module = parsed.module
        for node in parsed.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            info = self.classes[f"{module}.{node.name}"]
            info.bases = [
                resolved
                for base in node.bases
                if (name := _dotted(base)) is not None
                and (resolved := self.resolve(module, name)) is not None
                and resolved in self.classes
            ]

    def _index_module(self, parsed: ParsedFile) -> None:
        """Record bindings, symbols and mutable globals of one module."""
        mod = ModuleInfo(name=parsed.module, parsed=parsed)
        self.modules[parsed.module] = mod
        package = self._package_of(parsed)
        for node in parsed.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for local, target in self._import_bindings(package, node):
                    mod.bindings[local] = target
                    if isinstance(node, ast.ImportFrom):
                        self.aliases[f"{parsed.module}.{local}"] = target
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{parsed.module}.{node.name}"
                self.functions[qname] = FunctionInfo(
                    qname=qname, module=parsed.module, node=node
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(parsed.module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._index_global(mod, node)

    def _index_class(self, module: str, node: ast.ClassDef) -> None:
        qname = f"{module}.{node.name}"
        info = ClassInfo(qname=qname, module=module, node=node)
        self.classes[qname] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mq = f"{qname}.{item.name}"
                self.functions[mq] = FunctionInfo(
                    qname=mq, module=module, node=item, cls=qname
                )

    def _index_global(
        self, mod: ModuleInfo, node: ast.AST
    ) -> None:
        """Record module-level names bound to mutable containers."""
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target]
            value = node.value
        else:
            return
        if value is None or not self._is_mutable_literal(value):
            return
        for target in targets:
            mod.mutable_globals[target.id] = node.lineno

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        """Return True for dict/list/set literals and their constructors."""
        if isinstance(
            node, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp,
                   ast.DictComp)
        ):
            return True
        if isinstance(node, ast.Call):
            name = (_dotted(node.func) or "").split(".")[-1]
            return name in _MUTABLE_FACTORIES
        return False

    @staticmethod
    def _package_of(parsed: ParsedFile) -> str:
        """Return the package a module's relative imports resolve against."""
        module = parsed.module
        if parsed.rel.endswith("__init__.py"):
            return module
        return module.rsplit(".", 1)[0] if "." in module else ""

    @classmethod
    def _import_bindings(
        cls, package: str, node: ast.AST
    ) -> List[Tuple[str, str]]:
        """Return the (local name, target) pairs an import statement binds."""
        pairs: List[Tuple[str, str]] = []
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                pairs.append((local, alias.name if alias.asname else local))
        elif isinstance(node, ast.ImportFrom):
            base = cls._import_base(package, node)
            if base is None:
                return pairs
            for alias in node.names:
                if alias.name != "*":
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    pairs.append((local, target))
        return pairs

    @staticmethod
    def _import_base(package: str, node: ast.ImportFrom) -> Optional[str]:
        """Return the absolute module an ImportFrom pulls names from."""
        if node.level == 0:
            return node.module or ""
        parts = package.split(".") if package else []
        up = node.level - 1
        if up > len(parts):
            return None
        base_parts = parts[: len(parts) - up] if up else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    # ------------------------------------------------------------------
    # Resolution

    def canonical(self, qname: str) -> str:
        """Follow re-export aliases to the defining module's qname."""
        seen: Set[str] = set()
        while qname in self.aliases and qname not in seen:
            seen.add(qname)
            qname = self.aliases[qname]
        return qname

    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve a dotted reference used inside ``module``.

        Returns the canonical qualified name when it lands on a known
        function, class or module; None otherwise.
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in mod.bindings:
            target = mod.bindings[head]
            candidate = f"{target}.{rest}" if rest else target
        else:
            candidate = f"{module}.{dotted}"
        candidate = self.canonical(candidate)
        if (
            candidate in self.functions
            or candidate in self.classes
            or candidate in self.modules
        ):
            return candidate
        # One more hop for attribute access through a re-exported module
        # binding (``core.astar_search`` where core/__init__ re-exports).
        prefix, _, leaf = candidate.rpartition(".")
        if prefix:
            rebased = self.canonical(f"{prefix}.{leaf}")
            if rebased in self.functions or rebased in self.classes:
                return rebased
        return None

    def resolve_method(self, class_qname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on ``class_qname``, walking base classes."""
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            qname = f"{cls}.{method}"
            if qname in self.functions:
                return qname
            info = self.classes.get(cls)
            if info is not None:
                stack.extend(info.bases)
        return None

    # ------------------------------------------------------------------
    # Call extraction

    def _index_calls(self, parsed: ParsedFile) -> None:
        """Add call edges for every function defined in ``parsed``."""
        module = parsed.module
        for node in parsed.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(module, None, node)
            elif isinstance(node, ast.ClassDef):
                info = self.classes[f"{module}.{node.name}"]
                attr_types = self.self_attr_types(module, info)
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._scan_function(
                            module, info, item, attr_types=attr_types
                        )

    def self_attr_types(
        self, module: str, info: ClassInfo
    ) -> Dict[str, str]:
        """Infer ``self.x`` attribute types from ``__init__`` and the body.

        Sources, in increasing precedence: class-body annotations
        (dataclass fields), ``self.x: T`` annotations, and
        ``self.x = ClassName(...)`` constructor assignments.
        """
        types: Dict[str, str] = {}
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                resolved = self._annotation_class(module, item.annotation)
                if resolved is not None:
                    types[item.target.id] = resolved
        init = self.functions.get(f"{info.qname}.__init__")
        if init is None:
            return types
        params = self._param_types(module, init.node)
        for node in ast.walk(init.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if isinstance(target, ast.Attribute):
                    resolved = self._annotation_class(module, node.annotation)
                    if (
                        resolved is not None
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        types[target.attr] = resolved
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
                or value is None
            ):
                continue
            inferred = self._value_class(module, value, params)
            if inferred is not None:
                types[target.attr] = inferred
        return types

    def _param_types(self, module: str, func: ast.AST) -> Dict[str, str]:
        """Map parameter names to resolved class qnames (annotations)."""
        out: Dict[str, str] = {}
        args = getattr(func, "args", None)
        if args is None:
            return out
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                resolved = self._annotation_class(module, arg.annotation)
                if resolved is not None:
                    out[arg.arg] = resolved
        return out

    def _annotation_class(
        self, module: str, ann: ast.AST
    ) -> Optional[str]:
        """Resolve a (possibly Optional-wrapped) annotation to a class."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            outer = (_dotted(ann.value) or "").split(".")[-1]
            if outer == "Optional":
                return self._annotation_class(module, ann.slice)
            return None
        name = _dotted(ann)
        if name is None:
            return None
        resolved = self.resolve(module, name)
        return resolved if resolved in self.classes else None

    def _value_class(
        self,
        module: str,
        value: ast.AST,
        params: Dict[str, str],
    ) -> Optional[str]:
        """Infer the class of an assigned value (ctor call or parameter)."""
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None:
                resolved = self.resolve(module, name)
                if resolved in self.classes:
                    return resolved
        elif isinstance(value, ast.Name):
            return params.get(value.id)
        return None

    def _scan_function(
        self,
        module: str,
        cls: Optional[ClassInfo],
        func: ast.AST,
        attr_types: Optional[Dict[str, str]] = None,
    ) -> None:
        """Record call edges of one function (including nested defs).

        Nested functions and lambdas are attributed to the enclosing
        function: they are closures the function wires up (callbacks,
        signal handlers), so anything they touch is reachable once the
        enclosing function ran.  Imports made inside the function body
        (lazy imports) bind names for this function only.
        """
        mod = self.modules[module]
        package = self._package_of(mod.parsed)
        scoped = {
            local: target
            for node in ast.walk(func)
            for local, target in self._import_bindings(package, node)
        }
        module_bindings = mod.bindings
        mod.bindings = {**module_bindings, **scoped}
        try:
            self._scan_body(module, cls, func, attr_types)
        finally:
            mod.bindings = module_bindings

    def _scan_body(
        self,
        module: str,
        cls: Optional[ClassInfo],
        func: ast.AST,
        attr_types: Optional[Dict[str, str]],
    ) -> None:
        """Record call edges of ``func`` under the current bindings."""
        qname = (
            f"{cls.qname}.{func.name}"  # type: ignore[attr-defined]
            if cls is not None
            else f"{module}.{func.name}"  # type: ignore[attr-defined]
        )
        edges = self.calls.setdefault(qname, set())
        local_types = dict(self._param_types(module, func))
        attr_types = attr_types or {}
        # First pass: local variable types from ctor calls / annotations.
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._value_class(
                        module, node.value, local_types
                    )
                    if inferred is not None:
                        local_types[target.id] = inferred
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                resolved = self._annotation_class(module, node.annotation)
                if resolved is not None:
                    local_types[node.target.id] = resolved
        # Second pass: resolve call sites, plus *references* to known
        # functions anywhere in the body — dispatch tables
        # (``{"escape": self._stage_escape}``), callbacks and thread
        # targets all reach their function without a direct call.
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = self._resolve_call(
                    module, cls, node.func, local_types, attr_types
                )
                if callee is not None:
                    edges.add(callee)
                if self._is_spawn_call(node):
                    for value in [
                        *node.args,
                        *[kw.value for kw in node.keywords],
                    ]:
                        ref = self._resolve_reference(
                            module, cls, value, local_types, attr_types
                        )
                        if ref is not None:
                            edges.add(ref)
                            self.thread_targets.add(ref)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                ref = self._resolve_reference(
                    module, cls, node, local_types, attr_types
                )
                if ref is not None:
                    edges.add(ref)

    @staticmethod
    def _is_spawn_call(node: ast.Call) -> bool:
        """Return True for Thread(...)/Process(...) constructions."""
        name = (_dotted(node.func) or "").split(".")[-1]
        return name in ("Thread", "Process", "Timer")

    def _resolve_call(
        self,
        module: str,
        cls: Optional[ClassInfo],
        func: ast.AST,
        local_types: Dict[str, str],
        attr_types: Dict[str, str],
    ) -> Optional[str]:
        """Resolve a call target to a function qname, or None."""
        if isinstance(func, ast.Name):
            if func.id in _BUILTIN_NAMES:
                return None
            resolved = self.resolve(module, func.id)
            if resolved in self.functions:
                return resolved
            if resolved in self.classes:
                ctor = self.resolve_method(resolved, "__init__")
                return ctor or resolved
            return None
        if not isinstance(func, ast.Attribute):
            return None
        # self.method(...) / cls attribute dispatch.
        if (
            cls is not None
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            return self.resolve_method(cls.qname, func.attr)
        # self.attr.method(...) via inferred attribute types.
        if (
            isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            owner = attr_types.get(func.value.attr)
            if owner is not None:
                return self.resolve_method(owner, func.attr)
            return None
        # localvar.method(...) via inferred local types.
        if isinstance(func.value, ast.Name):
            owner = local_types.get(func.value.id)
            if owner is not None:
                return self.resolve_method(owner, func.attr)
        # module.attr(...) through the binding table.
        dotted = _dotted(func)
        if dotted is not None:
            resolved = self.resolve(module, dotted)
            if resolved in self.functions:
                return resolved
            if resolved in self.classes:
                ctor = self.resolve_method(resolved, "__init__")
                return ctor or resolved
        return None

    def _resolve_reference(
        self,
        module: str,
        cls: Optional[ClassInfo],
        value: ast.AST,
        local_types: Dict[str, str],
        attr_types: Dict[str, str],
    ) -> Optional[str]:
        """Resolve a *function-valued argument* (callback) to a qname."""
        if isinstance(value, ast.Lambda):
            return None  # its body is scanned as part of the encloser
        if (
            cls is not None
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in ("self", "cls")
        ):
            return self.resolve_method(cls.qname, value.attr)
        if isinstance(value, (ast.Name, ast.Attribute)):
            dotted = _dotted(value)
            if dotted is None or dotted.split(".")[0] in _BUILTIN_NAMES:
                return None
            resolved = self.resolve(module, dotted)
            if resolved in self.functions:
                return resolved
        return None

    # ------------------------------------------------------------------
    # Reachability

    def reachable(self, entries: Iterable[str]) -> Set[str]:
        """Return the function qnames transitively callable from entries.

        Entries that name a class include its ``__init__``.  Unknown
        entries are ignored (subset lint runs may omit their modules).
        """
        stack: List[str] = []
        for entry in entries:
            entry = self.canonical(entry)
            if entry in self.functions:
                stack.append(entry)
            elif entry in self.classes:
                ctor = self.resolve_method(entry, "__init__")
                if ctor is not None:
                    stack.append(ctor)
        seen: Set[str] = set()
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            stack.extend(self.calls.get(qname, set()) - seen)
        return seen

    def functions_in(self, module_prefix: str) -> List[FunctionInfo]:
        """Return functions defined in ``module_prefix`` (or below)."""
        return [
            info
            for info in self.functions.values()
            if info.module == module_prefix
            or info.module.startswith(module_prefix + ".")
        ]


def build_graph(files: Sequence[ParsedFile]) -> ProjectGraph:
    """Build a :class:`ProjectGraph` over ``files`` (module-level API)."""
    return ProjectGraph.build(files)


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "build_graph",
]
