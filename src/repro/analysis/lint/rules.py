"""Built-in pacorlint rules (the PACOR invariant deck).

Rule ids are stable and documented in ``docs/static_analysis.md``:

* ``DET001`` — no module-level (shared-state) ``random`` / ``numpy.random``
  calls; randomness must come from a seeded ``random.Random`` instance.
* ``DET002`` — no wall-clock reads outside the budget/tracing whitelist;
  anything else breaks bit-identical checkpoint replay.
* ``DET003`` — no iteration over bare sets in routing/DME/detour/escape
  kernels; unordered iteration feeds nondeterministic tie-breaks.  The
  kernel core (``repro.routing.core``) is exempt: its set iterations
  feed only order-insensitive reductions.
* ``PERF001`` — no Point-keyed dict/set search state in kernel hot
  loops; per-visit tuple hashing is the overhead the flat cell-id core
  removes.
* ``ERR001`` — raises in flow-stage packages use the
  :class:`~repro.robustness.errors.PacorError` taxonomy.
* ``OBS001`` — every kernel named in the counter↔algorithm table of
  ``docs/paper_mapping.md`` increments its counters.
* ``CHK001`` — serialized dataclasses keep ``to_json``/``from_json`` in
  sync with their field list (static schema-drift detection).
* ``FLT001`` — every named injection point in
  :data:`repro.robustness.faults.INJECTION_POINTS` is exercised by at
  least one test (dead chaos coverage is untested failure handling).

Dataflow rules built on :class:`~repro.analysis.graph.ProjectGraph`:

* ``RACE001`` — mutable module-level state written on a path reachable
  from a worker/thread entry point (``service.workers.run_job``, any
  ``Thread``/``Process`` target), class-level mutable defaults in those
  modules, and :class:`~repro.service.jobs.JobStore` mutator calls
  outside the service's documented lock.
* ``SPAWN001`` — objects crossing the process boundary (job payloads,
  checkpoints, results) must be statically pickle-safe: no lambdas,
  ``Callable`` fields, file handles, threading primitives or ambient
  ``Tracer``/``Metrics`` references anywhere in their field graphs.
* ``PURE001`` — kernel-core functions (``repro.routing.core``) must not
  write object state through their parameters; all persistent mutation
  goes through the ``SearchSpace``/``Occupancy`` commit APIs defined in
  ``repro.routing.core.space`` (which is therefore exempt).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint.core import (
    FileRule,
    GraphRule,
    ParsedFile,
    ProjectRule,
    Violation,
    register,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.analysis.graph import FunctionInfo, ProjectGraph

# --------------------------------------------------------------------------
# Shared helpers


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


def _repro_package(parsed: ParsedFile) -> Optional[str]:
    """Return the top-level package under ``repro`` (``routing`` ...).

    Returns ``""`` for ``repro`` top-level modules (``cli`` ...) and
    None for files outside the ``repro`` namespace.
    """
    module = parsed.module
    if module == "repro":
        return ""
    prefix = "repro."
    idx = module.find(prefix)
    if idx == -1:
        return None
    rest = module[idx + len(prefix) :]
    return rest.split(".", 1)[0] if "." in rest else rest


# --------------------------------------------------------------------------
# DET001 — unseeded randomness


@register
class UnseededRandomRule(FileRule):
    """Flag shared-state ``random`` / ``numpy.random`` module calls."""

    id = "DET001"
    rationale = (
        "module-level random.*/numpy.random calls draw from shared global "
        "state; use a seeded random.Random instance so runs replay"
    )

    _ALLOWED_ATTRS = {"Random", "SystemRandom"}
    _ALLOWED_NUMPY = {"default_rng", "Generator", "RandomState", "SeedSequence"}

    def check(self, parsed: ParsedFile) -> Iterator[Violation]:
        """Yield one violation per offending reference."""
        random_aliases: Set[str] = set()
        np_aliases: Set[str] = set()
        direct_names: Set[str] = set()
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or alias.name)
                    if alias.name == "numpy":
                        np_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in self._ALLOWED_ATTRS:
                            direct_names.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            random_aliases.add(alias.asname or alias.name)
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Attribute):
                base = _dotted(node.value)
                if (
                    base in random_aliases
                    and node.attr not in self._ALLOWED_ATTRS
                ):
                    yield self._violation(parsed, node, f"random.{node.attr}")
                elif (
                    base is not None
                    and "." in base
                    and base.split(".")[0] in np_aliases
                    and base.split(".")[-1] == "random"
                    and node.attr not in self._ALLOWED_NUMPY
                ):
                    name = _dotted(node) or node.attr
                    yield self._violation(parsed, node, name)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in direct_names
                ):
                    yield self._violation(
                        parsed, node, f"random.{node.func.id}"
                    )

    def _violation(
        self, parsed: ParsedFile, node: ast.AST, name: str
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=parsed.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=(
                f"{name} uses shared global RNG state; construct a seeded "
                f"random.Random(seed) and thread it through"
            ),
        )


# --------------------------------------------------------------------------
# DET002 — wall-clock reads outside the whitelist


@register
class WallClockRule(FileRule):
    """Flag wall-clock reads that would break checkpoint replay."""

    id = "DET002"
    rationale = (
        "wall-clock reads outside robustness.budget/observability.tracing "
        "feed nondeterminism into resumable runs"
    )

    # Modules allowed to read clocks: the budget (decision clock, threaded
    # explicitly), the tracer (measurement epoch) and the service daemon
    # (job timestamps, dispatch polling, HTTP timeouts — operational state
    # that never feeds a routing decision; the workers' routing runs stay
    # on Budget clocks).  time.perf_counter is deliberately NOT forbidden:
    # pure duration measurement never feeds routing decisions, while
    # time/monotonic/now-style absolute clocks can.
    _WHITELIST = {
        "repro.robustness.budget",
        "repro.observability.tracing",
        "repro.service",
        # The determinism sanitizer wraps the clock functions to police
        # *other* callers; it must name them to patch them.
        "repro.analysis.sanitize",
    }
    _FORBIDDEN = {
        "time.time",
        "time.monotonic",
        "time.monotonic_ns",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }

    def check(self, parsed: ParsedFile) -> Iterator[Violation]:
        """Yield one violation per forbidden clock reference."""
        module = parsed.module
        # An entry whitelists the module itself and (for packages like
        # repro.service) every submodule under it.
        if any(
            module.endswith(allowed) or f"{allowed}." in module
            for allowed in self._WHITELIST
        ):
            return
        direct: Set[str] = set()
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if f"time.{alias.name}" in self._FORBIDDEN:
                        direct.add(alias.asname or alias.name)
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name in self._FORBIDDEN:
                    yield Violation(
                        rule=self.id,
                        path=parsed.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{name} reads the wall clock; only "
                            f"robustness.budget and observability.tracing "
                            f"may (checkpoint replay must be bit-identical)"
                        ),
                    )
            elif isinstance(node, ast.Name) and node.id in direct:
                yield Violation(
                    rule=self.id,
                    path=parsed.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"time.{node.id} reads the wall clock; only "
                        f"robustness.budget and observability.tracing may "
                        f"(checkpoint replay must be bit-identical)"
                    ),
                )


# --------------------------------------------------------------------------
# DET003 — set iteration in kernels


_KERNEL_PACKAGES = {"routing", "dme", "detour", "escape"}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}

# The kernel core is exempt from DET003: its set iterations feed only
# order-insensitive reductions — bounding-box min/max over target cells
# and idempotent byte writes into the fused blocked-mask — so iteration
# order can never reach a tie-break.  The property tests in
# tests/routing/test_core.py pin that equivalence.
_DET003_EXEMPT = "repro.routing.core"


@register
class SetIterationRule(FileRule):
    """Flag iteration over bare sets in routing/DME/detour/escape kernels."""

    id = "DET003"
    rationale = (
        "set iteration order is arbitrary and feeds tie-breaks in routing/"
        "DME/detour kernels; iterate sorted(...) with an explicit key"
    )

    def check(self, parsed: ParsedFile) -> Iterator[Violation]:
        """Yield one violation per set-valued iteration site."""
        if _repro_package(parsed) not in _KERNEL_PACKAGES:
            return
        module = parsed.module
        if module == _DET003_EXEMPT or module.startswith(_DET003_EXEMPT + "."):
            return
        for scope in ast.walk(parsed.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(parsed, scope)

    def _check_scope(
        self, parsed: ParsedFile, scope: ast.AST
    ) -> Iterator[Violation]:
        set_names, tainted = self._set_bindings(scope)
        set_names -= tainted

        def is_set_expr(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in (
                    "set",
                    "frozenset",
                ):
                    return True
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SET_METHODS
                    and is_set_expr(node.func.value)
                ):
                    return True
                return False
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                return is_set_expr(node.left) or is_set_expr(node.right)
            if isinstance(node, ast.Name):
                return node.id in set_names
            return False

        def visit(node: ast.AST, inner_scope: bool) -> Iterator[Violation]:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not inner_scope:
                    # Nested defs get their own scope pass.
                    continue
                if isinstance(child, ast.For) and is_set_expr(child.iter):
                    yield self._violation(parsed, child.iter)
                if isinstance(
                    child,
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
                ):
                    for gen in child.generators:
                        if is_set_expr(gen.iter):
                            yield self._violation(parsed, gen.iter)
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("list", "tuple")
                    and len(child.args) == 1
                    and is_set_expr(child.args[0])
                ):
                    yield self._violation(parsed, child.args[0])
                yield from visit(child, inner_scope)
            return

        yield from visit(scope, inner_scope=False)

    def _set_bindings(self, scope: ast.AST) -> Tuple[Set[str], Set[str]]:
        """Return (names bound to sets, names also bound to non-sets)."""
        set_names: Set[str] = set()
        tainted: Set[str] = set()

        def literal_is_set(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                return node.func.id in ("set", "frozenset")
            return False

        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if literal_is_set(node.value):
                            set_names.add(target.id)
                        else:
                            tainted.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ann = node.annotation
                base = ann.value if isinstance(ann, ast.Subscript) else ann
                name = _dotted(base)
                short = name.split(".")[-1] if name else ""
                if short in _SET_ANNOTATIONS:
                    set_names.add(node.target.id)
                elif node.value is not None and literal_is_set(node.value):
                    set_names.add(node.target.id)
                else:
                    tainted.add(node.target.id)
        return set_names, tainted

    def _violation(self, parsed: ParsedFile, node: ast.AST) -> Violation:
        return Violation(
            rule=self.id,
            path=parsed.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=(
                "iterating a set in a kernel: ordering is arbitrary and "
                "feeds tie-breaks; iterate sorted(...) with a deterministic "
                "key instead"
            ),
        )


# --------------------------------------------------------------------------
# PERF001 — Point-keyed search state in kernel hot loops


_HOT_MARKERS = {"heappush", "heappop", "heappushpop", "popleft"}
_DICT_ANNOTATIONS = {
    "dict",
    "Dict",
    "DefaultDict",
    "defaultdict",
    "MutableMapping",
    "Counter",
    "OrderedDict",
}
_PERF_SET_ANNOTATIONS = _SET_ANNOTATIONS


@register
class PointKeyedHotStateRule(FileRule):
    """Flag Point-keyed dict/set search state in kernel hot loops.

    The kernel core (:mod:`repro.routing.core`) exists so the per-visit
    bookkeeping of search loops — frontier membership, parent maps, cost
    maps, blocked sets — runs on flat ``int`` cell ids instead of
    ``Point`` tuples.  A ``Dict`` keyed by ``Point`` (or a ``Set`` of
    ``Point``) declared inside a hot kernel function pays tuple hashing
    on every cell visit, which is exactly the overhead the core removed;
    this rule keeps it from creeping back.

    A function counts as *hot* when it contains a ``while`` loop or
    references heap/deque primitives (``heappush``, ``heappop``,
    ``popleft``) — the signature of a per-cell search loop.  Cold
    helpers and one-shot construction passes may keep Point-keyed maps;
    they are not flagged.
    """

    id = "PERF001"
    rationale = (
        "Point-keyed dict/set state in kernel hot loops re-hashes tuples "
        "per visited cell; key by flat grid.index cell ids "
        "(repro.routing.core) instead"
    )

    def check(self, parsed: ParsedFile) -> Iterator[Violation]:
        """Yield one violation per Point-keyed hot-loop container."""
        if _repro_package(parsed) not in _KERNEL_PACKAGES:
            return
        for scope in ast.walk(parsed.tree):
            if isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and self._is_hot(scope):
                yield from self._check_scope(parsed, scope)

    @staticmethod
    def _is_hot(scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.While):
                return True
            if isinstance(node, ast.Attribute) and node.attr in _HOT_MARKERS:
                return True
            if isinstance(node, ast.Name) and node.id in _HOT_MARKERS:
                return True
        return False

    def _check_scope(
        self, parsed: ParsedFile, scope: ast.AST
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs get their own hotness decision.
                continue
            if isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                kind = self._point_keyed_kind(child.annotation)
                if kind is not None:
                    yield Violation(
                        rule=self.id,
                        path=parsed.rel,
                        line=child.lineno,
                        col=child.col_offset,
                        message=(
                            f"{child.target.id!r} is a Point-keyed {kind} in "
                            f"a kernel hot loop; per-visit Point hashing is "
                            f"the overhead repro.routing.core removes — key "
                            f"by flat grid.index cell ids"
                        ),
                    )
            yield from self._check_scope(parsed, child)

    def _point_keyed_kind(self, ann: ast.AST) -> Optional[str]:
        """Return 'dict'/'set' when ``ann`` is a Point-keyed container."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if not isinstance(ann, ast.Subscript):
            return None
        short = (_dotted(ann.value) or "").split(".")[-1]
        if short in _DICT_ANNOTATIONS:
            sl = ann.slice
            key = sl.elts[0] if isinstance(sl, ast.Tuple) and sl.elts else sl
            return "dict" if self._mentions_point(key) else None
        if short in _PERF_SET_ANNOTATIONS:
            return "set" if self._mentions_point(ann.slice) else None
        return None

    @staticmethod
    def _mentions_point(node: ast.AST) -> bool:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id == "Point":
                return True
            if isinstance(n, ast.Attribute) and n.attr == "Point":
                return True
        return False


# --------------------------------------------------------------------------
# ERR001 — PacorError taxonomy


# Packages whose TypeError/ValueError raises are accepted as pure
# geometry/data-model argument validation (the issue's whitelist); flow
# stages (core, routing, dme, detour, escape, robustness, observability,
# cli) must use the taxonomy.
_VALIDATION_PACKAGES = {
    "geometry",
    "designs",
    "valves",
    "flownet",
    "selection",
    "grid",
    "analysis",
    "viz",
}

# The canonical taxonomy (kept in sync by tests/analysis).
_TAXONOMY_NAMES = {
    "PacorError",
    "DesignFormatError",
    "CheckpointFormatError",
    "FaultFormatError",
    "ConfigError",
    "KernelPreconditionError",
    "FlowDecompositionError",
    "GenerationError",
    "TraceFormatError",
    "ServiceError",
    "JobFormatError",
    "StageFailure",
    "BudgetExceeded",
    "RouterStuck",
    "OccupancyCorruption",
    "FaultInjected",
}

_GLOBALLY_ALLOWED = {"NotImplementedError", "StopIteration", "KeyboardInterrupt"}
_VALIDATION_ALLOWED = {"ValueError", "TypeError"}


@register
class TaxonomyRaiseRule(FileRule):
    """Require PacorError subclasses for raises in flow-stage packages."""

    id = "ERR001"
    rationale = (
        "flow stages must raise PacorError subclasses so the stage "
        "supervisor can classify failures; bare builtins escape degradation"
    )

    def check(self, parsed: ParsedFile) -> Iterator[Violation]:
        """Yield one violation per non-taxonomy raise."""
        package = _repro_package(parsed)
        if package is None:
            package = ""
        in_validation = package in _VALIDATION_PACKAGES
        allowed = set(_TAXONOMY_NAMES) | _GLOBALLY_ALLOWED
        allowed |= self._local_subclasses(parsed.tree, allowed)
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._exception_name(node.exc)
            if name is None:
                continue  # re-raise of a bound variable or factory call
            short = name.split(".")[-1]
            if short in allowed:
                continue
            if short in _VALIDATION_ALLOWED and in_validation:
                continue
            hint = (
                "KernelPreconditionError keeps except-ValueError callers "
                "working"
                if short in _VALIDATION_ALLOWED
                else "pick or add a PacorError subclass"
            )
            yield Violation(
                rule=self.id,
                path=parsed.rel,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"raise {short} in flow-stage package "
                    f"{package or 'repro'!r}: use the PacorError taxonomy "
                    f"({hint})"
                ),
            )

    def _exception_name(self, exc: ast.AST) -> Optional[str]:
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted(exc)
        if name is None:
            return None
        short = name.split(".")[-1]
        # Only classify identifiers that look like exception classes; a
        # lowercase name is a bound exception variable or factory helper.
        if not short[:1].isupper():
            return None
        return name

    def _local_subclasses(
        self, tree: ast.Module, allowed: Set[str]
    ) -> Set[str]:
        """Return file-local classes whose base chain reaches the taxonomy."""
        classes: Dict[str, List[str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [
                    (_dotted(b) or "").split(".")[-1] for b in node.bases
                ]
                classes[node.name] = [b for b in bases if b]
        local: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, bases in classes.items():
                if name in local:
                    continue
                if any(b in allowed or b in local for b in bases):
                    local.add(name)
                    changed = True
        return local


# --------------------------------------------------------------------------
# OBS001 — counter coverage of the paper-mapping table


_TABLE_HEADING = "Kernel counters"
_BACKTICK = re.compile(r"`([^`]+)`")


@register
class CounterCoverageRule(ProjectRule):
    """Check the counter↔algorithm table against actual instrumentation."""

    id = "OBS001"
    rationale = (
        "every kernel named in docs/paper_mapping.md's counter table must "
        "increment its Metrics counters, or effort profiles silently lie"
    )

    def check_project(
        self, files: Sequence[ParsedFile], root: Path
    ) -> Iterator[Violation]:
        """Yield one violation per missing counter or uninstrumented kernel."""
        doc_path = root / "docs" / "paper_mapping.md"
        rel_doc = "docs/paper_mapping.md"
        if not doc_path.is_file():
            yield Violation(
                rule=self.id,
                path=rel_doc,
                line=1,
                col=0,
                message="docs/paper_mapping.md not found; the counter "
                "table is the OBS001 contract",
            )
            return
        rows = self._table_rows(doc_path.read_text(encoding="utf-8"))
        if not rows:
            yield Violation(
                rule=self.id,
                path=rel_doc,
                line=1,
                col=0,
                message=f"no counter table under a {_TABLE_HEADING!r} "
                "heading in docs/paper_mapping.md",
            )
            return
        increments = self._counter_sites(files)
        for lineno, counters, refs in rows:
            for counter in counters:
                sites = increments.get(counter, [])
                if not sites:
                    yield Violation(
                        rule=self.id,
                        path=rel_doc,
                        line=lineno,
                        col=0,
                        message=(
                            f"counter {counter!r} is documented but never "
                            f"incremented under src/repro"
                        ),
                    )
            for ref in refs:
                if not self._ref_instrumented(ref, counters, files):
                    yield Violation(
                        rule=self.id,
                        path=rel_doc,
                        line=lineno,
                        col=0,
                        message=(
                            f"kernel {ref} is named in the counter table "
                            f"but contains no increment of {sorted(counters)}"
                        ),
                    )

    def _table_rows(
        self, text: str
    ) -> List[Tuple[int, Set[str], List[str]]]:
        rows: List[Tuple[int, Set[str], List[str]]] = []
        in_section = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.startswith("#"):
                in_section = _TABLE_HEADING in line
                continue
            if not in_section or not line.lstrip().startswith("|"):
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not cells or set(cells[0]) <= {"-", " ", ":"}:
                continue
            counters = {
                tok
                for tok in _BACKTICK.findall(cells[0])
                if "." in tok and not tok.startswith("repro.")
            }
            if not counters:
                continue  # header row
            refs = [
                tok
                for cell in cells[1:]
                for tok in _BACKTICK.findall(cell)
                if tok.startswith("repro.")
            ]
            rows.append((lineno, counters, refs))
        return rows

    def _counter_sites(
        self, files: Sequence[ParsedFile]
    ) -> Dict[str, List[Tuple[str, int]]]:
        """Map counter name -> [(module, line)] of ``.counter("name")``."""
        out: Dict[str, List[Tuple[str, int]]] = {}
        for parsed in files:
            for node in ast.walk(parsed.tree):
                name = self._counter_name(node)
                if name is not None:
                    out.setdefault(name, []).append(
                        (parsed.module, node.lineno)
                    )
        return out

    @staticmethod
    def _counter_name(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "adopt")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return node.args[0].value
        return None

    def _ref_instrumented(
        self,
        ref: str,
        counters: Set[str],
        files: Sequence[ParsedFile],
    ) -> bool:
        """Return True when ``ref``'s scope increments one of ``counters``."""
        prefix, _, symbol = ref.rpartition(".")
        for parsed in files:
            scope: Optional[ast.AST] = None
            if parsed.module == ref:
                scope = parsed.tree
            elif prefix and (
                parsed.module == prefix
                # Re-export: `repro.flownet.MinCostFlow` is defined in
                # `repro.flownet.mincostflow`, a submodule of the prefix.
                or parsed.module.startswith(prefix + ".")
            ):
                for node in ast.walk(parsed.tree):
                    if (
                        isinstance(
                            node,
                            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                        )
                        and node.name == symbol
                    ):
                        scope = node
                        break
                if scope is None:
                    continue
            if scope is None:
                continue
            for node in ast.walk(scope):
                name = self._counter_name(node)
                if name in counters:
                    return True
        return False


# --------------------------------------------------------------------------
# CHK001 — serialized dataclass schema drift


@register
class SerializedDataclassRule(FileRule):
    """Check to_json/from_json field coverage of serialized dataclasses."""

    id = "CHK001"
    rationale = (
        "a dataclass field missing from to_json or from_json silently "
        "drops state across a checkpoint round-trip"
    )

    def check(self, parsed: ParsedFile) -> Iterator[Violation]:
        """Yield one violation per field missing from either path."""
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_dataclass(node):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            to_json = methods.get("to_json")
            from_json = methods.get("from_json")
            if to_json is None or from_json is None:
                continue
            fields = self._field_names(node)
            for direction, method in (("to_json", to_json), ("from_json", from_json)):
                if self._covers_everything(method):
                    continue
                mentioned = self._mentioned_names(method)
                for name in fields:
                    if name not in mentioned:
                        yield Violation(
                            rule=self.id,
                            path=parsed.rel,
                            line=method.lineno,
                            col=method.col_offset,
                            message=(
                                f"dataclass {node.name}: field {name!r} "
                                f"does not appear in {direction}; schema "
                                f"drift would drop it on round-trip"
                            ),
                        )

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target)
            if name and name.split(".")[-1] == "dataclass":
                return True
        return False

    @staticmethod
    def _field_names(node: ast.ClassDef) -> List[str]:
        out: List[str] = []
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                ann = item.annotation
                base = ann.value if isinstance(ann, ast.Subscript) else ann
                name = _dotted(base) or ""
                if name.split(".")[-1] == "ClassVar":
                    continue
                out.append(item.target.id)
        return out

    @staticmethod
    def _covers_everything(method: ast.AST) -> bool:
        """Return True for asdict(self)/cls(**doc)-style full coverage."""
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                name = (_dotted(node.func) or "").split(".")[-1]
                if name == "asdict":
                    return True
                if any(kw.arg is None for kw in node.keywords):
                    return True
        return False

    @staticmethod
    def _mentioned_names(method: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                out.add(node.arg)
            elif isinstance(node, ast.Name):
                out.add(node.id)
        return out


# --------------------------------------------------------------------------
# FLT001 — chaos-suite injection-point coverage


@register
class InjectionCoverageRule(ProjectRule):
    """Check every declared injection point is exercised by a test."""

    id = "FLT001"
    rationale = (
        "an injection point nothing injects into is dead chaos coverage: "
        "the failure path it guards ships untested"
    )

    _FAULTS_MODULE = "repro.robustness.faults"

    def check_project(
        self, files: Sequence[ParsedFile], root: Path
    ) -> Iterator[Violation]:
        """Yield one violation per injection point no test mentions."""
        declared = self._declared_points(files)
        if declared is None:
            # The faults module is not part of this lint run (subset
            # invocation); there is no contract to check.
            return
        path, lineno, points = declared
        tests_dir = root / "tests"
        if not tests_dir.is_dir():
            yield Violation(
                rule=self.id,
                path=path,
                line=lineno,
                col=0,
                message="tests/ directory not found; injection points "
                "cannot be exercised",
            )
            return
        covered: Set[str] = set()
        for test_file in sorted(tests_dir.rglob("*.py")):
            try:
                text = test_file.read_text(encoding="utf-8")
            except OSError:
                continue
            for point in points:
                # A quoted mention is the coverage signal: every way a
                # test arms a point (FaultSpec(point=...), fires(...))
                # spells the name as a string literal.
                if f'"{point}"' in text or f"'{point}'" in text:
                    covered.add(point)
        for point in points:
            if point not in covered:
                yield Violation(
                    rule=self.id,
                    path=path,
                    line=lineno,
                    col=0,
                    message=(
                        f"injection point {point!r} is declared in "
                        f"INJECTION_POINTS but no test under tests/ "
                        f"exercises it"
                    ),
                )

    def _declared_points(
        self, files: Sequence[ParsedFile]
    ) -> Optional[Tuple[str, int, List[str]]]:
        """Return (path, line, names) of the INJECTION_POINTS tuple."""
        for parsed in files:
            if parsed.module != self._FAULTS_MODULE:
                continue
            for node in ast.walk(parsed.tree):
                if not isinstance(node, ast.Assign):
                    continue
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if "INJECTION_POINTS" not in targets:
                    continue
                if not isinstance(node.value, (ast.Tuple, ast.List)):
                    continue
                names = [
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                ]
                return (parsed.path, node.lineno, names)
        return None


# --------------------------------------------------------------------------
# RACE001 — mutable shared state on worker/thread-reachable paths


#: Methods that mutate their receiver in place.
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}

#: Class-attribute names that are conventionally write-once.
_CLASS_DEFAULT_EXEMPT = {"__slots__"}


@register
class SharedStateRaceRule(GraphRule):
    """Flag mutable shared state reachable from worker/thread entries.

    Entry points are :func:`repro.service.workers.run_job` plus every
    function the call graph sees handed to a ``Thread``/``Process``
    (the daemon's dispatcher loop, future shard workers).  Three shapes
    are flagged on reachable paths:

    * ``global X`` rebinding and in-place mutation of module-level
      mutable containers — shared across every thread of the process;
    * class-level mutable defaults in modules that host reachable code
      — shared across every instance;
    * :class:`~repro.service.jobs.JobStore` mutator calls
      (``save``/``allocate``/``append_event``) outside the owning
      service class's documented lock.  The lock analysis is lexical
      (``with self._lock:``) plus a fixed-point over the intra-class
      call graph, so a private helper only ever invoked under the lock
      — or only from ``__init__``, before any thread exists — passes.
    """

    id = "RACE001"
    rationale = (
        "mutable module/class state written on a worker- or thread-"
        "reachable path races once negotiation shards; make it worker-"
        "local or guard it with the documented lock"
    )

    _ENTRY_POINTS = ("repro.service.workers.run_job",)
    _STORE_CLASS = "repro.service.jobs.JobStore"
    _STORE_MUTATORS = {"save", "allocate", "append_event"}
    _SERVICE_PREFIX = "repro.service"

    def check_graph(
        self,
        graph: "ProjectGraph",
        files: Sequence[ParsedFile],
        root: Path,
    ) -> Iterator[Violation]:
        """Yield one violation per racy write or un-locked store call."""
        by_module = {parsed.module: parsed for parsed in files}
        entries = set(self._ENTRY_POINTS) | set(graph.thread_targets)
        reached = graph.reachable(entries)
        reached_modules: Set[str] = set()
        for qname in sorted(reached):
            info = graph.functions.get(qname)
            if info is None:
                continue
            parsed = by_module.get(info.module)
            if parsed is None:
                continue
            reached_modules.add(info.module)
            yield from self._check_writes(graph, parsed, info)
        for module in sorted(reached_modules):
            yield from self._check_class_defaults(by_module[module])
        yield from self._check_store_locking(graph, by_module)

    # -- module-global writes ---------------------------------------------

    def _check_writes(
        self,
        graph: "ProjectGraph",
        parsed: ParsedFile,
        info: "FunctionInfo",
    ) -> Iterator[Violation]:
        mutable = graph.modules[info.module].mutable_globals
        local = self._local_names(info.node)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                written = [
                    name
                    for name in node.names
                    if self._name_stored(info.node, name)
                ]
                for name in written:
                    yield Violation(
                        rule=self.id,
                        path=parsed.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"module global {name!r} is rebound in "
                            f"{info.qname} on a worker/thread-reachable "
                            f"path; shared interpreter state races across "
                            f"threads — thread it through explicitly"
                        ),
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = self._subscript_root(target)
                    if name and name in mutable and name not in local:
                        yield self._mutation(parsed, info, node, name)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in mutable
                    and func.value.id not in local
                ):
                    yield self._mutation(parsed, info, node, func.value.id)

    def _mutation(
        self,
        parsed: ParsedFile,
        info: "FunctionInfo",
        node: ast.AST,
        name: str,
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=parsed.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=(
                f"module-level mutable {name!r} is mutated in "
                f"{info.qname} on a worker/thread-reachable path; "
                f"unsynchronized shared containers race — make it "
                f"worker-local or guard it"
            ),
        )

    @staticmethod
    def _subscript_root(target: ast.AST) -> Optional[str]:
        """Return the root Name of a ``X[...]``(``.attr``) write target."""
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return None
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target.id if isinstance(target, ast.Name) else None

    @staticmethod
    def _name_stored(func: ast.AST, name: str) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                return True
        return False

    @staticmethod
    def _local_names(func: ast.AST) -> Set[str]:
        """Names bound locally in ``func`` (params and plain stores)."""
        out: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]:
                out.add(arg.arg)
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                out.add(node.id)
        return out - declared_global

    # -- class-level mutable defaults -------------------------------------

    def _check_class_defaults(
        self, parsed: ParsedFile
    ) -> Iterator[Violation]:
        from repro.analysis.graph import ProjectGraph

        for node in parsed.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.Assign):
                    names = [
                        t.id for t in item.targets if isinstance(t, ast.Name)
                    ]
                    value = item.value
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    names = [item.target.id]
                    value = item.value
                else:
                    continue
                names = [
                    n for n in names if n not in _CLASS_DEFAULT_EXEMPT
                ]
                if not names or value is None:
                    continue
                if not ProjectGraph._is_mutable_literal(value):
                    continue
                for name in names:
                    yield Violation(
                        rule=self.id,
                        path=parsed.rel,
                        line=item.lineno,
                        col=item.col_offset,
                        message=(
                            f"class {node.name} default {name!r} is a "
                            f"mutable container shared by every instance "
                            f"on a worker/thread-reachable module; use an "
                            f"immutable default or per-instance init"
                        ),
                    )

    # -- JobStore access outside the documented lock ----------------------

    def _check_store_locking(
        self,
        graph: "ProjectGraph",
        by_module: Dict[str, ParsedFile],
    ) -> Iterator[Violation]:
        for cls_qname in sorted(graph.classes):
            info = graph.classes[cls_qname]
            if not (
                info.module == self._SERVICE_PREFIX
                or info.module.startswith(self._SERVICE_PREFIX + ".")
            ):
                continue
            parsed = by_module.get(info.module)
            if parsed is None:
                continue
            lock_attrs = self._lock_attrs(info.node)
            if not lock_attrs:
                continue
            attr_types = graph.self_attr_types(info.module, info)
            store_attrs = {
                attr
                for attr, typ in attr_types.items()
                if graph.canonical(typ) == self._STORE_CLASS
            }
            if not store_attrs:
                continue
            yield from self._check_lock_discipline(
                graph, parsed, info, lock_attrs, store_attrs
            )

    @staticmethod
    def _lock_attrs(cls_node: ast.ClassDef) -> Set[str]:
        """Attribute names bound to threading locks in ``__init__``."""
        out: Set[str] = set()
        for item in cls_node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__init__"
            ):
                for node in ast.walk(item):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"
                        and isinstance(node.value, ast.Call)
                        and (_dotted(node.value.func) or "").split(".")[-1]
                        in ("Lock", "RLock")
                    ):
                        out.add(node.targets[0].attr)
        return out

    def _check_lock_discipline(
        self,
        graph: "ProjectGraph",
        parsed: ParsedFile,
        info: "ClassInfo",  # type: ignore[name-defined]  # noqa: F821
        lock_attrs: Set[str],
        store_attrs: Set[str],
    ) -> Iterator[Violation]:
        methods = {
            f.name: f
            for f in graph.functions.values()
            if f.cls == info.qname
        }
        # Per method: store-mutator sites and intra-class call sites,
        # each annotated with "lexically inside `with self.<lock>`".
        mutator_sites: Dict[str, List[Tuple[ast.Call, bool]]] = {}
        call_sites: Dict[str, List[Tuple[str, bool]]] = {}
        for name, func in methods.items():
            locked_nodes = self._nodes_under_lock(func.node, lock_attrs)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if not isinstance(f, ast.Attribute):
                    continue
                receiver = f.value
                if (
                    f.attr in self._STORE_MUTATORS
                    and isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                    and receiver.attr in store_attrs
                ):
                    mutator_sites.setdefault(name, []).append(
                        (node, id(node) in locked_nodes)
                    )
                elif (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "self"
                    and f.attr in methods
                ):
                    call_sites.setdefault(f.attr, []).append(
                        (name, id(node) in locked_nodes)
                    )
        # Fixed point: a method "runs under the lock" when every caller
        # either holds it lexically at the call site, is __init__ (no
        # threads yet), or itself runs under the lock.
        held = {
            name
            for name, func in methods.items()
            if name.startswith("_")
            and name != "__init__"
            and call_sites.get(name)
            and func.qname not in graph.thread_targets
        }
        changed = True
        while changed:
            changed = False
            for name in sorted(held):
                ok = all(
                    under or caller == "__init__" or caller in held
                    for caller, under in call_sites.get(name, ())
                )
                if not ok:
                    held.discard(name)
                    changed = True
        for name in sorted(mutator_sites):
            if name == "__init__" or name in held:
                continue
            for node, under in mutator_sites[name]:
                if under:
                    continue
                yield Violation(
                    rule=self.id,
                    path=parsed.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"JobStore.{node.func.attr} called in "  # type: ignore[attr-defined]
                        f"{info.qname}.{name} outside the documented "
                        f"lock; record writes race the dispatcher — wrap "
                        f"the call in `with self.{sorted(lock_attrs)[0]}:`"
                    ),
                )

    @staticmethod
    def _nodes_under_lock(
        func: ast.AST, lock_attrs: Set[str]
    ) -> Set[int]:
        """Return ids of nodes lexically inside ``with self.<lock>:``."""
        out: Set[int] = set()

        def locked_with(node: ast.With) -> bool:
            for item in node.items:
                dotted = _dotted(item.context_expr)
                if dotted and dotted in {
                    f"self.{attr}" for attr in lock_attrs
                }:
                    return True
            return False

        def visit(node: ast.AST, locked: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_locked = locked or (
                    isinstance(child, ast.With) and locked_with(child)
                )
                if child_locked:
                    out.add(id(child))
                    for sub in ast.walk(child):
                        out.add(id(sub))
                    continue
                visit(child, child_locked)

        visit(func, False)
        return out


# --------------------------------------------------------------------------
# SPAWN001 — pickle safety of process-boundary payloads


#: Generic containers whose type arguments are traversed.
_SPAWN_CONTAINERS = {
    "Optional",
    "Union",
    "List",
    "Sequence",
    "Tuple",
    "Dict",
    "Mapping",
    "MutableMapping",
    "Set",
    "FrozenSet",
    "Iterable",
    "list",
    "tuple",
    "dict",
    "set",
    "frozenset",
}

#: Leaf type names that never survive (or should never cross) pickling
#: to a spawn child, grouped by diagnostic.
_SPAWN_IO_TYPES = {
    "IO",
    "TextIO",
    "BinaryIO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
    "FileIO",
}
_SPAWN_THREADING_TYPES = {
    "Lock",
    "RLock",
    "Thread",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
}
_SPAWN_AMBIENT_PREFIX = "repro.observability."


@register
class SpawnSafetyRule(GraphRule):
    """Statically vet the field graphs of process-boundary payloads.

    The roster mirrors ``tests/service/test_spawn_pickle.py`` — the
    objects the service actually ships across ``multiprocessing``
    boundaries (job payloads, checkpoints, results).  Every annotated
    field — dataclass fields, ``self.x: T`` annotations, and ``self.x =
    param`` constructor captures — is traversed recursively through
    container generics and nested project classes, and flagged when it
    can hold a lambda, an arbitrary ``Callable``, an open file handle,
    a threading primitive, or an ambient observability object
    (``Tracer``/``Metrics``/``Span``/``Counter``): those either fail to
    pickle outright or silently detach from the parent's registries in
    the child.
    """

    id = "SPAWN001"
    rationale = (
        "process-boundary payloads must pickle under spawn: no lambdas, "
        "Callable fields, file handles, threading primitives or ambient "
        "Tracer/Metrics references in their field graphs"
    )

    _ROSTER = (
        "repro.core.config.PacorConfig",
        "repro.core.result.PacorResult",
        "repro.designs.design.Design",
        "repro.robustness.budget.Budget",
        "repro.robustness.checkpoint.Checkpoint",
        "repro.robustness.faultmap.FaultMap",
        "repro.service.jobs.JobRecord",
    )

    def check_graph(
        self,
        graph: "ProjectGraph",
        files: Sequence[ParsedFile],
        root: Path,
    ) -> Iterator[Violation]:
        """Yield one violation per pickle-unsafe field."""
        by_module = {parsed.module: parsed for parsed in files}
        visited: Set[str] = set()
        for qname in self._ROSTER:
            yield from self._check_class(graph, by_module, qname, visited)

    def _check_class(
        self,
        graph: "ProjectGraph",
        by_module: Dict[str, ParsedFile],
        qname: str,
        visited: Set[str],
    ) -> Iterator[Violation]:
        qname = graph.canonical(qname)
        if qname in visited or qname not in graph.classes:
            return
        visited.add(qname)
        info = graph.classes[qname]
        parsed = by_module.get(info.module)
        if parsed is None:
            return
        for name, ann, value, lineno in self._fields(graph, info):
            if isinstance(value, ast.Lambda):
                yield Violation(
                    rule=self.id,
                    path=parsed.rel,
                    line=lineno,
                    col=0,
                    message=(
                        f"{qname}.{name} holds a lambda; lambdas do not "
                        f"pickle under spawn — use a module-level function"
                    ),
                )
            if ann is None:
                continue
            for leaf in self._leaf_types(ann):
                offense = self._classify(graph, info.module, leaf)
                if offense is not None:
                    yield Violation(
                        rule=self.id,
                        path=parsed.rel,
                        line=lineno,
                        col=0,
                        message=(
                            f"{qname}.{name} is typed {leaf}: {offense}"
                        ),
                    )
                    continue
                resolved = graph.resolve(info.module, leaf)
                if resolved in graph.classes and resolved not in visited:
                    yield from self._check_class(
                        graph, by_module, resolved, visited
                    )

    def _fields(
        self, graph: "ProjectGraph", info: "ClassInfo"  # type: ignore[name-defined]  # noqa: F821
    ) -> Iterator[Tuple[str, Optional[ast.AST], Optional[ast.AST], int]]:
        """Yield (name, annotation, default/assigned value, line)."""
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                ann = item.annotation
                base = ann.value if isinstance(ann, ast.Subscript) else ann
                if (_dotted(base) or "").split(".")[-1] == "ClassVar":
                    continue
                yield item.target.id, ann, item.value, item.lineno
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        yield target.id, None, item.value, item.lineno
        init = graph.functions.get(f"{info.qname}.__init__")
        if init is None:
            return
        param_anns: Dict[str, ast.AST] = {}
        param_defaults: Dict[str, ast.AST] = {}
        args = init.node.args  # type: ignore[attr-defined]
        positional = [*args.posonlyargs, *args.args]
        for arg in positional:
            if arg.annotation is not None:
                param_anns[arg.arg] = arg.annotation
        for arg, default in zip(
            positional[len(positional) - len(args.defaults) :], args.defaults
        ):
            param_defaults[arg.arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.annotation is not None:
                param_anns[arg.arg] = arg.annotation
            if default is not None:
                param_defaults[arg.arg] = default
        for node in ast.walk(init.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            ann: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, ann = node.target, node.value, node.annotation
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            lineno = getattr(node, "lineno", 1)
            if isinstance(value, ast.Name) and value.id in param_anns:
                yield (
                    target.attr,
                    param_anns[value.id],
                    param_defaults.get(value.id),
                    lineno,
                )
            elif ann is not None or isinstance(value, ast.Lambda):
                yield target.attr, ann, value, lineno
            elif value is not None:
                # `self.x = x if x is not None else Default()` still
                # captures the parameter: type it by that parameter.
                captured = next(
                    (
                        n.id
                        for n in ast.walk(value)
                        if isinstance(n, ast.Name) and n.id in param_anns
                    ),
                    None,
                )
                if captured is not None:
                    yield (
                        target.attr,
                        param_anns[captured],
                        param_defaults.get(captured),
                        lineno,
                    )

    def _leaf_types(self, ann: ast.AST) -> Iterator[str]:
        """Yield dotted leaf type names of an annotation tree."""
        if isinstance(ann, ast.Constant):
            if isinstance(ann.value, str):
                try:
                    yield from self._leaf_types(
                        ast.parse(ann.value, mode="eval").body
                    )
                except SyntaxError:
                    return
            return
        if isinstance(ann, ast.Subscript):
            outer = (_dotted(ann.value) or "").split(".")[-1]
            if outer in _SPAWN_CONTAINERS:
                sl = ann.slice
                elts = sl.elts if isinstance(sl, ast.Tuple) else [sl]
                for elt in elts:
                    yield from self._leaf_types(elt)
            else:
                # Callable[...], Type[...] and friends classify by the
                # outer name itself.
                dotted = _dotted(ann.value)
                if dotted is not None:
                    yield dotted
            return
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            yield from self._leaf_types(ann.left)
            yield from self._leaf_types(ann.right)
            return
        dotted = _dotted(ann)
        if dotted is not None:
            yield dotted

    def _classify(
        self, graph: "ProjectGraph", module: str, leaf: str
    ) -> Optional[str]:
        """Return the diagnostic for a forbidden leaf type, or None."""
        short = leaf.split(".")[-1]
        if short == "Callable":
            return (
                "an arbitrary callable only pickles when it is a "
                "module-level function; lambdas and bound methods break "
                "spawn workers"
            )
        if short in _SPAWN_IO_TYPES:
            return "open file handles cannot cross the process boundary"
        resolved = graph.resolve(module, leaf)
        if resolved is not None and resolved.startswith(
            _SPAWN_AMBIENT_PREFIX
        ):
            return (
                "ambient observability objects detach from the parent's "
                "registries in the child; attach tracers/metrics after "
                "spawn instead"
            )
        if short in _SPAWN_THREADING_TYPES:
            bindings = graph.modules.get(module)
            head = leaf.split(".")[0]
            bound = (
                bindings.bindings.get(head, head) if bindings else head
            )
            if bound.startswith("threading") or short in ("Lock", "RLock"):
                return "threading primitives cannot be pickled"
        return None


# --------------------------------------------------------------------------
# PURE001 — kernel-core purity outside the commit APIs


#: The module that *implements* the commit APIs (SearchSpace adoption,
#: SpaceCache patching, Occupancy bridging) and is therefore exempt.
_PURE_EXEMPT_MODULE = "repro.routing.core.space"
_PURE_SCOPE = "repro.routing.core"


@register
class KernelPurityRule(GraphRule):
    """Forbid kernel-core writes to object state outside commit APIs.

    The wave/scalar engines receive their ``SearchSpace`` (and scratch
    arrays) as parameters.  Writing *attributes* of a parameter —
    ``space.blocked[...] = 1``, ``occ._owner[...] = net`` — mutates
    persistent objects behind the back of the dirty-set bookkeeping
    that :class:`~repro.routing.core.space.SpaceCache` relies on; the
    sanctioned path is the ``SearchSpace``/``Occupancy`` commit APIs in
    ``repro.routing.core.space`` (exempt from this rule).  Bare
    subscript writes into array *parameters* (``dist[v] = d``) stay
    legal: those are caller-allocated scratch buffers local to one
    kernel invocation.  ``global``/``nonlocal`` rebinding is forbidden
    outright; module-level memo caches are RACE001's concern.
    """

    id = "PURE001"
    rationale = (
        "kernel-core functions must not write object state through "
        "their parameters; route mutations through the SearchSpace/"
        "Occupancy commit APIs so SpaceCache invalidation stays sound"
    )

    def check_graph(
        self,
        graph: "ProjectGraph",
        files: Sequence[ParsedFile],
        root: Path,
    ) -> Iterator[Violation]:
        """Yield one violation per out-of-API state write."""
        by_module = {parsed.module: parsed for parsed in files}
        for info in graph.functions_in(_PURE_SCOPE):
            if info.module == _PURE_EXEMPT_MODULE or info.module.startswith(
                _PURE_EXEMPT_MODULE + "."
            ):
                continue
            parsed = by_module.get(info.module)
            if parsed is None:
                continue
            yield from self._check_function(parsed, info)

    def _check_function(
        self, parsed: ParsedFile, info: "FunctionInfo"
    ) -> Iterator[Violation]:
        params = self._param_names(info.node)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params |= self._param_names(node)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = (
                    "global" if isinstance(node, ast.Global) else "nonlocal"
                )
                yield Violation(
                    rule=self.id,
                    path=parsed.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{info.qname} rebinds {kind} state "
                        f"({', '.join(node.names)}); kernel-core "
                        f"functions must stay pure outside the commit "
                        f"APIs"
                    ),
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    hit = self._param_attribute_write(target, params)
                    if hit is not None:
                        root_name, attr = hit
                        yield Violation(
                            rule=self.id,
                            path=parsed.rel,
                            line=target.lineno,
                            col=target.col_offset,
                            message=(
                                f"{info.qname} writes "
                                f"{root_name}.{attr} through a "
                                f"parameter, bypassing the SearchSpace/"
                                f"Occupancy commit APIs; SpaceCache "
                                f"dirty-set bookkeeping cannot see this "
                                f"write"
                            ),
                        )

    @staticmethod
    def _param_names(func: ast.AST) -> Set[str]:
        args = getattr(func, "args", None)
        if args is None:
            return set()
        names = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        }
        return names - {"self", "cls"}

    @staticmethod
    def _param_attribute_write(
        target: ast.AST, params: Set[str]
    ) -> Optional[Tuple[str, str]]:
        """Return (param, attr) when ``target`` writes ``param.attr...``."""
        attr: Optional[str] = None
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            if isinstance(node, ast.Attribute):
                attr = node.attr
            node = node.value
        if (
            attr is not None
            and isinstance(node, ast.Name)
            and node.id in params
        ):
            return node.id, attr
        return None
