"""Whole-program index: symbols, imports, call graph, and summaries.

Per-file AST rules can only see one module at a time, but the invariants
the DET/SEAM/DUR rule families guard are *program* properties: "does this
set iteration feed a serialized output?" depends on who calls whom, and
"is this global mutated?" depends on every module that imports it.  The
:class:`ProjectIndex` answers those questions.  It is built from one
:class:`ModuleIndex` shard per file — a small, JSON-serializable summary
of the module's functions, imports, globals and call edges — and derives
the interprocedural facts rules query:

* ``serialized_reachable`` — functions whose results can feed a
  serialized or merged output (transitive callees of *sink* functions:
  anything that calls ``json``/``pickle`` dump APIs, the RPCK codec in
  :mod:`repro.columnar.blocks`, or is itself named ``merge`` /
  ``merge_from`` / ``render_json`` / ``to_json``).
* ``worker_functions`` — functions shipped across the
  :func:`repro.parallel.pool.map_shards` process seam.
* ``raw_writer_params`` — parameter positions that flow (transitively,
  through wrapper helpers) into a non-atomic file write.
* ``mutable_globals`` / ``mutated_globals`` — module-level mutable
  containers and whether anything in the project mutates them.

The index is rebuilt from source on every run.  The single-file entry
points (``lint_source``/``lint_file``) build a one-module index on the
fly, so every rule degrades gracefully to intra-module resolution —
fixture tests exercise the same code path as the whole-program pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: Dotted-name prefixes whose callees serialize data: reaching one of
#: these makes the enclosing function a determinism sink.
_SERIALIZE_CALL_PREFIXES: Tuple[str, ...] = (
    "json.dump",
    "pickle.dump",
    "marshal.dump",
    "repro.columnar.blocks.",
)

#: Terminal function names that are sinks by contract: merged or
#: rendered structures must not depend on iteration order.
_SINK_NAMES: Tuple[str, ...] = ("merge", "merge_from", "render_json", "to_json")

#: Dotted suffixes identifying the audited process-pool seam.
_SEAM_SUFFIXES: Tuple[str, ...] = (".map_shards",)
_SEAM_NAMES: Tuple[str, ...] = ("map_shards",)

#: Dotted names of the sanctioned atomic writers in repro.runtime.
_ATOMIC_MARKER = "atomic_write"

#: Calls that construct a mutable container at module level.
_MUTABLE_FACTORIES: Tuple[str, ...] = (
    "dict",
    "list",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS: Tuple[str, ...] = (
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
    "appendleft",
)

#: ``open`` modes that mutate the target file (mirrors rules.durability).
_WRITE_MODES = ("w", "a", "x", "+")

_RAW_WRITE_METHODS = ("write_text", "write_bytes")


def module_name_for(path: "Path | str") -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    Files outside the package (fixtures, tools) get a stable name derived
    from their posix path so single-file indexes still have an identity.
    """
    p = Path(path)
    parts = list(p.parts)
    if "repro" in parts:
        tail = parts[parts.index("repro"):]
        if tail[-1] == "__init__.py":
            tail = tail[:-1]
        else:
            tail[-1] = Path(tail[-1]).stem
        return ".".join(tail)
    return p.as_posix().replace("/", ".").removesuffix(".py")


@dataclass(frozen=True)
class FunctionInfo:
    """Per-function summary: enough for call-graph and flow queries."""

    qualname: str  #: module-local, e.g. ``CatalogBuilder.merge``
    lineno: int
    params: Tuple[str, ...]
    calls: Tuple[str, ...]  #: resolved dotted names, or ``*.attr`` markers
    is_sink: bool
    raw_write_params: Tuple[int, ...]
    #: ``(callee, caller_param_index, callee_arg_index)`` for every call
    #: that forwards one of this function's parameters verbatim.
    param_flows: Tuple[Tuple[str, int, int], ...]

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleIndex:
    """One module's shard of the project index."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level names bound to mutable containers -> def lineno
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    #: fully-qualified globals this module mutates (``module.name``)
    mutated_globals: Tuple[str, ...] = ()
    #: fully-qualified names of functions this module ships across the
    #: process-pool seam
    seam_workers: Tuple[str, ...] = ()


class _ImportTable:
    """Local name -> dotted origin for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.names[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.names[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"


def resolve_call(
    call: ast.Call,
    imports: Mapping[str, str],
    module: str,
    local_functions: Iterable[str] = (),
    self_class: Optional[str] = None,
) -> Optional[str]:
    """Best-effort dotted name for a call's target.

    Returns a fully-dotted name when the target resolves through the
    module's imports or its own top-level definitions, an ``*.attr``
    marker for attribute calls on unknown receivers, and ``None`` for
    targets that cannot matter interprocedurally (lambdas, subscripts).
    """
    func = call.func
    if isinstance(func, ast.Name):
        origin = imports.get(func.id)
        if origin is not None:
            return origin
        if func.id in set(local_functions):
            return f"{module}.{func.id}"
        return func.id  # builtin or dynamic; terminal name only
    if isinstance(func, ast.Attribute):
        parts: List[str] = [func.attr]
        base: ast.expr = func.value
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name):
            root = imports.get(base.id)
            if root is not None:
                return ".".join([root] + list(reversed(parts)))
            if base.id == "self" and self_class is not None:
                return f"{module}.{self_class}." + ".".join(reversed(parts))
        return f"*.{func.attr}"
    return None


def _mode_of_open(call: ast.Call) -> Optional[str]:
    mode_node: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    else:
        for kw in call.keywords:
            if kw.arg == "mode":
                mode_node = kw.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


def _param_names(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> Tuple[str, ...]:
    args = func.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


class _ModuleExtractor:
    """One pass over a parsed module producing its :class:`ModuleIndex`."""

    def __init__(self, module: str, path: str, tree: ast.Module) -> None:
        self.tree = tree
        self.imports = _ImportTable(tree).names
        self.module = module
        self.index = ModuleIndex(
            module=module,
            path=Path(path).as_posix(),
            imports=dict(self.imports),
        )
        self._top_level: Set[str] = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        self._module_globals: Set[str] = set()
        self._mutations: Set[str] = set()
        self._seam_workers: List[str] = []

    def run(self) -> ModuleIndex:
        self._scan_globals()
        for node, class_name in self._iter_functions():
            self._extract_function(node, class_name)
        self._scan_mutations_and_seams()
        self.index.mutated_globals = tuple(sorted(self._mutations))
        self.index.seam_workers = tuple(sorted(set(self._seam_workers)))
        return self.index

    # -- module-level globals -------------------------------------------------

    def _scan_globals(self) -> None:
        for node in self.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                self._module_globals.add(target.id)
                if value is not None and self._is_mutable_value(value):
                    self.index.mutable_globals[target.id] = node.lineno

    def _is_mutable_value(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            resolved = resolve_call(value, self.imports, self.module, self._top_level)
            if resolved is None:
                return False
            terminal = resolved.rsplit(".", 1)[-1]
            return terminal in _MUTABLE_FACTORIES
        return False

    # -- functions ------------------------------------------------------------

    def _iter_functions(self) -> "Iterable[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, Optional[str]]]":
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, None
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item, node.name

    def _extract_function(
        self,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        class_name: Optional[str],
    ) -> None:
        qualname = f"{class_name}.{func.name}" if class_name else func.name
        params = _param_names(func)
        param_index = {name: i for i, name in enumerate(params)}
        calls: Set[str] = set()
        param_flows: List[Tuple[str, int, int]] = []
        raw_write_params: Set[int] = set()
        is_sink = func.name in _SINK_NAMES

        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(
                node, self.imports, self.module, self._top_level, class_name
            )
            if resolved is None:
                continue
            calls.add(resolved)
            if resolved.startswith(_SERIALIZE_CALL_PREFIXES):
                is_sink = True
            for arg_index, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id in param_index:
                    param_flows.append((resolved, param_index[arg.id], arg_index))
            raw_write_params.update(self._raw_write_params(node, param_index))

        self.index.functions[qualname] = FunctionInfo(
            qualname=qualname,
            lineno=func.lineno,
            params=params,
            calls=tuple(sorted(calls)),
            is_sink=is_sink,
            raw_write_params=tuple(sorted(raw_write_params)),
            param_flows=tuple(param_flows),
        )

    def _raw_write_params(
        self, call: ast.Call, param_index: Mapping[str, int]
    ) -> Set[int]:
        """Parameter indices this call writes to disk non-atomically."""
        hit: Set[int] = set()
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open" and call.args:
            mode = _mode_of_open(call)
            if mode is not None and not any(f in mode for f in _WRITE_MODES):
                return hit
            for name_node in ast.walk(call.args[0]):
                if isinstance(name_node, ast.Name) and name_node.id in param_index:
                    hit.add(param_index[name_node.id])
        elif isinstance(func, ast.Attribute) and func.attr in _RAW_WRITE_METHODS:
            for name_node in ast.walk(func.value):
                if isinstance(name_node, ast.Name) and name_node.id in param_index:
                    hit.add(param_index[name_node.id])
        return hit

    # -- mutations and the pool seam -----------------------------------------

    def _scan_mutations_and_seams(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._note_seam(node)
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                ):
                    self._note_mutation(func.value.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if isinstance(base, ast.Name) and base is not target:
                        self._note_mutation(base.id)
            elif isinstance(node, ast.Global):
                for name in node.names:
                    self._note_mutation(name)

    def _note_mutation(self, name: str) -> None:
        if name in self._module_globals:
            self._mutations.add(f"{self.module}.{name}")
        elif name in self.imports:
            self._mutations.add(self.imports[name])

    def _note_seam(self, call: ast.Call) -> None:
        resolved = resolve_call(call, self.imports, self.module, self._top_level)
        if resolved is None:
            return
        if not (
            resolved in _SEAM_NAMES
            or any(resolved.endswith(suffix) for suffix in _SEAM_SUFFIXES)
        ):
            return
        if not call.args:
            return
        fn_arg = call.args[0]
        candidates: List[ast.expr] = [fn_arg]
        if isinstance(fn_arg, ast.IfExp):
            candidates = [fn_arg.body, fn_arg.orelse]
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                origin = self.imports.get(candidate.id)
                if origin is None:
                    origin = f"{self.module}.{candidate.id}"
                self._seam_workers.append(origin)


def build_module_index(
    path: "Path | str", tree: ast.Module, module: Optional[str] = None
) -> ModuleIndex:
    """Extract one module's shard of the project index."""
    name = module if module is not None else module_name_for(path)
    return _ModuleExtractor(name, str(path), tree).run()


class ProjectIndex:
    """Cross-module view over a set of :class:`ModuleIndex` shards."""

    def __init__(self, shards: Sequence[ModuleIndex]) -> None:
        self.modules: Dict[str, ModuleIndex] = {s.module: s for s in shards}
        self._functions: Dict[str, FunctionInfo] = {}
        self._by_terminal: Dict[str, List[str]] = {}
        for shard in self.modules.values():
            for qualname, info in shard.functions.items():
                full = f"{shard.module}.{qualname}"
                self._functions[full] = info
                self._by_terminal.setdefault(info.name, []).append(full)
        self._serialized_reachable: Optional[Set[str]] = None
        self._raw_writer_params: Optional[Dict[str, Set[int]]] = None

    # -- lookups --------------------------------------------------------------

    @property
    def functions(self) -> Mapping[str, FunctionInfo]:
        return self._functions

    def resolve_function(self, dotted: str) -> List[str]:
        """Full qualnames matching a resolved call target."""
        if dotted in self._functions:
            return [dotted]
        if dotted.startswith("*."):
            return list(self._by_terminal.get(dotted[2:], ()))
        # An import origin like ``repro.runtime.atomic_write_text`` may
        # point at a re-export; fall back to the terminal name.
        terminal = dotted.rsplit(".", 1)[-1]
        return [
            full
            for full in self._by_terminal.get(terminal, ())
            if full.rsplit(".", 1)[0].split(".")[0] == dotted.split(".")[0]
        ]

    # -- derived interprocedural facts ----------------------------------------

    @property
    def serialized_reachable(self) -> Set[str]:
        """Functions whose output can feed a serialized/merged artifact.

        The seed set is every sink function; the closure adds everything
        a sink (transitively) calls, because a callee's return value can
        flow into the sink's output.
        """
        if self._serialized_reachable is None:
            reachable: Set[str] = {
                full for full, info in self._functions.items() if info.is_sink
            }
            frontier = list(reachable)
            while frontier:
                current = frontier.pop()
                for callee in self._functions[current].calls:
                    for full in self.resolve_function(callee):
                        if full not in reachable:
                            reachable.add(full)
                            frontier.append(full)
            self._serialized_reachable = reachable
        return self._serialized_reachable

    @property
    def worker_functions(self) -> Set[str]:
        """Full qualnames of functions shipped across the pool seam."""
        workers: Set[str] = set()
        for shard in self.modules.values():
            for dotted in shard.seam_workers:
                resolved = self.resolve_function(dotted)
                workers.update(resolved if resolved else {dotted})
        return workers

    @property
    def raw_writer_params(self) -> Dict[str, Set[int]]:
        """Fixpoint of parameter positions that reach a raw file write."""
        if self._raw_writer_params is None:
            flows: Dict[str, Set[int]] = {
                full: set(info.raw_write_params)
                for full, info in self._functions.items()
                if info.raw_write_params
            }
            changed = True
            while changed:
                changed = False
                for full, info in self._functions.items():
                    for callee, caller_param, callee_arg in info.param_flows:
                        for target in self.resolve_function(callee):
                            if callee_arg in flows.get(target, ()):
                                mine = flows.setdefault(full, set())
                                if caller_param not in mine:
                                    mine.add(caller_param)
                                    changed = True
            self._raw_writer_params = flows
        return self._raw_writer_params

    @property
    def mutable_globals(self) -> Dict[str, int]:
        """``module.name`` -> lineno for every module-level mutable container."""
        out: Dict[str, int] = {}
        for shard in self.modules.values():
            for name, lineno in shard.mutable_globals.items():
                out[f"{shard.module}.{name}"] = lineno
        return out

    @property
    def mutated_globals(self) -> Set[str]:
        """Fully-qualified globals something in the project mutates."""
        out: Set[str] = set()
        for shard in self.modules.values():
            out.update(shard.mutated_globals)
        return out

    def is_atomic_writer(self, dotted: str) -> bool:
        """True when a resolved call target is a sanctioned atomic writer."""
        return dotted.startswith("repro.runtime") and _ATOMIC_MARKER in dotted
