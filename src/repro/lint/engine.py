"""Core of the lint framework: findings, rule base class, file runner.

A :class:`Rule` declares the AST node types it wants to see; the engine
parses each file once and dispatches nodes to every applicable rule in a
single walk.  Rules that need whole-file context (e.g. the public-API
drift check) override :meth:`Rule.check_file` instead.

Whole-program analysis: every lint entry point carries a
:class:`repro.lint.project.ProjectIndex` — :func:`lint_paths` reads and
parses each file once, indexes all of them, and only then runs the rules
(so rules can reason interprocedurally across the repository), while
:func:`lint_source`/:func:`lint_file` build a single-module index on the
fly so the same rules degrade to intra-module resolution.  Rules reach
the index and per-scope dataflow facts through :class:`FileContext`
(``ctx.project``, ``ctx.dataflow_for``, ``ctx.in_serialized_reachable``,
…).  Every run is cold: nothing is cached between runs, so a finding
always reflects the current rules and every file they read.

Suppression: a ``# repro: noqa[RULE-ID]`` comment silences that rule on
its line (comma-separate several ids; bare ``# repro: noqa`` silences
every rule on the line; an empty ``noqa[]`` names no rule and silences
nothing).  Suppressions that silence nothing are reported as ``NOQA001``
warnings so stale exemptions surface.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.lint.dataflow import ScopeDataflow, ScopeNode
from repro.lint.project import (
    ModuleIndex,
    ProjectIndex,
    build_module_index,
    module_name_for,
    resolve_call,
)
from repro.lint.registry import all_rules

PathLike = Union[str, Path]

#: Rule id for unused-suppression warnings (the rule class lives in
#: ``repro.lint.rules.noqa`` purely so it appears in the catalog).
UNUSED_SUPPRESSION_ID = "NOQA001"

#: Rule id attached to files that fail to parse.
SYNTAX_ERROR_ID = "SYNTAX001"

_NOQA_ALL = re.compile(r"#\s*repro:\s*noqa\s*(?:$|[^\[])")
_NOQA_IDS = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]")


class Severity(str, Enum):
    """How bad a finding is; both levels count toward the exit code."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, sortable into deterministic report order."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str
    fix_hint: str = ""

    def render_text(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text

    def render_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


@dataclass
class _Suppression:
    """One noqa directive: which rules it silences and whether it fired."""

    line: int
    rule_ids: Optional[Set[str]]  # None = every rule; empty (noqa[]) = none
    used: bool = False

    def covers(self, rule_id: str) -> bool:
        return self.rule_ids is None or rule_id in self.rule_ids


class FileContext:
    """Everything a rule may want to know about the file being linted."""

    def __init__(
        self,
        path: PathLike,
        source: str,
        tree: ast.Module,
        project: Optional[ProjectIndex] = None,
        module_index: Optional[ModuleIndex] = None,
    ):
        self.path = Path(path)
        self.posix = self.path.as_posix()
        self.parts: Tuple[str, ...] = self.path.parts
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        self.module_name = module_name_for(path)
        self._numpy_aliases: Optional[Set[str]] = None
        self._from_imports: Optional[Dict[str, str]] = None
        self._module_index = module_index
        self._project = project
        self._scopes: Optional[Dict[int, Tuple[ast.AST, Optional[str]]]] = None
        self._parents: Dict[int, ast.AST] = {}
        self._dataflows: Dict[int, ScopeDataflow] = {}

    # -- path scoping helpers ------------------------------------------------

    def in_package(self, *names: str) -> bool:
        """True when any path component matches one of ``names``.

        Lint scoping keys on directory names (``mno``, ``analysis``, …)
        so it works for both ``src/repro/mno/x.py`` and test fixtures
        living under ``tests/lint/fixtures/mno/x.py``.
        """
        return any(part in names for part in self.parts)

    def is_module(self, tail: str) -> bool:
        """True when the file path ends with ``tail`` (posix form)."""
        return self.posix.endswith(tail)

    # -- import tracking -----------------------------------------------------

    def _scan_imports(self) -> None:
        numpy_aliases: Set[str] = set()
        from_imports: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy" or alias.name.startswith("numpy."):
                        numpy_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    from_imports[local] = f"{node.module}.{alias.name}"
        self._numpy_aliases = numpy_aliases
        self._from_imports = from_imports

    @property
    def numpy_aliases(self) -> Set[str]:
        """Local names bound to the numpy top-level module."""
        if self._numpy_aliases is None:
            self._scan_imports()
        assert self._numpy_aliases is not None
        return self._numpy_aliases

    @property
    def from_imports(self) -> Dict[str, str]:
        """Local name -> dotted origin for every ``from x import y``."""
        if self._from_imports is None:
            self._scan_imports()
        assert self._from_imports is not None
        return self._from_imports

    def resolves_to(self, name: str, dotted: str) -> bool:
        """True when local ``name`` was imported as ``dotted``."""
        return self.from_imports.get(name) == dotted

    # -- whole-program context -----------------------------------------------

    @property
    def module_index(self) -> ModuleIndex:
        """This file's shard of the project index (built lazily)."""
        if self._module_index is None:
            self._module_index = build_module_index(
                self.path, self.tree, self.module_name
            )
        return self._module_index

    @property
    def project(self) -> ProjectIndex:
        """The project index; a single-module view outside lint_paths."""
        if self._project is None:
            self._project = ProjectIndex([self.module_index])
        return self._project

    def _scope_map(self) -> Dict[int, Tuple[ast.AST, Optional[str]]]:
        """node id -> (innermost scope node, top-level function qualname)."""
        if self._scopes is not None:
            return self._scopes
        scopes: Dict[int, Tuple[ast.AST, Optional[str]]] = {id(self.tree): (self.tree, None)}

        def rec(
            node: ast.AST,
            scope: ast.AST,
            qual: Optional[str],
            class_name: Optional[str],
        ) -> None:
            for child in ast.iter_child_nodes(node):
                scopes[id(child)] = (scope, qual)
                self._parents[id(child)] = node
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if qual is None:
                        child_qual = (
                            f"{class_name}.{child.name}" if class_name else child.name
                        )
                    else:
                        # Nested function: interprocedural facts are
                        # tracked at the top-level unit that contains it.
                        child_qual = qual
                    rec(child, child, child_qual, None)
                elif isinstance(child, ast.Lambda):
                    rec(child, child, qual, class_name)
                elif isinstance(child, ast.ClassDef):
                    rec(
                        child,
                        scope,
                        qual,
                        child.name if qual is None else class_name,
                    )
                else:
                    rec(child, scope, qual, class_name)

        rec(self.tree, self.tree, None, None)
        self._scopes = scopes
        return scopes

    def scope_of(self, node: ast.AST) -> ast.AST:
        """The innermost function (or module) whose body contains ``node``."""
        return self._scope_map().get(id(node), (self.tree, None))[0]

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST node directly containing ``node`` (None for the root)."""
        self._scope_map()
        return self._parents.get(id(node))

    def function_qualname(self, node: ast.AST) -> Optional[str]:
        """Module-local qualname of the top-level unit containing ``node``.

        ``None`` means module-level code.  Nested functions report their
        enclosing top-level function/method, matching the granularity of
        the project index.
        """
        return self._scope_map().get(id(node), (self.tree, None))[1]

    def dataflow_for(self, node: ast.AST) -> ScopeDataflow:
        """Cached :class:`ScopeDataflow` for ``node``'s enclosing scope."""
        scope = self.scope_of(node)
        key = id(scope)
        if key not in self._dataflows:
            self._dataflows[key] = ScopeDataflow(scope)  # type: ignore[arg-type]
        return self._dataflows[key]

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Best-effort dotted target of a call (see project.resolve_call)."""
        qual = self.function_qualname(call)
        self_class = qual.rsplit(".", 1)[0] if qual and "." in qual else None
        return resolve_call(
            call,
            self.module_index.imports,
            self.module_name,
            self.module_index.functions.keys()
            | {q.split(".")[0] for q in self.module_index.functions},
            self_class,
        )

    def full_qualname(self, local_qualname: str) -> str:
        return f"{self.module_name}.{local_qualname}"

    def in_serialized_reachable(self, node: ast.AST) -> bool:
        """Can values computed at ``node`` feed a serialized/merged output?

        Module-level code counts as reachable: it builds the constants
        everything else reads.
        """
        qual = self.function_qualname(node)
        if qual is None:
            return True
        return self.full_qualname(qual) in self.project.serialized_reachable

    def worker_qualnames(self) -> Set[str]:
        """Module-local qualnames of this file's pool-seam worker functions."""
        workers = self.project.worker_functions
        prefix = f"{self.module_name}."
        return {full[len(prefix):] for full in workers if full.startswith(prefix)}


class Rule:
    """Base class for lint rules.

    Subclasses set the class-level metadata, optionally restrict
    themselves to part of the tree via :meth:`applies_to`, and implement
    :meth:`visit` (called for every node whose type is listed in
    ``node_types``) and/or :meth:`check_file`.
    """

    rule_id: ClassVar[str] = ""
    name: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = ""
    fix_hint: ClassVar[str] = ""
    node_types: ClassVar[Tuple[type, ...]] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def finding(
        self,
        ctx: FileContext,
        line: int,
        col: int = 0,
        message: Optional[str] = None,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        """Build a finding pre-filled with this rule's metadata."""
        return Finding(
            path=ctx.posix,
            line=line,
            col=col,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message if message is not None else self.summary,
            fix_hint=fix_hint if fix_hint is not None else self.fix_hint,
        )

    def finding_at(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: Optional[str] = None,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        return self.finding(
            ctx,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=fix_hint,
        )


@dataclass
class LintResult:
    """Outcome of linting a set of paths."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _iter_comments(source: str) -> Iterator[Tuple[int, str]]:
    """(line, text) for every real comment token in ``source``.

    Tokenizing (rather than line-scanning) keeps noqa examples inside
    docstrings and string literals from being treated as directives.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


def _parse_suppressions(source: str) -> List[_Suppression]:
    suppressions: List[_Suppression] = []
    for lineno, comment in _iter_comments(source):
        if "repro:" not in comment:
            continue
        match = _NOQA_IDS.search(comment)
        if match:
            ids = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
            suppressions.append(_Suppression(line=lineno, rule_ids=ids))
        elif _NOQA_ALL.search(comment):
            suppressions.append(_Suppression(line=lineno, rule_ids=None))
    return suppressions


def _select_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[Type[Rule]]:
    rules = all_rules()
    known = {rule.rule_id for rule in rules}
    for rule_id in list(select or []) + list(ignore or []):
        if rule_id not in known:
            raise ValueError(f"unknown rule id {rule_id!r}")
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.rule_id not in dropped]
    return rules


def _meta_for(rule_id: str) -> Tuple[Severity, str]:
    """(severity, fix_hint) for engine-synthesized findings."""
    from repro.lint.registry import get_rule

    try:
        rule = get_rule(rule_id)
    except KeyError:
        return Severity.WARNING, ""
    return rule.severity, rule.fix_hint


def _syntax_finding(posix: str, exc: SyntaxError, active_ids: Set[str]) -> List[Finding]:
    if SYNTAX_ERROR_ID not in active_ids:
        return []
    severity, hint = _meta_for(SYNTAX_ERROR_ID)
    return [
        Finding(
            path=posix,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=SYNTAX_ERROR_ID,
            severity=severity,
            message=f"file does not parse: {exc.msg}",
            fix_hint=hint,
        )
    ]


def _lint_tree(
    source: str,
    path: PathLike,
    tree: ast.Module,
    rule_classes: List[Type[Rule]],
    project: Optional[ProjectIndex] = None,
    module_index: Optional[ModuleIndex] = None,
) -> List[Finding]:
    """Run the selected rules over one parsed module."""
    active_ids = {rule.rule_id for rule in rule_classes}
    posix = Path(path).as_posix()
    ctx = FileContext(path, source, tree, project=project, module_index=module_index)
    rules = [rule for rule in (cls() for cls in rule_classes) if rule.applies_to(ctx)]

    dispatch: Dict[type, List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)

    raw: List[Finding] = []
    if dispatch:
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                raw.extend(rule.visit(node, ctx))
    for rule in rules:
        raw.extend(rule.check_file(ctx))

    suppressions = _parse_suppressions(source)
    by_line: Dict[int, List[_Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.line, []).append(sup)

    kept: List[Finding] = []
    for finding in raw:
        silenced = False
        for sup in by_line.get(finding.line, ()):
            if sup.covers(finding.rule_id):
                sup.used = True
                silenced = True
        if not silenced:
            kept.append(finding)

    if UNUSED_SUPPRESSION_ID in active_ids:
        severity, hint = _meta_for(UNUSED_SUPPRESSION_ID)
        for sup in suppressions:
            if sup.used:
                continue
            if sup.rule_ids is None:
                described = "all rules"
            elif sup.rule_ids:
                described = ", ".join(sorted(sup.rule_ids))
            else:
                described = "empty rule list"
            kept.append(
                Finding(
                    path=posix,
                    line=sup.line,
                    col=0,
                    rule_id=UNUSED_SUPPRESSION_ID,
                    severity=severity,
                    message=f"unused suppression ({described}): nothing to silence here",
                    fix_hint=hint,
                )
            )

    return sorted(kept)


def lint_source(
    source: str,
    path: PathLike = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: Optional[ProjectIndex] = None,
) -> List[Finding]:
    """Lint one python source string; returns sorted findings.

    Without an explicit ``project``, a single-module index is built on
    the fly so interprocedural rules see at least this file's own call
    graph.
    """
    rule_classes = _select_rules(select, ignore)
    active_ids = {rule.rule_id for rule in rule_classes}
    posix = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as exc:
        return _syntax_finding(posix, exc, active_ids)
    return _lint_tree(source, path, tree, rule_classes, project=project)


def lint_file(
    path: PathLike,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: Optional[ProjectIndex] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, path=path, select=select, ignore=ignore, project=project)


def _iter_python_files(paths: Iterable[PathLike]) -> Iterator[Path]:
    """Each ``*.py`` file named in or found under ``paths``, once.

    A named file is always linted.  Under a named directory, hidden
    (dot-prefixed) and ``__pycache__`` entries are skipped — judged only
    by the components *below* that directory, so a tree that itself
    lives under a dot-directory is still checked.
    """
    seen: Set[Path] = set()
    for raw_path in paths:
        path = Path(raw_path)
        if path.is_dir():
            candidates = [
                found
                for found in sorted(path.rglob("*.py"))
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in found.relative_to(path).parts
                )
            ]
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def lint_paths(
    paths: Sequence[PathLike],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths`` as one program.

    Each file is read and parsed once and indexed into a shared
    :class:`ProjectIndex` before any rule runs, so interprocedural rules
    (DET*, SEAM*, DUR001) resolve calls across module boundaries.
    """
    rule_classes = _select_rules(select, ignore)
    active_ids = {rule.rule_id for rule in rule_classes}
    result = LintResult()
    parsed: List[Tuple[Path, str, ast.Module, ModuleIndex]] = []
    for path in _iter_python_files(paths):
        result.files_checked += 1
        source = path.read_text(encoding="utf-8")
        posix = path.as_posix()
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as exc:
            result.findings.extend(_syntax_finding(posix, exc, active_ids))
            continue
        parsed.append((path, source, tree, build_module_index(path, tree)))

    project = ProjectIndex([shard for _, _, _, shard in parsed])
    for path, source, tree, shard in parsed:
        result.findings.extend(
            _lint_tree(
                source, path, tree, rule_classes, project=project, module_index=shard
            )
        )
    result.findings.sort()
    return result


__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "ScopeDataflow",
    "ScopeNode",
    "Severity",
    "lint_file",
    "lint_paths",
    "lint_source",
]
