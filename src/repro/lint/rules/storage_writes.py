"""Storage-seam hygiene: runtime/service I/O must route through fsio.

:mod:`repro.runtime.fsio` is the single seam every durable write, read,
fsync and rename in the runtime and service layers passes through.  The
seam is what makes the storage stack *testable*: an armed
:class:`repro.faults.fsfault.FsFaultInjector` perturbs every consumer
at once (ENOSPC, EIO, short writes, bit rot), and the chaos suite's
guarantees — no torn state, typed incidents, scrub-then-resume
convergence — hold only for I/O the seam can see.  A bare ``os.write``
or ``open(path, "w")`` inside these packages is invisible to the
injector: it cannot be fault-tested, it skips the partial-file cleanup
the seam performs on failure, and it silently re-opens the class of
torn-state bugs the seam closed.

The rule bans, inside ``repro.runtime`` and ``repro.service`` (the fsio
module itself excepted — it *is* the seam):

- ``os.write`` / ``os.fsync`` / ``os.replace`` / ``os.rename`` calls;
- ``open(...)`` with a write-capable (or non-literal) mode;
- ``Path.write_bytes`` / ``Path.write_text`` method calls.

Read-only ``open()`` and ``os.open(..., O_RDONLY)`` are out of scope:
reads route through :func:`repro.runtime.fsio.read_file_bytes` where
fault coverage is needed, but a raw read cannot tear state.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, Optional, Tuple

from repro.lint.engine import FileContext, Finding, Rule, Severity
from repro.lint.registry import register_rule

#: ``os.<name>`` calls that mutate storage state behind the seam's back.
_OS_STORAGE_CALLS: Tuple[str, ...] = ("write", "fsync", "replace", "rename")

_WRITE_MODES = ("w", "a", "x", "+")

_WRITE_METHODS = ("write_bytes", "write_text")

#: The seam itself (and nothing else) may touch the raw syscalls.
_SEAM_FILENAME = "fsio.py"


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open()`` call, or None when unknown."""
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


@register_rule
class UnroutedStorageWrite(Rule):
    """FS001 — storage syscall bypasses the fault-aware fsio seam."""

    rule_id: ClassVar[str] = "FS001"
    name: ClassVar[str] = "unrouted-storage-write"
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = (
        "storage write bypasses repro.runtime.fsio: invisible to fault "
        "injection, no partial-file cleanup, re-opens torn-state bugs"
    )
    fix_hint: ClassVar[str] = (
        "route the operation through repro.runtime.fsio "
        "(write_file_bytes / append_text / fsync_handle / replace_file / "
        "fsync_dir) or the atomic checkpoint writers built on it"
    )
    node_types: ClassVar[Tuple[type, ...]] = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        if not ctx.in_package("runtime", "service"):
            return False
        return ctx.parts[-1] != _SEAM_FILENAME

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if mode is None or any(flag in mode for flag in _WRITE_MODES):
                yield self.finding_at(
                    ctx,
                    node,
                    message=(
                        "file opened writable outside the fsio seam: the "
                        "write cannot be fault-injected and leaves partial "
                        "state on failure"
                    ),
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and func.attr in _OS_STORAGE_CALLS
        ):
            yield self.finding_at(
                ctx,
                node,
                message=(
                    f"os.{func.attr}() bypasses the fsio seam: fault "
                    "injection cannot see it and no cleanup runs on failure"
                ),
            )
            return
        if func.attr in _WRITE_METHODS:
            yield self.finding_at(
                ctx,
                node,
                message=(
                    f".{func.attr}() bypasses the fsio seam: a crash "
                    "mid-write leaves a torn file no injector ever probed"
                ),
            )
