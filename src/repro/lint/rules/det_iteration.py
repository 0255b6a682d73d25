"""DET001 — unordered iteration feeding a serialized or merged output.

Every correctness claim in this reproduction rests on byte-identical
outputs across the serial/sharded, in-memory/durable, and kill/resume paths.
A ``for`` loop (or list/dict comprehension) over a **set** — or over a
directory listing — visits elements in hash/filesystem order, which
differs between processes (string hashing is randomized) and between
hosts.  When such a loop *emits* into an ordered container that can
reach a serialized or merged output (a ``merge`` method, RPCK encoding,
JSON rendering — anything in the project call graph's
``serialized_reachable`` set), the output bytes silently depend on that
order.

The rule is interprocedural: "reaches a serialized output" is answered
by the :class:`~repro.lint.project.ProjectIndex` (transitive callees of
sink functions), so a helper three calls below ``DegradationReport.merge``
is checked even though it never serializes anything itself.  Iterations
whose body is order-insensitive (pure membership tests, counting,
``.add`` into another set) are not flagged; wrap the iterable in
``sorted(...)`` to fix a true finding.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, List, Optional, Tuple

from repro.lint.engine import FileContext, Finding, Rule, Severity
from repro.lint.registry import register_rule

#: Method calls in a loop body that make iteration order observable.
_EMITTING_METHODS = ("append", "extend", "insert", "write", "writerow", "appendleft")

#: Builtins that consume a comprehension order-insensitively: feeding an
#: unordered generator into these is fine (``sum`` is DET003's domain).
_ORDER_INSENSITIVE_CONSUMERS = (
    "sorted",
    "set",
    "frozenset",
    "min",
    "max",
    "any",
    "all",
    "len",
    "sum",
    "fsum",
    "Counter",
)


def _consumed_order_insensitively(node: ast.AST, ctx: FileContext) -> bool:
    """True when the comprehension's result order cannot matter."""
    parent = ctx.parent_of(node)
    if not (isinstance(parent, ast.Call) and node in parent.args):
        return False
    func = parent.func
    if isinstance(func, ast.Name):
        return func.id in _ORDER_INSENSITIVE_CONSUMERS
    # math.fsum, collections.Counter, ... — match on the terminal attr.
    if isinstance(func, ast.Attribute):
        return func.attr in _ORDER_INSENSITIVE_CONSUMERS
    return False


def _body_emits_ordered(body: List[ast.stmt]) -> Optional[ast.AST]:
    """First statement in ``body`` whose effect is order-sensitive.

    Appending to a list, yielding, writing to a stream, or inserting
    into a dict all expose iteration order to the consumer; ``.add`` on
    a set, counting, or membership checks do not.
    """
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _EMITTING_METHODS:
                    return node
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        return node
            if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Subscript
            ):
                return node
    return None


@register_rule
class UnorderedIterationToOutput(Rule):
    """DET001 — set/listdir iteration on a path to serialized output."""

    rule_id: ClassVar[str] = "DET001"
    name: ClassVar[str] = "unordered-iteration-to-output"
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = (
        "iteration over an unordered collection emits into an ordered "
        "structure on a path that reaches serialized/merged output"
    )
    fix_hint: ClassVar[str] = (
        "iterate sorted(...) (or an explicitly ordered container) so the "
        "emitted order is independent of hash/filesystem order"
    )
    node_types: ClassVar[Tuple[type, ...]] = (
        ast.For,
        ast.ListComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_serialized_reachable(node):
            return
        flow = ctx.dataflow_for(node)
        if isinstance(node, ast.For):
            reason = flow.unordered_reason(node.iter)
            if reason is None:
                return
            if _body_emits_ordered(node.body) is None:
                return
            yield self.finding_at(
                ctx,
                node.iter,
                message=(
                    f"loop emits into ordered output but {reason}; the "
                    "emitted sequence differs across processes and hosts"
                ),
            )
            return
        # List/dict comprehensions and generator expressions materialize
        # an *ordered* result directly from the iteration order — unless
        # the consumer (sorted, set, min, ...) erases that order again.
        if _consumed_order_insensitively(node, ctx):
            return
        for iter_expr, line, col in (
            (comp.iter, comp.iter.lineno, comp.iter.col_offset)
            for comp in node.generators  # type: ignore[union-attr]
        ):
            reason = flow.unordered_reason(iter_expr)
            if reason is None:
                continue
            kind = {
                ast.ListComp: "list comprehension",
                ast.DictComp: "dict comprehension",
                ast.GeneratorExp: "generator expression",
            }[type(node)]
            yield self.finding(
                ctx,
                line=line,
                col=col,
                message=(
                    f"{kind} materializes an ordered result but {reason}; "
                    "the element order differs across processes and hosts"
                ),
            )
