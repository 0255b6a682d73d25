"""Command-line front end: ``python -m repro.lint [paths] [options]``.

Every run lints the given paths cold, as one program.  The exit code is
the number of findings capped at 100, so shell pipelines and CI can gate
on it directly; ``--format json`` emits a schema-stable document for
tooling and ``--format sarif`` (alias: ``--output sarif``) emits SARIF
2.1.0 for GitHub PR annotations.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import LintResult, lint_paths
from repro.lint.registry import all_rules
from repro.lint.sarif import render_sarif

#: Exit codes above this are reserved (128+ = signals), so cap there.
MAX_EXIT_CODE = 100

#: Version of the ``--format json`` schema; bump on breaking change.
JSON_SCHEMA_VERSION = 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Whole-program static analysis enforcing the reproduction's "
            "simulation invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        "--output",
        dest="format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [token.strip() for token in raw.split(",") if token.strip()]


def render_text(result: LintResult) -> str:
    """Human-readable report: one block per finding plus a summary line."""
    blocks = [finding.render_text() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    )
    if result.findings:
        by_rule = ", ".join(
            f"{rule_id}×{count}"
            for rule_id, count in result.counts_by_rule.items()
        )
        summary += f" [{by_rule}]"
    blocks.append(summary)
    return "\n".join(blocks)


def render_json(result: LintResult) -> str:
    """Schema-stable JSON report (see ``JSON_SCHEMA_VERSION``)."""
    document = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "findings": [finding.render_json() for finding in result.findings],
        "summary": {
            "total": len(result.findings),
            "by_rule": result.counts_by_rule,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """The ``--list-rules`` catalog: id, severity, name, summary, fix."""
    lines = []
    for rule in all_rules():
        lines.append(
            f"{rule.rule_id:<10} {rule.severity.value:<8} {rule.name}"
        )
        lines.append(f"{'':10} {rule.summary}")
        if rule.fix_hint:
            lines.append(f"{'':10} fix: {rule.fix_hint}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the exit code (= findings, capped)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_catalog())
        return 0

    try:
        result = lint_paths(
            args.paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
        )
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"cannot read {exc.filename or ''}: {exc.strerror or exc}")

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return min(len(result.findings), MAX_EXIT_CODE)


if __name__ == "__main__":
    sys.exit(main())
