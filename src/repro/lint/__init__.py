"""``repro.lint`` — AST-based static analysis enforcing simulation invariants.

The reproduction substitutes proprietary operator traces with seeded,
deterministic simulators, so the scientific claims rest on invariants that
ordinary linters do not know about: every random draw must flow from a
seeded ``numpy`` Generator, simulators must never read the wall clock, and
identifier parsing must go through :mod:`repro.cellular.identifiers` rather
than ad-hoc string slicing.  This package checks those invariants (plus a
few general hygiene rules) over the source tree, as one cold
whole-program pass per run::

    python -m repro.lint src                 # exit code = number of findings
    python -m repro.lint src --format json   # machine-readable output
    python -m repro.lint src --select ID001  # run a subset of rules
    python -m repro.lint --list-rules        # rule catalog

Findings on a line can be suppressed with an inline comment::

    mccs = imsi[:3]  # repro: noqa[ID001]

A suppression that never fires is itself reported (``NOQA001``) so stale
exemptions cannot accumulate.  There is no finding budget: a new rule
lands together with the fixes (or single-line suppressions) for its
findings.  See ``docs/STATIC_ANALYSIS.md`` for the full rule catalog.
"""

from repro.lint.dataflow import ScopeDataflow
from repro.lint.engine import (
    FileContext,
    Finding,
    LintResult,
    Rule,
    Severity,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.project import (
    ModuleIndex,
    ProjectIndex,
    build_module_index,
    module_name_for,
)
from repro.lint.registry import all_rules, get_rule, register_rule
from repro.lint.sarif import render_sarif

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "ModuleIndex",
    "ProjectIndex",
    "Rule",
    "ScopeDataflow",
    "Severity",
    "all_rules",
    "build_module_index",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register_rule",
    "render_sarif",
]
