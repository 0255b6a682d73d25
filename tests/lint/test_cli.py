"""CLI behavior: exit codes, output formats, and the repo-tree gate."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.cli import JSON_SCHEMA_VERSION, MAX_EXIT_CODE, main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_repo_src_tree_is_clean(capsys):
    """The committed tree must satisfy its own invariants."""
    exit_code = main([str(REPO_ROOT / "src")])
    output = capsys.readouterr().out
    assert exit_code == 0, f"lint findings on src:\n{output}"
    assert "0 finding(s)" in output


def test_exit_code_counts_findings(capsys):
    exit_code = main([str(FIXTURES / "rng" / "bad_import_random.py")])
    assert exit_code == 2
    assert MAX_EXIT_CODE == 100


def test_clean_file_exits_zero(capsys):
    assert main([str(FIXTURES / "rng" / "good_seeded.py")]) == 0


def test_json_schema_is_stable(capsys):
    exit_code = main(
        [str(FIXTURES / "ident" / "bad_slicing.py"), "--format", "json"]
    )
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 3
    assert document["version"] == JSON_SCHEMA_VERSION
    assert document["files_checked"] == 1
    assert document["summary"] == {"total": 3, "by_rule": {"ID001": 3}}
    assert len(document["findings"]) == 3
    for finding in document["findings"]:
        assert set(finding) == {
            "path",
            "line",
            "col",
            "rule",
            "severity",
            "message",
            "fix_hint",
        }
        assert finding["rule"] == "ID001"
        assert finding["severity"] == "error"
    # Findings are sorted by (path, line, col, ...).
    keys = [(f["path"], f["line"], f["col"]) for f in document["findings"]]
    assert keys == sorted(keys)


def test_json_output_on_clean_tree(capsys):
    exit_code = main(
        [str(FIXTURES / "rng" / "good_seeded.py"), "--format", "json"]
    )
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert document["findings"] == []
    assert document["summary"] == {"total": 0, "by_rule": {}}


def test_select_and_ignore_flags(capsys):
    bad_dir = str(FIXTURES / "rng")
    assert main([bad_dir, "--select", "RNG001"]) == 2
    capsys.readouterr()
    assert main([bad_dir, "--ignore", "RNG001,RNG002,RNG003"]) == 0


def test_directory_scan_covers_every_fixture(capsys):
    exit_code = main([str(FIXTURES)])
    assert exit_code == sum(
        (2, 3, 2, 4, 2, 3, 3, 2, 2, 2, 2, 1, 4, 4, 3, 4, 4, 3, 3, 2, 8, 5)
    )  # every bad fixture's finding count


def test_directory_scan_matches_per_file_counts(capsys):
    """Whole-directory scan == sum of per-file scans (no cross-file bleed)."""
    from tests.lint.test_rules import BAD_FIXTURES

    expected = sum(n for counts in BAD_FIXTURES.values() for n in counts.values())
    assert main([str(FIXTURES)]) == expected


def test_list_rules_mentions_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule_id in ("RNG001", "TIME001", "ID001", "NOQA001", "API001"):
        assert rule_id in output


def test_text_output_carries_fix_hints(capsys):
    main([str(FIXTURES / "ident" / "bad_slicing.py")])
    output = capsys.readouterr().out
    assert "hint:" in output
    assert "ID001" in output


def test_tree_under_a_dot_directory_is_linted(tmp_path, capsys):
    """Only the components below a directory argument can hide a file."""
    work = tmp_path / ".work"
    bad = work / "bad.py"
    for path in (bad, work / ".venv" / "vendored.py", work / "__pycache__" / "x.py"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("import random\n", encoding="utf-8")
    for target in (work, bad):
        assert main([str(target), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert [(f["path"], f["rule"]) for f in document["findings"]] == [
            (bad.as_posix(), "RNG001")
        ]


def test_cli_import_leaves_the_checked_runtime_unloaded():
    """The linter must not import numpy or the runtime it checks."""
    script = (
        "import sys, repro.lint.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
        " or m == 'repro.runtime' or m.startswith('repro.runtime.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
