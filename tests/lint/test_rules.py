"""Each fixture under ``fixtures/`` triggers exactly its intended rule."""

from collections import Counter
from pathlib import Path

import pytest

from repro.lint import lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture path (relative to FIXTURES) -> expected {rule_id: count}.
BAD_FIXTURES = {
    "rng/bad_import_random.py": {"RNG001": 2},
    "rng/bad_np_global.py": {"RNG002": 3},
    "rng/bad_unseeded.py": {"RNG003": 2},
    "mno/bad_wallclock.py": {"TIME001": 4},
    "analysis/bad_float_eq.py": {"FLT001": 2},
    "ident/bad_slicing.py": {"ID001": 3},
    "hygiene/bad_mutable_default.py": {"DEF001": 3},
    "hygiene/bad_excepts.py": {"EXC001": 2},
    "hygiene/bad_config.py": {"CFG001": 2},
    "platform_m2m/bad_adhoc_retry.py": {"RETRY001": 2},
    "perf/bad_process_pool.py": {"PERF001": 4},
    "durability/bad_torn_writes.py": {"DUR001": 4},
    "durability/bad_wrapper_write.py": {"DUR001": 3},
    "noqa/unused.py": {"NOQA001": 2},
    "broken/bad_syntax.py": {"SYNTAX001": 1},
    "det/bad_set_iteration.py": {"DET001": 4},
    "det/bad_hash_order.py": {"DET002": 4},
    "det/bad_float_accumulation.py": {"DET003": 3},
    "seam/bad_seam_capture.py": {"SEAM001": 3},
    "seam/bad_worker_global.py": {"SEAM002": 2},
    "service/bad_async_hygiene.py": {"SVC001": 7, "FS001": 1},
    "runtime/bad_unrouted_writes.py": {"FS001": 5},
}

GOOD_FIXTURES = [
    "rng/good_seeded.py",
    "mno/good_simclock.py",
    "analysis/good_float_eq.py",
    "ident/good_helpers.py",
    "hygiene/good_hygiene.py",
    "platform_m2m/good_policy_retry.py",
    "parallel/good_pool_seam.py",
    "durability/good_atomic_writes.py",
    "durability/good_atomic_wrapper.py",
    "noqa/suppressed.py",
    "det/good_sorted_iteration.py",
    "det/good_stable_order.py",
    "det/good_float_accumulation.py",
    "det/noqa_set_iteration.py",
    "seam/good_seam_capture.py",
    "seam/good_worker_global.py",
    "seam/noqa_worker_global.py",
    "service/good_async_hygiene.py",
    "runtime/good_storage_writes.py",
]


@pytest.mark.parametrize("relpath", sorted(BAD_FIXTURES))
def test_bad_fixture_triggers_exactly_its_rule(relpath):
    findings = lint_file(FIXTURES / relpath)
    observed = Counter(f.rule_id for f in findings)
    assert dict(observed) == BAD_FIXTURES[relpath]


@pytest.mark.parametrize("relpath", GOOD_FIXTURES)
def test_good_fixture_is_clean(relpath):
    findings = lint_file(FIXTURES / relpath)
    assert findings == []


def test_every_fixture_is_accounted_for():
    on_disk = {
        p.relative_to(FIXTURES).as_posix()
        for p in FIXTURES.rglob("*.py")
    }
    assert on_disk == set(BAD_FIXTURES) | set(GOOD_FIXTURES)


def test_api_drift_detected(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(
        "# API reference\n\n- `documented_fn(x)` — does things.\n",
        encoding="utf-8",
    )
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    init = pkg / "__init__.py"
    init.write_text(
        '"""Pkg."""\n\n__all__ = ["documented_fn", "ghost_fn"]\n',
        encoding="utf-8",
    )
    findings = lint_file(init)
    assert [f.rule_id for f in findings] == ["API001"]
    assert "ghost_fn" in findings[0].message


def test_api_drift_silent_without_api_md(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text('"""Pkg."""\n\n__all__ = ["ghost_fn"]\n', encoding="utf-8")
    assert lint_file(init) == []


def test_identifier_slicing_allowed_in_identifiers_module():
    source = "def f(plmn: str) -> str:\n    return plmn[:3]\n"
    allowed = lint_source(source, path="src/repro/cellular/identifiers.py")
    banned = lint_source(source, path="src/repro/cellular/geo.py")
    assert allowed == []
    assert [f.rule_id for f in banned] == ["ID001"]


def test_wall_clock_allowed_outside_simulators():
    source = "import time\n\n\ndef f() -> float:\n    return time.time()\n"
    outside = lint_source(source, path="src/repro/analysis/report.py")
    inside = lint_source(source, path="src/repro/signaling/probes.py")
    assert outside == []
    assert [f.rule_id for f in inside] == ["TIME001"]


def test_seeded_default_rng_is_clean():
    source = (
        "import numpy as np\n\n\n"
        "def f(seed: int):\n    return np.random.default_rng(seed)\n"
    )
    assert lint_source(source, path="src/repro/mno/x.py") == []
