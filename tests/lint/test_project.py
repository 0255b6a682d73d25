"""Whole-program index: call graph, seams, and the writer fixpoint."""

import ast
from pathlib import Path

from repro.lint import (
    ModuleIndex,
    ProjectIndex,
    build_module_index,
    lint_file,
    lint_paths,
    module_name_for,
)


def _shard(root: Path, name: str, source: str) -> ModuleIndex:
    """Write ``repro/<name>.py`` under ``root`` and build its shard."""
    path = root / "repro" / f"{name}.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return build_module_index(path, ast.parse(source))


class TestModuleNames:
    def test_anchors_at_the_repro_package(self):
        assert module_name_for("src/repro/core/catalog.py") == "repro.core.catalog"
        assert module_name_for("/abs/src/repro/lint/cli.py") == "repro.lint.cli"

    def test_package_init_maps_to_the_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_paths_outside_the_package_stay_stable(self):
        assert module_name_for("tools/gen_api_docs.py") == "tools.gen_api_docs"


class TestCallGraph:
    def test_serialized_reachable_crosses_modules(self, tmp_path):
        alpha = _shard(
            tmp_path,
            "alpha",
            "def gather(items):\n"
            "    return [x for x in items]\n"
            "\n"
            "def untouched(items):\n"
            "    return items\n",
        )
        omega = _shard(
            tmp_path,
            "omega",
            "import json\n"
            "from repro.alpha import gather\n"
            "\n"
            "def render_json(items):\n"
            "    return json.dumps(gather(items))\n",
        )
        project = ProjectIndex([alpha, omega])
        assert "repro.omega.render_json" in project.serialized_reachable
        assert "repro.alpha.gather" in project.serialized_reachable
        assert "repro.alpha.untouched" not in project.serialized_reachable

    def test_worker_discovery_crosses_modules(self, tmp_path):
        alpha = _shard(tmp_path, "alpha", "def work(shard):\n    return len(shard)\n")
        omega = _shard(
            tmp_path,
            "omega",
            "from repro.alpha import work\n"
            "from repro.parallel.pool import map_shards\n"
            "\n"
            "def run(shards):\n"
            "    return map_shards(work, shards, n_workers=2)\n",
        )
        project = ProjectIndex([alpha, omega])
        assert "repro.alpha.work" in project.worker_functions

    def test_raw_writer_fixpoint_follows_wrapper_chains(self, tmp_path):
        alpha = _shard(
            tmp_path,
            "alpha",
            "def save(path, text):\n"
            "    path.write_text(text)\n",
        )
        omega = _shard(
            tmp_path,
            "omega",
            "from repro.alpha import save\n"
            "\n"
            "def persist(path, text):\n"
            "    save(path, text)\n",
        )
        writers = ProjectIndex([alpha, omega]).raw_writer_params
        assert writers["repro.alpha.save"] == {0}
        assert writers["repro.omega.persist"] == {0}

    def test_mutated_globals_cross_module_boundaries(self, tmp_path):
        alpha = _shard(tmp_path, "alpha", "_CACHE = {}\n")
        omega = _shard(
            tmp_path,
            "omega",
            "from repro.alpha import _CACHE\n"
            "\n"
            "def poke():\n"
            "    _CACHE['k'] = 1\n",
        )
        project = ProjectIndex([alpha, omega])
        assert "repro.alpha._CACHE" in project.mutable_globals
        assert "repro.alpha._CACHE" in project.mutated_globals


class TestInterproceduralLint:
    def test_det001_needs_the_whole_program(self, tmp_path):
        """The helper alone is clean; with its caller it is a finding."""
        src = tmp_path / "repro"
        src.mkdir()
        helper = src / "alpha.py"
        helper.write_text(
            "def gather(items):\n"
            "    return [x for x in set(items)]\n",
            encoding="utf-8",
        )
        (src / "omega.py").write_text(
            "import json\n"
            "from repro.alpha import gather\n"
            "\n"
            "def render_json(items):\n"
            "    return json.dumps(gather(items))\n",
            encoding="utf-8",
        )
        assert lint_file(helper) == []  # not reachable in isolation
        result = lint_paths([src])
        assert [(f.rule_id, Path(f.path).name) for f in result.findings] == [
            ("DET001", "alpha.py")
        ]

    def test_seam002_needs_the_whole_program(self, tmp_path):
        src = tmp_path / "repro"
        src.mkdir()
        worker = src / "alpha.py"
        worker.write_text(
            "_CACHE = {}\n"
            "\n"
            "def work(shard):\n"
            "    return _CACHE.get(shard)\n",
            encoding="utf-8",
        )
        (src / "omega.py").write_text(
            "from repro.alpha import _CACHE, work\n"
            "from repro.parallel.pool import map_shards\n"
            "\n"
            "def run(shards):\n"
            "    _CACHE['runs'] = 1\n"
            "    return map_shards(work, shards, n_workers=2)\n",
            encoding="utf-8",
        )
        assert lint_file(worker) == []  # no seam, no mutation in isolation
        result = lint_paths([src])
        assert [(f.rule_id, Path(f.path).name) for f in result.findings] == [
            ("SEAM002", "alpha.py")
        ]
