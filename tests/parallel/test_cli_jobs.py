"""The CLI's --jobs flag routes through the sharded pipeline."""

import argparse

import pytest

from repro.cli import _jobs_arg, build_parser, main
from repro.pipeline import AUTO_PARALLEL_MIN_ROWS, resolve_workers


def test_classify_with_jobs_matches_serial(capsys):
    args = ["classify", "--devices", "60", "--seed", "7"]
    assert main(["--jobs", "2"] + args) == 0
    sharded_out = capsys.readouterr().out
    assert main(args) == 0
    serial_out = capsys.readouterr().out
    assert sharded_out == serial_out
    assert "class shares:" in sharded_out


def test_jobs_flag_default_is_auto():
    args = build_parser().parse_args(["classify"])
    assert args.jobs == "auto"


def test_jobs_arg_parsing():
    assert _jobs_arg("3") == 3
    assert _jobs_arg("auto") == "auto"
    with pytest.raises(argparse.ArgumentTypeError):
        _jobs_arg("fast")


# -- resolve_workers ---------------------------------------------------------

def test_resolve_workers_passthrough_and_validation():
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    with pytest.raises(ValueError):
        resolve_workers(0)
    with pytest.raises(ValueError):
        resolve_workers("fast")


def test_resolve_workers_auto_serial_on_small_boxes(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert resolve_workers("auto", n_rows=10 * AUTO_PARALLEL_MIN_ROWS) == 1


def test_resolve_workers_auto_serial_on_small_inputs(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert resolve_workers("auto", n_rows=AUTO_PARALLEL_MIN_ROWS - 1) == 1


def test_resolve_workers_auto_parallel_capped_at_four(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 16)
    assert resolve_workers("auto", n_rows=AUTO_PARALLEL_MIN_ROWS) == 4
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert resolve_workers("auto", n_rows=AUTO_PARALLEL_MIN_ROWS) == 3
    # Unknown row count on a big box: trust the cores.
    assert resolve_workers("auto") == 3
