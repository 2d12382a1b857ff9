"""The benches' ``--tiny`` smoke runs print their block and save nothing.

A smoke run must never replace a committed full-mode output under
``benchmarks/out/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.mark.parametrize("bench", ["bench_hotpath"])
def test_tiny_run_writes_nothing(bench, monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    util = importlib.import_module("_util")
    monkeypatch.setattr(util, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "argv", [bench, "--tiny"])
    importlib.import_module(bench).main()
    assert "=====" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
