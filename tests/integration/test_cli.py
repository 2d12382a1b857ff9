"""Smoke tests of the command-line interface."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.cluster import paper_testbed
from repro.core import ScheMoELayer
from repro.core.trace import export_schedule_trace
from repro.systems import faults, planner, recovery
from repro.systems.tables import TABLES

OUT_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "out"

#: A cell each table's shape depends on (FasterMoE and 1DH run OOM).
TABLE_MARKERS = {
    "table1": ["Ratio(%)"],
    "table7": ["Tutel(ms)", "FasterMoE(ms)", "ScheMoE(ms)"],
    "table8": ["Faster-MoE          OOM"],
    "table10": ["Naive", "ScheMoE-Z ", "ScheMoE-ZP", "ScheMoE "],
    "fig9": ["nccl(ms)", "pipe(ms)", "OOM"],
}


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table7" in out and "ScheMoE" in out


@pytest.mark.parametrize("command", sorted(TABLES))
def test_table_prints_the_bench_sidecar(command, capsys):
    """`repro <table>` prints exactly the lines its bench committed."""
    assert main([command]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads(
        (OUT_DIR / f"{TABLES[command].sidecar}.json").read_text()
    )
    assert out.splitlines() == sidecar["lines"]
    assert all(marker in out for marker in TABLE_MARKERS[command])


def test_a2a_measurement(capsys):
    assert main(["a2a", "--algo", "pipe", "--size", "1e6"]) == 0
    out = capsys.readouterr().out
    assert "busbw" in out


def test_a2a_oom_exit_code(capsys):
    assert main(["a2a", "--algo", "1dh", "--size", "2e9"]) == 1
    assert "OOM" in capsys.readouterr().out


def test_step_breakdown(capsys):
    assert main(
        ["step", "--model", "ct_moe", "--layers", "12", "--policy", "ScheMoE"]
    ) == 0
    out = capsys.readouterr().out
    assert "ms/step" in out and "allreduce" in out


def test_step_oom(capsys):
    assert main(
        ["step", "--model", "bert_large_moe", "--policy", "Faster-MoE"]
    ) == 1
    assert "OOM" in capsys.readouterr().out


def test_trace_export(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(
        ["trace", "--out", str(out_path), "--model-dim", "64",
         "--hidden-dim", "128", "--batch", "2", "--seq", "64"]
    ) == 0
    payload = json.loads(out_path.read_text())
    assert payload["traceEvents"]
    # The exported schedule is the one ScheMoELayer.plan returns.
    layer = ScheMoELayer(64, 128, 32, np.random.default_rng(0), partitions=2)
    plan = layer.plan(paper_testbed(), batch_per_gpu=2, seq_len=64)
    assert out_path.read_text() == export_schedule_trace(plan.forward)


def test_trace_allocates_no_expert_weights(tmp_path):
    """At its default dims `repro trace` only prices the layer's shape.

    Building the numerical layer would allocate 32 experts of
    1024x4096 fp32 weights, about 1 GiB.
    """
    tracemalloc.start()
    try:
        assert main(["trace", "--out", str(tmp_path / "trace.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_alternate_cluster(capsys):
    assert main(["--cluster", "ethernet_cluster", "table1"]) == 0
    out = capsys.readouterr().out
    assert "%" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_faults_prints_the_bench_sidecar(capsys):
    """`repro faults` prints exactly the faults bench's lines."""
    assert main(["faults"]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads((OUT_DIR / "ablation_faults.json").read_text())
    assert out.splitlines() == sidecar["lines"]


def test_faults_exits_1_when_a_check_fails(monkeypatch, capsys):
    def shrinking(spec):
        # A straggler that speeds the layer up breaks monotonicity.
        return [
            {"scheduler": "optsche", "a2a": "pipe", "slowdown": s,
             "makespan_s": m, "degradation": m}
            for s, m in ((1.0, 1.0), (2.0, 0.5))
        ]

    monkeypatch.setattr(faults, "_straggler_grid", shrinking)
    assert main(["faults"]) == 1
    out = capsys.readouterr().out
    assert "FAILED: degradation_monotone_in_slowdown" in out
    assert "FAILED: transient_retries_observed" not in out


def test_plan_prints_the_bench_sidecar(capsys):
    """`repro plan` prints exactly the planner bench's lines."""
    assert main(["plan"]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads((OUT_DIR / "planner.json").read_text())
    assert out.splitlines() == sidecar["lines"]
    assert sidecar["data"]["recommendation"]["layer"]["dispatch_mode"] == (
        "sparse"
    )


def test_plan_exits_1_when_a_check_fails(monkeypatch, capsys):
    # Validating the whole grid leaves nothing for the analytic stage
    # to save.
    monkeypatch.setattr(planner, "TOP_K", planner.GRID.size)
    assert main(["plan"]) == 1
    out = capsys.readouterr().out
    assert "FAILED: simulated_fewer_than_grid" in out
    assert "FAILED: regret_within_5pct" not in out


def test_plan_on_another_cluster(capsys):
    assert main(["--cluster", "nvlink_dgx", "plan"]) == 0
    assert "on dgx-4x8-a100-nvlink" in capsys.readouterr().out


def test_reshard_prints_the_bench_sidecar(capsys):
    """`repro reshard` prints exactly the recovery bench's lines."""
    assert main(["reshard"]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads((OUT_DIR / "ablation_recovery.json").read_text())
    assert out.splitlines() == sidecar["lines"]


def test_reshard_exits_1_when_a_parity_check_fails(monkeypatch, capsys):
    real = recovery._parity_study

    def broken():
        parity = real()
        parity["checks"]["recovered_matches_fresh_group"] = False
        return parity

    monkeypatch.setattr(recovery, "_parity_study", broken)
    assert main(["reshard"]) == 1
    assert "recovered_matches_fresh_group            False" in (
        capsys.readouterr().out
    )


def test_reshard_on_another_cluster(capsys):
    assert main(["--cluster", "nvlink_dgx", "reshard"]) == 0
    assert "on the 3 surviving nodes" in capsys.readouterr().out


def test_recovery_study_rejects_a_one_node_cluster():
    with pytest.raises(ValueError, match="no survivors"):
        recovery.run_recovery_study(paper_testbed(num_nodes=1))


@pytest.mark.parametrize("codec", ["zfp", ""])
def test_pipeline_reports_wire_bytes(capsys, codec):
    assert main(
        ["pipeline", "--tokens", "128", "--experts", "8", "--model-dim",
         "64", "--hidden-dim", "64", "--link-gbps", "0",
         "--compressor", codec]
    ) == 0
    out = capsys.readouterr().out
    assert "outputs bit-identical: True" in out
    assert "within 1%: True" in out
    assert "single timed sample" in out
    assert "benchmarks/bench_hotpath.py" in out


def test_infer_reports_a_single_sample(capsys):
    assert main(
        ["infer", "--tokens", "64", "--experts", "4", "--model-dim", "16",
         "--hidden-dim", "16"]
    ) == 0
    out = capsys.readouterr().out
    assert "outputs bit-identical: True" in out
    assert "no new misses after warmup): True" in out
    assert "single timed sample" in out
