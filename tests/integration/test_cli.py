"""Smoke tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, main
from repro.cluster import paper_testbed
from repro.systems import faults, pipeline, planner, recovery
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


def test_alternate_cluster(capsys):
    assert main(["--cluster", "ethernet_cluster", "table1"]) == 0
    out = capsys.readouterr().out
    assert "%" in out


def test_commands_take_no_flags():
    """Every command is a fixed study: `--cluster` is the only option."""
    for command in COMMANDS:
        with pytest.raises(SystemExit):
            main([command, "--tokens", "64"])


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


def test_reshard_names_a_failed_check(monkeypatch, capsys):
    real = recovery._pricing_study

    def free_reshard(spec):
        pricing = real(spec)
        pricing["reshard_s"] = 0.0
        return pricing

    monkeypatch.setattr(recovery, "_pricing_study", free_reshard)
    assert main(["reshard"]) == 1
    out = capsys.readouterr().out
    assert "FAILED: reshard_priced_positive" in out
    assert "FAILED: all_parity_checks_pass" not in out


def test_pipeline_prints_the_bench_sidecar(capsys):
    """`repro pipeline` prints exactly the pipeline bench's lines."""
    assert main(["pipeline"]) == 0
    out = capsys.readouterr().out
    sidecar = json.loads((OUT_DIR / "pipeline.json").read_text())
    assert out.splitlines() == sidecar["lines"]


def test_pipeline_exits_1_when_a_check_fails(monkeypatch, capsys):
    # A codec that claims twice its real ratio makes every cell's wire
    # bytes miss the nominal count; the outputs stay bit-identical.
    real = pipeline.get_compressor

    def boastful(name):
        codec = real(name)
        nominal = codec.compressed_bytes
        codec.compressed_bytes = lambda nbytes: nominal(nbytes) / 2
        return codec

    monkeypatch.setattr(pipeline, "get_compressor", boastful)
    monkeypatch.setattr(pipeline, "SCHEDULERS", ("optsche",))
    monkeypatch.setattr(pipeline, "NUM_CHUNKS", (2,))
    assert main(["pipeline"]) == 1
    out = capsys.readouterr().out
    assert "FAILED: optsche.r2.bytes_within_1pct" in out
    assert "FAILED: optsche.r2.bit_identical" not in out



@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_cluster_is_a_usage_error(command, capsys):
    """Every subcommand rejects an unknown preset before it runs, with
    a usage line that names the presets."""
    with pytest.raises(SystemExit) as exc:
        main(["--cluster", "bogus", command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro")
    assert "invalid choice: 'bogus'" in err
    for preset in ("ethernet_cluster", "nvlink_dgx", "paper_testbed"):
        assert preset in err
