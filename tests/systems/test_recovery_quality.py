"""Tests of the recovery quality study (degraded vs restored training).

The committed study trains 450 steps at eight seeds; these tests run
the same code on a 12-step schedule, so they check its mechanics (the
fork, the branches, the pool), not its numbers.
"""

import pytest

from repro.systems import recovery
from repro.training.convergence import _lm_model, default_lm_corpus
from repro.training.trainer import train_lm


@pytest.fixture
def short_schedule(monkeypatch):
    monkeypatch.setattr(recovery, "STEPS", 12)
    monkeypatch.setattr(recovery, "CHECKPOINT_STEP", 4)
    monkeypatch.setattr(recovery, "KILL_STEP", 7)


def test_healthy_branch_equals_an_unforked_run(short_schedule):
    """Forking after the kill step perturbs nothing: the healthy branch
    is Table 6's ``train_lm`` run, bit for bit."""
    corpus = default_lm_corpus()
    unforked = train_lm(
        _lm_model("MoE", corpus, seed=1), corpus, steps=12,
        batch_size=recovery.BATCH_SIZE, lr=recovery.LR, seed=1,
        eval_batches=recovery.EVAL_BATCHES,
    ).metric
    run = recovery._quality_run(1)
    assert run["healthy"] == unforked
    # Every branch changed something the healthy one did not.
    assert len(set(run.values())) == len(recovery.BRANCHES)


def test_pool_matches_a_serial_run_in_seed_order(short_schedule, monkeypatch):
    monkeypatch.setattr(recovery, "SEEDS", (2, 0))
    monkeypatch.setattr(recovery, "default_processes", lambda: 2)
    report = recovery.run_quality_study()
    serial = [recovery._quality_run(seed) for seed in (2, 0)]
    assert report["perplexity"] == {
        b: [run[b] for run in serial] for b in recovery.BRANCHES
    }
    assert report["seeds"] == [2, 0]


def _runs(degraded, restore):
    return [
        {"healthy": 1.0, "degraded": d, "restore": r, "reinit": r}
        for d, r in zip(degraded, restore)
    ]


def test_check_compares_the_median_gap_with_the_larger_iqr():
    # degraded: median 3.0, IQR 1.0; restore: median 1.5, IQR 0.5.
    report = recovery._summarize(
        _runs([2.0, 2.5, 3.0, 3.5, 4.0], [1.0, 1.25, 1.5, 1.75, 2.0])
    )
    assert report["acceptance"] == {
        "restore_beats_degraded": True,
        "reinit_beats_degraded": True,
    }
    assert report["quartiles"]["degraded"] == [2.5, 3.0, 3.5]
    assert report["restore_minus_reinit_median"] == 0.0
    assert report["restore_lower_seeds"] == 0
    # A gap no wider than the spread is not a win.
    report = recovery._summarize(
        _runs([2.0, 2.5, 3.0, 3.5, 4.0], [1.0, 1.5, 2.0, 2.5, 3.0])
    )
    assert recovery.failed_checks(report) == [
        "restore_beats_degraded", "reinit_beats_degraded",
    ]


def test_render_quality_shows_every_seed_and_check(
    short_schedule, monkeypatch
):
    monkeypatch.setattr(recovery, "SEEDS", (0, 3))
    report = recovery.run_quality_study()
    lines = recovery.render_quality(report).splitlines()
    assert lines[0] == (
        "Table 6 LM, 12 steps: experts [2, 3] die in every MoE layer "
        "after step 7; restore reads the step-4 checkpoint"
    )
    seed, *row = lines[4].split()
    assert int(seed) == 3
    assert [float(x) for x in row] == [
        round(report["perplexity"][b][1], 5) for b in recovery.BRANCHES
    ]
    ok = report["acceptance"]["restore_beats_degraded"]
    assert lines[-2].split() == ["restore_beats_degraded", str(ok)]
