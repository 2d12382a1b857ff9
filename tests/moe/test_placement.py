"""Tests of the versioned expert→worker placement map."""

import numpy as np
import pytest

from repro.moe import (
    ExpertParallelGroup,
    ExpertPlacement,
    MoELayer,
    expert_param_bytes,
    reshard_moves,
    reshard_traffic,
)
from repro.nn import Tensor


def test_contiguous_matches_historical_owner_arithmetic():
    pl = ExpertPlacement.contiguous(8, 4)
    assert pl.owners == (0, 0, 1, 1, 2, 2, 3, 3)
    assert pl.version == 0
    assert pl.experts_of(2) == (4, 5)
    assert pl.counts() == (2, 2, 2, 2)


def test_contiguous_requires_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        ExpertPlacement.contiguous(8, 3)


def test_arbitrary_placement_validation():
    pl = ExpertPlacement(4, 3, owners=(2, 0, 2, 1), version=7)
    assert pl.experts_of(2) == (0, 2)
    assert pl.counts() == (1, 1, 2)
    with pytest.raises(ValueError):
        ExpertPlacement(4, 3, owners=(0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        ExpertPlacement(4, 3, owners=(0, 1, 2, 3))  # owner out of range
    with pytest.raises(ValueError):
        ExpertPlacement(4, 3, owners=(0, 0, 0, 0), version=-1)


def _layer():
    return MoELayer(8, 16, 4, np.random.default_rng(0))


def _gate_output():
    layer = _layer()
    layer(Tensor(np.random.default_rng(1).standard_normal((6, 8))))
    return layer.last_gate_output


#: Every boundary that takes an expert or worker id from a caller,
#: called with the one id ``i``.
ID_BOUNDARIES = {
    "MoELayer.set_dead_experts": lambda i: _layer().set_dead_experts([i]),
    "ExpertParallelGroup.set_dead_workers": (
        lambda i: ExpertParallelGroup(_layer(), 4).set_dead_workers({i})
    ),
    "ExpertPlacement.owners": (
        lambda i: ExpertPlacement(4, 4, owners=(0, i, 2, 3))
    ),
    "ExpertPlacement.with_workers_removed": (
        lambda i: ExpertPlacement.contiguous(4, 4).with_workers_removed({i})
    ),
    "GateOutput.with_experts_dropped": (
        lambda i: _gate_output().with_experts_dropped([i])
    ),
}


@pytest.mark.parametrize("boundary", sorted(ID_BOUNDARIES))
def test_ids_are_checked_as_integers(boundary):
    """numpy integers pass; a float raises instead of truncating."""
    call = ID_BOUNDARIES[boundary]
    call(np.int64(1))
    for bad in (1.5, 1.0, np.float64(1.0)):
        with pytest.raises(TypeError, match="must be an integer"):
            call(bad)
    with pytest.raises(ValueError, match="out of range"):
        call(4)


def test_owner_array_is_readonly():
    pl = ExpertPlacement.contiguous(4, 2)
    arr = pl.owner_array
    assert arr.dtype == np.int64
    with pytest.raises(ValueError):
        arr[0] = 1


def test_workers_removed_adopts_to_least_loaded_survivor():
    pl = ExpertPlacement.contiguous(8, 4)
    survived = pl.with_workers_removed({1})
    # Worker count unchanged; the dead worker just owns nothing.
    assert survived.num_workers == 4
    assert survived.experts_of(1) == ()
    assert survived.version == 1
    # Experts 2, 3 adopted one-by-one ascending, each to the least
    # loaded survivor with ties broken by lowest worker id.
    assert survived.owners == (0, 0, 0, 2, 2, 2, 3, 3)
    # Only the lost experts moved.
    assert reshard_moves(pl, survived) == ((2, 1, 0), (3, 1, 2))


def test_workers_removed_is_deterministic_and_order_free():
    pl = ExpertPlacement(8, 4, owners=(3, 0, 2, 0, 1, 3, 0, 2))
    a = pl.with_workers_removed({0, 2})
    b = pl.with_workers_removed({2, 0})
    assert a == b
    assert a.experts_of(0) == () and a.experts_of(2) == ()
    assert sorted(a.counts())[-1] - sorted(a.counts())[0] <= len(
        [e for e in range(8) if pl.owners[e] in (0, 2)]
    )


def test_removing_all_workers_raises():
    pl = ExpertPlacement.contiguous(4, 2)
    with pytest.raises(ValueError):
        pl.with_workers_removed({0, 1})


def test_worker_added_takes_fair_share_from_most_loaded():
    pl = ExpertPlacement.contiguous(8, 4)
    grown = pl.with_worker_added()
    assert grown.num_workers == 5
    assert grown.version == 1
    # 8 // 5 = 1 expert moves, from the most-loaded donor's high end.
    moves = reshard_moves(pl, grown)
    assert len(moves) == 1
    assert all(dst == 4 for _, _, dst in moves)
    assert len(grown.experts_of(4)) == 1


def test_reshard_traffic_accounting():
    old = ExpertPlacement.contiguous(8, 4)
    new = old.with_workers_removed({1})
    moves = reshard_moves(old, new)
    bpe = expert_param_bytes(16, 24)
    assert bpe == 4 * (16 * 24 + 24 + 24 * 16 + 16)
    traffic = reshard_traffic(moves, bpe, new.num_workers)
    assert traffic["total_bytes"] == len(moves) * bpe
    # Worker 1 sends both lost experts; no receiver gets more than one,
    # so the busiest endpoint is the sender.
    assert traffic["per_gpu_bytes"] == 2 * bpe
    # No moves, no traffic.
    empty = reshard_traffic((), bpe, 4)
    assert empty["total_bytes"] == 0 and empty["per_gpu_bytes"] == 0


def test_bump_only_changes_version():
    pl = ExpertPlacement.contiguous(8, 4, version=3)
    bumped = pl.bump()
    assert bumped.version == 4
    assert bumped.owners == pl.owners
    assert reshard_moves(pl, bumped) == ()
