"""Tests of elastic recovery: detect → adopt → re-instantiate → rebalance."""

import numpy as np
import pytest

from repro.collectives import get_a2a, measure_a2a
from repro.faults.recovery import RecoveryController, price_reshard
from repro.moe import ExpertPlacement, MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.moe.placement import expert_param_bytes, reshard_traffic
from repro.nn import Tensor, xavier_uniform
from repro.nn.serialization import save_checkpoint

NUM_EXPERTS = 8
NUM_WORKERS = 4


def make_layer(seed=0):
    return MoELayer(
        model_dim=16,
        hidden_dim=24,
        num_experts=NUM_EXPERTS,
        rng=np.random.default_rng(seed),
        top_k=2,
        # cf >= E/k: no drops, the precondition for exact parity.
        capacity_factor=NUM_EXPERTS / 2.0,
    ).eval()


@pytest.fixture
def tokens(rng):
    return rng.standard_normal((32, 16)).astype(np.float32)


def shards_of(tokens):
    return list(np.split(tokens, NUM_WORKERS))


def test_recover_from_checkpoint_is_bit_exact(tmp_path, tokens):
    layer = make_layer()
    group = ExpertParallelGroup(layer, NUM_WORKERS)
    shards = shards_of(tokens)
    healthy = group.forward_concatenated(shards)
    ck = tmp_path / "healthy.npz"
    save_checkpoint(layer, ck)

    group.set_dead_workers({1})
    degraded = group.forward_concatenated(shards)
    assert not np.array_equal(degraded, healthy)

    ctrl = RecoveryController(group, checkpoint=ck)
    event = ctrl.recover()
    assert event.kind == "recover"
    assert event.source == "checkpoint"
    assert event.dead_workers == (1,)
    assert event.adopted_experts == (2, 3)
    assert event.old_version == 0 and event.new_version == 1
    assert group.placement.version == 1
    assert not group.dead_workers
    assert group.placement.experts_of(1) == ()

    recovered = group.forward_concatenated(shards)
    # Checkpoint restore: the exact pre-kill parameters came back.
    np.testing.assert_array_equal(recovered, healthy)
    # The recovery parity guarantee: bit-identical to a freshly built
    # group on the same placement.
    fresh = ExpertParallelGroup(
        layer, NUM_WORKERS, placement=group.placement
    ).forward_concatenated(shards)
    np.testing.assert_array_equal(recovered, fresh)
    # ... in both pipeline modes.
    overlap = ExpertParallelGroup(
        layer, NUM_WORKERS, pipeline="overlap", num_chunks=2,
        placement=group.placement,
    ).forward_concatenated(shards)
    np.testing.assert_array_equal(recovered, overlap)
    # ... and to the single-process layer itself.
    np.testing.assert_array_equal(recovered, layer(Tensor(tokens)).data)


def test_recover_from_a_checkpoint_path_without_suffix(tmp_path, tokens):
    """``checkpoint=`` takes the path given to ``save_checkpoint``, with
    or without its ``.npz`` suffix."""
    layer = make_layer()
    group = ExpertParallelGroup(layer, NUM_WORKERS)
    shards = shards_of(tokens)
    healthy = group.forward_concatenated(shards)
    save_checkpoint(layer, tmp_path / "ckpt")
    group.set_dead_workers({1})
    event = RecoveryController(group, checkpoint=tmp_path / "ckpt").recover()
    assert event.source == "checkpoint"
    np.testing.assert_array_equal(group.forward_concatenated(shards), healthy)


def test_recover_by_seeded_reinit_is_deterministic(tokens):
    def run():
        layer = make_layer()
        group = ExpertParallelGroup(layer, NUM_WORKERS)
        group.set_dead_workers({1})
        ctrl = RecoveryController(group, reinit_seed=7)
        event = ctrl.recover()
        return layer, event, group.forward_concatenated(shards_of(tokens))

    layer_a, event_a, out_a = run()
    _, _, out_b = run()
    assert event_a.source == "reinit"
    np.testing.assert_array_equal(out_a, out_b)
    # The documented semantics: expert e is drawn from
    # default_rng((reinit_seed, new_version, e)) exactly as the
    # constructor draws one expert — fc1 xavier, fc2 xavier, zero bias.
    rng = np.random.default_rng((7, 1, 2))
    np.testing.assert_array_equal(
        layer_a.experts.w1.data[2], xavier_uniform(rng, 16, 24)
    )
    np.testing.assert_array_equal(
        layer_a.experts.w2.data[2], xavier_uniform(rng, 24, 16)
    )
    assert np.all(layer_a.experts.b1.data[2] == 0)
    assert np.all(layer_a.experts.b2.data[2] == 0)
    # Untouched experts keep their original parameters.
    pristine = make_layer()
    np.testing.assert_array_equal(
        layer_a.experts.w1.data[0], pristine.experts.w1.data[0]
    )


def test_recover_without_dead_workers_raises():
    group = ExpertParallelGroup(make_layer(), NUM_WORKERS)
    with pytest.raises(ValueError, match="no dead workers"):
        RecoveryController(group).recover()


def test_repeated_failures_never_use_retired_ranks(tokens):
    group = ExpertParallelGroup(make_layer(), NUM_WORKERS)
    ctrl = RecoveryController(group, reinit_seed=3)
    group.set_dead_workers({1})
    ctrl.recover()
    group.set_dead_workers({0})
    event = ctrl.recover()
    assert ctrl.retired == frozenset({0, 1})
    assert group.placement.experts_of(0) == ()
    assert group.placement.experts_of(1) == ()
    # All experts live on the two remaining survivors.
    assert sum(len(group.placement.experts_of(w)) for w in (2, 3)) == 8
    assert event.new_version == 2
    out = group.forward_concatenated(shards_of(tokens))
    fresh = ExpertParallelGroup(
        group.layer, NUM_WORKERS, placement=group.placement
    ).forward_concatenated(shards_of(tokens))
    np.testing.assert_array_equal(out, fresh)


def test_scale_up_moves_experts_without_changing_outputs(tokens):
    layer = make_layer()
    group = ExpertParallelGroup(layer, NUM_WORKERS)
    shards = shards_of(tokens)
    before = group.forward_concatenated(shards)
    ctrl = RecoveryController(group)
    event = ctrl.scale_up()
    assert event.kind == "scale-up"
    assert event.source == "move"
    assert group.num_workers == NUM_WORKERS + 1
    assert len(group.placement.experts_of(NUM_WORKERS)) == (
        NUM_EXPERTS // (NUM_WORKERS + 1)
    )
    # Parameters only moved; the math is unchanged.  The new worker
    # contributes an empty token shard.
    after = group.forward_concatenated(shards + [tokens[:0]])
    np.testing.assert_array_equal(after, before)


def test_scale_up_with_dead_workers_raises():
    group = ExpertParallelGroup(make_layer(), NUM_WORKERS)
    group.set_dead_workers({2})
    with pytest.raises(RuntimeError, match="recover"):
        RecoveryController(group).scale_up()


def test_admit_worker_refuses_a_degraded_group():
    """Admitting a rank around a dead worker would hand the dead
    worker's experts to the new rank with nothing restored."""
    group = ExpertParallelGroup(
        make_layer(),
        3,
        placement=ExpertPlacement(
            NUM_EXPERTS, 3, owners=(0, 1, 1, 1, 1, 2, 2, 0)
        ),
    )
    group.set_dead_workers({1})
    placement = group.placement
    with pytest.raises(RuntimeError, match="recover them first"):
        group.admit_worker()
    assert group.num_workers == 3
    assert group.placement is placement
    assert group.dead_experts == frozenset({1, 2, 3, 4})


def test_rejected_checkpoint_leaves_the_group_untouched(tmp_path):
    """Recovery reads a checkpoint of the group's own layer and checks
    it against the live layer before any group state changes."""
    from repro.models import TransformerLM

    layer = make_layer()
    group = ExpertParallelGroup(layer, NUM_WORKERS)
    ctrl = RecoveryController(group, reinit_seed=5)
    group.set_dead_workers({0})
    ctrl.recover()  # one earlier transition: non-empty retired/events
    group.set_dead_workers({1})

    lm = TransformerLM(
        vocab_size=20, model_dim=16, hidden_dim=24, num_layers=1,
        num_heads=2, moe=True, num_experts=NUM_EXPERTS, max_seq_len=16,
        seed=0,
    )
    save_checkpoint(lm, tmp_path / "lm.npz")
    wide = MoELayer(16, 32, NUM_EXPERTS, np.random.default_rng(0))
    save_checkpoint(wide, tmp_path / "wide.npz")
    cases = [
        # A whole-LM archive: same bank shapes, other parameter names.
        ("lm.npz", ValueError, r"missing \['experts.b1', 'experts.b2'"),
        # A layer archive with a different hidden width.
        (
            "wide.npz",
            ValueError,
            r"missing \[\], unexpected \[\], "
            r"reshaped \['experts.b1', 'experts.w1', 'experts.w2'\]",
        ),
        ("absent.npz", FileNotFoundError, "no checkpoint"),
    ]
    for name, error, match in cases:
        placement = group.placement
        events = list(ctrl.events)
        bank = {
            n: getattr(layer.experts, n).data.tobytes()
            for n in ("w1", "b1", "w2", "b2")
        }
        ctrl.checkpoint = tmp_path / name
        with pytest.raises(error, match=match):
            ctrl.recover()
        assert group.dead_workers == frozenset({1})
        assert group.placement is placement and placement.version == 1
        assert ctrl.retired == frozenset({0})
        assert ctrl.events == events and len(events) == 1
        for n, before in bank.items():
            assert getattr(layer.experts, n).data.tobytes() == before


def test_empty_checkpoint_path_fails_loudly():
    """An empty path names a checkpoint that is not there; it does not
    fall back to seeded re-init.  Recovery raises before it changes the
    placement, the parameters or the dead set."""
    layer = make_layer()
    group = ExpertParallelGroup(layer, NUM_WORKERS)
    ctrl = RecoveryController(group, checkpoint="")
    group.set_dead_workers({1})
    placement = group.placement
    bank = {
        n: getattr(layer.experts, n).data.tobytes()
        for n in ("w1", "b1", "w2", "b2")
    }
    with pytest.raises(FileNotFoundError, match="no checkpoint"):
        ctrl.recover()
    assert group.dead_workers == frozenset({1})
    assert group.placement is placement and placement.version == 0
    assert ctrl.retired == frozenset() and ctrl.events == []
    for n, before in bank.items():
        assert getattr(layer.experts, n).data.tobytes() == before


# -- in-flight guards (S1) -------------------------------------------------


def test_group_mutations_blocked_mid_forward(monkeypatch, tokens):
    layer = make_layer()
    group = ExpertParallelGroup(layer, NUM_WORKERS)
    errors = []
    original = type(layer.experts).run_grouped

    def hooked(self, *args, **kwargs):
        for mutate in (
            lambda: group.set_dead_workers({1}),
            lambda: group.set_placement(group.placement.bump()),
            lambda: group.admit_worker(),
        ):
            with pytest.raises(RuntimeError, match="in flight"):
                mutate()
            errors.append(True)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(type(layer.experts), "run_grouped", hooked)
    group.forward(shards_of(tokens))
    assert errors  # the hook actually ran
    # The group is healthy after the forward: mutations work again.
    group.set_dead_workers({1})
    assert group.dead_workers == frozenset({1})


def test_layer_dead_expert_swap_blocked_mid_forward(monkeypatch, tokens):
    layer = make_layer()
    original = type(layer.experts).run_grouped
    caught = []

    def hooked(self, *args, **kwargs):
        with pytest.raises(RuntimeError, match="in flight"):
            layer.set_dead_experts({0})
        caught.append(True)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(type(layer.experts), "run_grouped", hooked)
    layer(Tensor(tokens))
    assert caught
    layer.set_dead_experts({0})  # fine between forwards


# -- pricing --------------------------------------------------------------


def test_price_reshard_on_a_healthy_cluster(small_spec):
    assert price_reshard(small_spec, 1 << 20) > 0
    assert price_reshard(small_spec, 0) == 0.0
    with pytest.raises(ValueError):
        price_reshard(small_spec, -1)


def test_event_pricing_uses_event_bytes(small_spec):
    group = ExpertParallelGroup(make_layer(), NUM_WORKERS)
    ctrl = RecoveryController(group, reinit_seed=0)
    group.set_dead_workers({1})
    event = ctrl.recover()
    traffic = reshard_traffic(
        event.moves, expert_param_bytes(16, 24), group.placement.num_workers
    )
    assert event.reshard_per_gpu_bytes == traffic["per_gpu_bytes"] > 0
    # One A2A of the busiest endpoint's payload on the given cluster.
    assert price_reshard(
        small_spec, event.reshard_per_gpu_bytes
    ) == measure_a2a(
        get_a2a("pipe"), small_spec, event.reshard_per_gpu_bytes
    ).seconds
