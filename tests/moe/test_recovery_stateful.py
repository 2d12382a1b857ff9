"""Randomized recovery sequences (hypothesis stateful testing).

A rule-based state machine drives a :class:`RecoveryController` and its
:class:`ExpertParallelGroup` through random interleavings of worker
deaths, degraded steps, recoveries from a checkpoint or by seeded
re-init, scale-ups, parameter updates and checkpoint saves.  After
every rule it checks:

* the group's forward is bit-identical to a freshly built group with
  the same placement, dead set and parameters (and, when healthy, to
  the single-process layer; when degraded, to the layer with the dead
  workers' experts, up to reassociation);
* no retired rank hosts an expert or is declared dead again;
* the placement version strictly increases on every transition and
  holds still otherwise;
* ``events`` matches the transitions the machine performed, and
  recovered experts carry the checkpoint's (or the kept) parameters.

A scale-up while any worker is dead is rejected with the group left
untouched.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.faults.recovery import RecoveryController
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor
from repro.nn.serialization import save_checkpoint

NUM_EXPERTS = 8
MAX_WORKERS = 6
BANK = ("w1", "b1", "w2", "b2")


def bank_of(layer):
    experts = layer.experts
    return {name: getattr(experts, name).data.copy() for name in BANK}


class RecoveryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="recovery-machine-"))

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @initialize(
        num_workers=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**16),
    )
    def build(self, num_workers, seed):
        self.layer = MoELayer(
            model_dim=16,
            hidden_dim=24,
            num_experts=NUM_EXPERTS,
            rng=np.random.default_rng(seed),
            top_k=2,
            # cf >= E/k: no drops, the precondition for exact parity.
            capacity_factor=NUM_EXPERTS / 2.0,
        ).eval()
        self.group = ExpertParallelGroup(self.layer, num_workers)
        self.ctrl = RecoveryController(self.group, reinit_seed=seed)
        self.tokens = (
            np.random.default_rng(seed + 1)
            .standard_normal((24, 16))
            .astype(np.float32)
        )
        self.version = 0
        self.expected_events = []
        #: The parameters every expert must carry right now.
        self.expected_bank = bank_of(self.layer)
        #: (path, bank at save time) of the latest checkpoint.
        self.checkpoint = None
        self.save()

    # -- helpers -----------------------------------------------------------
    def live_hosts(self):
        """Workers hosting experts and not declared dead."""
        return [
            w
            for w in range(self.group.num_workers)
            if self.group.placement.experts_of(w)
            and w not in self.group.dead_workers
        ]

    def shards(self):
        return np.array_split(self.tokens, self.group.num_workers)

    def expect_transition(self, event, kind, dead, source):
        assert event.kind == kind
        assert event.dead_workers == dead
        assert event.source == source
        assert event.old_version == self.version
        assert event.new_version > self.version
        assert self.group.placement.version == event.new_version
        self.version = event.new_version
        self.expected_events.append((kind, dead, source))

    def recover(self, source):
        dead = tuple(sorted(self.group.dead_workers))
        lost = sorted(
            e for w in dead for e in self.group.placement.experts_of(w)
        )
        event = self.ctrl.recover()
        self.expect_transition(event, "recover", dead, source)
        assert event.adopted_experts == tuple(lost)
        for e in lost:
            for name in BANK:
                if source == "checkpoint":
                    self.expected_bank[name][e] = self.checkpoint[1][name][e]
                else:
                    self.expected_bank[name][e] = getattr(
                        self.layer.experts, name
                    ).data[e]

    # -- rules -------------------------------------------------------------
    @precondition(lambda self: len(self.live_hosts()) > 1)
    @rule(data=st.data())
    def kill_worker(self, data):
        worker = data.draw(st.sampled_from(self.live_hosts()))
        self.group.set_dead_workers(self.group.dead_workers | {worker})

    @precondition(lambda self: self.group.dead_workers)
    @rule()
    def degraded_step(self):
        out = self.group.forward_concatenated(self.shards())
        self.layer.set_dead_experts(self.group.dead_experts)
        try:
            ref = self.layer(Tensor(self.tokens)).data
        finally:
            self.layer.set_dead_experts(())
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    @precondition(lambda self: self.group.dead_workers)
    @rule()
    def recover_from_checkpoint(self):
        self.ctrl.checkpoint = self.checkpoint[0]
        self.recover("checkpoint")

    @precondition(lambda self: self.group.dead_workers)
    @rule()
    def recover_by_reinit(self):
        self.ctrl.checkpoint = None
        self.recover("reinit")

    @precondition(lambda self: self.group.dead_workers)
    @rule()
    def scale_up_is_rejected_while_degraded(self):
        placement = self.group.placement
        dead = self.group.dead_workers
        num_workers = self.group.num_workers
        with pytest.raises(RuntimeError, match="recover them first"):
            self.ctrl.scale_up()
        assert self.group.placement is placement
        assert self.group.dead_workers == dead
        assert self.group.num_workers == num_workers

    @precondition(
        lambda self: not self.group.dead_workers
        and self.group.num_workers < MAX_WORKERS
    )
    @rule()
    def scale_up(self):
        new_rank = self.group.num_workers
        event = self.ctrl.scale_up()
        self.expect_transition(event, "scale-up", (), "move")
        assert self.group.num_workers == new_rank + 1
        assert all(dst == new_rank for _, _, dst in event.moves)

    @rule(seed=st.integers(0, 2**16))
    def parameter_update(self, seed):
        """A stand-in optimizer step, so checkpoints go stale."""
        rng = np.random.default_rng(seed)
        for name in BANK:
            param = getattr(self.layer.experts, name).data
            param += rng.standard_normal(param.shape).astype(np.float32)
            self.expected_bank[name] = param.copy()

    @rule()
    def save(self):
        path = self.tmp / f"ck{len(list(self.tmp.iterdir()))}.npz"
        save_checkpoint(self.layer, path)
        self.checkpoint = (path, bank_of(self.layer))

    # -- invariants --------------------------------------------------------
    @invariant()
    def forward_matches_a_fresh_group(self):
        shards = self.shards()
        out = self.group.forward_concatenated(shards)
        twin = ExpertParallelGroup(
            self.layer, self.group.num_workers, placement=self.group.placement
        )
        twin.set_dead_workers(self.group.dead_workers)
        fresh = twin.forward_concatenated(shards)
        assert np.array_equal(out.view(np.int32), fresh.view(np.int32))
        if not self.group.dead_workers:
            single = self.layer(Tensor(self.tokens)).data
            assert np.array_equal(out.view(np.int32), single.view(np.int32))

    @invariant()
    def retired_ranks_stay_retired(self):
        for w in self.ctrl.retired:
            assert self.group.placement.experts_of(w) == ()
            assert w not in self.group.dead_workers

    @invariant()
    def version_moves_only_on_transitions(self):
        assert self.group.placement.version == self.version

    @invariant()
    def events_match_transitions(self):
        assert [
            (e.kind, e.dead_workers, e.source) for e in self.ctrl.events
        ] == self.expected_events

    @invariant()
    def parameters_match_the_model(self):
        for name in BANK:
            assert np.array_equal(
                getattr(self.layer.experts, name).data,
                self.expected_bank[name],
            )


RecoveryMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None
)
test_recovery_sequences = RecoveryMachine.TestCase
