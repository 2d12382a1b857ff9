"""Parity suite for the expert bank: production vs reference.

:meth:`Experts.run_grouped` (flat rows sorted by expert, segment
GEMMs — the production path) must be indistinguishable from
``legacy_dense.run_experts`` (the per-expert loop over an (E, C, M)
capacity buffer — the reference) *at every occupied slot*: bit-exact
forward outputs and gradients matching to 1e-6 (``expert_ffn``
re-associates the stacked weight-grad reductions).  The loop also runs
its FFN on the padding slots; no combine ever reads those.
"""

import numpy as np
import pytest

from repro.moe import Experts, MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor

from . import legacy_dense
from .legacy_dense import run_expert, run_experts


def make_bank(num_experts, model_dim, hidden_dim, seed=0):
    return Experts(
        num_experts, model_dim, hidden_dim, np.random.default_rng(seed)
    )


def make_dispatched(rng, num_experts, capacity, model_dim, fill):
    """A capacity buffer with ``fill[e]`` occupied prefix slots."""
    x = np.zeros((num_experts, capacity, model_dim), dtype=np.float32)
    for e, f in enumerate(fill):
        x[e, :f] = rng.standard_normal((f, model_dim))
    return x, np.asarray(fill, dtype=np.int64)


CASES = [
    # (E, C, M, H, fill) — zero-occupancy experts, partial, full, E=1.
    (4, 6, 8, 16, [0, 3, 6, 1]),
    (4, 6, 8, 16, [0, 0, 0, 0]),
    (4, 6, 8, 16, [6, 6, 6, 6]),
    (1, 5, 8, 16, [2]),
]


def occupied_mask(E, C, fill):
    """(E, C) bool mask of the occupied slot prefix."""
    return np.arange(C)[None, :] < np.asarray(fill)[:, None]


@pytest.mark.parametrize("E,C,M,H,fill", CASES)
def test_forward_bitwise_parity(rng, E, C, M, H, fill):
    bank = make_bank(E, M, H)
    x, load = make_dispatched(rng, E, C, M, fill)
    occ = occupied_mask(E, C, fill)
    ref = run_experts(bank, Tensor(x)).data
    # The occupied slots in row-major order are the flat rows sorted
    # by expert: exactly what dispatch_grouped gathers from a plan.
    out = bank.run_grouped(Tensor(x[occ]), load).data
    np.testing.assert_array_equal(out, ref[occ])


@pytest.mark.parametrize("E,C,M,H,fill", CASES)
def test_gradient_parity(rng, E, C, M, H, fill):
    loop, grouped = make_bank(E, M, H), make_bank(E, M, H)
    x, load = make_dispatched(rng, E, C, M, fill)
    occupied = occupied_mask(E, C, fill)
    # Loss over the occupied slots only — what any combine reads.
    # (An unmasked loss would feed the loop's padding-slot responses
    # into its parameter gradients, a contribution no real consumer
    # ever creates.)
    mask = Tensor(occupied[:, :, None].astype(np.float32))

    x_loop = Tensor(x, requires_grad=True)
    ((run_experts(loop, x_loop) * mask) ** 2).sum().backward()
    rows = Tensor(x[occupied], requires_grad=True)
    (grouped.run_grouped(rows, load) ** 2).sum().backward()

    np.testing.assert_allclose(rows.grad, x_loop.grad[occupied], atol=1e-6)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(
            getattr(grouped, name).grad,
            getattr(loop, name).grad,
            atol=1e-6,
            err_msg=name,
        )


def test_moe_layer_end_to_end_parity(rng):
    """Through gate + dispatch + combine, sparse matches dense."""
    kwargs = dict(top_k=2, capacity_factor=1.5)
    layers = {
        mode: MoELayer(8, 16, 4, np.random.default_rng(3), **kwargs)
        for mode in ("dense", "sparse")
    }
    forwards = {"dense": legacy_dense.forward, "sparse": MoELayer.__call__}
    x = rng.standard_normal((12, 8)).astype(np.float32)
    inputs, outputs = {}, {}
    for mode, layer in layers.items():
        inputs[mode] = Tensor(x.copy(), requires_grad=True)
        outputs[mode] = forwards[mode](layer, inputs[mode])
        ((outputs[mode] ** 2).mean() + 0.01 * layer.last_aux_loss).backward()

    np.testing.assert_allclose(
        outputs["sparse"].data, outputs["dense"].data, rtol=1e-5, atol=1e-6
    )
    np.testing.assert_allclose(
        inputs["sparse"].grad, inputs["dense"].grad, atol=1e-6
    )
    for (name, p_s), (_, p_d) in zip(
        layers["sparse"].named_parameters(), layers["dense"].named_parameters()
    ):
        np.testing.assert_allclose(p_s.grad, p_d.grad, atol=1e-6, err_msg=name)


def test_expert_parallel_group_parity(rng):
    """The multi-worker execution reproduces the single-process layer.

    capacity_factor >= E/k so no token is dropped (drop resolution is
    FCFS in token order, which depends on sharding).
    """
    layer = MoELayer(
        8, 16, 4, np.random.default_rng(5), top_k=2, capacity_factor=2.0
    ).eval()
    x = rng.standard_normal((16, 8)).astype(np.float32)
    single = layer(Tensor(x)).data
    group = ExpertParallelGroup(layer, num_workers=2)
    distributed = group.forward_concatenated([x[:8], x[8:]])
    np.testing.assert_allclose(distributed, single, rtol=1e-5, atol=1e-6)


def test_expert_load_validation(rng):
    """run_grouped rejects per-expert counts of the wrong shape."""
    bank = make_bank(4, 8, 16)
    x, _ = make_dispatched(rng, 4, 6, 8, [1, 2, 3, 4])
    occ = occupied_mask(4, 6, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="segment_counts"):
        bank.run_grouped(Tensor(x[occ]), np.array([1, 2]))


def test_run_expert_bounds(rng):
    bank = make_bank(2, 8, 16)
    with pytest.raises(IndexError):
        run_expert(bank, 2, Tensor(np.zeros((3, 8), np.float32)))
