"""Bit-exact parity of the autograd-free MoE inference path.

``Module.forward_inference`` runs the layer's ``forward`` under
``inference_mode()``.  It must compute *byte-for-byte* the same output
as the tape ``forward``, across dead-expert degradation and the T=0
edge, while recording no tape.  Anything weaker than
``np.array_equal`` here would hide a divergence between what we
benchmark and what we train.  The expert-parallel group's forward is
tape-free by construction; its parity with the taped forward lives in
``test_parallel_tape_free.py``.
"""

import numpy as np
import pytest

from repro.moe import MoELayer
from repro.nn import Tensor

from . import legacy_dense


def make_layer(
    seed=0,
    num_experts=8,
    capacity_factor=2.0,
):
    return MoELayer(
        model_dim=32,
        hidden_dim=48,
        num_experts=num_experts,
        rng=np.random.default_rng(seed),
        top_k=2,
        capacity_factor=capacity_factor,
    ).eval()


def tokens(rng, n=96, dim=32):
    return rng.standard_normal((n, dim)).astype(np.float32)


def assert_inference_matches(layer, x, rng_out=None):
    """forward_inference vs forward: bit-identical, tape-free."""
    ref = layer(Tensor(x)).data.copy()
    out = layer.forward_inference(Tensor(x))
    np.testing.assert_array_equal(out.data, ref)
    assert out._inference
    assert out._node is None
    return ref


def test_parity(rng):
    layer = make_layer()
    assert_inference_matches(layer, tokens(rng))


def test_parity_with_dead_experts(rng):
    layer = make_layer()
    layer.set_dead_experts({1, 5})
    assert_inference_matches(layer, tokens(rng))


def test_parity_zero_tokens():
    layer = make_layer()
    x = np.zeros((0, 32), dtype=np.float32)
    out = layer.forward_inference(Tensor(x))
    assert out.shape == (0, 32)
    np.testing.assert_array_equal(out.data, layer(Tensor(x)).data)


def test_parity_under_capacity_pressure(rng):
    """Token drops (FCFS capacity overflow) resolve identically."""
    layer = make_layer(capacity_factor=0.5)
    assert_inference_matches(layer, tokens(rng, n=128))


def test_training_flag_and_tape_restored_after_inference(rng):
    layer = make_layer().train()
    x = Tensor(tokens(rng), requires_grad=False)
    layer.forward_inference(x)
    assert layer.training
    # A training forward afterwards records a tape again.
    layer.eval()
    y = layer(x)
    assert y._node is not None


def test_forward_only_skips_gate_bookkeeping(rng):
    """No aux-loss graph and no densified masks on the fast path."""
    layer = make_layer()
    layer.forward_inference(Tensor(tokens(rng)))
    aux = layer.last_aux_loss
    assert aux is not None and aux._node is None
    assert float(aux.data) == 0.0
    gate_out = layer.last_gate_output
    with pytest.raises(RuntimeError, match="densify"):
        from repro.nn.tensor import inference_mode

        with inference_mode():
            legacy_dense.dispatch_mask(gate_out)
    # Outside inference mode densification is allowed again (training
    # introspection on a stale GateOutput still works).
    assert legacy_dense.dispatch_mask(gate_out) is not None


def test_last_dispatched_not_recorded_under_inference(rng):
    layer = make_layer()
    x = Tensor(tokens(rng))
    layer(x)
    assert layer.last_dispatched is not None
    layer.forward_inference(x)
    assert layer.last_dispatched is None


def test_forward_inference_rejects_dense_dispatch(rng):
    layer = MoELayer(
        model_dim=16,
        hidden_dim=24,
        num_experts=4,
        rng=np.random.default_rng(0),
        capacity_factor=2.0,
    ).eval()
    with pytest.raises(RuntimeError, match="sparse"):
        with legacy_dense.pinned():
            layer.forward_inference(Tensor(tokens(rng, dim=16)))
