"""A whole training step against the composed forms it replaced.

Fusing the expert FFN into one node with its biases folded in,
weighting the combine's rows as they are staged, scattering repeated
rows by occurrence rounds instead of ``np.add.at``, running Adam in
place and squaring large gradients slice by slice in the clip are pure
restructurings: two clipped Adam steps must give the same loss, grad
norm, every gradient and every parameter, bit for bit, as the same
steps with the references in ``legacy_expert_step.py`` patched in.
"""

import numpy as np
import pytest

import repro.moe.layer as layer_module
import repro.nn.functional as functional_module
import repro.nn.optim as optim_module
import repro.nn.tensor as tensor_module
from repro.models.gpt2_tiny import TransformerLM
from repro.moe import MoELayer
from repro.moe.experts import Experts
from repro.nn.fused import _BUCKET_ROW_ELEMS
from repro.nn.optim import _CHUNK, Adam
from repro.nn.tensor import Tensor

from .legacy_expert_step import (
    legacy_adam_step,
    legacy_clip_grad_norm,
    legacy_combine_grouped,
    legacy_run_grouped,
    legacy_scatter_add_rows,
)

#: Low enough that every step's clip really scales the gradients.
MAX_NORM = 1e-3


def _layer() -> MoELayer:
    return MoELayer(
        16, 24, 6, np.random.default_rng(0), top_k=2, capacity_factor=1.0
    )


def _layer_loss(layer: MoELayer) -> Tensor:
    x = np.random.default_rng(1).standard_normal((40, 16)).astype(np.float32)
    y = layer(Tensor(x))
    return (y**2).mean() + 0.01 * layer.last_aux_loss


def _lm() -> TransformerLM:
    return TransformerLM(
        30, model_dim=16, hidden_dim=16, num_layers=2, num_heads=4,
        max_seq_len=8, moe=True, num_experts=4, top_k=2,
        capacity_factor=1.0, seed=0,
    )


def _lm_loss(model: TransformerLM) -> Tensor:
    tokens = np.random.default_rng(4).integers(0, 30, size=(2, 9))
    return model.loss(tokens)


SINGLE_DIM = 64


def _single() -> MoELayer:
    layer = MoELayer(
        SINGLE_DIM, 320, 4, np.random.default_rng(0), top_k=2,
        capacity_factor=2.0,
    )
    # The clip squares w1's and w2's gradients slice by slice.
    assert layer.experts.w1.data.size > _CHUNK
    return layer


def _single_loss(layer: MoELayer) -> Tensor:
    """A layer whose every segment takes the plain 2-d GEMM path: each
    occupied segment's rows * M exceed ``_BUCKET_ROW_ELEMS``."""
    x = np.random.default_rng(2).standard_normal((256, SINGLE_DIM))
    y = layer(Tensor(x.astype(np.float32)))
    counts = layer.last_gate_output.plan.segment_counts
    assert (counts[counts > 0] * SINGLE_DIM > _BUCKET_ROW_ELEMS).all()
    assert np.count_nonzero(counts) > 1
    return (y**2).mean() + 0.01 * layer.last_aux_loss


MODELS = {
    "topk": (_layer, _layer_loss),
    "lm": (_lm, _lm_loss),
    "single": (_single, _single_loss),
}


def _copy(array):
    return None if array is None else array.copy()


def _train(build, loss, steps: int = 2):
    """Loss, every clipped gradient and every parameter after each Adam
    step, and each step's grad norm."""
    model = build()
    opt = Adam(model.parameters(), lr=1e-2)
    trace, norms = [], []
    for _ in range(steps):
        opt.zero_grad()
        value = loss(model)
        value.backward()
        norms.append(optim_module.clip_grad_norm(model.parameters(), MAX_NORM))
        assert norms[-1] > MAX_NORM  # the clip scaled the gradients
        grads = {n: _copy(p.grad) for n, p in model.named_parameters()}
        opt.step()
        params = {n: p.data.copy() for n, p in model.named_parameters()}
        trace.append((value.data.copy(), grads, params))
    return trace, norms


def _bits(array):
    return array.view(np.int32)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_two_adam_steps_are_bit_identical_to_the_composed_forms(
    name, monkeypatch
):
    build, loss = MODELS[name]
    trace, norms = _train(build, loss)
    monkeypatch.setattr(Experts, "run_grouped", legacy_run_grouped)
    monkeypatch.setattr(layer_module, "combine_grouped", legacy_combine_grouped)
    monkeypatch.setattr(tensor_module, "_scatter_add_rows", legacy_scatter_add_rows)
    monkeypatch.setattr(
        functional_module, "_scatter_add_rows", legacy_scatter_add_rows
    )
    monkeypatch.setattr(Adam, "step", legacy_adam_step)
    monkeypatch.setattr(optim_module, "clip_grad_norm", legacy_clip_grad_norm)
    ref, ref_norms = _train(build, loss)
    assert norms == ref_norms
    for (value, grads, params), (ref_value, ref_grads, ref_params) in zip(
        trace, ref
    ):
        assert np.array_equal(_bits(value), _bits(ref_value))
        assert grads.keys() == ref_grads.keys()
        for key, grad in grads.items():
            assert (grad is None) == (ref_grads[key] is None), key
            if grad is not None:
                assert np.array_equal(_bits(grad), _bits(ref_grads[key])), key
        for key, param in params.items():
            assert np.array_equal(_bits(param), _bits(ref_params[key])), key
    # The expert biases really were trained through the fused node.
    assert any(
        np.any(grads[key]) for key in grads if key.endswith(("b1", "b2"))
    )
