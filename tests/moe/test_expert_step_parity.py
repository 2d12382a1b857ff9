"""A whole training step against the composed forms it replaced.

Folding the expert biases into ``segment_matmul``, scattering repeated
rows by occurrence rounds instead of ``np.add.at``, and running Adam in
place are pure restructurings: two Adam steps must give the same loss,
every gradient and every parameter, bit for bit, as the same steps
with the references in ``legacy_expert_step.py`` patched in.
"""

import numpy as np
import pytest

import repro.nn.functional as functional_module
import repro.nn.tensor as tensor_module
from repro.models.gpt2_tiny import TransformerLM
from repro.moe import MoELayer
from repro.moe.experts import Experts
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor

from .legacy_expert_step import (
    legacy_adam_step,
    legacy_run_grouped,
    legacy_scatter_add_rows,
)


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


MODELS = {
    "topk": (_layer, _layer_loss),
    "lm": (_lm, _lm_loss),
}


def _copy(array):
    return None if array is None else array.copy()


def _train(build, loss, steps: int = 2):
    """Loss, every gradient and every parameter after each Adam step."""
    model = build()
    opt = Adam(model.parameters(), lr=1e-2)
    trace = []
    for _ in range(steps):
        opt.zero_grad()
        value = loss(model)
        value.backward()
        grads = {n: _copy(p.grad) for n, p in model.named_parameters()}
        opt.step()
        params = {n: p.data.copy() for n, p in model.named_parameters()}
        trace.append((value.data.copy(), grads, params))
    return trace


def _bits(array):
    return array.view(np.int32)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_two_adam_steps_are_bit_identical_to_the_composed_forms(
    name, monkeypatch
):
    build, loss = MODELS[name]
    trace = _train(build, loss)
    monkeypatch.setattr(Experts, "run_grouped", legacy_run_grouped)
    monkeypatch.setattr(tensor_module, "_scatter_add_rows", legacy_scatter_add_rows)
    monkeypatch.setattr(
        functional_module, "_scatter_add_rows", legacy_scatter_add_rows
    )
    monkeypatch.setattr(Adam, "step", legacy_adam_step)
    ref = _train(build, loss)
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
