"""Tests of the paper model configurations (Tables 1, 4, 5)."""

import dataclasses

import pytest

from repro.models import (
    MoEModelConfig,
    ablation_layer,
    bert_large_moe,
    ct_moe,
    gpt2_tiny_moe,
    layer_config_from_grid,
    table4_grid,
    transformer_moe,
)


def test_a2a_bytes_eq2():
    cfg = ablation_layer()
    # S = f*k*B*L*M*4 — paper Section 6.5 cites ~640 MB for this layer.
    assert cfg.a2a_bytes == pytest.approx(1.2 * 1 * 8 * 2048 * 8192 * 4)
    assert 6.0e8 < cfg.a2a_bytes < 6.9e8


def test_capacity_eq1():
    cfg = ablation_layer()
    assert cfg.capacity == 615  # ceil(1.2 * 1 * 16384 / 32)


def test_bert_large_chunk_is_524288_bytes():
    cfg = bert_large_moe()
    # Paper Section 6.3: "the input size for the A2A collective is
    # 524,288 bytes" — the per-peer chunk on the 32-GPU testbed.
    assert cfg.a2a_bytes / 32 == pytest.approx(524288)
    # "totally ~6.5 billion parameters".
    assert 6.0e9 < cfg.total_params < 7.0e9


def test_ct_moe_depth_variants():
    for x in (12, 16, 20, 24):
        cfg = ct_moe(x)
        assert cfg.num_layers == x
        assert cfg.name == f"CT-MoE-{x}"
    # Deeper -> more MoE params, same per-layer A2A.
    assert ct_moe(24).moe_params == 2 * ct_moe(12).moe_params
    assert ct_moe(24).a2a_bytes == ct_moe(12).a2a_bytes


def test_table4_grid_is_675_points():
    grid = table4_grid()
    assert len(grid) == 675  # 3 * 3 * 3 * 5 * 5
    assert len({tuple(sorted(p.items())) for p in grid}) == 675


def test_layer_config_from_grid():
    cfg = layer_config_from_grid(
        {"B": 8, "f": 1.2, "L": 2048, "H": 8192, "M": 8192}
    )
    assert cfg.layer_only
    assert cfg.num_layers == 1
    assert cfg.top_k == 2  # Table 4 uses k=2
    assert cfg.attention_params == 0
    assert cfg.embedding_params == 0


def test_layer_only_zeroes_dense_params():
    full = ct_moe(12)
    assert full.attention_params > 0
    assert full.embedding_params > 0


def test_named_models_match_table5_columns():
    t = transformer_moe()
    assert t.tokens_per_gpu == 4096  # B*L = 4096 per the paper
    assert (t.top_k, t.num_experts) == (1, 8)
    g = gpt2_tiny_moe()
    assert (g.batch_per_gpu, g.seq_len) == (4, 256)
    assert (g.hidden_dim, g.model_dim) == (64, 64)
    assert (g.top_k, g.num_experts) == (2, 32)


def test_config_validation():
    with pytest.raises(ValueError):
        MoEModelConfig(
            name="bad", num_layers=0, batch_per_gpu=1, seq_len=1,
            hidden_dim=1, model_dim=1, top_k=1, num_experts=1,
        )
    with pytest.raises(ValueError):
        MoEModelConfig(
            name="bad", num_layers=1, batch_per_gpu=1, seq_len=1,
            hidden_dim=1, model_dim=1, top_k=1, num_experts=1,
            capacity_factor=0.0,
        )


@pytest.mark.parametrize(
    "attr",
    [
        "num_layers", "batch_per_gpu", "seq_len",
        "hidden_dim", "model_dim", "num_experts",
    ],
)
@pytest.mark.parametrize("value", [2.5, float("nan"), True])
def test_config_sizes_must_be_integers(attr, value):
    """A fractional size would be priced as if it existed, and NaN would
    fail only inside the simulation: both raise at construction."""
    with pytest.raises(TypeError, match=attr):
        dataclasses.replace(ct_moe(12), **{attr: value})
