"""Tests of the numeric transformer models."""

import numpy as np
import pytest

from repro.models import Seq2SeqTransformer, TransformerLM, collect_aux_loss
from repro.models.blocks import sinusoidal_positions


def test_lm_forward_shapes():
    lm = TransformerLM(vocab_size=30, model_dim=32, hidden_dim=48,
                       num_layers=2, max_seq_len=64, seed=0)
    tokens = np.random.default_rng(0).integers(0, 30, (3, 10))
    logits = lm(tokens)
    assert logits.shape == (3, 10, 30)


def test_lm_rejects_bad_input():
    lm = TransformerLM(vocab_size=30, max_seq_len=16, seed=0)
    with pytest.raises(ValueError):
        lm(np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        lm(np.zeros((1, 17), dtype=np.int64))


@pytest.mark.parametrize("bad", [-3, 30])
def test_lm_loss_rejects_tokens_outside_the_vocabulary(bad):
    lm = TransformerLM(vocab_size=30, model_dim=16, hidden_dim=16,
                       num_layers=1, num_heads=2, max_seq_len=16, seed=0)
    tokens = np.random.default_rng(0).integers(0, 30, (2, 8))
    for col in (0, 7):  # an input id, then a target-only id
        batch = tokens.copy()
        batch[1, col] = bad
        with pytest.raises(ValueError, match=r"\[0, 30\)"):
            lm.loss(batch)


def test_lm_loss_decreases_with_training(rng):
    from repro.nn import Adam

    lm = TransformerLM(vocab_size=12, model_dim=24, hidden_dim=32,
                       num_layers=1, num_heads=2, max_seq_len=16, seed=1)
    opt = Adam(lm.parameters(), lr=5e-3)
    tokens = rng.integers(4, 12, (8, 12))
    first = None
    for _ in range(30):
        opt.zero_grad()
        loss = lm.loss(tokens)
        loss.backward()
        opt.step()
        if first is None:
            first = float(loss.data)
    assert float(loss.data) < first * 0.8


def test_lm_moe_aux_loss_collected():
    lm = TransformerLM(vocab_size=20, model_dim=16, hidden_dim=24,
                       num_layers=2, num_heads=2, moe=True, num_experts=4,
                       max_seq_len=16, seed=0)
    lm(np.random.default_rng(0).integers(0, 20, (2, 8)))
    aux = collect_aux_loss(lm)
    assert aux is not None
    assert float(aux.data) > 0
    dense = TransformerLM(vocab_size=20, max_seq_len=16, seed=0)
    dense(np.random.default_rng(0).integers(0, 20, (2, 8)))
    assert collect_aux_loss(dense) is None


def test_lm_moe_has_more_params_same_flops_shape():
    dense = TransformerLM(vocab_size=20, model_dim=16, hidden_dim=24,
                          num_layers=2, max_seq_len=16, seed=0)
    moe = TransformerLM(vocab_size=20, model_dim=16, hidden_dim=24,
                        num_layers=2, moe=True, num_experts=8,
                        max_seq_len=16, seed=0)
    assert moe.num_parameters() > 4 * dense.num_parameters() * 0.5
    assert moe.num_parameters() > dense.num_parameters()


def test_seq2seq_shapes_and_loss(rng):
    model = Seq2SeqTransformer(src_vocab=25, tgt_vocab=25, model_dim=24,
                               hidden_dim=32, num_layers=1, num_heads=2,
                               max_seq_len=20, seed=0)
    src = rng.integers(4, 25, (3, 7))
    tgt_in = rng.integers(4, 25, (3, 9))
    tgt_out = rng.integers(4, 25, (3, 9))
    logits = model(src, tgt_in)
    assert logits.shape == (3, 9, 25)
    loss = model.loss(src, tgt_in, tgt_out)
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())
    with pytest.raises(ValueError):
        model(src, tgt_in[:2])


def test_seq2seq_greedy_decode_stops_at_eos(rng):
    model = Seq2SeqTransformer(src_vocab=15, tgt_vocab=15, model_dim=16,
                               hidden_dim=24, num_layers=1, num_heads=2,
                               max_seq_len=20, seed=3)
    src = rng.integers(4, 15, (2, 5))
    out = model.greedy_decode(src, bos_id=1, eos_id=2, max_len=6)
    assert out.shape[0] == 2
    assert out.shape[1] <= 6


def test_sinusoidal_positions_shape_and_range():
    enc = sinusoidal_positions(10, 8)
    assert enc.shape == (10, 8)
    assert np.abs(enc).max() <= 1.0
    assert not np.allclose(enc[0], enc[5])


def test_positions_odd_dim():
    enc = sinusoidal_positions(4, 7)
    assert enc.shape == (4, 7)
