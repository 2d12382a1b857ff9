"""Tests of model checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Sequential,
    Tensor,
    load_checkpoint,
    read_expert_bank,
    save_checkpoint,
)


def make_model(seed):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(4, 8, rng), Linear(8, 2, rng))


def test_roundtrip_restores_outputs(tmp_path, rng):
    model = make_model(0)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, metadata={"step": 42, "task": "demo"})

    other = make_model(99)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    assert not np.allclose(other(x).data, model(x).data)

    meta = load_checkpoint(other, path)
    assert meta == {"step": 42, "task": "demo"}
    np.testing.assert_array_equal(other(x).data, model(x).data)


def test_metadata_optional(tmp_path):
    model = make_model(1)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    assert load_checkpoint(make_model(2), path) == {}


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(make_model(0), tmp_path / "absent.npz")


def test_architecture_mismatch_raises(tmp_path):
    model = make_model(0)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    rng = np.random.default_rng(0)
    different = Sequential(Linear(4, 8, rng))
    with pytest.raises(KeyError):
        load_checkpoint(different, path)


def test_creates_parent_directories(tmp_path):
    model = make_model(0)
    path = tmp_path / "deep" / "nested" / "m.npz"
    save_checkpoint(model, path)
    assert path.exists()


def test_moe_model_checkpoint(tmp_path, rng):
    from repro.models import TransformerLM

    model = TransformerLM(
        vocab_size=20, model_dim=16, hidden_dim=24, num_layers=1,
        num_heads=2, moe=True, num_experts=4, max_seq_len=16, seed=0,
    )
    path = tmp_path / "lm.npz"
    save_checkpoint(model, path, metadata={"ppl": 2.5})
    clone = TransformerLM(
        vocab_size=20, model_dim=16, hidden_dim=24, num_layers=1,
        num_heads=2, moe=True, num_experts=4, max_seq_len=16, seed=7,
    )
    meta = load_checkpoint(clone, path)
    assert meta["ppl"] == 2.5
    tokens = np.random.default_rng(0).integers(0, 20, (2, 8))
    np.testing.assert_array_equal(
        clone(tokens).data, model(tokens).data
    )


def test_crash_mid_save_never_exposes_truncated_checkpoint(
    tmp_path, monkeypatch
):
    """A crash while writing must leave the previous checkpoint intact
    (atomic temp-file + os.replace publish)."""
    import repro.nn.serialization as ser

    model = make_model(0)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, metadata={"step": 1})

    real_savez = np.savez

    def crashing_savez(fh, **payload):
        # Write a partial, corrupt prefix of the archive, then die —
        # simulating power loss / OOM-kill mid-serialization.
        fh.write(b"PK\x03\x04 partial garbage")
        raise RuntimeError("simulated crash mid-write")

    monkeypatch.setattr(ser.np, "savez", crashing_savez)
    with pytest.raises(RuntimeError, match="simulated crash"):
        save_checkpoint(make_model(1), path, metadata={"step": 2})
    monkeypatch.setattr(ser.np, "savez", real_savez)

    # No temp debris, and the visible checkpoint is the old, valid one.
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
    meta = load_checkpoint(make_model(2), path)
    assert meta == {"step": 1}


def test_crash_before_first_save_leaves_nothing(tmp_path, monkeypatch):
    import repro.nn.serialization as ser

    def crashing_savez(fh, **payload):
        fh.write(b"junk")
        raise RuntimeError("boom")

    monkeypatch.setattr(ser.np, "savez", crashing_savez)
    path = tmp_path / "fresh.npz"
    with pytest.raises(RuntimeError):
        save_checkpoint(make_model(0), path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(FileNotFoundError):
        load_checkpoint(make_model(0), path)


def test_save_still_appends_npz_suffix(tmp_path):
    """Suffix-less destinations keep numpy's historical behaviour."""
    model = make_model(0)
    save_checkpoint(model, tmp_path / "bare")
    assert (tmp_path / "bare.npz").exists()
    assert load_checkpoint(make_model(1), tmp_path / "bare.npz") == {}


# -- elastic re-sharding support ------------------------------------------


def test_placement_recorded_and_read_back(tmp_path):
    from repro.moe import ExpertPlacement
    from repro.nn import checkpoint_placement

    model = make_model(0)
    path = tmp_path / "m.npz"
    pl = ExpertPlacement(8, 4, owners=(3, 0, 2, 0, 1, 3, 0, 2), version=5)
    save_checkpoint(model, path, metadata={"step": 9}, placement=pl)
    meta = load_checkpoint(make_model(1), path)
    assert meta["step"] == 9
    assert checkpoint_placement(meta) == pl
    # Checkpoints without a placement read back as None.
    save_checkpoint(model, tmp_path / "bare.npz")
    assert checkpoint_placement(load_checkpoint(make_model(1), tmp_path / "bare.npz")) is None


def test_placement_metadata_key_is_reserved(tmp_path):
    from repro.moe import ExpertPlacement

    pl = ExpertPlacement.contiguous(4, 2)
    with pytest.raises(ValueError, match="reserved"):
        save_checkpoint(
            make_model(0), tmp_path / "m.npz",
            metadata={"expert_placement": "clash"}, placement=pl,
        )


def test_extra_arrays_round_trip_and_stay_out_of_state(tmp_path):
    from repro.nn import load_extra_arrays

    model = make_model(0)
    path = tmp_path / "m.npz"
    extras = {
        "adam.m.0": np.arange(6, dtype=np.float32),
        "adam.step": np.array(17),
    }
    save_checkpoint(model, path, extra_arrays=extras)
    back = load_extra_arrays(path)
    assert set(back) == set(extras)
    for key, value in extras.items():
        np.testing.assert_array_equal(back[key], value)
    # load_checkpoint ignores them (strict loading would raise on an
    # unexpected key otherwise).
    assert load_checkpoint(make_model(1), path) == {}
    # Checkpoints without extras read back empty.
    save_checkpoint(model, tmp_path / "noextra.npz")
    assert load_extra_arrays(tmp_path / "noextra.npz") == {}


def test_extra_prefix_is_reserved_for_parameters(tmp_path):
    class Weird:
        # A pathological model whose parameter name collides with the
        # reserved extra-array prefix.
        def state_dict(self):
            return {"__extra__.sneaky": np.zeros(3, np.float32)}

    with pytest.raises(ValueError, match="reserved"):
        save_checkpoint(Weird(), tmp_path / "w.npz")


# -- read_expert_bank ----------------------------------------------------------


def two_bank_lm():
    from repro.models import TransformerLM

    return TransformerLM(
        vocab_size=20, model_dim=16, hidden_dim=24, num_layers=2,
        num_heads=2, moe=True, num_experts=4, max_seq_len=16, seed=0,
    )


def test_read_expert_bank_finds_the_one_bank(tmp_path):
    from repro.moe import MoELayer

    layer = MoELayer(16, 24, 4, np.random.default_rng(0))
    path = tmp_path / "layer.npz"
    save_checkpoint(layer, path)
    for prefix in ("experts", "experts."):
        bank = read_expert_bank(path, 4, prefix=prefix)
        assert sorted(bank) == ["b1", "b2", "w1", "w2"]
        for name, value in bank.items():
            np.testing.assert_array_equal(
                value, getattr(layer.experts, name).data
            )


def test_read_expert_bank_picks_a_named_bank(tmp_path):
    lm = two_bank_lm()
    path = tmp_path / "lm.npz"
    save_checkpoint(lm, path)
    bank = read_expert_bank(path, 4, prefix="blocks.items.1.ffn.experts")
    np.testing.assert_array_equal(
        bank["w2"], lm.state_dict()["blocks.items.1.ffn.experts.w2"]
    )


def test_read_expert_bank_raises_on_a_missing_bank(tmp_path):
    lm = two_bank_lm()
    path = tmp_path / "lm.npz"
    save_checkpoint(lm, path)
    with pytest.raises(KeyError, match="no expert bank 'nope'"):
        read_expert_bank(path, 4, prefix="nope")
    with pytest.raises(KeyError, match="no expert bank"):
        read_expert_bank(path, 8, prefix="blocks.items.0.ffn.experts")
    with pytest.raises(FileNotFoundError):
        read_expert_bank(tmp_path / "absent.npz", 4, prefix="experts")
