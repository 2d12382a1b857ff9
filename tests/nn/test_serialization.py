"""Tests of model checkpointing."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Sequential,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)


def make_model(seed):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(4, 8, rng), Linear(8, 2, rng))


def test_roundtrip_restores_outputs(tmp_path, rng):
    model = make_model(0)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)

    other = make_model(99)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    assert not np.allclose(other(x).data, model(x).data)

    other.load_state_dict(load_checkpoint(path))
    np.testing.assert_array_equal(other(x).data, model(x).data)


def test_metadata_optional(tmp_path):
    # A checkpoint carries no metadata: the archive holds the
    # parameters and nothing else.
    model = make_model(1)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    state = load_checkpoint(path)
    assert sorted(state) == sorted(model.state_dict())
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(state[name], value)


@pytest.mark.parametrize("as_str", [False, True])
def test_roundtrip_through_a_path_without_suffix(tmp_path, rng, as_str):
    """The reader resolves a suffix-less path to the archive the writer
    wrote there (``<path>.npz``)."""
    model = make_model(0)
    path = tmp_path / "run" / "ckpt"
    if as_str:
        path = str(path)
    save_checkpoint(model, path)
    other = make_model(99)
    other.load_state_dict(load_checkpoint(path))
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    np.testing.assert_array_equal(other(x).data, model(x).data)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.npz")


def test_architecture_mismatch_raises(tmp_path):
    model = make_model(0)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    rng = np.random.default_rng(0)
    different = Sequential(Linear(4, 8, rng))
    with pytest.raises(KeyError):
        different.load_state_dict(load_checkpoint(path))


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
    save_checkpoint(model, path)
    clone = TransformerLM(
        vocab_size=20, model_dim=16, hidden_dim=24, num_layers=1,
        num_heads=2, moe=True, num_experts=4, max_seq_len=16, seed=7,
    )
    clone.load_state_dict(load_checkpoint(path))
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
    save_checkpoint(model, path)

    real_savez = np.savez

    def crashing_savez(fh, **payload):
        # Write a partial, corrupt prefix of the archive, then die —
        # simulating power loss / OOM-kill mid-serialization.
        fh.write(b"PK\x03\x04 partial garbage")
        raise RuntimeError("simulated crash mid-write")

    monkeypatch.setattr(ser.np, "savez", crashing_savez)
    with pytest.raises(RuntimeError, match="simulated crash"):
        save_checkpoint(make_model(1), path)
    monkeypatch.setattr(ser.np, "savez", real_savez)

    # No temp debris, and the visible checkpoint is the old, valid one.
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
    state = load_checkpoint(path)
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(state[name], value)


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
        load_checkpoint(path)


def test_save_still_appends_npz_suffix(tmp_path):
    """Suffix-less destinations keep numpy's historical behaviour."""
    model = make_model(0)
    save_checkpoint(model, tmp_path / "bare")
    assert (tmp_path / "bare.npz").exists()
    assert sorted(load_checkpoint(tmp_path / "bare.npz")) == sorted(
        model.state_dict()
    )
