"""The zfp rewrite against the parent codec, bit for bit.

``compress`` now takes each block's peak from the magnitude bits,
checks for non-finite input on those peaks instead of in a separate
pass, and quantizes without the no-op clip.  On every input the parent
accepted, the payload (``data`` and ``exponents``) must equal
:mod:`.legacy_zfp`'s, and so must its bits once decoded (by the
unchanged ``decompress``).  The one intended difference is
a block whose peak is nonzero but below 2^-129: the parent's int8
exponent wrapped there (the block decoded to zeros); the rewrite
floors the exponent at -128, and those blocks are checked against that
floor instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression import get_compressor
from repro.compression.zfp import BLOCK

from .legacy_zfp import legacy_compress

#: The largest float32 below 2^127, the last peak int8 exponents hold.
BELOW_2_127 = float(np.nextafter(np.float32(2.0**127), np.float32(0.0)))
FLOAT32_MAX = float(np.finfo(np.float32).max)

any_finite = st.floats(
    min_value=-BELOW_2_127, max_value=BELOW_2_127, width=32, allow_nan=False
)
#: Signed zeros and subnormals, so whole blocks of them get drawn.
tiny = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(
        min_value=-(2.0**-126), max_value=2.0**-126, width=32, allow_nan=False
    ),
)


def payloads(max_size: int = 300):
    """Flat float32 payloads of any length (rarely a multiple of 64)."""
    return arrays(
        dtype=np.float32,
        shape=st.integers(1, max_size),
        elements=st.one_of(any_finite, tiny, st.floats(-4.0, 4.0, width=32)),
    )


def floored_blocks(x: np.ndarray) -> np.ndarray:
    """Per block: is its peak nonzero and below 2^-129 (exponent < -128)?"""
    flat = np.zeros(-(-x.size // BLOCK) * BLOCK, np.float32)
    flat[: x.size] = x.ravel()
    _mant, exps = np.frexp(np.abs(flat.reshape(-1, BLOCK)).max(axis=1))
    return exps < -128


def max_floored_error() -> float:
    """Roundtrip error bound of a block quantized against 2^-128.

    Half a quantization step, plus the subnormal rounding of the
    decode's scale factor and product (one 2^-150 ulp each per unit of
    the quantized value).
    """
    qmax = 127
    return 2.0**-128 / (2 * qmax) + (qmax + 1) * 2.0**-150


def assert_matches_legacy(x: np.ndarray) -> None:
    codec = get_compressor("zfp")
    new = codec.compress(x)
    old = legacy_compress(codec, x)
    keep = ~floored_blocks(x)
    assert new.shape == old.shape and new.meta == old.meta
    for key in ("data", "exponents"):
        assert new.payload[key].dtype == old.payload[key].dtype
        assert new.payload[key].shape == old.payload[key].shape
        np.testing.assert_array_equal(
            new.payload[key][keep], old.payload[key][keep]
        )
    decoded = codec.decompress(new).ravel().view(np.int32)
    legacy = codec.decompress(old).ravel().view(np.int32)
    in_kept = np.repeat(keep, BLOCK)[: x.size]
    np.testing.assert_array_equal(decoded[in_kept], legacy[in_kept])
    # The blocks the parent wrapped: floored at -128, decoded closely.
    assert np.all(new.payload["exponents"][~keep] == -128)
    out = codec.decompress(new).ravel().astype(np.float64)
    err = np.abs(out - x.ravel().astype(np.float64))[~in_kept]
    assert np.all(err <= max_floored_error())


@settings(max_examples=150, deadline=None)
@given(x=payloads())
def test_payload_and_decode_match_the_parent(x):
    assert_matches_legacy(x)


def test_edge_values_match_the_parent():
    """Signed zeros, subnormals and peaks just below 2^127, per block."""
    smallest = float(np.float32(2.0**-149))
    blocks = [
        np.full(BLOCK, -0.0),  # all -0.0: peak +0.0, exponent 0
        np.linspace(-2.0**-126, 2.0**-126, BLOCK),  # subnormal peak
        np.r_[np.full(BLOCK - 1, smallest), 1.0],  # subnormals under 1.0
        np.r_[np.full(BLOCK - 1, 3.0), -BELOW_2_127],  # the largest peak
        np.r_[-0.0, 0.0, np.full(BLOCK - 2, -2.5)],
    ]
    x = np.concatenate(blocks).astype(np.float32)
    for size in (x.size, x.size - 7, 100):  # also ragged last blocks
        assert_matches_legacy(x[:size])


@pytest.mark.parametrize("value", [1e-39, -1e-39, 3e-40, 1.4e-45])
def test_tiny_block_exponent_is_floored_not_wrapped(value):
    """A peak below 2^-129 quantizes against 2^-128.

    The parent stored frexp's exponent (-129 for 1e-39, -148 for the
    smallest subnormal) straight into int8, which wrapped it to a huge
    positive scale: the block decoded to all zeros.
    """
    codec = get_compressor("zfp")
    x = np.full(BLOCK, value, np.float32)
    ct = codec.compress(x)
    assert ct.payload["exponents"].tolist() == [-128]
    out = codec.decompress(ct).astype(np.float64)
    assert np.abs(out - x.astype(np.float64)).max() <= max_floored_error()
    # A tiny block beside an ordinary one leaves the ordinary one alone.
    mixed = np.r_[x, np.linspace(-1.0, 1.0, 70)].astype(np.float32)
    assert_matches_legacy(mixed)


@settings(max_examples=100, deadline=None)
@given(
    x=payloads(200),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, 2.0**127, -FLOAT32_MAX]),
    where=st.floats(0.0, 1.0),
)
def test_encode_and_compress_reject_non_finite_and_past_2_127(x, bad, where):
    """NaN and inf as non-finite input, peaks from 2^127 as past int8."""
    codec = get_compressor("zfp")
    x[min(int(where * x.size), x.size - 1)] = bad
    match = "2\\^127" if np.isfinite(bad) else "non-finite"
    for method in (codec.encode, codec.compress):
        with pytest.raises(ValueError, match=match) as info:
            method(x)
        assert "zfp" in str(info.value)
