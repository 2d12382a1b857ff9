"""The no-op, FP16 and INT8 codecs of the paper's Table 6.

* ``none`` ships raw fp32 (the "MoE" row).
* ``fp16`` casts to IEEE half precision — 2x volume, near-lossless on
  activation magnitudes, "almost no impact on the model convergence"
  (paper Section 6.2).  A value past float16's finite range (±65504)
  is rejected instead of decoding as inf.
* ``int8`` quantizes with a single per-tensor scale to signed 8-bit —
  4x volume, but the coarse global scale loses small-magnitude values,
  which is why the paper measures a clear perplexity regression for
  GPT2-Tiny-MoE with INT8.
"""

from __future__ import annotations

import numpy as np

from .base import CompressedTensor, Compressor, register_compressor


@register_compressor
class NoopCompressor(Compressor):
    """Identity codec: fp32 on the wire, at zero cost."""

    name = "none"
    bits_per_value = 32.0

    def compress(self, tensor: np.ndarray) -> CompressedTensor:
        arr = np.ascontiguousarray(tensor, dtype=np.float32)
        return CompressedTensor(
            codec=self.name,
            shape=arr.shape,
            dtype=np.dtype(np.float32),
            payload={"data": arr},
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        return compressed.payload["data"].reshape(compressed.shape)


@register_compressor
class Fp16Compressor(Compressor):
    """IEEE half-precision cast: 16 bits per value."""

    name = "fp16"
    bits_per_value = 16.0
    fixed_cost_s = 1.0e-4
    compress_bandwidth_bps = 150.0e9
    decompress_bandwidth_bps = 150.0e9

    def compress(self, tensor: np.ndarray) -> CompressedTensor:
        arr = np.asarray(tensor, dtype=np.float32)
        with np.errstate(over="ignore"):
            half = arr.astype(np.float16)
        if np.isinf(half).any():
            raise ValueError(
                f"{self.name}: a value is beyond float16's finite range "
                f"(max {np.finfo(np.float16).max}); refusing to compress "
                "(it would decode as inf)"
            )
        return CompressedTensor(
            codec=self.name,
            shape=arr.shape,
            dtype=np.dtype(np.float32),
            payload={"data": half},
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        return compressed.payload["data"].astype(np.float32).reshape(
            compressed.shape
        )


@register_compressor
class Int8Compressor(Compressor):
    """Per-tensor symmetric 8-bit quantization.

    ``q = round(x / s)`` with ``s = max|x| / 127``; the single global
    scale makes the error proportional to the tensor's largest
    magnitude, so outliers blow away the resolution of everything
    else — the root cause of the accuracy loss in paper Table 6.
    """

    name = "int8"
    bits_per_value = 8.0
    fixed_cost_s = 1.5e-4
    compress_bandwidth_bps = 120.0e9
    decompress_bandwidth_bps = 140.0e9

    def compress(self, tensor: np.ndarray) -> CompressedTensor:
        arr = np.asarray(tensor, dtype=np.float32)
        peak = float(np.max(np.abs(arr))) if arr.size else 0.0
        scale = peak / 127.0 if peak > 0 else 1.0
        quant = np.clip(np.rint(arr / scale), -127, 127).astype(np.int8)
        return CompressedTensor(
            codec=self.name,
            shape=arr.shape,
            dtype=np.dtype(np.float32),
            payload={"data": quant},
            meta={"scale": scale},
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        scale = compressed.meta["scale"]
        return (
            compressed.payload["data"].astype(np.float32) * scale
        ).reshape(compressed.shape)


@register_compressor
class Int8ChannelCompressor(Compressor):
    """Per-row (channel-wise) symmetric 8-bit quantization.

    The obvious fix for :class:`Int8Compressor`'s Table 6 failure: one
    scale per last-dimension row instead of one per tensor, so an
    outlier only ruins its own row's resolution.  Wire cost adds 4
    bytes per row (amortized to ~0 for transformer activations).
    Not in the paper — included as the kind of codec its AbsCompressor
    extension point exists to admit, and to show the failure is the
    scale granularity, not 8-bit width per se.
    """

    name = "int8c"
    bits_per_value = 8.25
    fixed_cost_s = 2.0e-4
    compress_bandwidth_bps = 100.0e9
    decompress_bandwidth_bps = 120.0e9

    def compress(self, tensor: np.ndarray) -> CompressedTensor:
        arr = np.asarray(tensor, dtype=np.float32)
        rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
        # Seeded with 0.0 (no |x| is below it) to skip numpy's slow path
        # for a reduction without an identity; NaN still propagates.
        peaks = np.maximum.reduce(np.abs(rows), axis=1, initial=0.0)
        scales = np.where(peaks > 0, peaks / 127.0, 1.0).astype(np.float32)
        quant = np.clip(
            np.rint(rows / scales[:, None]), -127, 127
        ).astype(np.int8)
        return CompressedTensor(
            codec=self.name,
            shape=arr.shape,
            dtype=np.dtype(np.float32),
            payload={"data": quant, "scales": scales},
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        quant = compressed.payload["data"].astype(np.float32)
        scales = compressed.payload["scales"]
        return (quant * scales[:, None]).reshape(compressed.shape)
