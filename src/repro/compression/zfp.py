"""ZFP-style fixed-rate block floating-point codec.

The paper uses LLNL's ZFP at an average of 8 bits per element (4x
volume reduction, paper Section 6.2).  We implement the behaviourally
equivalent core mechanism: values are grouped into fixed blocks, each
block shares one exponent (taken from its largest magnitude) and
stores fixed-width mantissas relative to it.  The per-block exponent
is what separates this codec from naive INT8: resolution adapts to
each block's local dynamic range instead of the whole tensor's, so the
roundtrip error stays proportional to the *local* scale — the reason
Table 6 shows ZFP preserving convergence where INT8 does not.

Mantissas are signed 8-bit integers, the paper's one operating point;
the per-block exponent adds ``8 / BLOCK`` bits per value of overhead.

A block's peak magnitude is read from the bit patterns: with the sign
bit cleared, a float32 orders like its int32 bits (NaN above inf above
every finite value, -0.0 as +0.0), so the row max of those ints,
viewed back as float32, is ``max(abs(block))`` bit for bit without a
float reduction.  That max is seeded with 0, which no magnitude's bits
fall below, so numpy skips its slow path for a reduction without an
identity (the seeding rule of :mod:`repro.nn.functional`).  The
non-finite check lives on those peaks too: a NaN or inf anywhere makes
its block's peak non-finite, so
:meth:`ZfpLikeCompressor.compress` rejects it with no extra pass over
the payload, and ``encode`` is that checked ``compress``.  Block
exponents are stored as int8: a peak at or above 2^127 is rejected,
and exponents below -128 (peaks under 2^-129, all subnormal) are
floored at -128, so such a block quantizes against 2^-128 instead of
wrapping to a huge scale and decoding to zeros.
"""

from __future__ import annotations

import numpy as np

from .base import CompressedTensor, Compressor, register_compressor

#: Values per block (ZFP uses 4^d; we block the flattened tensor).
BLOCK = 64

#: Signed mantissa bits per value.
RATE = 8

#: Largest block exponent an int8 holds: peaks must stay below 2^127.
_MAX_EXPONENT = 127

#: Smallest block exponent an int8 holds; lower ones are floored here.
_MIN_EXPONENT = -128

#: Largest quantized mantissa magnitude, 2^(RATE-1) - 1.
_QMAX = float(2 ** (RATE - 1) - 1)

#: A float32's bits with the sign bit cleared: its magnitude's bits.
_MAGNITUDE_BITS = np.int32(0x7FFFFFFF)


@register_compressor
class ZfpLikeCompressor(Compressor):
    """Fixed-rate block floating-point compression at ~8 bits per value.

    Cost model: GPU ZFP implementations on 2021-era consumer cards
    sustain on the order of 12-14 GB/s with a ~1 ms pipeline setup per
    invocation (kernel cascade + (E, C, M) layout gather/scatter +
    stream sync).  The fixed cost is what makes ZFP barely profitable
    on small A2A payloads (paper Table 8 / Section 7) while paying off
    4x-volume savings on large ones (Table 10).
    """

    name = "zfp"
    fixed_cost_s = 1.0e-3
    compress_bandwidth_bps = 12.0e9
    decompress_bandwidth_bps = 14.0e9
    bits_per_value = RATE + 8.0 / BLOCK

    def encode(self, tensor: np.ndarray) -> CompressedTensor:
        """:meth:`compress`, which checks for non-finite input itself."""
        return self.compress(tensor)

    def compress(self, tensor: np.ndarray) -> CompressedTensor:
        arr = np.asarray(tensor, dtype=np.float32)
        flat = arr.ravel()
        pad = (-flat.size) % BLOCK
        if pad:
            flat = np.concatenate([flat, np.zeros(pad, dtype=np.float32)])
        blocks = flat.reshape(-1, BLOCK)

        # Each block's max(abs) from its magnitude bits (module
        # docstring); the bits' buffer is reused for the quantized
        # values below.
        work = np.bitwise_and(blocks.view(np.int32), _MAGNITUDE_BITS)
        peaks = np.maximum.reduce(work, axis=1, initial=0).view(np.float32)
        if not np.all(np.isfinite(peaks)):
            raise ValueError(
                f"{self.name}: payload contains non-finite values; "
                "refusing to compress (scale factors would be poisoned)"
            )
        # frexp: |x| = m * 2^e with m in [0.5, 1); e is the exponent of
        # the block's largest magnitude (0 for all-zero blocks).
        _mant, exps = np.frexp(peaks)
        if np.any(exps > _MAX_EXPONENT):
            raise ValueError(
                f"{self.name}: a block peak is >= 2^{_MAX_EXPONENT}, past "
                f"the int8 block exponent's limit of {_MAX_EXPONENT}; "
                "refusing to compress (the exponent would wrap)"
            )
        np.maximum(exps, _MIN_EXPONENT, out=exps)

        # Quantize mantissas to RATE signed bits against 2^e: every
        # |x| <= peak < 2^e, so values land in [-_QMAX, _QMAX], and no
        # clip is needed.
        scales = np.ldexp(np.float32(1.0), exps)  # 2^e
        quant = np.divide(blocks, scales[:, None], out=work.view(np.float32))
        quant *= _QMAX
        np.rint(quant, out=quant)
        return CompressedTensor(
            codec=self.name,
            shape=arr.shape,
            dtype=np.dtype(np.float32),
            payload={
                "data": quant.astype(np.int8),
                "exponents": exps.astype(np.int8),
            },
            meta={"pad": pad},
        )

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        pad = compressed.meta["pad"]
        exps = compressed.payload["exponents"].astype(np.int32)
        data = compressed.payload["data"]
        blocks = data.reshape(len(exps), BLOCK).astype(np.float32)
        scales = np.ldexp(np.float32(1.0), exps)
        blocks *= scales[:, None] / _QMAX
        flat = blocks.ravel()
        if pad:
            flat = flat[:-pad]
        return flat.reshape(compressed.shape)
