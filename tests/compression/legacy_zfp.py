"""zfp's ``compress`` as it was before its leaner rewrite, kept as a test reference.

Production takes each block's peak from the magnitude bits, checks
for non-finite input on those peaks, floors block exponents at -128
and drops the no-op clip.  This is the parent form verbatim --
``np.max(np.abs(...))`` peaks, no exponent floor, the clip -- written
as a function of the codec instance, and the parity suite checks that
the rewrite does not move a bit against it on any input both accept
(blocks whose peak is below 2^-129 aside: there the parent's int8
exponent wraps).  ``decompress`` did not change, so the suite decodes
both payloads with the production one.  The parent also ran at 4 and
16 bits per value; only its 8-bit branch, the codec's one rate, is
kept, and its ``meta`` no longer records the rate.
"""

import numpy as np

from repro.compression.base import CompressedTensor
from repro.compression.zfp import _MAX_EXPONENT, BLOCK


def legacy_compress(self, tensor: np.ndarray) -> CompressedTensor:
    arr = np.asarray(tensor, dtype=np.float32)
    flat = arr.ravel()
    pad = (-flat.size) % BLOCK
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.float32)])
    blocks = flat.reshape(-1, BLOCK)

    peaks = np.max(np.abs(blocks), axis=1)
    # frexp: |x| = m * 2^e with m in [0.5, 1); e is the exponent of
    # the block's largest magnitude (0 for all-zero blocks).
    _mant, exps = np.frexp(peaks)
    if np.any(exps > _MAX_EXPONENT):
        raise ValueError(
            f"{self.name}: a block peak is >= 2^{_MAX_EXPONENT}, past "
            f"the int8 block exponent's limit of {_MAX_EXPONENT}; "
            "refusing to compress (the exponent would wrap)"
        )
    exps = exps.astype(np.int8)

    # Quantize mantissas to 8 signed bits against 2^e: values land in
    # [-127, 127].
    qmax = float(2 ** (8 - 1) - 1)
    scales = np.ldexp(np.float32(1.0), exps.astype(np.int32))  # 2^e
    quant = blocks / scales[:, None]
    quant *= qmax
    np.rint(quant, out=quant)
    np.clip(quant, -qmax, qmax, out=quant)

    return CompressedTensor(
        codec=self.name,
        shape=arr.shape,
        dtype=np.dtype(np.float32),
        payload={"data": quant.astype(np.int8), "exponents": exps},
        meta={"pad": pad},
    )
