"""A2A payload compression (the paper's ``AbsCompressor`` plugins).

Real numpy codecs — roundtrips introduce the codec's genuine error, so
the Table 6 convergence study is honest — paired with cost models the
step-time scheduler uses to price the compress/decompress tasks.
"""

from .base import (
    CompressedTensor,
    Compressor,
    available_compressors,
    get_compressor,
    register_compressor,
)
from .fidelity import (
    FidelityReport,
    codec_snr_db,
    collect_a2a_tensors,
    measure_fidelity,
)
from .simple import (
    Fp16Compressor,
    Int8ChannelCompressor,
    Int8Compressor,
    NoopCompressor,
)
from .zfp import ZfpLikeCompressor

__all__ = [
    "CompressedTensor",
    "Compressor",
    "FidelityReport",
    "Fp16Compressor",
    "Int8ChannelCompressor",
    "codec_snr_db",
    "collect_a2a_tensors",
    "measure_fidelity",
    "Int8Compressor",
    "NoopCompressor",
    "ZfpLikeCompressor",
    "available_compressors",
    "get_compressor",
    "register_compressor",
]
