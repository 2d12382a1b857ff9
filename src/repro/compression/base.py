"""Compression abstraction (the paper's ``AbsCompressor``).

A compressor is *both* a real codec (numpy in / numpy out, so the
convergence experiments of Table 6 exercise genuine quantization
error) and a cost model (so the step-time simulator can price the
compress/decompress computing tasks the scheduler interleaves).

New codecs subclass :class:`Compressor`, implement ``compress`` /
``decompress`` (the paper's Listing 1 interface), and register with
:func:`register_compressor`; the ScheMoE scheduler then handles them
like any built-in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Type

import numpy as np


@dataclass
class CompressedTensor:
    """Opaque wire representation produced by a compressor.

    ``payload`` holds the codec-specific arrays; ``meta`` whatever the
    codec needs to invert them; ``nbytes`` is the wire size used for
    communication costing.
    """

    codec: str
    shape: tuple
    dtype: np.dtype
    payload: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Total wire bytes of the payload."""
        return int(sum(arr.nbytes for arr in self.payload.values()))


class Compressor(ABC):
    """Base class of A2A payload codecs.

    ``bits_per_value`` is the average wire bits per fp32 element and
    determines the communication-volume reduction; ``compress_cost`` /
    ``decompress_cost`` price the computing tasks as
    ``fixed_cost_s + nbytes / bandwidth``.
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: Average wire bits per input element (32 = no compression).
    bits_per_value: float = 32.0
    #: Fixed per-invocation cost (kernel pipeline launch, layout
    #: gather/scatter, stream sync).  Dominates on small payloads —
    #: the reason compression barely pays off on models with small A2A
    #: tensors (paper Sections 6.3 and 7).
    fixed_cost_s: float = 0.0
    #: Sustained codec throughput in input fp32 bytes/second; the
    #: infinite default prices a codec at ``fixed_cost_s`` alone.
    compress_bandwidth_bps: float = float("inf")
    decompress_bandwidth_bps: float = float("inf")

    @abstractmethod
    def compress(self, tensor: np.ndarray) -> CompressedTensor:
        """Encode an fp32 tensor into its wire representation."""

    @abstractmethod
    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        """Invert :meth:`compress`; returns an fp32 tensor."""

    def encode(self, tensor: np.ndarray) -> CompressedTensor:
        """The sender's half: :meth:`compress` behind a non-finite check.

        Rejects non-finite input: a NaN/Inf activation would otherwise
        silently poison scale factors (INT8's global max, ZFP's block
        exponents) and corrupt every other value in the payload.
        """
        arr = np.asarray(tensor, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError(
                f"{self.name}: payload contains non-finite values; "
                "refusing to compress (scale factors would be poisoned)"
            )
        return self.compress(arr)

    def roundtrip(self, tensor: np.ndarray) -> np.ndarray:
        """encode + decompress, as experienced by the receiving expert."""
        return self.decompress(self.encode(tensor))

    @property
    def ratio(self) -> float:
        """Volume reduction factor over fp32."""
        return 32.0 / self.bits_per_value

    def compressed_bytes(self, nbytes: float) -> float:
        """Wire size of an fp32 payload of ``nbytes``."""
        return nbytes / self.ratio

    def compress_cost(self, nbytes: float) -> float:
        """Seconds of GPU time to compress an fp32 payload of ``nbytes``."""
        return self.fixed_cost_s + nbytes / self.compress_bandwidth_bps

    def decompress_cost(self, nbytes: float) -> float:
        """Seconds of GPU time to decompress back to ``nbytes`` of fp32."""
        return self.fixed_cost_s + nbytes / self.decompress_bandwidth_bps

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self.bits_per_value:g}b>"


_REGISTRY: Dict[str, Type[Compressor]] = {}


def register_compressor(cls: Type[Compressor]) -> Type[Compressor]:
    """Class decorator adding a codec to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"compressor {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_compressor(name: str) -> Compressor:
    """Instantiate a registered codec by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown compressor {name!r}; known: {known}")
    return cls()


def available_compressors() -> List[str]:
    """Names of all registered codecs."""
    return sorted(_REGISTRY)
