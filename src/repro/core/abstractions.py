"""The pluggable abstraction modules of ScheMoE (paper Section 3.1).

The paper modularizes the MoE layer's time-consuming operations behind
three abstract interfaces so that new implementations plug into the
scheduling framework unchanged (Listing 1):

* :class:`AbsCompressor` — data compression of A2A payloads
  (``compress`` / ``decompress``); implemented by
  :mod:`repro.compression` (none / fp16 / int8 / zfp).
* :class:`AbsAlltoAll` — the all-to-all collective (``all_to_all``);
  implemented by :mod:`repro.collectives` (nccl / 1dh / 2dh / pipe).
* the expert abstraction — expert computation.  The paper does not
  make experts customizable ("the default fflayers are fast enough"),
  so no base class stands for it here: the experts are
  :class:`~repro.moe.experts.Experts`, and their task is priced by
  :meth:`~repro.core.profiler.Profiler.expert_seconds`.

This module re-exports the two pluggable bases under their paper names
and defines :func:`register_plugins`, the one-call equivalent of the
paper's Listing 2 registration lines.
"""

from __future__ import annotations

from typing import Optional, Type

from ..collectives.base import AllToAll as AbsAlltoAll
from ..collectives.base import register_a2a
from ..compression.base import Compressor as AbsCompressor
from ..compression.base import register_compressor


def register_plugins(
    compressor: Optional[Type[AbsCompressor]] = None,
    a2a: Optional[Type[AbsAlltoAll]] = None,
) -> None:
    """Register user implementations (paper Listing 2, lines 4-5).

    Equivalent to::

        schemoe.register_compressor(MyCompressor)
        schemoe.register_a2a(MyAlltoAll)
    """
    if compressor is not None:
        register_compressor(compressor)
    if a2a is not None:
        register_a2a(a2a)
