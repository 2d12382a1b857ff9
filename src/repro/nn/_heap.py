"""Keep glibc's heap across training steps.

A training step frees most of what it allocated: at ``zero_grad`` the
previous step's gradients go, and during ``backward`` the tape, node by
node.
With its default dynamic thresholds glibc returns the top of the heap
to the kernel whenever more than its trim threshold is free there, and
the next forward and backward fault every page back in.  For
``layer_train`` (one Table-4 MoE layer, T=4096 M=256 H=512 E=32 k=2
f=1.2, Adam) on a 2-CPU SkylakeX host that was 5,600–7,100 minor
faults and 15–40 ms of system time in each ~210 ms step: the heap
(``mallinfo2().arena``) shrank from ~165 MiB to 35–43 MiB at every
``zero_grad``.

Importing :mod:`repro.nn` sets two malloc parameters:

* ``M_MMAP_THRESHOLD`` = 32 MiB, the largest glibc accepts on 64-bit
  and the ceiling its own dynamic rule reaches, so arrays up to 32 MiB
  come from the heap, where freed memory stays mapped;
* ``M_TRIM_THRESHOLD`` = 1 GiB, so the heap top is kept.

Both are needed.  Setting either one turns glibc's dynamic thresholds
off, and a trim threshold alone would leave the mmap threshold at its
128 KiB start: every larger array would then be mmapped, and faulted
in, on every allocation.  With both, a steady ``layer_train`` step
takes a handful of faults and no measurable system time.

``mallopt`` is looked up in the C library the process already loaded
(``ctypes.util.find_library`` would start ``ldconfig``/``gcc``
subprocesses).  Where it is missing (macOS) or refuses (musl's stub
returns 0), nothing changes and :data:`KEEPS_HEAP` is False.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_heap() -> bool:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    )


#: Whether the policy above took effect in this process.
KEEPS_HEAP = _keep_heap()
