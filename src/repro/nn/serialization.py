"""Model checkpointing: one crash-safe writer, one reader.

:func:`save_checkpoint` writes a module's ``state_dict()`` as an
``.npz`` archive, one entry per parameter under its dotted name.  MoE
expert banks are stored in the *stacked* layout (``<bank>.w1``
(E, M, H), ``<bank>.b1`` (E, 1, H), ``<bank>.w2`` (E, H, M),
``<bank>.b2`` (E, 1, M)) matching :class:`~repro.moe.experts.Experts`.
:func:`load_checkpoint` returns the archive's arrays by name; restore a
model with ``model.load_state_dict(load_checkpoint(path))``, which
raises on any name or shape mismatch.  Elastic recovery
(:mod:`repro.faults.recovery`) restores lost experts through the same
reader.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

from .modules import Module


def save_checkpoint(model: Module, path: Union[str, Path]) -> None:
    """Write a model's parameters to disk.

    Parameter names may contain dots; they are stored verbatim as npz
    entries.  A ``path`` not ending in ``.npz`` gets that suffix
    appended, as ``np.savez`` does.

    The write is crash-safe: the archive is assembled in a ``.tmp``
    sibling in the target directory, fsynced and published with an
    atomic ``os.replace``, so a crash mid-write never leaves a
    truncated checkpoint visible at ``path`` — readers see either the
    previous complete checkpoint or the new complete one.
    """
    state = model.state_dict()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    final = (
        path
        if path.name.endswith(".npz")
        else path.with_name(path.name + ".npz")
    )
    tmp = final.with_name(final.name + ".tmp")
    try:
        # savez over an open file object writes exactly there (no
        # suffix games), letting us stage the whole archive first.
        with open(tmp, "wb") as fh:
            np.savez(fh, **state)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            tmp.unlink()


def load_checkpoint(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """The parameter arrays of a :func:`save_checkpoint` archive, by name."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}
