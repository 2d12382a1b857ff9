"""Model checkpointing: one crash-safe writer, one reader.

:func:`save_checkpoint` writes a module's ``state_dict()`` as an
``.npz`` archive, one entry per parameter under its dotted name.  A
path not ending in ``.npz`` names the archive with that suffix
appended, for the writer and the reader alike.  MoE expert banks are
stored in the *stacked* layout (``<bank>.w1`` (E, M, H), ``<bank>.b1``
(E, 1, H), ``<bank>.w2`` (E, H, M), ``<bank>.b2`` (E, 1, M)) matching
:class:`~repro.moe.experts.Experts`.
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


def _archive_path(path: Union[str, Path]) -> Path:
    """The file a checkpoint ``path`` names: ``path`` itself if it ends
    in ``.npz``, else ``path`` with that suffix appended, as
    ``np.savez`` does."""
    path = Path(path)
    if path.name.endswith(".npz"):
        return path
    return path.parent / (path.name + ".npz")


def save_checkpoint(model: Module, path: Union[str, Path]) -> None:
    """Write a model's parameters to :func:`_archive_path` ``(path)``.

    Parameter names may contain dots; they are stored verbatim as npz
    entries.

    The write is crash-safe: the archive is assembled in a ``.tmp``
    sibling in the target directory, fsynced and published with an
    atomic ``os.replace``, so a crash mid-write never leaves a
    truncated checkpoint visible at ``path`` — readers see either the
    previous complete checkpoint or the new complete one.
    """
    state = model.state_dict()
    final = _archive_path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
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
    """The parameter arrays of the :func:`save_checkpoint` archive
    written to ``path``, by name."""
    path = _archive_path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}
