"""Model checkpointing: save/load state dicts as .npz archives.

Checkpoints store MoE expert parameters in the *stacked* bank layout
(``<bank>.w1`` (E, M, H), ``<bank>.b1`` (E, 1, H), ``<bank>.w2``
(E, H, M), ``<bank>.b2`` (E, 1, M)) matching
:class:`~repro.moe.experts.Experts`.

Elastic re-sharding support (see :mod:`repro.moe.placement` and
:mod:`repro.faults.recovery`):

* checkpoints can record the live
  :class:`~repro.moe.placement.ExpertPlacement` in their metadata
  (``save_checkpoint(..., placement=...)`` /
  :func:`checkpoint_placement`), so a resumed or recovered run knows
  where every expert lived;
* :func:`read_expert_bank` reads one named bank back, so recovery
  can restore lost experts row by row
  (:meth:`~repro.moe.experts.Experts.load_expert_slice`);
* ``save_checkpoint(..., extra_arrays=...)`` stores non-parameter
  arrays (optimizer moments, RNG state) under a reserved prefix,
  readable via :func:`load_extra_arrays` — what a bit-exact
  crash→resume needs beyond the parameters.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from .modules import Module

#: Reserved archive key holding JSON metadata.
_META_KEY = "__checkpoint_meta__"

#: Reserved archive-key prefix for non-parameter arrays
#: (``save_checkpoint(..., extra_arrays=...)``).
_EXTRA_PREFIX = "__extra__."

#: Metadata key under which ``save_checkpoint`` records a placement.
_PLACEMENT_META_KEY = "expert_placement"

#: Parameter names of one stacked expert bank.
_BANK_NAMES = ("w1", "b1", "w2", "b2")


def save_checkpoint(
    model: Module,
    path: Union[str, Path],
    metadata: Optional[Dict[str, Any]] = None,
    placement: Optional[Any] = None,
    extra_arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Write a model's parameters (and optional JSON metadata) to disk.

    Parameter names may contain dots; they are stored verbatim as npz
    entries.  ``metadata`` must be JSON-serializable.  MoE expert
    banks are written in the stacked layout.

    ``placement`` (an :class:`~repro.moe.placement.ExpertPlacement`)
    is recorded in the metadata under ``"expert_placement"`` — read it
    back with :func:`checkpoint_placement` — so recovery knows where
    each expert lived when the checkpoint was cut.  ``extra_arrays``
    stores non-parameter arrays (e.g. optimizer moments) under a
    reserved key prefix; :func:`load_checkpoint` ignores them and
    :func:`load_extra_arrays` returns them.

    The write is crash-safe: the archive is assembled in a ``.tmp``
    sibling in the target directory and published with an atomic
    ``os.replace``, so a crash mid-write never leaves a truncated
    checkpoint visible at ``path`` — readers see either the previous
    complete checkpoint or the new complete one.
    """
    state = model.state_dict()
    if _META_KEY in state:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    for name in state:
        if name.startswith(_EXTRA_PREFIX):
            raise ValueError(
                f"parameter name {name!r} collides with the reserved "
                f"{_EXTRA_PREFIX!r} prefix"
            )
    payload = dict(state)
    for name, value in (extra_arrays or {}).items():
        payload[_EXTRA_PREFIX + name] = np.asarray(value)
    meta = dict(metadata or {})
    if placement is not None:
        if _PLACEMENT_META_KEY in meta:
            raise ValueError(
                f"metadata key {_PLACEMENT_META_KEY!r} is reserved "
                "for the placement= argument"
            )
        meta[_PLACEMENT_META_KEY] = placement.to_json_dict()
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # np.savez appends ".npz" to suffix-less string paths; mirror that
    # so the atomic rename publishes to the historical destination.
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
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            tmp.unlink()


def _parameter_arrays(archive) -> Dict[str, np.ndarray]:
    """An open archive's parameter arrays: no metadata, no extras."""
    return {
        name: archive[name]
        for name in archive.files
        if name != _META_KEY and not name.startswith(_EXTRA_PREFIX)
    }


def load_checkpoint(
    model: Module, path: Union[str, Path]
) -> Dict[str, Any]:
    """Load parameters saved by :func:`save_checkpoint` into ``model``.

    Returns the stored metadata dict.  Raises on any name or shape
    mismatch (strict loading).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        meta_raw = archive[_META_KEY].tobytes().decode("utf-8")
        state = _parameter_arrays(archive)
    model.load_state_dict(state)
    return json.loads(meta_raw)


def load_extra_arrays(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read the ``extra_arrays`` stored by :func:`save_checkpoint`.

    Returns ``{}`` for checkpoints written without extras.  Keys come
    back exactly as passed to ``save_checkpoint`` (the reserved
    on-disk prefix is stripped).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        return {
            name[len(_EXTRA_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_EXTRA_PREFIX)
        }


def checkpoint_placement(metadata: Dict[str, Any]):
    """The :class:`~repro.moe.placement.ExpertPlacement` recorded in
    checkpoint metadata, or ``None`` if the checkpoint predates
    placements (was saved without ``placement=``)."""
    blob = metadata.get(_PLACEMENT_META_KEY)
    if blob is None:
        return None
    from ..moe.placement import ExpertPlacement

    return ExpertPlacement.from_json_dict(blob)


def read_expert_bank(
    path: Union[str, Path], num_experts: int, prefix: str
) -> Dict[str, np.ndarray]:
    """The stacked ``w1``/``b1``/``w2``/``b2`` expert bank in a checkpoint.

    ``prefix`` names the bank's module path (``"experts"`` in a
    :class:`~repro.moe.layer.MoELayer` checkpoint, ``""`` for a bank at
    the root, ``"blocks.items.3.ffn.experts"`` inside a model; a
    trailing ``"."`` is optional).  Raises ``KeyError`` unless the
    checkpoint holds all four arrays there, each with ``num_experts``
    experts.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    base = prefix if not prefix or prefix.endswith(".") else prefix + "."
    with np.load(path, allow_pickle=False) as archive:
        bank = {
            name: archive[base + name]
            for name in _BANK_NAMES
            if base + name in archive.files
        }
    if len(bank) < len(_BANK_NAMES) or any(
        value.shape[:1] != (num_experts,) for value in bank.values()
    ):
        raise KeyError(
            f"no expert bank {prefix!r} with {num_experts} experts in {path}"
        )
    return bank
