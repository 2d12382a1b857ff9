"""Model checkpointing: save/load state dicts as .npz archives.

Checkpoints store MoE expert parameters in the *stacked* bank layout
(``<bank>.w1`` (E, M, H), ``<bank>.b1`` (E, 1, H), ``<bank>.w2``
(E, H, M), ``<bank>.b2`` (E, 1, M)) matching
:class:`~repro.moe.experts.Experts`.  Checkpoints written before the
bank existed used one FeedForward module per expert
(``<bank>.experts.items.<i>.fc{1,2}.{weight,bias}``);
:func:`load_checkpoint` upgrades that layout transparently.  The
conversion is key-pattern based — it needs no model, only the state
dict.

Elastic re-sharding support (see :mod:`repro.moe.placement` and
:mod:`repro.faults.recovery`):

* checkpoints can record the live
  :class:`~repro.moe.placement.ExpertPlacement` in their metadata
  (``save_checkpoint(..., placement=...)`` /
  :func:`checkpoint_placement`), so a resumed or recovered run knows
  where every expert lived;
* :func:`read_expert_bank` reads one stacked bank back, so recovery
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
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .modules import Module

#: Reserved archive key holding JSON metadata.
_META_KEY = "__checkpoint_meta__"

#: Reserved archive-key prefix for non-parameter arrays
#: (``save_checkpoint(..., extra_arrays=...)``).
_EXTRA_PREFIX = "__extra__."

#: Metadata key under which ``save_checkpoint`` records a placement.
_PLACEMENT_META_KEY = "expert_placement"

#: Legacy per-expert parameter key:
#: ``<bank>.experts.items.<i>.fc{1,2}.{weight,bias}`` (the old Experts
#: held a ModuleList of FeedForwards in its ``experts`` attribute).
_LEGACY_EXPERT_RE = re.compile(
    r"^(?:(?P<bank>.+)\.)?experts\.items\.(?P<idx>\d+)"
    r"\.fc(?P<fc>[12])\.(?P<kind>weight|bias)$"
)

#: (fc index, weight|bias) -> stacked parameter name.
_STACKED_NAMES = {
    ("1", "weight"): "w1",
    ("1", "bias"): "b1",
    ("2", "weight"): "w2",
    ("2", "bias"): "b2",
}

def stack_expert_state(
    state: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Upgrade legacy per-expert FFN keys to the stacked bank layout.

    Non-expert keys pass through untouched; a state dict already in
    stacked layout is returned unchanged (a fresh dict, same arrays).
    Raises ``KeyError`` if a bank's expert indices have gaps.
    """
    out = {
        key: value
        for key, value in state.items()
        if not _LEGACY_EXPERT_RE.match(key)
    }
    groups: Dict[tuple, Dict[int, np.ndarray]] = {}
    for key, value in state.items():
        match = _LEGACY_EXPERT_RE.match(key)
        if not match:
            continue
        name = _STACKED_NAMES[(match["fc"], match["kind"])]
        groups.setdefault((match["bank"], name), {})[int(match["idx"])] = (
            np.asarray(value)
        )
    for (bank, name), parts in groups.items():
        indices = sorted(parts)
        if indices != list(range(len(indices))):
            raise KeyError(
                f"expert bank {bank or '<root>'}.{name}: "
                f"non-contiguous expert indices {indices}"
            )
        slabs = [parts[i] for i in indices]
        if name in ("b1", "b2"):  # (H,) -> (1, H) per expert
            slabs = [s.reshape(1, -1) for s in slabs]
        stacked_key = f"{bank}.{name}" if bank else name
        out[stacked_key] = np.stack(slabs, axis=0)
    return out


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
    mismatch (strict loading).  Checkpoints written in the legacy
    per-expert layout are upgraded to the stacked bank layout before
    loading, so old archives load into current models unchanged.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        meta_raw = archive[_META_KEY].tobytes().decode("utf-8")
        state = _parameter_arrays(archive)
    model.load_state_dict(stack_expert_state(state))
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


def _bank_bases(state: Dict[str, np.ndarray], num_experts: int) -> List[str]:
    """Key prefixes of every stacked expert bank with ``num_experts``
    experts in ``state`` (``""`` for root-level ``w1``..``b2``)."""
    bases = []
    for key in state:
        if key != "w1" and not key.endswith(".w1"):
            continue
        base = key[: -len("w1")]
        names = {n: base + n for n in ("w1", "b1", "w2", "b2")}
        if not all(n in state for n in names.values()):
            continue
        w1 = np.asarray(state[names["w1"]])
        w2 = np.asarray(state[names["w2"]])
        b1 = np.asarray(state[names["b1"]])
        b2 = np.asarray(state[names["b2"]])
        if w1.ndim != 3 or w1.shape[0] != num_experts:
            continue
        _, model_dim, hidden_dim = w1.shape
        if (
            w2.shape != (num_experts, hidden_dim, model_dim)
            or b1.shape != (num_experts, 1, hidden_dim)
            or b2.shape != (num_experts, 1, model_dim)
        ):
            continue
        bases.append(base)
    return bases


def read_expert_bank(
    path: Union[str, Path], num_experts: int, prefix: Optional[str] = None
) -> Dict[str, np.ndarray]:
    """The stacked ``w1``/``b1``/``w2``/``b2`` expert bank in a checkpoint.

    ``prefix`` names the bank's module path (``"experts"`` in a
    :class:`~repro.moe.layer.MoELayer` checkpoint, ``""`` for a bank at
    the root, ``"blocks.items.3.ffn.experts"`` inside a model; a
    trailing ``"."`` is optional); ``None`` picks the one
    bank of ``num_experts`` experts the checkpoint holds.  Legacy
    per-expert checkpoints are stacked first.  Raises ``KeyError``
    when the named bank is missing, when no bank has ``num_experts``
    experts, or when ``prefix=None`` finds more than one.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as archive:
        state = stack_expert_state(_parameter_arrays(archive))
    bases = _bank_bases(state, num_experts)
    if prefix is not None:
        base = prefix if not prefix or prefix.endswith(".") else prefix + "."
        if base not in bases:
            raise KeyError(
                f"no expert bank {prefix!r} with {num_experts} experts "
                f"in {path} (found: {sorted(bases)})"
            )
    elif len(bases) == 1:
        base = bases[0]
    elif not bases:
        raise KeyError(
            f"no stacked expert bank with {num_experts} experts in {path}"
        )
    else:
        raise KeyError(
            f"{path} holds {len(bases)} expert banks ({sorted(bases)}); "
            "pass prefix= to pick one"
        )
    return {n: state[base + n] for n in ("w1", "b1", "w2", "b2")}
