"""Parallel sweep runner with a keyed on-disk result cache.

The paper's evaluation replays large configuration grids — Figure 8
alone is 675 grid points x 2 policies — and every point is a
deterministic function of (model config, cluster spec, policy, skew).
This module exploits that determinism twice, the way FSMoE-style
schedulers build on cached per-task performance models instead of
re-measuring everything:

* **caching** — every simulated step is stored under a content hash of
  its full configuration in an append-friendly JSONL file, so a re-run
  of a sweep (or a different sweep sharing points) replays from disk
  in milliseconds;
* **parallelism** — cache misses are partitioned into chunks executed
  by a ``multiprocessing`` pool, each worker holding its own
  :class:`~repro.systems.runner.SystemRunner` so profiler measurements
  are still reused within a chunk.

Because the simulator is deterministic, the parallel runner produces
*byte-identical* results to the serial one (asserted in
``tests/systems/test_sweep.py``); result order always follows task
order regardless of worker scheduling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterSpec
from ..core.imbalance import RoutingSkew
from ..core.system import (
    LayerTiming,
    StepBreakdown,
    SystemPolicy,
    simulate_model_step,
)
from ..core.scheduler import ScheduleResult
from ..core.tasks import Task, TaskDurations, TaskKind
from ..models.configs import MoEModelConfig
from .runner import SystemRunner

#: Bump when the simulator's semantics change in a way that
#: invalidates previously cached step results.
CACHE_VERSION = 2

#: Environment override for the worker count (0 or 1 forces serial).
PROCESSES_ENV = "REPRO_SWEEP_PROCESSES"


@dataclass(frozen=True)
class SweepTask:
    """One point of a sweep: simulate ``cfg`` under ``policy``.

    ``skew`` optionally injects dynamic routing imbalance (the
    imbalance ablation sweeps it); it is part of the cache key.
    """

    cfg: MoEModelConfig
    policy: SystemPolicy
    skew: Optional[RoutingSkew] = None


def _canonical(value):
    """A stable JSON-encodable view of dataclasses / primitives.

    Non-finite floats become string sentinels: :func:`task_key` hashes
    with ``allow_nan=False`` (strict JSON), so an ``inf`` reaching a
    cfg/spec/policy field (an unlimited-bandwidth link, an OOM-priced
    field) must not crash key computation.  The sentinels are plain
    strings, so they cannot collide with the float they stand for.
    Dict keys are stringified and sorted *by that string*, so
    heterogeneous key types (``{1: .., "a": ..}``) canonicalize
    deterministically instead of raising ``TypeError``; two distinct
    keys that stringify identically are rejected loudly.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        return {k: _canonical(v) for k, v in sorted(fields.items())}
    if isinstance(value, dict):
        out = {}
        for key, v in sorted(value.items(), key=lambda kv: str(kv[0])):
            text = str(key)
            if text in out:
                raise ValueError(
                    f"ambiguous cache-key dict: two keys stringify to "
                    f"{text!r}"
                )
            out[text] = _canonical(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "__nan__"
        return "__inf__" if value > 0 else "__-inf__"
    return value


def task_key(task: SweepTask, spec: ClusterSpec) -> str:
    """Content hash identifying one (config, policy, skew, cluster)."""
    payload = {
        "version": CACHE_VERSION,
        "cfg": _canonical(task.cfg),
        "policy": _canonical(task.policy),
        "skew": _canonical(task.skew) if task.skew is not None else None,
        "spec": _canonical(spec),
    }
    blob = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- StepBreakdown <-> JSON record ------------------------------------------


def _schedule_to_dict(schedule: ScheduleResult) -> dict:
    """A schedule as ``[kind, chunk, start, end]`` / ``[kind, chunk]`` rows."""
    return {
        "makespan": schedule.makespan,
        "timeline": [
            [task.kind.name, task.chunk, start, end]
            for task, (start, end) in schedule.timeline.items()
        ],
        "comp_order": [[t.kind.name, t.chunk] for t in schedule.comp_order],
        "comm_order": [[t.kind.name, t.chunk] for t in schedule.comm_order],
    }


def _schedule_from_dict(record: dict) -> ScheduleResult:
    def orders(rows):
        return tuple(Task(TaskKind[kind], chunk) for kind, chunk in rows)

    return ScheduleResult(
        makespan=record["makespan"],
        timeline={
            Task(TaskKind[kind], chunk): (start, end)
            for kind, chunk, start, end in record["timeline"]
        },
        comp_order=orders(record["comp_order"]),
        comm_order=orders(record["comm_order"]),
    )


#: StepBreakdown fields stored as they are; ``moe_layer`` is flattened.
_SCALAR_FIELDS = tuple(
    f.name for f in dataclasses.fields(StepBreakdown) if f.name != "moe_layer"
)


def breakdown_to_dict(b: StepBreakdown) -> dict:
    """Flatten a :class:`StepBreakdown` into JSON-serializable values.

    Infinities (OOM timings) rely on Python's default non-strict JSON
    round trip (``Infinity`` literals), which ``json.load`` restores
    exactly.
    """
    layer = b.moe_layer
    record = {name: getattr(b, name) for name in _SCALAR_FIELDS}
    record.update(
        durations=dataclasses.asdict(layer.durations),
        partitions=layer.partitions,
        forward=_schedule_to_dict(layer.forward),
        backward=_schedule_to_dict(layer.backward),
    )
    return record


def breakdown_from_dict(record: dict) -> StepBreakdown:
    """Rebuild the exact :class:`StepBreakdown` a worker computed."""
    return StepBreakdown(
        moe_layer=LayerTiming(
            durations=TaskDurations(**record["durations"]),
            partitions=record["partitions"],
            forward=_schedule_from_dict(record["forward"]),
            backward=_schedule_from_dict(record["backward"]),
        ),
        **{name: record[name] for name in _SCALAR_FIELDS},
    )


#: First-line marker of the JSONL cache format.
CACHE_FORMAT = "sweep-cache-jsonl"


class SweepCache:
    """A JSONL file of ``task_key -> StepBreakdown record``.

    Layout: a header line ``{"version": ..., "format":
    "sweep-cache-jsonl"}`` followed by one ``{"key": ..., "record":
    ...}`` entry per line.  :meth:`save` *appends* only the entries
    put since the last save — a sweep adding 10 points to a 10k-entry
    cache writes 10 lines, not the whole file — and concurrent writers
    sharing one path (e.g. two bench processes both filling
    ``benchmarks/out/sweep_cache.json``) interleave appends without a
    read-merge-write race window: no writer ever rewrites another's
    lines.  Keys are content hashes of the full task configuration and
    the simulator is deterministic, so a duplicate key is by
    construction the identical record; loading keeps the last
    occurrence and compacts the file (atomic tmp+replace) when it
    finds duplicates or the pre-JSONL single-document format.

    Corrupt entries — a torn trailing line from a writer killed
    mid-append, or any non-JSON garbage — are *quarantined*: moved
    verbatim to a ``.bad`` sidecar (``<path>.bad``, append-only) and
    compacted out of the main file, so nothing is silently dropped,
    nothing crashes the load, and an operator can inspect exactly what
    was torn.  ``quarantined_lines`` counts this load's victims.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._pending: Dict[str, dict] = {}
        self.entries, needs_compaction, bad_lines = self._read_disk()
        #: Corrupt lines moved to the ``.bad`` sidecar by this load.
        self.quarantined_lines = len(bad_lines)
        if bad_lines:
            try:
                self._quarantine(bad_lines)
                self._write_all(self.entries)
                needs_compaction = False
            except OSError:
                pass  # read-only location: serve entries from memory
        if needs_compaction and self.entries:
            try:
                self._write_all(self.entries)
            except OSError:
                pass  # read-only location: serve entries from memory

    @property
    def bad_path(self) -> Path:
        """The quarantine sidecar of this cache file."""
        return self.path.with_suffix(self.path.suffix + ".bad")

    def _quarantine(self, bad_lines: List[str]) -> None:
        """Append corrupt lines verbatim to the ``.bad`` sidecar."""
        self.bad_path.parent.mkdir(parents=True, exist_ok=True)
        with self.bad_path.open("a", encoding="utf-8") as fh:
            for line in bad_lines:
                fh.write(line + "\n")

    # -- on-disk format ------------------------------------------------------
    @staticmethod
    def _entry_line(key: str, record: dict) -> str:
        return json.dumps({"key": key, "record": record}) + "\n"

    def _read_disk(self) -> Tuple[Dict[str, dict], bool, List[str]]:
        """-> (entries, needs_compaction, bad_lines).

        Empty on missing/stale-version files.  Compaction is requested
        when the file is legacy single-document JSON or contains
        duplicate keys.  ``bad_lines`` collects corrupt/non-JSON lines
        for quarantine (a stale-but-valid version header is *not*
        corruption and quarantines nothing).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}, False, []
        lines = text.splitlines()
        try:
            head = json.loads(lines[0]) if lines else None
        except ValueError:
            head = None
        if isinstance(head, dict) and head.get("format") == CACHE_FORMAT:
            if head.get("version") != CACHE_VERSION:
                return {}, False, []
            entries: Dict[str, dict] = {}
            duplicates = False
            bad: List[str] = []
            for line in lines[1:]:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    bad.append(line)  # torn/partial append
                    continue
                if not isinstance(obj, dict):
                    bad.append(line)
                    continue
                key, record = obj.get("key"), obj.get("record")
                if not isinstance(key, str) or not isinstance(record, dict):
                    bad.append(line)
                    continue
                duplicates |= key in entries
                entries[key] = record
            return entries, duplicates, bad
        # Legacy format: one JSON document {"version": .., "entries": ..}.
        try:
            blob = json.loads(text)
        except ValueError:
            # Neither JSONL nor a JSON document: the whole file is
            # corrupt — quarantine every non-empty line.
            return {}, False, [ln for ln in lines if ln.strip()]
        if not isinstance(blob, dict) or blob.get("version") != CACHE_VERSION:
            return {}, False, []
        legacy = blob.get("entries", {})
        if not isinstance(legacy, dict):
            return {}, False, []
        return legacy, True, []  # migrate to JSONL

    def _has_header(self) -> bool:
        """Whether the on-disk file starts with a current JSONL header."""
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                head = json.loads(fh.readline())
        except (OSError, ValueError):
            return False
        return (
            isinstance(head, dict)
            and head.get("format") == CACHE_FORMAT
            and head.get("version") == CACHE_VERSION
        )

    def _write_all(self, entries: Dict[str, dict]) -> None:
        """Atomically rewrite the whole file (header + every entry)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"version": CACHE_VERSION, "format": CACHE_FORMAT})
                + "\n"
            )
            for key, record in entries.items():
                fh.write(self._entry_line(key, record))
        tmp.replace(self.path)

    # -- the cache interface -------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: str) -> Optional[dict]:
        return self.entries.get(key)

    def put(self, key: str, record: dict) -> None:
        self.entries[key] = record
        self._pending[key] = record

    def save(self) -> None:
        """Persist entries put since the last save, by appending.

        When the on-disk file already carries the JSONL header, this
        is a pure append of the pending lines.  Otherwise (fresh path,
        or the file was replaced by a legacy/corrupt/stale document
        after load) the whole cache is rewritten atomically, unioned
        with whatever valid entries the file holds at write time.
        """
        if not self._pending:
            return
        if self._has_header():
            with self.path.open("r+", encoding="utf-8") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() > 0:
                    fh.seek(fh.tell() - 1)
                    if fh.read(1) != "\n":
                        # A torn append left no trailing newline; start
                        # a fresh line so ours stays parseable.
                        fh.write("\n")
                for key, record in self._pending.items():
                    fh.write(self._entry_line(key, record))
        else:
            merged, _, _ = self._read_disk()
            merged.update(self.entries)
            self.entries = merged
            self._write_all(merged)
        self._pending.clear()


# -- execution ---------------------------------------------------------------


def _simulate(runner: SystemRunner, task: SweepTask) -> dict:
    result = simulate_model_step(
        task.cfg,
        runner.spec,
        task.policy,
        profiler=runner.profiler_for(task.policy),
        skew=task.skew,
    )
    return breakdown_to_dict(result)


def _run_chunk(args: Tuple[ClusterSpec, List[Tuple[int, SweepTask]]]):
    """Worker entry point: simulate one chunk with a private runner."""
    spec, indexed_tasks = args
    runner = SystemRunner(spec)
    return [(idx, _simulate(runner, task)) for idx, task in indexed_tasks]


def default_processes() -> int:
    """Worker count: ``REPRO_SWEEP_PROCESSES`` or the CPU count.

    An unparseable override raises instead of silently falling back to
    the CPU count — a typo'd knob must not quietly serialize (or
    quietly parallelize) a 675-configuration sweep.
    """
    env = os.environ.get(PROCESSES_ENV)
    if env is not None:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ValueError(
                f"{PROCESSES_ENV} must be an integer worker count, "
                f"got {env!r}"
            ) from None
    return os.cpu_count() or 1


def run_sweep(
    tasks: Sequence[SweepTask],
    spec: ClusterSpec,
    cache_path=None,
    processes: Optional[int] = None,
    chunks_per_process: int = 2,
) -> List[StepBreakdown]:
    """Simulate every task, in task order, parallel and cached.

    ``cache_path`` (optional) names the JSON result cache: hits skip
    simulation entirely, misses are computed and written back.
    ``processes`` defaults to :func:`default_processes`; 1 runs
    serially in-process with a single shared runner (maximal profiler
    reuse — the previous serial-sweep behaviour).
    """
    tasks = list(tasks)
    cache = SweepCache(cache_path) if cache_path is not None else None
    keys = [task_key(task, spec) for task in tasks]

    records: Dict[int, dict] = {}
    misses: List[Tuple[int, SweepTask]] = []
    for idx, (task, key) in enumerate(zip(tasks, keys)):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            records[idx] = hit
        else:
            misses.append((idx, task))

    if processes is None:
        processes = default_processes()
    processes = max(1, min(processes, len(misses) or 1))

    if misses and processes == 1:
        runner = SystemRunner(spec)
        for idx, task in misses:
            records[idx] = _simulate(runner, task)
    elif misses:
        num_chunks = min(
            len(misses), max(processes * chunks_per_process, 1)
        )
        chunks = [
            (spec, misses[i::num_chunks]) for i in range(num_chunks)
        ]
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            for chunk_result in pool.map(_run_chunk, chunks):
                for idx, record in chunk_result:
                    records[idx] = record

    if cache is not None:
        for idx, _task in misses:
            cache.put(keys[idx], records[idx])
        cache.save()

    return [breakdown_from_dict(records[idx]) for idx in range(len(tasks))]
