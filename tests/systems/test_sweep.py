"""Tests for the parallel cached sweep runner.

The simulator is deterministic, so the one hard guarantee worth
testing is byte-identity: serial, parallel, and cache-replayed runs
of the same task list must produce exactly the same statistics.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import paper_testbed
from repro.core import RoutingSkew, SystemPolicy
from repro.models import ablation_layer, bert_large_moe, ct_moe
from repro.systems import (
    SweepCache,
    SweepTask,
    SystemRunner,
    fastermoe,
    run_sweep,
    schemoe,
    task_key,
    tutel,
)
from repro.systems.sweep import (
    CACHE_FORMAT,
    CACHE_VERSION,
    breakdown_from_dict,
    breakdown_to_dict,
)


def read_cache_file(path):
    """Parse a JSONL cache file -> (header dict, entries dict)."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    entries = {}
    for line in lines[1:]:
        obj = json.loads(line)
        entries[obj["key"]] = obj["record"]
    return header, entries


@pytest.fixture
def tasks():
    cfgs = [ct_moe(12), ct_moe(24)]
    return [
        SweepTask(cfg, policy)
        for cfg in cfgs
        for policy in (tutel(), schemoe())
    ]


def as_dicts(results):
    return [breakdown_to_dict(r) for r in results]


def test_matches_direct_simulation(tasks):
    spec = paper_testbed()
    runner = SystemRunner(spec)
    direct = [
        runner.step(task.cfg, task.policy) for task in tasks
    ]
    swept = run_sweep(tasks, spec, processes=1)
    assert as_dicts(swept) == as_dicts(direct)


def test_parallel_byte_identical_to_serial(tasks):
    spec = paper_testbed()
    serial = run_sweep(tasks, spec, processes=1)
    parallel = run_sweep(tasks, spec, processes=2, chunks_per_process=1)
    assert as_dicts(parallel) == as_dicts(serial)


def test_warm_cache_replays_identically(tasks, tmp_path):
    spec = paper_testbed()
    cache_path = tmp_path / "cache.json"
    cold = run_sweep(tasks, spec, cache_path=cache_path, processes=1)
    assert cache_path.exists()

    header, entries = read_cache_file(cache_path)
    assert header == {"version": CACHE_VERSION, "format": CACHE_FORMAT}
    assert len(entries) == len(tasks)

    # Poison the simulator-visible spec? No — simpler: the warm run
    # must not simulate at all, which we observe via the cache file
    # staying byte-identical and the results matching exactly.
    before = cache_path.read_bytes()
    warm = run_sweep(tasks, spec, cache_path=cache_path, processes=1)
    assert cache_path.read_bytes() == before
    assert as_dicts(warm) == as_dicts(cold)


def test_cache_shared_across_orderings(tasks, tmp_path):
    spec = paper_testbed()
    cache_path = tmp_path / "cache.json"
    first = run_sweep(tasks, spec, cache_path=cache_path, processes=1)
    reordered = list(reversed(tasks))
    second = run_sweep(reordered, spec, cache_path=cache_path, processes=1)
    assert as_dicts(second) == list(reversed(as_dicts(first)))


def test_key_sensitivity():
    spec = paper_testbed()
    base = SweepTask(ct_moe(12), tutel())
    assert task_key(base, spec) == task_key(
        SweepTask(ct_moe(12), tutel()), spec
    )
    assert task_key(base, spec) != task_key(
        SweepTask(ct_moe(24), tutel()), spec
    )
    assert task_key(base, spec) != task_key(
        SweepTask(ct_moe(12), schemoe()), spec
    )
    assert task_key(base, spec) != task_key(
        SweepTask(ct_moe(12), tutel(), skew=RoutingSkew(1.0)), spec
    )


def test_skew_part_of_key_and_result():
    spec = paper_testbed()
    cfg = ct_moe(12)
    # A capacity-free policy slows down under skew, so the two tasks
    # must hash (and simulate) differently.
    flat, skewed = run_sweep(
        [
            SweepTask(cfg, fastermoe()),
            SweepTask(cfg, fastermoe(), skew=RoutingSkew(2.0)),
        ],
        spec,
        processes=1,
    )
    assert flat.total_s != skewed.total_s


def test_breakdown_roundtrip_with_oom():
    """The cache's JSON trip rebuilds whole records, schedules included.

    Covers a healthy step, a memory OOM and an A2A that runs out of
    memory (infinite durations, makespans and task times).
    """
    spec = paper_testbed()
    runner = SystemRunner(spec)
    huge = dataclasses.replace(ablation_layer(), batch_per_gpu=32)
    results = [
        runner.step(ct_moe(12), schemoe()),
        runner.step(bert_large_moe(), fastermoe()),
        runner.step(huge, SystemPolicy(name="1dh", a2a="1dh")),
    ]
    assert [r.oom for r in results] == [False, True, True]
    assert np.isinf(results[2].moe_layer.durations.a2a)
    assert np.isinf(results[2].moe_layer.forward_s)
    for result in results:
        replayed = json.loads(json.dumps(breakdown_to_dict(result)))
        assert breakdown_from_dict(replayed) == result


def test_interleaved_writers_lose_no_entries(tmp_path):
    """Two writers sharing one path never drop each other's entries.

    Appends interleave: no save ever rewrites another writer's lines,
    so there is no read-merge-write race window at all (the original
    bug was a read-once/write-all lost update).
    """
    path = tmp_path / "cache.json"
    a = SweepCache(path)  # both load the (empty) file up front
    b = SweepCache(path)

    a.put("key-a1", {"from": "a1"})
    a.save()
    # b never saw a's save; its in-memory view is still empty.
    b.put("key-b1", {"from": "b1"})
    b.save()
    a.put("key-a2", {"from": "a2"})
    a.save()

    _, on_disk = read_cache_file(path)
    assert on_disk == {
        "key-a1": {"from": "a1"},
        "key-b1": {"from": "b1"},
        "key-a2": {"from": "a2"},
    }
    # A fresh reader sees the union.
    assert len(SweepCache(path)) == 3


def test_save_appends_instead_of_rewriting(tmp_path):
    """A second save only appends — earlier lines stay byte-identical."""
    path = tmp_path / "cache.json"
    cache = SweepCache(path)
    cache.put("k1", {"n": 1})
    cache.save()
    before = path.read_bytes()
    cache.put("k2", {"n": 2})
    cache.save()
    after = path.read_bytes()
    assert after.startswith(before)
    assert len(after.splitlines()) == len(before.splitlines()) + 1


def test_legacy_json_cache_migrates_to_jsonl(tmp_path):
    """Pre-JSONL single-document caches load and compact in place."""
    path = tmp_path / "cache.json"
    path.write_text(
        json.dumps(
            {"version": CACHE_VERSION, "entries": {"old-key": {"n": 7}}}
        )
    )
    cache = SweepCache(path)
    assert cache.get("old-key") == {"n": 7}
    # The file itself was compacted to the JSONL layout on load.
    header, entries = read_cache_file(path)
    assert header["format"] == CACHE_FORMAT
    assert entries == {"old-key": {"n": 7}}


def test_torn_trailing_line_is_skipped(tmp_path):
    """A writer killed mid-append leaves a partial line, not a loss."""
    path = tmp_path / "cache.json"
    cache = SweepCache(path)
    cache.put("whole", {"n": 1})
    cache.save()
    with path.open("a") as fh:
        fh.write('{"key": "torn", "rec')  # no newline, no close
    reloaded = SweepCache(path)
    assert len(reloaded) == 1
    assert reloaded.get("whole") == {"n": 1}
    # And the survivor can keep appending past the torn line.
    reloaded.put("next", {"n": 2})
    reloaded.save()
    assert len(SweepCache(path)) == 2


def test_duplicate_keys_compact_on_load(tmp_path):
    """Interleaved writers may append the same key twice; the loader
    keeps the last occurrence and compacts the file."""
    path = tmp_path / "cache.json"
    cache = SweepCache(path)
    cache.put("dup", {"n": 1})
    cache.save()
    with path.open("a") as fh:
        fh.write(json.dumps({"key": "dup", "record": {"n": 2}}) + "\n")
    reloaded = SweepCache(path)
    assert reloaded.get("dup") == {"n": 2}
    _, entries = read_cache_file(path)
    assert entries == {"dup": {"n": 2}}
    assert len(path.read_text().splitlines()) == 2  # header + 1 entry


def test_save_without_puts_is_a_noop(tmp_path):
    path = tmp_path / "cache.json"
    cache = SweepCache(path)
    cache.save()
    assert not path.exists()


def test_version_mismatch_discards_cache(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text(
        json.dumps({"version": CACHE_VERSION + 1, "entries": {"k": {}}})
    )
    assert len(SweepCache(cache_path)) == 0
    # Same for a stale JSONL header.
    cache_path.write_text(
        json.dumps({"version": CACHE_VERSION + 1, "format": CACHE_FORMAT})
        + "\n"
        + json.dumps({"key": "k", "record": {}})
        + "\n"
    )
    assert len(SweepCache(cache_path)) == 0


def test_corrupt_cache_ignored(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json")
    assert len(SweepCache(cache_path)) == 0
    run_sweep(
        [SweepTask(ct_moe(12), tutel())],
        paper_testbed(),
        cache_path=cache_path,
        processes=1,
    )
    header, entries = read_cache_file(cache_path)
    assert header["version"] == CACHE_VERSION
    assert len(entries) == 1


def test_torn_line_quarantined_to_bad_sidecar(tmp_path):
    """Corrupt lines move to ``<path>.bad`` instead of vanishing."""
    path = tmp_path / "cache.json"
    cache = SweepCache(path)
    cache.put("whole", {"n": 1})
    cache.save()
    with path.open("a") as fh:
        fh.write('{"key": "torn", "rec')  # killed mid-append
    reloaded = SweepCache(path)
    assert reloaded.quarantined_lines == 1
    assert reloaded.get("whole") == {"n": 1}
    # The garbage now lives in the sidecar, verbatim.
    assert reloaded.bad_path == path.with_suffix(".json.bad")
    assert '{"key": "torn", "rec' in reloaded.bad_path.read_text()
    # ... and the main file was compacted clean of it.
    assert "torn" not in path.read_text()
    header, entries = read_cache_file(path)
    assert entries == {"whole": {"n": 1}}
    # A second load finds nothing left to quarantine.
    assert SweepCache(path).quarantined_lines == 0


def test_torn_write_then_concurrent_writer_append(tmp_path):
    """A torn write never poisons a concurrent writer's append.

    Writer A appends a good entry; some writer dies mid-append leaving
    a partial line with no trailing newline; A (which never reloads)
    appends again.  The newline guard keeps A's entry on its own line,
    so a fresh reader recovers both good entries and quarantines only
    the torn fragment.
    """
    path = tmp_path / "cache.json"
    writer = SweepCache(path)
    writer.put("first", {"n": 1})
    writer.save()
    with path.open("a") as fh:
        fh.write('{"key": "torn", "rec')  # no newline, no close
    writer.put("second", {"n": 2})
    writer.save()  # concurrent append, unaware of the torn line

    reader = SweepCache(path)
    assert reader.get("first") == {"n": 1}
    assert reader.get("second") == {"n": 2}
    assert len(reader) == 2
    assert reader.quarantined_lines == 1
    assert '{"key": "torn", "rec' in reader.bad_path.read_text()
    _, entries = read_cache_file(path)
    assert entries == {"first": {"n": 1}, "second": {"n": 2}}


def test_fully_corrupt_file_quarantines_every_line(tmp_path):
    """A file that is neither JSONL nor legacy JSON is quarantined
    wholesale, and the cache starts fresh (see
    ``test_corrupt_cache_ignored`` for the no-sidecar half)."""
    path = tmp_path / "cache.json"
    path.write_text("{not json\nstill not json\n")
    cache = SweepCache(path)
    assert len(cache) == 0
    assert cache.quarantined_lines == 2
    bad = cache.bad_path.read_text().splitlines()
    assert bad == ["{not json", "still not json"]


def test_stale_version_is_not_quarantined(tmp_path):
    """Old-but-valid caches are discarded, not treated as corruption."""
    path = tmp_path / "cache.json"
    path.write_text(
        json.dumps({"version": CACHE_VERSION + 1, "format": CACHE_FORMAT})
        + "\n"
        + json.dumps({"key": "k", "record": {}})
        + "\n"
    )
    cache = SweepCache(path)
    assert len(cache) == 0
    assert cache.quarantined_lines == 0
    assert not cache.bad_path.exists()


def test_quarantine_sidecar_accumulates_across_loads(tmp_path):
    """Each load appends its victims; earlier quarantines survive."""
    path = tmp_path / "cache.json"
    cache = SweepCache(path)
    cache.put("k", {"n": 1})
    cache.save()
    with path.open("a") as fh:
        fh.write("garbage-one\n")
    SweepCache(path)  # quarantines garbage-one, compacts
    with path.open("a") as fh:
        fh.write("garbage-two\n")
    cache = SweepCache(path)
    assert cache.quarantined_lines == 1
    bad = cache.bad_path.read_text().splitlines()
    assert bad == ["garbage-one", "garbage-two"]


# -- default_processes env parsing -------------------------------------------


def test_bad_processes_env_raises(monkeypatch):
    """A typo'd REPRO_SWEEP_PROCESSES must fail loudly, not fall back."""
    from repro.systems.sweep import PROCESSES_ENV, default_processes

    monkeypatch.setenv(PROCESSES_ENV, "four")
    with pytest.raises(ValueError, match="REPRO_SWEEP_PROCESSES") as err:
        default_processes()
    assert "'four'" in str(err.value)


def test_processes_env_parses_and_clamps(monkeypatch):
    from repro.systems.sweep import PROCESSES_ENV, default_processes

    monkeypatch.setenv(PROCESSES_ENV, "3")
    assert default_processes() == 3
    monkeypatch.setenv(PROCESSES_ENV, "0")
    assert default_processes() == 1  # 0/negatives clamp to serial
    monkeypatch.delenv(PROCESSES_ENV)
    assert default_processes() >= 1


# -- _canonical edge cases ----------------------------------------------------


def test_canonical_nonfinite_floats_become_sentinels():
    from repro.systems.sweep import _canonical

    assert _canonical(float("inf")) == "__inf__"
    assert _canonical(float("-inf")) == "__-inf__"
    assert _canonical(float("nan")) == "__nan__"
    assert _canonical(1.5) == 1.5
    assert _canonical([float("inf"), {"a": float("nan")}]) == [
        "__inf__",
        {"a": "__nan__"},
    ]


def test_task_key_with_nonfinite_policy_field():
    """An inf-valued policy field must hash (and hash differently)."""
    import dataclasses

    spec = paper_testbed()
    cfg = ct_moe(12)
    inf_task = SweepTask(
        cfg,
        dataclasses.replace(tutel(), comm_inefficiency=float("inf")),
    )
    finite = SweepTask(cfg, tutel())
    key = task_key(inf_task, spec)  # must not raise (allow_nan=False)
    assert key != task_key(finite, spec)


def test_canonical_mixed_type_dict_keys_are_deterministic():
    from repro.systems.sweep import _canonical

    out = _canonical({1: "a", "0": "b", 2.5: "c"})
    assert out == {"0": "b", "1": "a", "2.5": "c"}
    assert list(out) == ["0", "1", "2.5"]  # sorted by stringified key


def test_canonical_rejects_colliding_stringified_keys():
    from repro.systems.sweep import _canonical

    with pytest.raises(ValueError, match="stringify"):
        _canonical({1: "a", "1": "b"})
