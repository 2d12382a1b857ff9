"""An exception in any one task of the expert-parallel group.

Each of the 21 tasks of an r=3 forward (zfp on the wire) is made to
raise, before or after its own work, under both pipelines.  The group
must re-raise the error without deadlocking, clear its in-flight flag,
leave ``inference_mode()``, and compute the next forward bit for bit
like a fresh sync group: a failed pass leaves nothing behind that the
next one reads.

A fault inside the codec is covered too: a ``decompress`` that raises
partway through D1 or D2, after that task took its staged payloads
off the inbox, aborts the pass the same way.
"""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.core.runtime import StreamExecutor
from repro.core.tasks import make_tasks
from repro.moe import parallel as parallel_module
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import is_inference

from .test_parallel_codec import forward_or_hang, make_layer, make_shards

NUM_CHUNKS = 3


class InjectedFault(RuntimeError):
    """Raised by the one task a case arms."""


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("pipeline", ["sync", "overlap"])
@pytest.mark.parametrize("target", make_tasks(NUM_CHUNKS), ids=repr)
def test_exception_in_any_task_aborts_cleanly(
    rng, monkeypatch, target, pipeline, when
):
    layer = make_layer(get_compressor("zfp"))
    shards = make_shards(rng)
    group = ExpertParallelGroup(
        layer, 4, pipeline=pipeline, num_chunks=NUM_CHUNKS
    )
    group.forward(shards)  # a clean pass first
    armed = [True]

    def inject(fns):
        """Arm ``target`` in the first pass only."""
        if not armed:
            return fns
        armed.clear()
        work = fns[target]

        def failing():
            if when == "after":
                work()
            raise InjectedFault(repr(target))

        return {**fns, target: failing}

    executor_run = StreamExecutor.run
    inline_run = parallel_module.run_inline
    monkeypatch.setattr(
        StreamExecutor,
        "run",
        lambda self, r, fns, *args: executor_run(self, r, inject(fns), *args),
    )
    monkeypatch.setattr(
        parallel_module,
        "run_inline",
        lambda r, fns: inline_run(r, inject(fns)),
    )

    _, exc = forward_or_hang(group, shards)
    assert isinstance(exc, InjectedFault) and str(exc) == repr(target)
    assert not is_inference()  # the tape-free block was left
    # The in-flight flag was cleared: mutating the group is allowed.
    group.set_dead_workers([1])
    group.set_dead_workers(())

    out, exc = forward_or_hang(group, shards)
    assert exc is None
    reference = ExpertParallelGroup(
        layer, 4, pipeline="sync", num_chunks=NUM_CHUNKS
    )
    np.testing.assert_array_equal(
        out.view(np.int32),
        reference.forward_concatenated(shards).view(np.int32),
    )


@pytest.mark.parametrize("fail_at", [2, 5, 20, 90])
@pytest.mark.parametrize("pipeline", ["sync", "overlap"])
def test_decode_fault_returns_every_staging_buffer(
    rng, monkeypatch, pipeline, fail_at
):
    codec = get_compressor("zfp")
    layer = make_layer(codec)
    shards = make_shards(rng)
    group = ExpertParallelGroup(
        layer, 4, pipeline=pipeline, num_chunks=NUM_CHUNKS
    )
    decompress = codec.decompress
    calls = []

    def failing(compressed):
        calls.append(compressed)
        if len(calls) == fail_at:
            raise InjectedFault(f"decode {fail_at}")
        return decompress(compressed)

    monkeypatch.setattr(codec, "decompress", failing)
    _, exc = forward_or_hang(group, shards)
    assert isinstance(exc, InjectedFault)
    assert not is_inference()

    monkeypatch.setattr(codec, "decompress", decompress)
    out, exc = forward_or_hang(group, shards)
    assert exc is None
    reference = ExpertParallelGroup(
        layer, 4, pipeline="sync", num_chunks=NUM_CHUNKS
    )
    np.testing.assert_array_equal(
        out.view(np.int32),
        reference.forward_concatenated(shards).view(np.int32),
    )
