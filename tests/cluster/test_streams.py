"""Unit tests of CUDA-stream (FIFO) semantics."""

import pytest

from repro.cluster.engine import Engine
from repro.cluster.streams import GpuStreams, Stream, make_streams


def _work(engine, dt, log, tag):
    def gen():
        yield engine.timeout(dt)
        log.append((tag, engine.now))

    return gen


def test_stream_runs_fifo():
    eng = Engine()
    s = Stream(eng, "s")
    log = []
    s.submit(_work(eng, 2.0, log, "a"))
    s.submit(_work(eng, 1.0, log, "b"))
    eng.run()
    assert log == [("a", 2.0), ("b", 3.0)]


def test_streams_run_concurrently():
    eng = Engine()
    s1, s2 = Stream(eng, "s1"), Stream(eng, "s2")
    log = []
    s1.submit(_work(eng, 2.0, log, "a"))
    s2.submit(_work(eng, 2.0, log, "b"))
    eng.run()
    assert [t for _, t in log] == [2.0, 2.0]


def test_cross_stream_dependency_delays_start():
    eng = Engine()
    s1, s2 = Stream(eng, "s1"), Stream(eng, "s2")
    log = []
    dep = s1.submit(_work(eng, 3.0, log, "producer"))
    s2.submit(_work(eng, 1.0, log, "consumer"), after=[dep])
    eng.run()
    assert log == [("producer", 3.0), ("consumer", 4.0)]


def test_head_of_line_blocking():
    """A blocked item delays everything behind it on the same stream."""
    eng = Engine()
    s1, s2 = Stream(eng, "s1"), Stream(eng, "s2")
    log = []
    slow = s1.submit(_work(eng, 5.0, log, "slow"))
    # First item of s2 waits on s1; the second has no deps but must wait
    # behind the first anyway (FIFO).
    s2.submit(_work(eng, 1.0, log, "blocked"), after=[slow])
    s2.submit(_work(eng, 1.0, log, "behind"))
    eng.run()
    assert log == [("slow", 5.0), ("blocked", 6.0), ("behind", 7.0)]


def test_barrier_event():
    eng = Engine()
    s = Stream(eng, "s")
    log = []
    s.submit(_work(eng, 2.0, log, "a"))
    done = []

    def waiter():
        yield s.barrier()
        done.append(eng.now)

    eng.process(waiter())
    eng.run()
    assert done == [2.0]


def test_barrier_on_empty_stream_is_immediate():
    eng = Engine()
    s = Stream(eng, "s")
    ev = s.barrier()
    assert ev.fired


def test_make_streams():
    eng = Engine()
    streams = make_streams(eng, 4)
    assert len(streams) == 4
    assert isinstance(streams[0], GpuStreams)
    with pytest.raises(ValueError):
        make_streams(eng, 0)


def test_default_labels_number_every_submission():
    eng = Engine()
    s = Stream(eng, "gpu0:comm")

    def quick():
        yield eng.timeout(1.0)

    names = [s.submit(quick).name, s.submit(quick, name="x").name,
             s.submit(quick).name]
    assert names == ["gpu0:comm#1", "x", "gpu0:comm#3"]
