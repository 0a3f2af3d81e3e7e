"""The two-worker primitive `workers._map_rows`: input order, per-worker
state made before the helper starts, serial maps inside a worker, and
errors that reach the caller with no thread left behind."""

import threading

import pytest

import logbesov.workers as workers
from logbesov.errors import InvalidInputError
from logbesov.workers import _map_rows


def test_map_rows_keeps_input_order(usable_cpus):
    """Results come back in input order, and the first row runs on the
    calling thread, as in a serial loop."""
    usable_cpus(2)
    assert _map_rows(lambda x, _: x * x, range(20)) == [x * x for x in range(20)]
    assert _map_rows(lambda x, _: x, []) == []
    threads = _map_rows(lambda x, _: threading.current_thread(), range(6))
    assert threads[0] is threading.current_thread()


def test_helper_thread_error_reaches_the_caller_unchanged(usable_cpus, raise_on_helper):
    usable_cpus(2)
    start = threading.active_count()
    err = InvalidInputError("row failed on the helper thread")
    with pytest.raises(InvalidInputError) as info:
        _map_rows(raise_on_helper(err), [0, 1])
    assert info.value is err
    assert threading.active_count() == start


def test_worker_state_is_made_on_the_calling_thread_before_the_helper(usable_cpus):
    """Each worker gets its own state, made on the calling thread before the
    helper exists; the helper never gets the first row, and a serial map
    makes worker 0's state only."""
    usable_cpus(2)
    made = []

    def state(worker):
        made.append((worker, threading.current_thread(), threading.active_count()))
        return worker

    start = threading.active_count()
    rows = _map_rows(lambda row, own: (row, own, threading.current_thread()), range(8), state)
    assert [(w, t) for w, t, _ in made] == [(0, threading.current_thread()), (1, threading.current_thread())]
    assert all(count == start for _, _, count in made)
    assert rows[0][1] == 0
    for row, own, thread in rows:
        assert own == (0 if thread is threading.current_thread() else 1)
    usable_cpus(1)
    made.clear()
    assert _map_rows(lambda row, own: own, range(3), state) == [0, 0, 0]
    assert [w for w, _, _ in made] == [0]


def test_no_helper_starts_inside_a_row(usable_cpus, monkeypatch):
    """A map called from a worker of a running map runs serially on that
    worker: one helper thread in all, and the mark is gone afterwards."""
    usable_cpus(2)
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(workers.threading, "Thread", Counting)

    def row(x, _):
        return set(_map_rows(lambda y, _: threading.current_thread(), range(4)))

    assert all(len(threads) == 1 for threads in _map_rows(row, range(4)))
    assert len(started) == 1
    # the calling thread is unmarked once its map returns
    _map_rows(lambda y, _: y, range(2))
    assert len(started) == 2
