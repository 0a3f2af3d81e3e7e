"""Two workers for independent items: the calling thread and one helper.

`_map_rows` is the package's one parallel primitive.  It runs the rows of
the experiment runners and the two halves of a 2D analysis pass; numpy's
FFTs and reductions release the GIL, so the two threads run on two CPUs.
The threads of a running map are marked, and a map called from a marked
thread runs serially, so a pass inside a runner row starts no third
thread.  No option or environment variable changes any of this.
"""

from __future__ import annotations

import os
import threading

_marks = threading.local()  # `busy` is true on a thread that is a worker of a running map


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_rows(fn, rows, state=lambda worker: None) -> list:
    """[fn(row, state(worker)) for row in rows], on the calling thread
    (worker 0) and, when two CPUs are usable and the calling thread is not
    itself a worker, one helper thread (worker 1).  Each worker's state is
    made once, on the calling thread, before the helper starts; a serial
    run makes only worker 0's.  The calling thread runs the first row, as a
    serial loop would; from then on both pull rows from one shared
    iterator, so the helper never runs the first row.

    The helper is joined before this returns or raises.  After a row
    raises, neither thread pulls another row, and the error of the first
    failing row in input order is re-raised, as a serial loop would.
    """
    rows = list(rows)
    if len(rows) < 2 or _usable_cpus() < 2 or getattr(_marks, "busy", False):
        own = state(0)
        return [fn(row, own) for row in rows]
    states = [state(0), state(1)]
    results = [None] * len(rows)
    errors = {}  # row index -> exception
    todo = iter(enumerate(rows))
    lock = threading.Lock()

    def pull():
        with lock:
            return next(todo, None)

    def work(item, own):
        _marks.busy = True
        while item is not None:
            i, row = item
            try:
                results[i] = fn(row, own)
            except BaseException as exc:
                errors[i] = exc
            item = None if errors else pull()

    first = pull()
    helper = threading.Thread(target=lambda: work(pull(), states[1]), name="logbesov-worker")
    helper.start()
    try:
        work(first, states[0])
    finally:
        _marks.busy = False
        helper.join()
    if errors:
        raise errors[min(errors)]
    return results
