import threading

import numpy as np
import pytest

import logbesov.workers as workers
from logbesov.grid import GridSpec
from logbesov.partition import build_partition


@pytest.fixture(scope="session")
def grid10():
    return GridSpec(1, 10)


@pytest.fixture(scope="session")
def grid12():
    return GridSpec(1, 12)


@pytest.fixture(scope="session")
def grid2d():
    return GridSpec(2, 7)


@pytest.fixture(scope="session")
def part10(grid10):
    return build_partition(grid10)


@pytest.fixture(scope="session")
def part12(grid12):
    return build_partition(grid12)


@pytest.fixture(scope="session")
def part2d(grid2d):
    return build_partition(grid2d)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def usable_cpus(monkeypatch):
    """`usable_cpus(n)` makes `workers._map_rows` see n usable CPUs."""
    return lambda n: monkeypatch.setattr(workers, "_usable_cpus", lambda: n)


def _raise_on_helper(err, original=None):
    """A body that raises `err` on a helper thread; on the main thread it
    first waits until a helper has raised, so the helper is sure to pull a
    row of its own, then returns `original(...)` (or its arguments)."""
    raised = threading.Event()

    def body(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            raised.wait(30)
            return original(*args, **kwargs) if original else args
        raised.set()
        raise err

    return body


@pytest.fixture()
def raise_on_helper():
    return _raise_on_helper
