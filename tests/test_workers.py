import ctypes
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from handfit import workers


def _square_after(x):
    # later items finish first, so order comes from the helper, not the timing
    time.sleep(0.02 * (5 - x) if x < 5 else 0)
    return x * x


@pytest.mark.parametrize("n", [1, 2, 3])
def test_results_come_back_in_item_order(n):
    items = list(range(8))
    assert workers.map_ordered(_square_after, items, n) == [x * x for x in items]


def test_one_worker_runs_inline():
    threads, children = threading.active_count(), multiprocessing.active_children()
    seen = []

    def where(x):
        seen.append((os.getpid(), threading.current_thread(), threading.active_count(),
                     len(multiprocessing.active_children())))
        return x

    assert workers.map_ordered(where, [1, 2, 3], 1) == [1, 2, 3]
    assert seen == [(os.getpid(), threading.current_thread(), threads, len(children))] * 3
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children


def test_a_large_input_reaches_workers_by_fork_not_by_pickling():
    class Unpicklable(list):
        def __reduce__(self):
            raise AssertionError("items were pickled")

    items = Unpicklable(range(4))
    assert workers.map_ordered(lambda x: (x, items[-1]), items, 2) == \
        [(x, 3) for x in range(4)]


def test_no_more_processes_than_items(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    pids = workers.map_ordered(lambda _: os.getpid(), ["a", "b"], 5)
    assert os.getpid() not in pids
    assert len(forks) == 2


def _raise(x):
    if x == 2:
        raise ValueError("bad item 2")
    if x == 3:
        raise FileNotFoundError(2, "missing", f"item{x}")
    return x


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("item, kind", [(2, ValueError), (3, FileNotFoundError)])
def test_a_worker_exception_reaches_the_caller_as_its_type(n, item, kind):
    before = multiprocessing.active_children()
    with pytest.raises(kind) as err:
        workers.map_ordered(_raise, [0, 1, item, 4, 5], n)
    assert ("bad item 2" if kind is ValueError else "item3") in str(err.value)
    assert multiprocessing.active_children() == before


def test_the_first_failure_in_item_order_is_raised():
    with pytest.raises(ValueError):
        workers.map_ordered(_raise, [0, 2, 3, 1], 3)


def test_no_child_outlives_a_failed_call():
    before = multiprocessing.active_children()

    def slow_unless_first(x):
        if x == 0:
            raise ValueError("first item fails")
        time.sleep(0.5)  # still busy when the call fails
        return x

    with pytest.raises(ValueError):
        workers.map_ordered(slow_unless_first, list(range(6)), 3)
    assert multiprocessing.active_children() == before


def test_a_worker_that_dies_fails_the_call_instead_of_hanging():
    before = multiprocessing.active_children()

    def die(x):
        if x == 1:
            os._exit(1)
        return x

    with pytest.raises(BrokenProcessPool):
        workers.map_ordered(die, [0, 1, 2], 2)
    assert multiprocessing.active_children() == before


def test_thread_fallback_where_fork_is_unavailable(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    pids = workers.map_ordered(lambda _: os.getpid(), range(4), 2)
    assert pids == [os.getpid()] * 4 and not forks
    with pytest.raises(FileNotFoundError):
        workers.map_ordered(_raise, [3, 1], 2)


def _blas_threads(_):
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def test_forked_workers_run_blas_on_one_thread():
    if not os.path.exists("/proc/self/maps") or _blas_threads(None) is None:
        pytest.skip("no OpenBLAS with a known thread-count getter is loaded")
    parent = _blas_threads(None)
    assert workers.map_ordered(_blas_threads, range(3), 3) == [1, 1, 1]
    assert _blas_threads(None) == parent  # the caller's BLAS keeps its threads
