"""`--threads` workers: map a function over items in forked processes.

The stages that split across workers (a forest's trees, a sequence's
frames, a split's votes) draw nothing from a shared stream, so a result
does not depend on which worker computes it. The function and the items
reach the workers through fork, copy-on-write: the sample set's crop
buffer, a forest and proposal sets are never pickled. Only an item's index
goes out, and only its result comes back.
"""

from __future__ import annotations

import ctypes

_task = None  # (fn, items) in a forked worker, set once as it starts

# the thread-count setters of OpenBLAS builds, plain and as numpy bundles it
_BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _one_blas_thread():
    """Hold the OpenBLAS this process has loaded, where it has a known
    setter, to one thread. A worker is one core's share: at its default of
    a thread per core, workers side by side oversubscribe the cores."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:  # no /proc: the BLAS keeps its threads
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _install(fn, items):
    global _task
    _task = fn, items
    _one_blas_thread()


def _run(i):
    fn, items = _task
    return fn(items[i])


def map_ordered(fn, items, n):
    """[fn(item) for item in items], in up to min(n, len(items)) workers.

    At n == 1 (or one item) it runs inline, in the caller's thread: no pool,
    thread or process is made. Otherwise the workers are forked processes,
    or threads where "fork" is not a start method. A worker's exception
    reaches the caller as the same type, the first in item order, and a
    worker that dies fails the call with BrokenProcessPool. The pool is shut
    down and joined before this returns or raises, so no worker outlives
    the call: items not yet started are dropped, started ones finish.
    `items` is indexed, so it must be a sequence.
    """
    workers = min(n, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here, so that the inline path does not hold them (~1.4 MB resident)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.pool import ThreadPool

    if "fork" not in multiprocessing.get_all_start_methods():
        with ThreadPool(workers) as pool:  # leaving it joins the threads
            return list(pool.imap(fn, items))
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_install, initargs=(fn, items))
    try:
        return list(pool.map(_run, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)
