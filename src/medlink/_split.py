"""Two halves of a numpy pass on two threads.

``split(fn, stop)`` runs ``fn(lo, hi)`` over [0, stop) as two calls, the
lower half on the calling thread and the upper half on one worker thread,
created on first use. numpy releases the interpreter lock inside its
kernels, so the two halves run on two cores at once. Every caller hands
each half a disjoint slice of its output and does integer arithmetic
only, so the result is the same to the bit as that of one call
``fn(0, stop)``, which runs instead:

- for a pass of fewer than ``SPLIT_MIN`` elements. On a 2-vCPU Xeon
  the forward transform of a 512x512 image (2**18 samples) ran slower
  with every pass split (1.7 ms against 1.4), while from 2**20 elements
  on the passes gain: the forward transform of a 1024x1024 image took
  4.1 ms instead of 5.9, that of a 2000x2000 image 16 instead of 29
  (best of 15). So no pass of a 512x512 round trip at ratio 4 or more
  splits (2**18 coefficients, payloads under 2**20 bits); the length
  pass of a 512x512 lossless decode (about 3M bit positions) does, and
  that decode took 31 to 34 ms instead of 35 to 38 (best of 11).
- when the process may run on one CPU only;
- on the worker itself, which thus never waits for itself.

There is no setting for any of this: no parameter, environment variable
or option. No layer function that a benchmark tracer wraps
(``quantize``, ``huffman_decode``, ...) runs on the worker, only the
kernels these call, so the spans of a traced run nest on one thread.
"""

from __future__ import annotations

import os
import threading

__all__ = ["split"]

# elements below which a pass runs as one call on the calling thread
SPLIT_MIN = 1 << 20
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_worker = threading.local()
_pool = None  # (pid, executor): a process forked off keeps no worker thread
_pool_lock = threading.Lock()


def _mark_worker():
    _worker.active = True


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(1, "medlink-split", initializer=_mark_worker)
            _pool = os.getpid(), executor
        return _pool[1]


def split(fn, stop: int, size: int | None = None, mid: int | None = None) -> list:
    """``[fn(0, mid), fn(mid, stop)]``, the second half run on the worker,
    or ``[fn(0, stop)]`` for a pass of fewer than ``SPLIT_MIN`` elements
    (``size``, by default ``stop``), on one CPU or on the worker. ``mid``
    defaults to ``stop // 2``. An exception of either half is raised once
    both have returned, the lower half's first."""
    mid = stop // 2 if mid is None else mid
    if (
        (stop if size is None else size) < SPLIT_MIN
        or not 0 < mid < stop
        or _CPUS < 2
        or getattr(_worker, "active", False)
    ):
        return [fn(0, stop)]
    upper = _executor().submit(fn, mid, stop)
    try:
        lower = fn(0, mid)
    finally:
        upper.exception()  # waits for the upper half, even when the lower raised
    return [lower, upper.result()]
