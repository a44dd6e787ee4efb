"""Deterministic parallel mapping helpers.

Work units are fixed independently of the worker count and results are
reduced in submission order, so any thread setting yields identical output.
Each work item carries all the state its function needs.  A pool receives
the function and the whole item list once, at start-up, through its
initializer: workers inherit them under `fork` (used on POSIX) and unpickle
them once each under `spawn` (used elsewhere).  Each task is then sent as an
index into that list, so shared state such as a codebook is never pickled
per task.
"""

from __future__ import annotations

import multiprocessing
import os


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else RDGAP_THREADS, else cpu count."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("RDGAP_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"RDGAP_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _init_worker(fn, items) -> None:
    # Runs only inside pool workers; the calling process never binds _WORK.
    global _WORK
    _WORK = (fn, items)


def _run_index(i: int):
    fn, items = _WORK
    return fn(items[i])


def ordered_map(fn, items, threads: int) -> list:
    """map(fn, items) preserving order, optionally in a process pool."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
    with ctx.Pool(
        processes=min(threads, len(items)), initializer=_init_worker, initargs=(fn, items)
    ) as pool:
        return pool.map(_run_index, range(len(items)))
