"""Deterministic parallel mapping: the one way work reaches a pool worker.

Work units are fixed independently of the worker count and results are
reduced in submission order, so any thread setting yields identical output.
Each work item carries all the state its function needs, and the module
holds none: a pool maps the items the ordinary way, pickling each one to
its worker (`fork` on POSIX, `spawn` elsewhere).
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


def ordered_map(fn, items, threads: int | None) -> list:
    """map(fn, items) preserving order, in a process pool of
    resolve_threads(threads) workers when that is above 1 and there are at
    least two items.  The count is resolved first, so a bad RDGAP_THREADS
    fails even for one item."""
    threads = resolve_threads(threads)
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
    with ctx.Pool(processes=min(threads, len(items))) as pool:
        return pool.map(fn, items)
