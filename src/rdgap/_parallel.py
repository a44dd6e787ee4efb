"""Deterministic parallel mapping: the one way work reaches another process.

Work units are fixed independently of the worker count and results are
reduced in submission order, so any thread setting yields identical output.
Each work item carries all the state its function needs, and the module
holds none.  `ordered_map` uses no pool: with n processes it starts n - 1
children (`fork` on POSIX, `spawn` elsewhere), each mapping one strided
share of the items, and maps share 0 in the calling process itself.  A
forked child inherits its share; a spawned one receives it pickled.  Each
child sends its results back pickled over a one-way pipe.
"""

from __future__ import annotations

import multiprocessing
import os


def resolve_threads(explicit: int | None = None) -> int:
    """Process count: explicit argument, else RDGAP_THREADS, else cpu count."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("RDGAP_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"RDGAP_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _map_share(fn, share, conn) -> None:
    """Child side: send (True, results) or (False, the exception)."""
    try:
        reply = (True, [fn(item) for item in share])
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _receive(process, conn) -> list:
    try:
        ok, value = conn.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"worker process exited with code {process.exitcode} without sending a result"
        ) from None
    if not ok:
        raise value
    return value


def ordered_map(fn, items, threads: int | None) -> list:
    """map(fn, items) preserving order over n = min(resolve_threads(threads),
    len(items)) processes that compute: the caller and n - 1 children.
    Share k is items[k::n]; the caller maps share 0 while the children map
    the rest, then the shares are interleaved back into item order.  The
    count is resolved first, so a bad RDGAP_THREADS fails even for one item.
    A child's exception is re-raised here; if anything fails, every child is
    terminated and joined before the call returns."""
    threads = resolve_threads(threads)
    items = list(items)
    n = min(threads, len(items))
    if n <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
    children = []
    try:
        for k in range(1, n):
            recv_end, send_end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_map_share, args=(fn, items[k::n], send_end))
            child.start()
            send_end.close()  # so a child that dies leaves recv at EOF
            children.append((child, recv_end))
        shares = [[fn(item) for item in items[0::n]]]
        shares += [_receive(child, conn) for child, conn in children]
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, conn in children:
            conn.close()
            child.join()
    return [shares[i % n][i // n] for i in range(len(items))]
