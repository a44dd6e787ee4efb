"""In-memory spans recorded from outside the rdgap package.

A Tracer keeps one list of spans.  Each span is
``[name, start_ns, end_ns, parent_index, op_id]``: the parent is the index
of the enclosing span (-1 at top level) and every span of one top-level
operation carries that operation's id.  ``instrument`` swaps every public
function of the rdgap layer modules for a wrapper that records a span, in
every rdgap module namespace that holds it, so calls between layers (and
within one) are seen too.  Nothing is written until the caller asks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# The repository's modules, used as layer names.  `cli` runs in subprocesses
# and is spanned by the benchmark around each run instead of by wrapping.
LAYER_MODULES = ("spectra", "waterfill", "rdrc", "gapopt", "_parallel", "simulator")

_now = time.perf_counter_ns


def layer_of(span_name: str) -> str:
    """Layer of a span name: its first dotted part, `_parallel` shown as `parallel`."""
    return span_name.split(".", 1)[0].lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            op = self.spans[parent][4]
        else:
            op = self._ops
            self._ops += 1
        rec = [name, 0, 0, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _now()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    # --- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[layer_of(s[0])] += (s[2] - s[1] - c) * 1e-9
        return dict(out)

    def outermost(self, name: str, under: str) -> list[float]:
        """Durations of `name` spans not nested in another `name` span, but
        nested somewhere below a span whose name starts with `under`."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            p, inside = s[3], False
            while p >= 0:
                pname = self.spans[p][0]
                if pname == name:
                    inside = False
                    break
                inside = inside or pname.startswith(under)
                p = self.spans[p][3]
            if inside:
                out.append((s[2] - s[1]) * 1e-9)
        return out

    def dump(self, path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


def _inline_callbacks(tracer: Tracer, ordered_map):
    """ordered_map calls `fn` in this process when it starts no pool; span
    those calls under fn's own module, so their time counts for that layer
    rather than for _parallel.  Calls made in pool workers are not seen."""

    def traced_map(fn, items, threads):
        items = list(items)
        if threads <= 1 or len(items) <= 1:
            fn = tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn)
        return ordered_map(fn, items, threads)

    return traced_map


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of every layer module for the duration."""
    pkg = importlib.import_module("rdgap")
    modules = [pkg] + [importlib.import_module(f"rdgap.{m}") for m in LAYER_MODULES]
    wrapped: dict[int, object] = {}
    for name in LAYER_MODULES:
        mod = importlib.import_module(f"rdgap.{name}")
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and fn.__module__ == mod.__name__
            ):
                inner = _inline_callbacks(tracer, fn) if attr == "ordered_map" else fn
                wrapped[id(fn)] = tracer.wrap(f"{name}.{attr}", inner)
    saved = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapped[id(value)])
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)
