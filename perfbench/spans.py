"""Span tracing from outside the program: wrap layer entry points.

:class:`SpanTracer` replaces the entry points listed in
:data:`layers.BOUNDARIES` — methods on their classes, module functions
at every module that imported them — with wrappers recording one span
per call: ``(id, parent, start, end, layer, name, tx_id, phase)``.
Nothing under ``src/`` changes; the wrappers only read the clock, so the
traced run must commit the same history as an untraced one, which the
benchmark checks through the state digest.

A boundary that no longer exists is skipped and its layer is reported
missing, so a rename costs that layer's numbers, never the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

from stats import self_times

#: Spans kept for the Chrome trace export; self times use all of them.
EXPORT_LIMIT = 400_000


def _tx_of(args: tuple) -> str:
    """A tx id carried as a plain attribute by one of the first
    arguments (envelopes, pending futures), read without calling
    properties so tracing never does work of its own inside the run."""
    for arg in args[:3]:
        attrs = getattr(arg, "__dict__", None)
        if attrs:
            tx_id = attrs.get("tx_id")
            if type(tx_id) is str:
                return tx_id
    return ""


class SpanTracer:
    """Records spans while :attr:`phase` is ``pipeline`` or ``check``."""

    def __init__(self) -> None:
        self.spans: list = []
        self.phase = "setup"
        self.missing: list = []  # (layer, "module:qualname") not found
        self._stack: list = []
        self._next_id = 0
        self.origin = time.perf_counter()

    # -- installation ----------------------------------------------------------
    def install(self, boundaries: dict) -> None:
        """Wrap every ``layer -> [(module, qualname), ...]`` boundary."""
        for layer, targets in boundaries.items():
            for module_name, qualname in targets:
                if not self._install_one(layer, module_name, qualname):
                    self.missing.append((layer, f"{module_name}:{qualname}"))

    def _install_one(self, layer: str, module_name: str, qualname: str) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in qualname:
            class_name, attr = qualname.split(".", 1)
            cls = getattr(module, class_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if not callable(raw):
                return False
            setattr(cls, attr, self.wrap(layer, qualname, raw))
            return True
        original = getattr(module, qualname, None)
        if not callable(original):
            return False
        wrapped = self.wrap(layer, qualname, original)
        # Patch every import site, so ``from m import f`` callers see it too.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, qualname, None) is original:
                setattr(loaded, qualname, wrapped)
        return True

    def wrap(self, layer: str, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase == "setup":
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tx_id = _tx_of(args) or (parent[1] if parent else "")
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append((span_id, tx_id))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((
                    span_id, parent[0] if parent else None, start, end,
                    layer, name, tx_id, tracer.phase,
                ))

        return traced

    # -- results ---------------------------------------------------------------
    def missing_layers(self) -> set:
        return {layer for layer, _ in self.missing}

    def layer_self_seconds(self, phase: str) -> dict:
        """Self time per layer, over spans that closed in ``phase``."""
        totals: dict = {}
        selfs = self_times(self.spans)
        for span in self.spans:
            if span[7] == phase:
                totals[span[4]] = totals.get(span[4], 0.0) + selfs[span[0]]
        return totals

    def inclusive_seconds(self, name: str) -> float:
        """Total duration of outermost spans named ``name``."""
        names = {span[0]: span[5] for span in self.spans}
        return sum(
            span[3] - span[2] for span in self.spans
            if span[5] == name and names.get(span[1]) != name
        )

    def call_counts(self, phase: str) -> Counter:
        return Counter(span[5] for span in self.spans if span[7] == phase)

    def export_chrome(self, path) -> int:
        """Write spans as Chrome trace-event JSON; returns spans written."""
        kept = sorted(self.spans[:EXPORT_LIMIT], key=lambda s: (s[2], -s[3]))
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "tx": tx_id, "phase": phase},
            }
            for span_id, parent, start, end, layer, name, tx_id, phase in kept
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
