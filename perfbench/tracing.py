"""Span recording around the simulator's public functions, from outside.

A ``Tracer`` replaces chosen module attributes with wrappers that record a
span (name, parent, request id, start, end, attributes) per call. Spans
stay in memory until ``write_spans`` is called at the end of a run. Nothing
under ``src/`` is modified: the wrappers go on the names callers look up,
so a function imported into another module by name is wrapped under that
module's binding as well.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# span record layout: [name, parent index, request id, start, end, attrs]
NAME, PARENT, REQUEST, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, on_result=None):
        """Return ``fn`` wrapped to record one span per call.

        ``on_result(result)`` may return a dict of attributes stored on the
        span; an exception is stored as ``{"error": <type name>}``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, tracer.request, tracer.clock(), None, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                span[END] = tracer.clock()
                tracer._stack.pop()
            if on_result is not None:
                span[ATTRS] = on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str | Path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(lo, s[START]), min(hi, s[END])) for lo, hi in children.get(i, ())]
        out.append((s[END] - s[START]) - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def summarize(spans: list[list], keep=None) -> dict[str, dict[str, float]]:
    """Per span name: total time ``s``, self time ``self_s`` and ``calls``
    over the spans ``keep(span)`` accepts (default all)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for s, own in zip(spans, selfs):
        if keep is not None and not keep(s):
            continue
        entry = out[s[NAME]]
        entry["s"] += s[END] - s[START]
        entry["self_s"] += own
        entry["calls"] += 1
    return dict(out)
