"""Outside-in span tracing for the traced benchmark run.

The recorder wraps the public entry points of each layer from the
benchmark process by rebinding the names their callers look up: a
module-level function is replaced in every loaded ``repro`` module that
imported it by name, a method on its class.  Nothing under ``src/``
changes, and :meth:`SpanRecorder.uninstall` puts every original back.

A span is ``(id, name, start, end, parent, request, attrs)``; times are
``time.perf_counter()`` seconds, ``parent`` is the id of the enclosing
span on the same thread (or -1) and ``request`` the benchmark's request
id set by :meth:`SpanRecorder.request` (or -1).  Spans stay in memory
until :meth:`SpanRecorder.dump` writes them out.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def request(self, rid: int):
        """Tag every span opened on this thread inside with ``rid``."""
        prev = getattr(self._local, "rid", -1)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = prev

    def wrap(self, fn, name: str, attrs=None, result=None):
        """``fn`` under a span; ``attrs(value)`` may return a dict kept
        with the span (e.g. a cache outcome) and ``result(value)``
        replaces the value returned to the caller."""
        spans, ids, stack_of, local = self.spans, self._ids, self._stack, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            value = None
            try:
                value = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(value) if attrs is not None and value is not None else None
                spans.append(
                    (sid, name, t0, t1, parent, getattr(local, "rid", -1), extra)
                )
            return value if result is None else result(value)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def rebind_function(self, module, attr: str, name: str, attrs=None) -> None:
        """Trace ``module.attr`` under every name a loaded ``repro`` module
        binds it to (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, attrs)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def rebind_method(self, cls, attr: str, name: str, attrs=None, result=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(raw.__func__, name, attrs, result))
        else:
            traced = self.wrap(raw, name, attrs, result)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == name]

    def durations(self, name: str, where=None) -> list[float]:
        return [
            s[3] - s[2]
            for s in self.spans
            if s[1] == name and (where is None or where(s))
        ]

    def children(self) -> dict[int, list[tuple]]:
        kids: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[4] >= 0:
                kids[s[4]].append(s)
        return kids

    @staticmethod
    def covered(span, kids) -> float:
        """Seconds of ``span`` covered by the union of its children."""
        ivs = sorted((max(k[2], span[2]), min(k[3], span[3])) for k in kids)
        total, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name: duration minus the part of
        it that child spans cover."""
        kids = self.children()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[1]] += (s[3] - s[2]) - self.covered(s, kids.get(s[0], ()))
        return dict(out)

    def uncovered_seconds(self) -> float:
        """Seconds inside spans that have children but that no child
        covers: the part of a traced call the trace cannot attribute."""
        kids = self.children()
        return sum(
            (s[3] - s[2]) - self.covered(s, kids[s[0]])
            for s in self.spans
            if s[0] in kids
        )

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span plus per-name totals as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            totals[s[1]][0] += 1
            totals[s[1]][1] += s[3] - s[2]
        selfs = self.self_times()
        doc = {
            "meta": meta,
            "summary": {
                name: {"count": c, "total_s": t, "self_s": selfs.get(name, 0.0)}
                for name, (c, t) in sorted(totals.items())
            },
            "fields": ["id", "name", "start", "end", "parent", "request", "attrs"],
            "spans": [list(s) for s in self.spans],
        }
        path.write_text(json.dumps(doc, default=str))
