"""In-memory span tracer for the benchmark's traced run.

A span is recorded around each call into a traced library function,
whether the benchmark or the CLI makes it: id, parent id, name, start and
end, plus the time covered by its child spans.  Python GC pauses, caught through ``gc.callbacks``, become
child spans of whichever span is open, so a span's self time (its duration
minus its children's) never includes collector work.  Spans stay in memory
until the run ends.  A disabled tracer patches nothing and hands back the
library functions themselves, which is the same driver with spans off.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ID, PARENT, NAME, START, END, CHILD, TAG = range(7)
COLUMNS = ("q", "q", "q", "d", "d", "d", "q")  # array typecodes, in field order
GC_SPAN = "gc"
STAGE = "stage."  # spans around a whole command: self time is its residue


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # Closed spans are stored column-wise in arrays, which the cyclic GC
        # never scans, so holding them does not lengthen the pauses measured.
        self.columns = [array(code) for code in COLUMNS]
        self.labels: dict = {}  # name or tag -> integer code in the columns
        self.counts: Counter = Counter()
        self._open: list[list] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []  # (module, attribute, original)

    def __enter__(self):
        if self.enabled:
            gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)

    def _code(self, label) -> int:
        return self.labels.setdefault(label, len(self.labels))

    def _begin(self, name: str, tag=None) -> list:
        # The record is built before it is pushed: a collection triggered by
        # this allocation then nests under the enclosing span.
        rec = [next(self._ids), self._open[-1][ID] if self._open else -1,
               self._code(name), 0.0, 0.0, 0.0, self._code(tag)]
        self._open.append(rec)
        rec[START] = perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._open.pop()
        if self._open:
            self._open[-1][CHILD] += rec[END] - rec[START]
        for column, value in zip(self.columns, rec):
            column.append(value)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._begin(GC_SPAN)
            return
        self._end(self._open[-1])
        self.counts["gc.collected"] += info["collected"]
        if info["generation"] == 2:
            self.counts["gc.collections_gen2"] += 1

    def wrap(self, name: str, fn, count=None, tag=None):
        """``fn`` recorded as span ``name``.

        ``count(counts, args, result)`` runs after the span closes, so its
        cost is charged to the caller; ``tag(args)`` labels the span.
        """
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            rec = self._begin(name, tag(args) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, count=None, tag=None) -> None:
        """Record every call of ``module.attr`` as span ``name`` until exit.

        Every loaded module of the same package that holds the function
        under any import gets the traced version, so calls reach it however
        the caller imported it.  While a traced call runs, ``module.attr``
        is the plain function again: a function that calls itself (as
        ``tree.serialize`` does) is one span, not one per level.
        """
        if not self.enabled:
            return
        fn = getattr(module, attr)
        traced = self.wrap(name, fn, count, tag)

        def outermost(*args, **kwargs):
            setattr(module, attr, fn)
            try:
                return traced(*args, **kwargs)
            finally:
                setattr(module, attr, outermost)

        package = module.__name__.split(".")[0] + "."
        for key, holder in list(sys.modules.items()):
            if ((key + ".").startswith(package)
                    and getattr(holder, attr, None) is fn):
                setattr(holder, attr, outermost)
                self._patched.append((holder, attr, fn))

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def spans(self):
        """Closed spans as (id, parent, name, start, end, self time, tag)."""
        names = {code: label for label, code in self.labels.items()}
        for rec in zip(*self.columns):
            yield (rec[ID], rec[PARENT], names[rec[NAME]], rec[START], rec[END],
                   rec[END] - rec[START] - rec[CHILD], names[rec[TAG]])

    def summary(self) -> dict[str, float]:
        """Per-function calls, self time and self-time percentiles, plus GC."""
        self_times = defaultdict(list)
        tagged = defaultdict(list)
        for _, _, name, _, _, own, tag in self.spans():
            self_times[name].append(own)
            if tag is not None:
                tagged[name, tag].append(own)
        out: dict[str, float] = {"gc.pause_s": 0.0, "gc.collected": 0,
                                 "gc.collections_gen2": 0, **self.counts}
        for name, times in self_times.items():
            if name == GC_SPAN:
                out["gc.pause_s"] = float(sum(times))
                continue
            out[f"{name}.self_s"] = float(sum(times))
            if name.startswith(STAGE):
                continue
            out[f"{name}.calls"] = len(times)
            p50, p99 = np.percentile(times, [50, 99]) * 1e6
            out[f"{name}.p50_us"] = float(p50)
            out[f"{name}.p99_us"] = float(p99)
        for (name, tag), times in tagged.items():
            p50, p99 = np.percentile(times, [50, 99]) * 1e6
            out[f"{name}.p50_us.{tag}"] = float(p50)
            out[f"{name}.p99_us.{tag}"] = float(p99)
        return out

    def write(self, path) -> None:
        """One tab-separated line per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\n")
            for sid, parent, name, start, end, own, _ in self.spans():
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{own:.9f}\n")
