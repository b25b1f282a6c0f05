"""In-memory span tracing of polspin's public functions, from outside the
package.

`Tracer.installed` wraps each target function and rebinds the wrapper under
every name in the package that refers to the original, so a caller that
imported the function by name (``from .qstate import is_cptp``) sees the
wrapper as well as callers going through the defining module.  Each call
records a span: id, parent span id, operation id, name, start, end and an
optional size and argument key.  Spans of one benchmark operation share the
operation id.  Nothing is written until the caller asks.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, op, name, start, end, size, key)
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def wrap(self, name, fn, size=None, key=None, result_name=None):
        """Return fn recording one span per call.  size(*args) and
        key(*args) annotate the span; result_name wraps the returned
        callable under that span name."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end,
                              size(*args, **kwargs) if size else None,
                              key(*args, **kwargs) if key else None))
            if result_name is not None:
                result = self.wrap(result_name, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str, targets: dict[str, dict]):
        """Wrap `package.<module>.<function>` for each "module.function" key
        of targets (values are wrap() options) while the block runs."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        try:
            for name, options in targets.items():
                module, func = name.rsplit(".", 1)
                original = getattr(sys.modules[f"{package}.{module}"], func)
                wrapped = self.wrap(name, original, **options)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, size, _ in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end,
                                     "size": size}) + "\n")


class SpanStats:
    """Per-name totals over the spans of a set of operations."""

    def __init__(self, spans, ops: int):
        self.ops = ops
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.size: Counter = Counter()
        keys: dict[tuple, set] = defaultdict(set)
        for sid, _, op, name, start, end, size, key in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[sid]
            if size is not None:
                self.size[name] += size
            if key is not None:
                keys[(name, op)].add(key)
        self.distinct: Counter = Counter()
        for (name, _), seen in keys.items():
            self.distinct[name] += len(seen)

    # every figure below is per operation
    def count(self, name: str) -> float:
        return self.calls[name] / self.ops

    def seconds(self, name: str) -> float:
        return self.total[name] / self.ops

    def self_seconds(self, name: str) -> float:
        return self.self_time[name] / self.ops

    def samples(self, name: str) -> float:
        return self.size[name] / self.ops

    def module_self_seconds(self, module: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == module) / self.ops

    def distinct_ratio(self, name: str) -> float:
        """Distinct argument keys per operation over calls."""
        return self.distinct[name] / self.calls[name] if self.calls[name] else 0.0
