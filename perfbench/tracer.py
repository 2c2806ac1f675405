"""Span recording around the calls one hamdecomp layer makes into the next.

The tracer replaces module attributes (``harness.convert_all``,
``rotation.posa_search``, ...) with thin wrappers while it is installed, so
the program itself carries no tracing code.  Each call becomes one span:
name, start, end, parent span and op id.  Spans stay in memory until
``write`` is called once at the end of a run.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# index of each field in a span record (a list, to keep wrapping cheap)
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self, inspect: dict | None = None):
        # inspect[name](return_value) -> small summary kept on the span
        self.inspect = inspect or {}
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the span record."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id, None]
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[END] = time.perf_counter()

    def _wrap_function(self, fn, name: str):
        inspect = self.inspect.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if inspect is not None:
                    rec[INFO] = inspect(out)
                return out

        return wrapper

    def _wrap_class(self, cls, name: str):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                with tracer.span(name):
                    super().__init__(*args, **kwargs)

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    @contextmanager
    def installed(self, targets: list[tuple[object, str, str]]):
        """Wrap each (module, attribute, span name) for the body, then put
        the originals back; a missing attribute is recorded in ``absent``
        instead of raising."""
        saved = []
        try:
            for module, attr, name in targets:
                orig = getattr(module, attr, None)
                if orig is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                if isinstance(orig, type):
                    wrapped = self._wrap_class(orig, name)
                else:
                    wrapped = self._wrap_function(orig, name)
                saved.append((module, attr, orig))
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct
        children (calls are nested, never overlapping, in one thread)."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "absent": self.absent,
                    "spans": [
                        {"name": r[NAME], "start": r[START], "end": r[END],
                         "parent": r[PARENT], "op": r[OP], "info": r[INFO]}
                        for r in self.spans
                    ],
                },
                fh,
            )
