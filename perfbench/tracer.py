"""In-memory span tracer that wraps module attributes from outside a package.

A span is one call: its name, start, end, the span that caused it and the
top-level span (the request) it belongs to.  Spans stay in memory until the
caller writes them out.  Wrapping replaces a module attribute for the
duration of a ``with tracer.installed(...)`` block and restores it after, so
the traced package is never edited.  An attribute that does not exist is
recorded in ``tracer.missing`` instead of raising.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    index: int
    end: float = 0.0
    parent: int = -1
    root: int = -1
    note: object = None  # detail kept from the call's result, see Tracer.notes
    self_time: float = 0.0  # filled in by Tracer.finish

    @property
    def duration(self):
        return self.end - self.start


def span_name(fn):
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Records spans around wrapped calls.

    ``notes`` maps a span name to a function of the call's result; its value
    is stored on the span (for example whether an evaluation built Hessians).
    """

    def __init__(self, notes=None):
        self.notes = notes or {}
        self.spans = []
        self.missing = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else index
        span = Span(name, time.perf_counter(), index, parent=parent, root=root)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        note = self.notes.get(name)
        if note is not None:
            span.note = note(result)
        return result

    def _wrapper(self, original):
        name = span_name(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap ``{module_name: (attribute, ...)}`` for the block's duration."""
        patched = []
        try:
            for module_name, attributes in targets.items():
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self._note_missing(f"{module_name}.*")
                    continue
                for attribute in attributes:
                    original = getattr(module, attribute, None)
                    if not callable(original):
                        self._note_missing(f"{module_name}.{attribute}")
                        continue
                    setattr(module, attribute, self._wrapper(original))
                    patched.append((module, attribute, original))
            yield self
        finally:
            for module, attribute, original in reversed(patched):
                setattr(module, attribute, original)

    def _note_missing(self, qualified):
        if qualified not in self.missing:
            self.missing.append(qualified)

    def finish(self):
        """Fill in self times: a span's duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        for span, child_time in zip(self.spans, covered):
            span.self_time = span.duration - child_time

    def write(self, path, header):
        """Write ``header`` plus every span as gzipped JSON (times in microseconds from the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, round((s.start - origin) * 1e6), round((s.end - origin) * 1e6),
             s.parent, s.root]
            for s in self.spans
        ]
        payload = dict(header, missing=self.missing,
                       columns=["name", "start_us", "end_us", "parent", "root"], spans=rows)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
