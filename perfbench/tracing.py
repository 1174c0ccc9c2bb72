"""Span tracing from outside the library.

Wrappers are installed at every name a caller looks up: the function's own
module attribute and every other ``ergoplan`` module global bound to the
same object by ``from ... import``. Each call made while a phase is active
records one span: name, start, end, parent span, phase and an optional size
taken from its arguments or result. Spans stay in memory until the run
writes them out. A target that no longer exists is reported as absent and
reads as zero calls.
"""

import contextlib
import functools
import json
import sys
from time import perf_counter

import numpy as np

_NAME, _START, _END, _PARENT, _PHASE, _SIZE, _RAISED = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self.absent = []
        self.walls = {}
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def recording(self, phase):
        """Record spans under `phase`; its wall time adds to walls[phase]."""
        self.phase = phase
        start = perf_counter()
        try:
            yield
        finally:
            self.walls[phase] = self.walls.get(phase, 0.0) + perf_counter() - start
            self.phase = None

    def _wrap(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, perf_counter(), 0.0, parent, tracer.phase, None, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if size is not None:
                    try:
                        span[_SIZE] = size(args, kwargs, out)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        span[_SIZE] = None  # the signature changed; record no size
                return out
            except Exception as exc:
                span[_RAISED] = type(exc).__name__
                raise
            finally:
                span[_END] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def install(self, targets):
        """targets: {"module.qualname": size_fn or None} under ``ergoplan``."""
        modules = [m for n, m in sys.modules.items() if n.startswith("ergoplan.")]
        for name, size in targets.items():
            module_name, _, qualname = name.partition(".")
            owner = sys.modules.get(f"ergoplan.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, size)
            if path:  # a method: the class attribute is the only lookup
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span[_NAME],
                            "start": span[_START],
                            "end": span[_END],
                            "parent": span[_PARENT],
                            "phase": span[_PHASE],
                            "size": span[_SIZE],
                            "raised": span[_RAISED],
                        }
                    )
                    + "\n"
                )


class SpanStats:
    """Durations, self times and counts of one phase's spans."""

    def __init__(self, tracer, phase):
        spans = tracer.spans
        self.index = [i for i, s in enumerate(spans) if s[_PHASE] == phase]
        child_time = {}
        for i in self.index:
            s = spans[i]
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] = child_time.get(s[_PARENT], 0.0) + s[_END] - s[_START]
        self.spans = spans
        self.self_time = {i: spans[i][_END] - spans[i][_START] - child_time.get(i, 0.0) for i in self.index}
        self.by_name = {}
        for i in self.index:
            self.by_name.setdefault(spans[i][_NAME], []).append(i)

    def of(self, name, parent=None):
        """Indices of the spans named `name`, optionally only those whose
        parent span is named `parent`."""
        spans = self.spans
        return [
            i
            for i in self.by_name.get(name, [])
            if parent is None or (spans[i][_PARENT] >= 0 and spans[spans[i][_PARENT]][_NAME] == parent)
        ]

    def calls(self, name):
        return len(self.of(name))

    def self_ms(self, name):
        return 1e3 * sum(self.self_time[i] for i in self.of(name))

    def durations_ms(self, name, parent=None):
        return [1e3 * (self.spans[i][_END] - self.spans[i][_START]) for i in self.of(name, parent)]

    def sizes(self, name, parent=None):
        return [self.spans[i][_SIZE] or 0 for i in self.of(name, parent)]

    def raised(self, name, exc_name):
        return sum(1 for i in self.of(name) if self.spans[i][_RAISED] == exc_name)

    def roots_ms(self):
        return 1e3 * sum(
            self.spans[i][_END] - self.spans[i][_START] for i in self.index if self.spans[i][_PARENT] < 0
        )

    def total_self_ms(self):
        return 1e3 * sum(self.self_time.values())

    def nesting_errors(self):
        """Spans that end after their parent or start before it."""
        bad = 0
        for i in self.index:
            s = self.spans[i]
            if s[_PARENT] >= 0:
                p = self.spans[s[_PARENT]]
                bad += s[_START] < p[_START] or s[_END] > p[_END]
        return bad


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
