"""In-memory span tracer, and the rebinding that routes normgen through it.

A span is (name, start, end, parent index, op id, ok).  Spans live in one
list in start order, so a parent always precedes its children, and are
written out only when the traced pass is over.
"""

import functools
import gzip
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, name, idx, parent, t0, ok):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.op, ok)

    def wrap(self, name, fn):
        """fn, recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self._close(name, idx, parent, t0, ok)

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        idx, parent = self._open()
        ok = False
        t0 = perf_counter()
        try:
            yield
            ok = True
        finally:
            self._close(name, idx, parent, t0, ok)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op", "ok")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _public_callables(module):
    """(owner, attribute, raw value, span name) for each public function and
    each public method of a public class defined in module."""
    short = module.__name__.partition(".")[2]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, f"{short}.{attr}"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for meth, raw in vars(obj).items():
                if meth.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, classmethod):
                    yield obj, meth, raw, f"{short}.{attr}.{meth}"


@contextmanager
def rebound(tracer):
    """Route every public normgen function and method through tracer.

    Functions are rebound in every package module that holds them, so a
    `from .spectral import projective_profile` elsewhere is traced too.
    Everything is restored on exit.
    """
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "normgen" or name.startswith("normgen."))
    ]
    wrapped = {}
    undo = []
    for module in modules:
        if module.__name__.rpartition(".")[2].startswith("_"):
            continue
        for owner, attr, raw, name in list(_public_callables(module)):
            if owner is module:
                wrapped[raw] = tracer.wrap(name, raw)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__))
            else:
                new = tracer.wrap(name, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])
    try:
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
