"""Layer spans recorded from outside the package by wrapping its public calls.

A ``Tracer`` replaces each traced function with a wrapper in every loaded
``rpca`` module namespace that holds it (``from .kernel import thin_qr``
copies the name, so patching ``rpca.kernel`` alone would miss the solver's
calls), and replaces ``FactoredLowRank.matrix`` on the class.  Each wrapped
call records a span: name, parent span, start and end.  The originals are
put back when the ``traced`` block ends, also on error.

A kernel routine called from inside another kernel span is part of its
caller's span (the dense path of ``svd_truncated`` calls ``svd_small``, and
that SVD is the truncated-SVD cost), except ``ensure_matrix``: validation is
always its own span, so its cost and call count stay visible wherever it
runs.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

_VALIDATION = "kernel.ensure_matrix"


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in the same list, -1 at the root
    start: float
    end: float = 0.0

    @property
    def seconds(self):
        return self.end - self.start


def _trim_fired(tracer, args, result):
    # trim returns its input unchanged when no factor row exceeds its budget.
    if result is not args[0]:
        tracer.counts["solver.trim.fired"] += 1


def _bytes_read(tracer, args, result):
    tracer.counts["matio.bytes"] += os.path.getsize(args[0])


def _bytes_written(tracer, args, result):
    tracer.counts["matio.bytes"] += os.path.getsize(args[1])


def targets():
    """(span name, owner, attribute, after-call hook) for every traced call.

    The two solve entry points and ``cli.main`` are the roots of a solve; their
    self time is the work done inline between the traced calls, so their spans
    are named after the metric that reports it.
    """
    from rpca import cli, kernel, matio, solver, synthetic

    return [
        ("kernel.ensure_matrix", kernel, "ensure_matrix", None),
        ("kernel.thin_qr", kernel, "thin_qr", None),
        ("kernel.svd_small", kernel, "svd_small", None),
        ("kernel.svd_truncated", kernel, "svd_truncated", None),
        ("solver.initialize", solver, "initialize", None),
        ("solver.trim", solver, "trim", _trim_fired),
        ("solver.structured_truncate", solver, "structured_truncate", None),
        ("solver.hard_threshold", solver, "hard_threshold", None),
        ("solver.lowrank_matrix", solver.FactoredLowRank, "matrix", None),
        ("solver.other", solver, "accaltproj_solve", None),
        ("solver.other", solver, "altproj_solve", None),
        ("synthetic.generate", synthetic, "generate", None),
        ("matio.read_matrix", matio, "read_matrix", _bytes_read),
        ("matio.write_matrix", matio, "write_matrix", _bytes_written),
        ("cli.other", cli, "main", None),
    ]


class Tracer:
    """Collects the spans and counts of the calls made while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def take(self):
        """Return the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    def wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if (
                parent >= 0
                and name != _VALIDATION
                and name.startswith("kernel.")
                and self.spans[parent].name.startswith("kernel.")
            ):
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, parent, perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper


def _namespaces():
    return [mod for name, mod in list(sys.modules.items()) if name == "rpca" or name.startswith("rpca.")]


@contextmanager
def traced(tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    saved = []  # (owner, attribute, original), restored in reverse order
    try:
        modules = _namespaces()
        for name, owner, attr, after in targets():
            original = owner.__dict__[attr]
            wrapper = tracer.wrap(name, original, after)
            owners = [owner] if isinstance(owner, type) else modules
            for holder in owners:
                if holder.__dict__.get(attr) is original:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def installed_wrappers():
    """Names in the ``rpca`` namespaces that currently hold a wrapper."""
    found = []
    for mod in _namespaces():
        holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__]
        for holder in holders:
            for attr, value in vars(holder).items():
                if getattr(value, "__wrapped_by_perfbench__", False):
                    found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    return found


def self_times(spans):
    """Seconds per span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    out = defaultdict(float)
    for span, inner in zip(spans, child):
        out[span.name] += span.seconds - inner
    return out


def call_counts(spans):
    out = defaultdict(int)
    for span in spans:
        out[span.name] += 1
    return out


def root_seconds(spans):
    return sum(span.seconds for span in spans if span.parent < 0)
