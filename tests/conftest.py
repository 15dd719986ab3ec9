"""The ``peak_buffers`` fixture, which every memory-bound test uses, and
``load``, which imports a tool of ``tools/``.

Each memory-bound test is marked ``peak_memory``, so that the bounds can be
run one test per process: ``pytest -m peak_memory`` selects them.  A bound
must hold in a fresh process, not only after another test has warmed it.
"""

import importlib.util
import tracemalloc
from functools import cache
from pathlib import Path

import numpy.random  # noqa: F401  numpy imports it lazily; keep that out of a traced window
import pytest

MARKER = "peak_memory"
TOOLS = Path(__file__).resolve().parents[1] / "tools"


@cache
def load(name):
    """The module ``tools/<name>.py``, imported once per process."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _peak_buffers(fn, nbytes):
    """``(fn(), peak)``: the tracemalloc peak of ``fn()`` above what was live
    at the call, in buffers of ``nbytes``."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, (tracemalloc.get_traced_memory()[1] - base) / nbytes
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def peak_buffers():
    return _peak_buffers


def pytest_configure(config):
    config.addinivalue_line("markers", f"{MARKER}: a bound on the peak_buffers of a call")


def pytest_collection_modifyitems(items):
    for item in items:
        if "peak_buffers" in getattr(item, "fixturenames", ()):
            item.add_marker(MARKER)
