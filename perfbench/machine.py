"""Environment block written next to every result: software, BLAS, machine, commit."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def _openblas():
    """OpenBLAS config string and thread count, read from the library numpy loaded."""
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "lib*openblas*.so*"))
    if not libs:
        return {"config": "unknown", "threads": None}
    lib = ctypes.CDLL(libs[0])  # already loaded by numpy: this returns the same handle
    out = {"library": Path(libs[0]).name}
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                out["config"] = config().decode()
                out["threads"] = threads()
                return out
    out.update(config="unknown", threads=None)
    return out


def _proc_field(path, key):
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root):
    # The checkout the benchmark runs in need not be a git repository, and
    # running git could find an enclosing one, so read .git directly if present.
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root):
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "git_commit": _git_commit(Path(root)),
    }
