"""Matrix file formats: a bit-exact binary container and plain CSV.

Binary layout (little-endian): magic ``RPCM``, version u16 = 1, rows u64,
cols u64, then rows x cols float64 values in row-major order.  CSV files hold
one row per line with comma-separated decimals printed at 17 significant
digits, which round-trips float64 exactly.  The file suffix, ``.bin`` or
``.csv``, selects the format.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .kernel import _all_finite, ensure_matrix

__all__ = [
    "MAGIC",
    "VERSION",
    "MatrixIOError",
    "read_matrix",
    "write_matrix",
]

MAGIC = b"RPCM"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ")


class MatrixIOError(ValueError):
    """A matrix file could not be read or written; the message names the rule."""


def _format_of(path):
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".bin":
        return "bin"
    raise ValueError(f"cannot infer matrix format from {path!r}; use a .bin or .csv suffix")


def write_matrix(a, path):
    """Write ``a`` to ``path`` in the format its suffix names (.bin or .csv).

    Binary round-trips are bitwise exact.  Empty matrices are rejected.
    """
    a = ensure_matrix(a)
    _write_rows([a], a.shape, path)


def _write_rows(blocks, shape, path):
    """Write the matrix of ``shape``, given as ``blocks``, to ``path``.

    ``blocks`` is an iterable of the matrix's row blocks, top to bottom,
    each a finite float64 matrix of ``shape[1]`` columns, read only until
    the next block is asked for; the blocks cover ``shape[0]`` rows.  None
    of that is checked.  The bytes written do not depend on where the
    blocks split the rows.
    """
    if _format_of(path) == "bin":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, *shape))
            for block in blocks:  # no copy on little-endian hosts
                fh.write(np.ascontiguousarray(block, dtype="<f8").data)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for block in blocks:
            np.savetxt(fh, block, fmt="%.17g", delimiter=",")


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix`; the suffix names the format."""
    path = Path(path)
    out = _read_bin(path) if _format_of(path) == "bin" else _read_csv(path)
    if not _all_finite(out):
        raise MatrixIOError(f"{path}: non-finite entries")
    return out


def _read_bin(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise MatrixIOError(f"{path}: file shorter than the {_HEADER.size}-byte header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise MatrixIOError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise MatrixIOError(f"{path}: unsupported version {version}")
        if rows == 0 or cols == 0:
            raise MatrixIOError(f"{path}: empty matrix ({rows} x {cols})")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != 8 * rows * cols:  # checked before the payload is allocated
            raise MatrixIOError(
                f"{path}: payload holds {payload} bytes, header promises {8 * rows * cols}"
            )
        out = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(out.data) != payload:
            raise MatrixIOError(f"{path}: payload shorter than {payload} bytes")
    return out.astype(np.float64, copy=False)  # no copy on little-endian hosts


def _read_csv(path):
    # Each line becomes a float64 row as it is read.  The rows go into one
    # array that doubles when full and is cut to size at the end, both by
    # resizing in place (realloc), so the peak is at most about 2 buffers.
    out, rows = None, 0
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.rstrip("\r\n").split(",")
            if out is None:
                out = np.empty((1, len(fields)))
            elif len(fields) != out.shape[1]:
                raise MatrixIOError(
                    f"{path}: row {line_no} has {len(fields)} fields, expected {out.shape[1]}"
                )
            if rows == out.shape[0]:
                out.resize((2 * rows, out.shape[1]), refcheck=False)  # no views of out exist
            try:
                out[rows] = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
            except ValueError:
                raise MatrixIOError(f"{path}: unparseable value in row {line_no}") from None
            rows += 1
    if out is None:
        raise MatrixIOError(f"{path}: empty matrix file")
    out.resize((rows, out.shape[1]), refcheck=False)
    return out
