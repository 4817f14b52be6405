"""Binary field snapshots.

Layout (little-endian throughout):

    magic   4 bytes  b"CNLB"
    version u32      format version, currently 1
    dim     u32
    res     u32
    ncomp   u32      component count (dim for velocity fields)
    time    f64      trajectory time of the snapshot
    body    ncomp * res^dim complex128 values, per component, row-major
            frequency order (numpy FFT layout), each value as (re, im) f64

Writing and re-reading a snapshot reproduces the coefficient bytes exactly.

Every artifact cnlab writes (snapshots, monitor CSVs, JSON reports,
summary.csv) goes through atomic_write, so a killed run leaves either the
previous file or the complete new one, never a truncated file.
"""

from __future__ import annotations

import os
import struct
import uuid
from pathlib import Path

import numpy as np

from .fields import SpectralVectorField
from .grid import Grid

MAGIC = b"CNLB"
VERSION = 1
_HEADER = struct.Struct("<4sIIIId")


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshot files."""


def atomic_write(path: str | Path, *chunks: bytes) -> None:
    """Write the chunks to path so that it holds the old file or the whole new one.

    The chunks go to a temporary file in the same directory, renamed over
    path with os.replace once all are written and removed if a write
    raises. Atomic against a killed process; no fsync, so not against a
    power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(path: str | Path, field: SpectralVectorField, time: float) -> None:
    grid = field.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.dim, grid.res, grid.dim, float(time))
    atomic_write(path, header, np.ascontiguousarray(field.coeffs, dtype="<c16").tobytes())


def read_snapshot(path: str | Path) -> tuple[SpectralVectorField, float]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, version, dim, res, ncomp, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    grid = Grid(dim, res)  # validates dim/res
    if ncomp != dim:
        raise SnapshotError(f"{path}: expected {dim} components, header says {ncomp}")
    expect = _HEADER.size + ncomp * grid.npoints * 16
    if len(raw) != expect:
        raise SnapshotError(f"{path}: body size {len(raw) - _HEADER.size} != {expect - _HEADER.size}")
    flat = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    coeffs = flat.reshape((ncomp,) + grid.shape).astype(np.complex128)
    return SpectralVectorField(grid, coeffs), float(time)
