"""Binary field snapshots.

Layout (little-endian throughout):

    magic   4 bytes  b"CNLB"
    version u32      format version, currently 2
    dim     u32
    res     u32
    ncomp   u32      component count (dim for velocity fields)
    time    f64      trajectory time of the snapshot
    body    ncomp * res^(dim-1) * (res//2 + 1) complex128 values: the
            real-to-complex half spectrum (Grid.spectral_shape) per component,
            row-major, numpy FFT frequency order, each value as (re, im) f64

Version 1 files hold the full spectrum, ncomp * res^dim values; they are
still read, keeping the first res//2 + 1 entries of the last axis (the
Hermitian mirror entries carry nothing more). Writing and re-reading a
snapshot reproduces the coefficient bytes exactly.

Every artifact cnlab writes (snapshots, monitor CSVs, JSON reports,
summary.csv) goes through atomic_write, so a killed run leaves either the
previous file or the complete new one, never a truncated file.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
from pathlib import Path

import numpy as np

from .fields import SpectralVectorField
from .grid import Grid

MAGIC = b"CNLB"
VERSION = 2
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


def read_snapshot_header(path: str | Path) -> tuple[Grid, float, tuple[int, ...]]:
    """(grid, time, body shape) of a snapshot, after every check on its
    header and on its body size, taken from the file size; no body is read."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        size = os.fstat(fh.fileno()).st_size
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, version, dim, res, ncomp, time = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version not in (1, VERSION):
        raise SnapshotError(f"{path}: unsupported version {version}")
    grid = Grid(dim, res)  # validates dim/res
    if ncomp != dim:
        raise SnapshotError(f"{path}: expected {dim} components, header says {ncomp}")
    shape = (ncomp,) + (grid.shape if version == 1 else grid.spectral_shape)
    expect = 16 * math.prod(shape)
    if size - _HEADER.size != expect:
        raise SnapshotError(f"{path}: body size {size - _HEADER.size} != {expect}")
    return grid, float(time), shape


def read_snapshot(path: str | Path) -> tuple[SpectralVectorField, float]:
    grid, time, shape = read_snapshot_header(path)
    body = np.fromfile(path, dtype="<c16", offset=_HEADER.size).reshape(shape)
    return SpectralVectorField(grid, body[..., :grid.half_len].astype(np.complex128)), time
