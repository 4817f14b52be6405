"""Binary snapshot format: bit-exact round-trips, version-1 reading and
malformed-file rejection."""

import struct

import numpy as np
import pytest

from cnlab.fields import random_vector_field, to_physical, to_spectral
from cnlab.grid import Grid
from cnlab.monitor import MonitorRecord, write_monitor_csv
from cnlab.snapshots import (MAGIC, VERSION, SnapshotError, atomic_write,
                             read_snapshot, write_snapshot)

from helpers import full_spectrum

HEADER = struct.Struct("<4sIIIId")


def _pack_v1(grid, half, time=0.0):
    """A version-1 file as earlier releases wrote it: the full Hermitian spectrum."""
    body = np.ascontiguousarray(full_spectrum(grid, half), dtype="<c16").tobytes()
    return HEADER.pack(MAGIC, 1, grid.dim, grid.res, grid.dim, time) + body


@pytest.mark.parametrize("dim,res", [(2, 16), (3, 8)])
def test_round_trip_bit_exact(tmp_path, rng, dim, res):
    grid = Grid(dim, res)
    f = random_vector_field(grid, rng)
    p = tmp_path / "f.snap"
    write_snapshot(p, f, 0.8125)
    g, t = read_snapshot(p)
    assert t == 0.8125
    assert g.grid == grid
    assert np.array_equal(g.coeffs, f.coeffs)  # bytes, not approx


@pytest.mark.parametrize("dim,res", [(2, 64), (3, 8)])
def test_version_2_holds_the_half_body(tmp_path, rng, dim, res):
    grid = Grid(dim, res)
    f = random_vector_field(grid, rng)
    p = tmp_path / "f.snap"
    write_snapshot(p, f, 0.5)
    raw = p.read_bytes()
    assert VERSION == 2 and HEADER.unpack_from(raw)[1] == 2
    # 2D/64 velocity: 2 * 64 * 33 complex128 values, 67,584 bytes
    assert len(raw) == HEADER.size + dim * res ** (dim - 1) * (res // 2 + 1) * 16
    assert raw[HEADER.size:] == f.coeffs.astype("<c16").tobytes()


@pytest.mark.parametrize("dim,res", [(2, 16), (3, 8)])
def test_reads_version_1_as_the_half(tmp_path, rng, dim, res):
    grid = Grid(dim, res)
    f = to_spectral(to_physical(random_vector_field(grid, rng)), grid)
    p = tmp_path / "v1.snap"
    p.write_bytes(_pack_v1(grid, f.coeffs, 0.375))
    assert p.stat().st_size == HEADER.size + dim * res**dim * 16
    g, t = read_snapshot(p)
    assert t == 0.375 and g.grid == grid
    assert np.array_equal(g.coeffs, f.coeffs)
    write_snapshot(tmp_path / "v2.snap", g, t)  # rewritten as version 2
    assert HEADER.unpack_from((tmp_path / "v2.snap").read_bytes())[1] == VERSION


def test_rewrite_idempotent(tmp_path, rng):
    grid = Grid(2, 16)
    f = random_vector_field(grid, rng)
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    write_snapshot(p1, f, 0.25)
    g, t = read_snapshot(p1)
    write_snapshot(p2, g, t)
    assert p1.read_bytes() == p2.read_bytes()


def _valid_bytes(tmp_path, rng, version=VERSION):
    grid = Grid(2, 8)
    f = random_vector_field(grid, rng)
    if version == 1:
        return bytearray(_pack_v1(grid, f.coeffs))
    p = tmp_path / "v.snap"
    write_snapshot(p, f, 0.0)
    return bytearray(p.read_bytes())


def test_truncated_header(tmp_path):
    p = tmp_path / "t.snap"
    p.write_bytes(b"CN")
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(p)


def test_bad_magic(tmp_path, rng):
    raw = _valid_bytes(tmp_path, rng)
    raw[:4] = b"XXXX"
    p = tmp_path / "m.snap"
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(p)


def test_bad_version(tmp_path, rng):
    raw = _valid_bytes(tmp_path, rng)
    raw[:HEADER.size] = HEADER.pack(MAGIC, VERSION + 9, 2, 8, 2, 0.0)
    p = tmp_path / "v9.snap"
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="version"):
        read_snapshot(p)


def test_component_count_mismatch(tmp_path, rng):
    raw = _valid_bytes(tmp_path, rng)
    raw[:HEADER.size] = HEADER.pack(MAGIC, VERSION, 2, 8, 3, 0.0)
    p = tmp_path / "c.snap"
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="components"):
        read_snapshot(p)


def test_body_size_mismatch(tmp_path, rng):
    raw = _valid_bytes(tmp_path, rng)
    p = tmp_path / "s.snap"
    p.write_bytes(bytes(raw[:-16]))
    with pytest.raises(SnapshotError, match="body size"):
        read_snapshot(p)


@pytest.mark.parametrize("version", [1, VERSION])
def test_malformed_files_of_each_version(tmp_path, rng, version):
    raw = _valid_bytes(tmp_path, rng, version)
    p = tmp_path / "s.snap"
    p.write_bytes(bytes(raw[:-16]))
    with pytest.raises(SnapshotError, match="body size"):
        read_snapshot(p)
    # the other version's body length is no fallback
    other = _valid_bytes(tmp_path, rng, 3 - version)
    p.write_bytes(bytes(raw[:HEADER.size] + other[HEADER.size:]))
    with pytest.raises(SnapshotError, match="body size"):
        read_snapshot(p)
    raw[:HEADER.size] = HEADER.pack(MAGIC, version, 2, 8, 3, 0.0)
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="components"):
        read_snapshot(p)


def test_invalid_grid_in_header(tmp_path, rng):
    raw = _valid_bytes(tmp_path, rng)
    raw[:HEADER.size] = HEADER.pack(MAGIC, VERSION, 4, 8, 4, 0.0)
    p = tmp_path / "d.snap"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError):  # grid validation, before body checks
        read_snapshot(p)


def test_atomic_write_failure_keeps_old_file(tmp_path):
    target = tmp_path / "artifact.csv"
    target.write_bytes(b"old contents\n")
    with pytest.raises(TypeError):  # the second chunk is not bytes
        atomic_write(target, b"half of the new", None)
    assert target.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [target]
    atomic_write(target, b"new ", b"contents\n")
    assert target.read_bytes() == b"new contents\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("writer", ["snapshot", "monitor_csv"])
def test_artifact_writers_replace_atomically(tmp_path, rng, monkeypatch, writer):
    target = tmp_path / "artifact"
    target.write_bytes(b"old contents\n")
    f = random_vector_field(Grid(2, 8), rng)
    rec = MonitorRecord(0.0, 1.0, 1.0, 1.0, 1.0, None, None, 0.5)

    def fail(*args):
        raise OSError("rename refused")

    monkeypatch.setattr("cnlab.snapshots.os.replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        if writer == "snapshot":
            write_snapshot(target, f, 0.0)
        else:
            write_monitor_csv([rec], target)
    assert target.read_bytes() == b"old contents\n"
    assert list(tmp_path.iterdir()) == [target]
