"""Binary snapshot format: bit-exact round-trips and malformed-file rejection."""

import struct

import numpy as np
import pytest

from cnlab.fields import random_vector_field
from cnlab.grid import Grid
from cnlab.monitor import MonitorRecord, write_monitor_csv
from cnlab.snapshots import (MAGIC, VERSION, SnapshotError, atomic_write,
                             read_snapshot, write_snapshot)

HEADER = struct.Struct("<4sIIIId")


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


def test_rewrite_idempotent(tmp_path, rng):
    grid = Grid(2, 16)
    f = random_vector_field(grid, rng)
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    write_snapshot(p1, f, 0.25)
    g, t = read_snapshot(p1)
    write_snapshot(p2, g, t)
    assert p1.read_bytes() == p2.read_bytes()


def _valid_bytes(tmp_path, rng):
    grid = Grid(2, 8)
    p = tmp_path / "v.snap"
    write_snapshot(p, random_vector_field(grid, rng), 0.0)
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
