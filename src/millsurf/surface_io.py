"""Every file format millsurf writes: SRTF, heights CSV, PGM and trajectory CSV.

SRTF layout, little-endian throughout:

    offset  size  field
    0       4     magic "SRTF"
    4       4     format version (uint32, currently 1)
    8       4     m  (uint32, cell count along x; m+1 nodes)
    12      4     n  (uint32, cell count along y; n+1 nodes)
    16      8     grid spacing, mm (float64)
    24      8     origin x_min, mm (float64)
    32      8     origin y_min, mm (float64)
    40      8     uncut sentinel height, mm (float64)
    48      ...   (m+1)*(n+1) float64 heights, row-major over (i, j): row i
                  holds all j values for the node column x_i

Cells still at the sentinel value are uncut. write/read round-trips a
HeightField bit-exactly; the reader rejects bad magic, unknown versions, and
payloads whose length does not match the header.

The heights CSV and the 16-bit PGM cover the whole grid. The trajectory CSV
holds one row per (time step, tooth) minimum-z point with floats in ``repr``
form, so it round-trips exactly. All file writes in this module are
whole-file atomic: each write goes to its own uniquely named temp file in the
target directory, which is renamed over the target on success and removed on
failure, so concurrent writers of one path never share a temp file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError, SurfaceFormatError
from .roughness import MM_TO_UM
from .surface_grid import GridSpec, HeightField, TrajectoryRecord

MAGIC = b"SRTF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")

GRAY_MID = 32768  # degenerate normalization (flat surface) maps machined cells here


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    path = Path(path)
    # O_EXCL makes the temp name ours alone. Unlike tempfile.mkstemp, which
    # creates 0600 files, mode 0666 lets the umask set the output's mode, as
    # a plain open() would.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_surface(field: HeightField, path: Path) -> None:
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        field.spec.m,
        field.spec.n,
        field.spec.spacing_mm,
        field.spec.x_min_mm,
        field.spec.y_min_mm,
        field.initial_height_mm,
    )
    atomic_write_bytes(Path(path), header + field.heights.astype("<f8").tobytes())


def read_surface(path: Path) -> HeightField:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise SurfaceFormatError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    magic, version, m, n, spacing, x_min, y_min, sentinel = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SurfaceFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise SurfaceFormatError(f"{path}: unsupported format version {version}")
    expected = (m + 1) * (n + 1) * 8
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise SurfaceFormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected} "
            f"({m + 1}x{n + 1} float64)"
        )
    heights = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    spec = GridSpec(spacing_mm=spacing, x_min_mm=x_min, y_min_mm=y_min, m=m, n=n)
    return HeightField(spec, sentinel, heights)


def write_heights_csv(field: HeightField, path: Path) -> None:
    """Heights in micrometres; header row = x coordinates (mm), one data row per y node."""
    block = field.as_array() * MM_TO_UM
    row_format = ",".join(["%.6f"] * block.shape[0])
    lines = [row_format % tuple(field.spec.x_coords().tolist())]
    lines.extend(row_format % tuple(row) for row in block.T.tolist())
    atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode())


def write_graymap(field: HeightField, path: Path) -> None:
    """16-bit binary PGM (P5), min-max normalized over machined cells.

    Uncut cells map to 0; a flat machined surface maps to mid-gray. Image rows
    run along y (top row = y_min), columns along x.
    """
    block = field.as_array()
    machined = block < field.initial_height_mm
    if not machined.any():
        raise DomainError("graymap export needs at least one machined cell")
    z_lo = block[machined].min()
    z_hi = block[machined].max()
    pixels = np.zeros(block.shape, dtype=np.uint16)
    if z_hi > z_lo:
        scaled = (block - z_lo) * (65535.0 / (z_hi - z_lo))
        pixels[machined] = np.rint(scaled[machined]).astype(np.uint16)
    else:
        pixels[machined] = GRAY_MID
    width = block.shape[0]
    height = block.shape[1]
    header = f"P5\n{width} {height}\n65535\n".encode()
    atomic_write_bytes(Path(path), header + pixels.T.astype(">u2").tobytes())


def write_trajectory_csv(record: TrajectoryRecord, path: Path) -> None:
    """One ``t_s,tooth,x_mm,y_mm,z_mm`` row per recorded point, floats in repr form."""
    lines = ["t_s,tooth,x_mm,y_mm,z_mm"]
    for k in range(len(record)):
        lines.append(
            f"{float(record.t_s[k])!r},{int(record.tooth[k])},"
            f"{float(record.x_mm[k])!r},{float(record.y_mm[k])!r},{float(record.z_mm[k])!r}"
        )
    atomic_write_bytes(Path(path), ("\n".join(lines) + "\n").encode())
