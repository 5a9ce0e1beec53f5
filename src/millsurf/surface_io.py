"""Every file format millsurf writes: SRTF, heights CSV and PGM.

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
HeightField bit-exactly; the reader raises ``SurfaceFormatError``, naming the
file, for bad magic, an unknown version, a payload whose length does not
match the header, a non-finite sentinel or height, and a header grid that
``GridSpec`` rejects (no cells, a bad spacing, a non-finite origin).

The heights CSV and the 16-bit PGM cover the whole grid. Every file millsurf
writes goes through ``atomic_write_bytes``, streamed in chunks to a uniquely
named temp file in the target directory that is renamed over the target on
success and removed on failure. Concurrent writers never share a temp file,
and a write holds at most one chunk (a header, an array buffer, a block of
CSV rows) beyond its data.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import DomainError, SurfaceFormatError
from .roughness import MM_TO_UM
from .surface_grid import GridSpec, HeightField

MAGIC = b"SRTF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")
_HEIGHTS_CHUNK_ROWS = 16  # CSV rows per chunk: about 0.15 MB of text on case1's grid

GRAY_MID = 32768  # degenerate normalization (flat surface) maps machined cells here


def atomic_write_bytes(path: Path, payload: bytes | Iterable[bytes | memoryview]) -> None:
    """Write bytes, or an iterable of bytes-like chunks one at a time, atomically."""
    path = Path(path)
    # O_EXCL makes the temp name ours alone. Unlike tempfile.mkstemp, which
    # creates 0600 files, mode 0666 lets the umask set the output's mode, as
    # a plain open() would.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.writelines((payload,) if isinstance(payload, bytes) else payload)
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
    atomic_write_bytes(Path(path), (header, memoryview(field.heights.astype("<f8", copy=False))))


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
    payload_size = len(blob) - _HEADER.size
    if payload_size != expected:
        raise SurfaceFormatError(
            f"{path}: payload is {payload_size} bytes, header promises {expected} "
            f"({m + 1}x{n + 1} float64)"
        )
    heights = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(heights))
    if bad.size:
        raise SurfaceFormatError(
            f"{path}: {bad.size} height(s) not finite, first at flat index {bad[0]}"
        )
    try:
        spec = GridSpec(spacing_mm=spacing, x_min_mm=x_min, y_min_mm=y_min, m=m, n=n)
        return HeightField(spec, sentinel, heights)
    except DomainError as exc:  # no cells, a bad spacing, a non-finite origin or sentinel
        raise SurfaceFormatError(f"{path}: {exc}") from exc


def write_heights_csv(field: HeightField, path: Path) -> None:
    """Heights in micrometres; header row = x coordinates (mm), one data row per y node."""
    heights = field.as_array()
    width = heights.shape[0]
    fixed = "%.6f".__mod__

    def chunks():
        yield (",".join(map(fixed, field.spec.x_coords().tolist())) + "\n").encode()
        for lo in range(0, heights.shape[1], _HEIGHTS_CHUNK_ROWS):
            # A data row holds one y node's heights along x: a row of the block's transpose.
            block = (heights[:, lo : lo + _HEIGHTS_CHUNK_ROWS] * MM_TO_UM).T.ravel()
            cells = _texts(block, fixed)
            yield "".join(
                ",".join(cells[k : k + width]) + "\n" for k in range(0, len(cells), width)
            ).encode()

    atomic_write_bytes(Path(path), chunks())


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
    atomic_write_bytes(Path(path), (header, memoryview(pixels.T.astype(">u2", order="C"))))


def _texts(values: np.ndarray, fmt) -> list[str]:
    """``fmt`` of each of the 1-D contiguous ``values``, computed once per
    distinct bit pattern (so ``-0.0`` keeps its sign). Formatting is most of
    the cost of a CSV row, and a height field holds few distinct heights,
    since a tooth's z depends only on the edge point."""
    _, first, index = np.unique(
        values.view(f"u{values.itemsize}"), return_index=True, return_inverse=True
    )
    texts = list(map(fmt, values[first].tolist()))
    return [texts[i] for i in index.tolist()]

