"""Workpiece height field: grid spec, cell lookup and min-z retention.

The workpiece top surface is a regular grid of (m+1) x (n+1) nodes with
spacing ``spacing_mm``; node (i, j) sits at (x_min + i*spacing, y_min +
j*spacing). Each node stores the lowest z any trajectory point has deposited
in its cell; untouched cells keep the initial stock height, which doubles as
the uncut sentinel.

Cell membership uses half-open intervals via rounding, so a point exactly on a
shared cell boundary belongs to the higher-index cell and every point maps to
exactly one cell. Points outside the grid are skipped, never clamped onto
border cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MillsurfError


def _check_spacing(spacing_mm: float) -> None:
    if not (math.isfinite(spacing_mm) and spacing_mm > 0):
        raise DomainError(f"grid spacing must be finite and > 0, got {spacing_mm}")


@dataclass(frozen=True)
class GridSpec:
    """Regular grid geometry. ``m`` and ``n`` are cell counts; nodes are m+1 by n+1."""

    spacing_mm: float
    x_min_mm: float
    y_min_mm: float
    m: int
    n: int

    def __post_init__(self) -> None:
        _check_spacing(self.spacing_mm)
        if not (math.isfinite(self.x_min_mm) and math.isfinite(self.y_min_mm)):
            raise DomainError(
                f"grid origin must be finite, got ({self.x_min_mm}, {self.y_min_mm})"
            )
        for name in ("m", "n"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, int):
                raise DomainError(f"grid cell count {name} must be an integer, got {count!r}")
        if self.m < 1 or self.n < 1:
            raise DomainError(f"grid must have at least one cell per axis, got m={self.m}, n={self.n}")

    @classmethod
    def from_extents(
        cls,
        spacing_mm: float,
        x_range_mm: tuple[float, float],
        y_range_mm: tuple[float, float],
    ) -> "GridSpec":
        _check_spacing(spacing_mm)
        cells_x = (x_range_mm[1] - x_range_mm[0]) / spacing_mm
        cells_y = (y_range_mm[1] - y_range_mm[0]) / spacing_mm
        if not (math.isfinite(cells_x) and math.isfinite(cells_y)):
            raise DomainError(
                f"grid extents {x_range_mm} x {y_range_mm} at spacing {spacing_mm} "
                "give an unbounded cell count"
            )
        m = round(cells_x)
        n = round(cells_y)
        if m < 1 or n < 1:
            raise DomainError(
                f"grid extents {x_range_mm} x {y_range_mm} span less than one cell "
                f"at spacing {spacing_mm}"
            )
        return cls(spacing_mm, x_range_mm[0], y_range_mm[0], m, n)

    @property
    def x_max_mm(self) -> float:
        return self.x_min_mm + self.m * self.spacing_mm

    @property
    def y_max_mm(self) -> float:
        return self.y_min_mm + self.n * self.spacing_mm

    @property
    def node_count(self) -> int:
        return (self.m + 1) * (self.n + 1)

    def x_coords(self) -> np.ndarray:
        return self.x_min_mm + self.spacing_mm * np.arange(self.m + 1)

    def y_coords(self) -> np.ndarray:
        return self.y_min_mm + self.spacing_mm * np.arange(self.n + 1)


def locate(x_mm: float, y_mm: float, spec: GridSpec) -> tuple[int, int] | None:
    """Grid cell containing (x, y), or None when the point falls outside.

    Index formula: i = floor((x - x_min)/spacing + 1/2), likewise j.
    """
    if not (math.isfinite(x_mm) and math.isfinite(y_mm)):
        raise DomainError(f"non-finite coordinates ({x_mm}, {y_mm})")
    i = math.floor((x_mm - spec.x_min_mm) / spec.spacing_mm + 0.5)
    j = math.floor((y_mm - spec.y_min_mm) / spec.spacing_mm + 0.5)
    if 0 <= i <= spec.m and 0 <= j <= spec.n:
        return (i, j)
    return None


class HeightField:
    """Mutable min-z height field over a GridSpec.

    The backing array is one contiguous row-major float64 buffer of length
    (m+1)*(n+1), allocated once at construction and never resized; index
    (i, j) maps to flat offset i*(n+1) + j. The initial height, which is also
    the uncut sentinel, must be finite. Its methods take no lock: the
    workers of a concurrent simulation share one field and guard its reads
    and writes with a lock of their own.
    """

    __slots__ = ("spec", "initial_height_mm", "heights")

    def __init__(self, spec: GridSpec, initial_height_mm: float, heights: np.ndarray | None = None):
        self.spec = spec
        self.initial_height_mm = float(initial_height_mm)
        if not math.isfinite(self.initial_height_mm):
            raise DomainError(f"uncut sentinel height is {self.initial_height_mm}, not finite")
        if heights is None:
            try:
                self.heights = np.full(spec.node_count, self.initial_height_mm, dtype=np.float64)
            except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
                raise MillsurfError(
                    f"cannot allocate a height field of {spec.node_count} nodes: {exc}"
                ) from exc
        else:
            if heights.shape != (spec.node_count,):
                raise DomainError(
                    f"heights buffer has {heights.shape}, expected ({spec.node_count},)"
                )
            self.heights = np.ascontiguousarray(heights, dtype=np.float64)

    def as_array(self) -> np.ndarray:
        """(m+1, n+1) view of the height buffer; axis 0 is x (i), axis 1 is y (j)."""
        return self.heights.reshape(self.spec.m + 1, self.spec.n + 1)

    def machined_cell_count(self) -> int:
        return int(np.count_nonzero(self.heights < self.initial_height_mm))


def update_min(field: HeightField, idx: tuple[int, int], z_mm: float) -> bool:
    """Lower the cell at ``idx`` to ``z_mm`` if strictly below the stored height.

    Returns True when the cell changed. Out-of-range indices are rejected,
    never written.
    """
    i, j = idx
    if not (0 <= i <= field.spec.m and 0 <= j <= field.spec.n):
        raise DomainError(f"grid index ({i}, {j}) outside [0, {field.spec.m}] x [0, {field.spec.n}]")
    flat = i * (field.spec.n + 1) + j
    if z_mm < field.heights[flat]:
        field.heights[flat] = z_mm
        return True
    return False

