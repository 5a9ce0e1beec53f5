"""Workpiece height field: the grid spec and the min-z height buffer.

The workpiece top surface is a regular grid of (m+1) x (n+1) nodes with
spacing ``spacing_mm``; node (i, j) sits at (x_min + i*spacing, y_min +
j*spacing). Each node stores the lowest z any trajectory point has deposited
in its cell; untouched cells keep the initial stock height, which doubles as
the uncut sentinel. Which cell a point lands in is the engine's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MillsurfError


def _check_spacing(spacing_mm: float) -> None:
    # Comparisons take True and False as 1 and 0, so a bool is rejected.
    if isinstance(spacing_mm, bool) or not (math.isfinite(spacing_mm) and spacing_mm > 0):
        raise DomainError(f"grid spacing must be a finite number > 0, got {spacing_mm}")


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
        x_min, y_min = self.x_min_mm, self.y_min_mm
        if any(isinstance(w, bool) or not math.isfinite(w) for w in (x_min, y_min)):
            raise DomainError(f"grid origin must be two finite numbers, got ({x_min}, {y_min})")
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
        if isinstance(initial_height_mm, bool):  # float() would take it as 1.0 or 0.0
            raise DomainError(f"uncut sentinel height must be a number, got {initial_height_mm!r}")
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

