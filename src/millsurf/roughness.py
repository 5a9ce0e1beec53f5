"""Areal (ISO 25178-2 style) and line roughness over a height field.

Heights are stored in mm and reported in micrometres. Deviations are taken
from the arithmetic mean plane by default; a least-squares plane fit is
available for tilted data. Simulated surfaces carry no measurement noise, so
no spatial filtering is applied (users comparing against S-filter/L-filter
processed measurements should expect that difference).

Skewness and kurtosis use population moments; both are undefined (None) on a
perfectly flat region rather than zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .surface_grid import HeightField

MM_TO_UM = 1000.0


@dataclass(frozen=True)
class ArealMetrics:
    """Areal height parameters in micrometres (skewness/kurtosis dimensionless)."""

    sa_um: float
    sq_um: float
    sp_um: float
    sv_um: float
    sz_um: float
    ssk: float | None
    sku: float | None
    cell_count: int

    def to_json_dict(self) -> dict:
        return {
            "Sa_um": self.sa_um,
            "Sq_um": self.sq_um,
            "Sp_um": self.sp_um,
            "Sv_um": self.sv_um,
            "Sz_um": self.sz_um,
            "Ssk": self.ssk,
            "Sku": self.sku,
            "cell_count": self.cell_count,
        }

    def to_text(self) -> str:
        rows = [
            ("Sa", f"{self.sa_um:.6f} um"),
            ("Sq", f"{self.sq_um:.6f} um"),
            ("Sp", f"{self.sp_um:.6f} um"),
            ("Sv", f"{self.sv_um:.6f} um"),
            ("Sz", f"{self.sz_um:.6f} um"),
            ("Ssk", "undefined" if self.ssk is None else f"{self.ssk:.6f}"),
            ("Sku", "undefined" if self.sku is None else f"{self.sku:.6f}"),
            ("cells", str(self.cell_count)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


@dataclass(frozen=True)
class LineProfile:
    """Single row/column of heights: feed profiles run along Y, pick-feed along X."""

    direction: str
    index: int
    positions_mm: np.ndarray
    heights_mm: np.ndarray
    spacing_mm: float


def _check_roi(
    field: HeightField, roi: tuple[int, int, int, int] | None
) -> tuple[int, int, int, int]:
    """The node range (i_lo, j_lo, i_hi, j_hi); None means the whole grid."""
    grid = field.spec
    if roi is None:
        return (0, 0, grid.m, grid.n)
    i_lo, j_lo, i_hi, j_hi = roi
    if not (0 <= i_lo <= i_hi <= grid.m and 0 <= j_lo <= j_hi <= grid.n):
        raise DomainError(f"roi {roi} outside grid [0, {grid.m}] x [0, {grid.n}] or empty")
    return roi


def _roi_heights(field: HeightField, roi: tuple[int, int, int, int] | None) -> np.ndarray:
    i_lo, j_lo, i_hi, j_hi = _check_roi(field, roi)
    block = field.as_array()[i_lo : i_hi + 1, j_lo : j_hi + 1]
    if np.any(block >= field.initial_height_mm):
        raise DomainError(
            "roughness over unmachined stock is undefined: roi contains uncut cells"
        )
    return block


def areal_metrics(
    field: HeightField,
    roi: tuple[int, int, int, int] | None = None,
    leveling: str = "mean",
) -> ArealMetrics:
    """Areal height parameters over a rectangular node range (i_lo, j_lo, i_hi, j_hi).

    ``leveling='mean'`` subtracts the mean height (simulated surfaces are
    parallel to the grid plane); ``'plane'`` removes a least-squares plane.
    """
    block = _roi_heights(field, roi)
    z = block * MM_TO_UM
    if leveling == "mean":
        d = z - z.mean()
    elif leveling == "plane":
        ni, nj = z.shape
        xi, yj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        a = np.column_stack([xi.ravel(), yj.ravel(), np.ones(z.size)])
        coef, *_ = np.linalg.lstsq(a, z.ravel(), rcond=None)
        d = z - (a @ coef).reshape(z.shape)
    else:
        raise DomainError(f"unknown leveling mode {leveling!r}")

    sa = float(np.mean(np.abs(d)))
    sq = float(np.sqrt(np.mean(d * d)))
    sp = float(np.max(d))
    sv = float(-np.min(d))
    if sq == 0.0:
        ssk = None
        sku = None
    else:
        ssk = float(np.mean(d**3) / sq**3)
        sku = float(np.mean(d**4) / sq**4)
    return ArealMetrics(
        sa_um=sa,
        sq_um=sq,
        sp_um=sp,
        sv_um=sv,
        sz_um=sp + sv,
        ssk=ssk,
        sku=sku,
        cell_count=int(z.size),
    )


def extract_profile(
    field: HeightField,
    direction: str,
    index: int | None = None,
    roi: tuple[int, int, int, int] | None = None,
) -> LineProfile:
    """Extract a feed-direction column (fixed x) or pick-feed row (fixed y).

    ``index=None`` selects the centre line. The profile must not cross uncut
    cells.
    """
    grid = field.spec
    arr = field.as_array()
    i_lo, j_lo, i_hi, j_hi = _check_roi(field, roi)

    if direction == "feed":
        idx = round(grid.m / 2) if index is None else index
        if not i_lo <= idx <= i_hi:
            raise DomainError(f"feed profile index {idx} outside roi columns {i_lo}..{i_hi}")
        heights = arr[idx, j_lo : j_hi + 1]
        positions = grid.y_coords()[j_lo : j_hi + 1]
    elif direction == "pickfeed":
        idx = round(grid.n / 2) if index is None else index
        if not j_lo <= idx <= j_hi:
            raise DomainError(f"pick-feed profile index {idx} outside roi rows {j_lo}..{j_hi}")
        heights = arr[i_lo : i_hi + 1, idx]
        positions = grid.x_coords()[i_lo : i_hi + 1]
    else:
        raise DomainError(f"direction must be 'feed' or 'pickfeed', got {direction!r}")

    if np.any(heights >= field.initial_height_mm):
        raise DomainError(f"{direction} profile at index {idx} crosses uncut cells")
    return LineProfile(
        direction=direction,
        index=idx,
        positions_mm=positions.copy(),
        heights_mm=heights.copy(),
        spacing_mm=grid.spacing_mm,
    )


def line_roughness(profile: LineProfile) -> float:
    """Arithmetic-mean line roughness Ra of a profile, in micrometres."""
    if profile.heights_mm.size < 2:
        raise DomainError("line roughness needs at least 2 samples")
    z = profile.heights_mm * MM_TO_UM
    return float(np.mean(np.abs(z - z.mean())))
