"""Areal (ISO 25178-2 style) and line roughness over a height field.

Heights are stored in mm and reported in micrometres. Deviations are taken
from the arithmetic mean plane by default, or from the least-squares plane
for tilted data. Simulated surfaces carry no measurement noise, so no spatial
filtering is applied (users comparing against S-filter/L-filter processed
measurements should expect that difference).

The plane needs no design matrix: uncut cells are refused, so the ROI is a
full rectangle of nodes, whose centred indices ``i - (ni-1)/2`` and
``j - (nj-1)/2`` are orthogonal to each other and to the constant. After the
mean, the slope along i is ``sum(i * rowsum(d)) / (nj * sum(i**2))``, along j
likewise; a one-node axis takes slope 0, as minimum-norm least squares does.

Skewness and kurtosis use population moments, undefined (None) rather than
zero on a perfectly flat region. Their third and fourth moments take ``pow``
on the field's distinct deviations only and gather the powers back by cell.
numpy has no fast path for the exponents 3 and 4, so ``d**3`` calls ``pow``
once per cell, while a mean-leveled simulated field holds few distinct
heights: a tooth's workpiece z does not depend on time, so there are at most
teeth x edge points + 1 of them (case1's 501,501 cells hold 117). The bits
match ``np.mean(d**3)`` and ``np.mean(d**4)``: ``pow`` works element by
element on float64 in the same ufunc loop, so the gathered array equals
``d**3`` value for value, in the same cell order, and ``np.mean`` sums it the
same way. ``np.unique`` merges ``-0.0`` with ``0.0``; that cannot change a
sum, which numpy starts at ``+0.0``. The helper's own count of distinct values
sends fields with many, such as plane-leveled ones, to ``d**3`` and ``d**4``.
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


def _third_and_fourth_means(d: np.ndarray) -> tuple[float, float]:
    """``np.mean(d**3)`` and ``np.mean(d**4)``, bit for bit; may overwrite ``d``."""
    u = np.unique(d)
    # On an all-distinct 1001x501 normal field, direct pow took 71-81 ms and
    # the lookup 259-297 ms (searchsorted against 501K values; np.unique alone
    # 12 ms). With values in random cell order the two break even near 7,000
    # to 9,000 distinct values on that grid, about 1/64 of its cells.
    if u.size > d.size // 64:
        return np.mean(d**3), np.mean(d**4)
    i = np.searchsorted(u, d)
    # The powers are gathered into d's own storage, so no third cell-sized
    # array exists. Every index is in range; mode="raise" would buffer a copy.
    np.take(u**3, i, out=d, mode="clip")
    third = np.mean(d)
    np.take(u**4, i, out=d, mode="clip")
    return third, np.mean(d)


def areal_metrics(
    field: HeightField,
    roi: tuple[int, int, int, int] | None = None,
    leveling: str = "mean",
) -> ArealMetrics:
    """Areal height parameters over a rectangular node range (i_lo, j_lo, i_hi, j_hi).

    ``leveling='mean'`` subtracts the mean height (simulated surfaces are
    parallel to the grid plane); ``'plane'`` removes a least-squares plane.
    """
    if leveling not in ("mean", "plane"):
        raise DomainError(f"unknown leveling mode {leveling!r}")
    d = _roi_heights(field, roi) * MM_TO_UM
    d -= d.mean()
    if leveling == "plane":  # the closed form of the module docstring
        ni, nj = d.shape
        i = np.arange(ni) - (ni - 1) / 2
        j = np.arange(nj) - (nj - 1) / 2
        if ni > 1:
            d -= (i @ d.sum(axis=1) / (nj * (i @ i))) * i[:, None]
        if nj > 1:
            d -= (j @ d.sum(axis=0) / (ni * (j @ j))) * j

    sa = float(np.mean(np.abs(d)))
    sq = float(np.sqrt(np.mean(d * d)))
    sp = float(np.max(d))
    sv = float(-np.min(d))
    if sq == 0.0:
        ssk = sku = None
    else:
        third, fourth = _third_and_fourth_means(d)
        ssk = float(third / sq**3)
        sku = float(fourth / sq**4)
    return ArealMetrics(
        sa_um=sa,
        sq_um=sq,
        sp_um=sp,
        sv_um=sv,
        sz_um=sp + sv,
        ssk=ssk,
        sku=sku,
        cell_count=int(d.size),
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
