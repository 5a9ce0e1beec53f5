"""Discrete cutting-edge representation of an indexable face mill with circular inserts.

Internal units are millimetres and radians everywhere. The active cutting edge
is the lower semicircular arc of the insert; a point at arc coordinate ``l``
(measured along the edge-frame X axis) sits at height

    z(l) = R - sqrt(R^2 - l^2)

above the lowest point of the edge. Only the engaged part of the arc is
discretized: the half-length combines the axial immersion (depth of cut) with
a feed-per-tooth floor so that the sampled edge always spans at least one
tooth advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MillsurfError


@dataclass(frozen=True)
class ToolDefinition:
    """Cutter geometry: diameter, circular-insert radius, tooth count, rakes, run-outs.

    ``runouts_mm`` holds one (radial, axial) pair per tooth, index K = 1..tooth_count.
    Tooth K's mounting offset is (K - 1) times its pair, so tooth 1 is always the
    reference tooth. An empty tuple means zero run-out on every tooth.
    """

    cutting_diameter_mm: float
    insert_radius_mm: float
    tooth_count: int
    radial_rake_rad: float = 0.0
    axial_rake_rad: float = 0.0
    runouts_mm: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("cutting_diameter_mm", "insert_radius_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value}")
        for name in ("radial_rake_rad", "axial_rake_rad"):
            value = getattr(self, name)
            if not abs(value) < math.pi / 2:  # also rejects NaN
                raise DomainError(f"{name} must satisfy |rake| < pi/2, got {value}")
        teeth = self.tooth_count
        if isinstance(teeth, bool) or not isinstance(teeth, int) or teeth < 1:
            raise DomainError(f"tooth_count must be an integer >= 1, got {teeth!r}")
        if not self.runouts_mm:
            object.__setattr__(self, "runouts_mm", ((0.0, 0.0),) * self.tooth_count)
        if len(self.runouts_mm) != self.tooth_count:
            raise DomainError(
                f"runouts_mm must have one (radial, axial) pair per tooth: "
                f"got {len(self.runouts_mm)} pairs for {self.tooth_count} teeth"
            )
        for k, (eps_r, eps_a) in enumerate(self.runouts_mm, start=1):
            if not (abs(eps_r) < self.insert_radius_mm and abs(eps_a) < self.insert_radius_mm):
                raise DomainError(
                    f"run-out of tooth {k} ({eps_r}, {eps_a}) mm is not finite and small "
                    f"against the insert radius {self.insert_radius_mm} mm"
                )


@dataclass(frozen=True)
class EdgeDiscretization:
    """Uniform sampling of the engaged edge arc over [-half_length, +half_length].

    ``points`` is one contiguous (N, 4) array of homogeneous edge-frame
    coordinates, allocated once and never resized.
    """

    half_length_mm: float
    point_count: int
    points: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]


def effective_half_length(
    tool: ToolDefinition,
    depth_of_cut_mm: float,
    feed_per_tooth_mm: float,
) -> float:
    """Engaged-arc half-length: max of the immersion half-chord and the feed floor.

    The immersion branch is the half-chord of the tool's insert arc at axial
    depth ``depth_of_cut_mm``; the feed branch f_z / (2 cos(radial rake))
    guarantees the sampled edge spans one tooth advance even at shallow depths.
    """
    r = tool.insert_radius_mm
    a_p = depth_of_cut_mm
    if a_p <= 0:
        raise DomainError(f"depth_of_cut_mm must be > 0, got {a_p}")
    if a_p > r:
        raise DomainError(
            f"depth_of_cut_mm = {a_p} exceeds the insert radius {r} mm "
            "(full-slot immersion beyond the insert arc)"
        )
    if feed_per_tooth_mm <= 0:
        raise DomainError(f"feed_per_tooth_mm must be > 0, got {feed_per_tooth_mm}")
    half_immersion = math.sqrt(r * r - (r - a_p) * (r - a_p))
    half_feed = feed_per_tooth_mm / (2.0 * math.cos(tool.radial_rake_rad))
    return max(half_immersion, half_feed)


def default_point_count(half_length_mm: float, grid_spacing_mm: float) -> int:
    """Smallest N with edge spacing 2*dL/(N-1) <= spacing/2: one sample per crossed cell."""
    if grid_spacing_mm <= 0:
        raise DomainError(f"grid_spacing_mm must be > 0, got {grid_spacing_mm}")
    return max(2, math.ceil(4.0 * half_length_mm / grid_spacing_mm) + 1)


def discretize_edge(
    tool: ToolDefinition,
    depth_of_cut_mm: float,
    feed_per_tooth_mm: float,
    point_count: int,
) -> EdgeDiscretization:
    """Sample the engaged edge arc into ``point_count`` uniform points.

    The result is a pure function of its inputs; endpoints land exactly on
    +-half_length.
    """
    if point_count < 2:
        raise DomainError(f"point_count must be >= 2, got {point_count}")
    r = tool.insert_radius_mm
    half = effective_half_length(tool, depth_of_cut_mm, feed_per_tooth_mm)
    if half > r:
        raise DomainError(
            f"engaged half-length {half:.6g} mm exceeds the insert radius {r} mm "
            "(feed per tooth too large for this insert)"
        )
    n = point_count
    try:
        l = -half + (2.0 * half) * np.arange(n, dtype=np.float64) / (n - 1)
        l[0] = -half
        l[-1] = half
        points = np.empty((n, 4), dtype=np.float64)
        points[:, 0] = l
        points[:, 1] = 0.0
        points[:, 2] = r - np.sqrt(r * r - l * l)
        points[:, 3] = 1.0
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise MillsurfError(f"cannot allocate {n} edge points: {exc}") from exc
    return EdgeDiscretization(half_length_mm=half, point_count=n, points=points)
