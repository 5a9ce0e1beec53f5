"""Shared builders for engine and acceptance tests."""

from __future__ import annotations

import dataclasses

import numpy as np

from millsurf import (
    GridSpec,
    HeightField,
    SimulationConfig,
    ToolDefinition,
    derive_kinematics,
)
from millsurf.engine import _engaged_half_length


def make_tool(**fields) -> ToolDefinition:
    """Case1's cutter (10 mm diameter, 5 mm inserts, 2 teeth) with ``fields`` set."""
    return ToolDefinition(**{"cutting_diameter_mm": 10.0, "insert_radius_mm": 5.0,
                             "tooth_count": 2, **fields})


def case1_tool(runouts=(), radial_rake_rad=0.0, axial_rake_rad=0.0) -> ToolDefinition:
    """Two-insert face mill, 10 mm cutting diameter, 5 mm circular inserts."""
    return make_tool(radial_rake_rad=radial_rake_rad, axial_rake_rad=axial_rake_rad,
                     runouts_mm=runouts)


def case1_process(feed_per_tooth_mm=0.6, depth_of_cut_mm=0.5, x0=0.0, y0=None,
                  cutting_speed_m_min=170.0):
    return derive_kinematics(
        case1_tool(),
        depth_of_cut_mm=depth_of_cut_mm,
        cutting_speed_m_min=cutting_speed_m_min,
        feed_per_tooth_mm=feed_per_tooth_mm,
        initial_position_mm=(x0, y0, 0.0),
    )


def small_random_config(seed: int, random_z0: bool = False) -> SimulationConfig:
    """Randomized small simulation: grid <= 200x200, <= 50k trajectory points.

    With ``random_z0`` the tool reference height z0 is drawn from U(-1, 1)
    after every other draw, so the rest of the config matches the z0 = 0 one.
    """
    rng = np.random.default_rng(seed)
    tooth_count = int(rng.integers(1, 4))
    radius = float(rng.uniform(2.0, 6.0))
    diameter = float(rng.uniform(1.5 * radius, 3.0 * radius))
    runouts = tuple(
        (float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.02, 0.02)))
        for _ in range(tooth_count)
    )
    tool = ToolDefinition(
        cutting_diameter_mm=diameter,
        insert_radius_mm=radius,
        tooth_count=tooth_count,
        radial_rake_rad=float(rng.uniform(-0.035, 0.035)),
        axial_rake_rad=float(rng.uniform(-0.035, 0.035)),
        runouts_mm=runouts,
    )
    feed = float(rng.uniform(0.1, 0.6))
    depth = float(rng.uniform(0.05, 0.5 * radius))
    process = derive_kinematics(
        tool,
        depth_of_cut_mm=depth,
        cutting_speed_m_min=float(rng.uniform(80.0, 250.0)),
        feed_per_tooth_mm=feed,
        phase_rad=float(rng.uniform(0.0, 6.28)),
        initial_position_mm=(float(rng.uniform(-1.0, 1.0)), None, 0.0),
    )
    spacing = float(rng.uniform(0.02, 0.05))
    half_w = float(rng.uniform(0.3, 0.5 * 199 * spacing))
    length = float(rng.uniform(0.3, min(2.0, 199 * spacing)))
    grid = GridSpec.from_extents(spacing, (-half_w, half_w), (0.0, length))

    n_points = int(rng.integers(4, 14))
    target_steps = int(rng.integers(200, min(1000, 50_000 // (tooth_count * n_points))))
    half = _engaged_half_length(tool, depth, feed)
    travel = (grid.y_max_mm - grid.y_min_mm) + 2.0 * (diameter / 2.0 + half)
    dt = (travel / process.feed_speed_mm_s(tool)) / target_steps
    if random_z0:
        x0, y0, _ = process.initial_position_mm
        process = dataclasses.replace(
            process, initial_position_mm=(x0, y0, float(rng.uniform(-1.0, 1.0)))
        )
    return SimulationConfig(
        tool=tool,
        process=process,
        grid=grid,
        edge_point_count=n_points,
        time_step_s=dt,
        worker_count=1,
    )


def wide_cutter_config(seed: int) -> SimulationConfig:
    """Randomized scaled-down am_smooth: a cutter 5-8x wider than a small grid
    that lies wholly to one side of the spindle path. Most (step, tooth) rows
    miss the grid along x or y. The span starts and ends a quarter diameter or
    more beyond the edge's reach, where on some seeds (1, 3 and 4, not 0 or 2)
    the coarse pass drops anchors whose edge annulus misses the grid. The
    annulus's hole never holds the coarse window here, so it drops no anchor;
    ``crossing_config`` in test_engine.py covers the hole."""
    rng = np.random.default_rng(seed)
    tooth_count = int(rng.integers(2, 5))
    spacing = float(rng.uniform(0.02, 0.04))
    grid_w = float(rng.uniform(0.8, 1.2))
    grid_l = float(rng.uniform(0.4, 0.8))
    diameter = float(rng.uniform(5.0, 8.0)) * grid_w
    radius = float(rng.uniform(0.1, 0.2)) * diameter
    feed = float(rng.uniform(0.1, 0.4))
    depth = float(rng.uniform(0.2, 0.5)) * radius
    tool = ToolDefinition(
        cutting_diameter_mm=diameter,
        insert_radius_mm=radius,
        tooth_count=tooth_count,
        radial_rake_rad=float(rng.uniform(-0.035, 0.035)),
        axial_rake_rad=float(rng.uniform(-0.035, 0.035)),
        runouts_mm=tuple(
            (float(rng.uniform(-0.02, 0.02)), float(rng.uniform(-0.02, 0.02)))
            for _ in range(tooth_count)
        ),
    )
    half = _engaged_half_length(tool, depth, feed)
    reach = diameter / 2.0 + half + float(rng.uniform(0.25, 0.5)) * diameter
    x0 = float(rng.uniform(-1.0, 1.0))
    offset = grid_w / 2.0 + 2.0 * spacing + float(rng.uniform(0.0, 0.1)) * diameter
    x_centre = x0 + offset * float(rng.choice([-1.0, 1.0]))
    process = derive_kinematics(
        tool,
        depth_of_cut_mm=depth,
        cutting_speed_m_min=float(rng.uniform(80.0, 250.0)),
        feed_per_tooth_mm=feed,
        phase_rad=float(rng.uniform(0.0, 6.28)),
        initial_position_mm=(x0, -reach, 0.0),
    )
    grid = GridSpec.from_extents(
        spacing, (x_centre - grid_w / 2.0, x_centre + grid_w / 2.0), (0.0, grid_l)
    )
    n_points = int(rng.integers(4, 10))
    steps = 40_000 // (tooth_count * n_points)
    t_end = (grid_l + 2.0 * reach) / process.feed_speed_mm_s(tool)
    return SimulationConfig(
        tool=tool,
        process=process,
        grid=grid,
        edge_point_count=n_points,
        time_step_s=t_end / steps,
        span_s=(0.0, t_end),
        worker_count=1,
    )


def front_cut_config(feed_per_tooth_mm: float, spacing_mm: float, runouts=(),
                     roi_len_mm: float = 5.0, x_half_mm: float = 0.05) -> SimulationConfig:
    """Case-1 geometry restricted to a leading-edge window.

    The simulation stops before the trailing (back-cutting) edge reaches the
    measured strip, leaving a single per-tooth feed-scallop family there. The
    step angle resolves every cell column crossed by every edge point.
    """
    tool = case1_tool(runouts=runouts)
    depth = 0.5
    margin = feed_per_tooth_mm / 2.0 + 0.3  # nearest-cusp formation margin plus padding
    y0 = -(tool.cutting_diameter_mm / 2.0) - margin  # first cusp fully formed at y=0
    process = case1_process(feed_per_tooth_mm=feed_per_tooth_mm, depth_of_cut_mm=depth, y0=y0)
    half = _engaged_half_length(tool, depth, feed_per_tooth_mm)
    r_max = tool.cutting_diameter_mm / 2.0 + half
    dt = (spacing_mm / r_max) / process.angular_velocity_rad_s
    grid = GridSpec.from_extents(spacing_mm, (-x_half_mm, x_half_mm), (0.0, roi_len_mm))
    # stop while the trailing edge (inner radius D/2 - half) is still short of the strip
    y_center_end = roi_len_mm - tool.cutting_diameter_mm / 2.0 + margin
    assert y_center_end < tool.cutting_diameter_mm / 2.0 - half, "back-cutting would reach the strip"
    t_end = (y_center_end - y0) / process.feed_speed_mm_s(tool)
    return SimulationConfig(
        tool=tool,
        process=process,
        grid=grid,
        time_step_s=dt,
        span_s=(0.0, t_end),
        worker_count=4,
    )


def machined_rect_roi(field: HeightField):
    """Largest all-machined rectangle, via the histogram-stack method.

    Returns an inclusive (i_lo, j_lo, i_hi, j_hi) node range or None.
    """
    mask = field.as_array() < field.initial_height_mm
    rows, cols = mask.shape
    best_area = 0
    best = None
    heights = np.zeros(cols + 1, dtype=int)  # sentinel column flushes the stack
    for i in range(rows):
        heights[:-1] = np.where(mask[i], heights[:-1] + 1, 0)
        stack: list[tuple[int, int]] = []
        for j in range(cols + 1):
            h = int(heights[j])
            start = j
            while stack and stack[-1][1] >= h:
                sj, sh = stack.pop()
                area = sh * (j - sj)
                if area > best_area:
                    best_area = area
                    best = (i - sh + 1, sj, i, j - 1)
                start = sj
            if h and (not stack or stack[-1][1] < h):
                stack.append((start, h))
    return best


def dominant_period_mm(heights_mm: np.ndarray, spacing_mm: float,
                       lag_lo_mm: float, lag_hi_mm: float, frac: float = 0.9) -> float:
    """Fundamental period via overlap-normalized autocorrelation.

    The dominant period is the smallest lag whose local autocorrelation peak
    reaches ``frac`` of the strongest peak in the search window.
    """
    d = heights_mm - heights_mm.mean()
    n = d.size
    ac = np.correlate(d, d, "full")[n - 1 :]
    ac = ac / (n - np.arange(n))  # unbiased: divide by overlap count
    lags_mm = np.arange(n) * spacing_mm
    lo = int(np.searchsorted(lags_mm, lag_lo_mm))
    hi = int(np.searchsorted(lags_mm, lag_hi_mm))
    window = ac[lo:hi]
    peaks = [
        k for k in range(1, window.size - 1)
        if window[k] >= window[k - 1] and window[k] >= window[k + 1] and window[k] > 0
    ]
    assert peaks, "no positive autocorrelation peak in the search window"
    strongest = max(window[k] for k in peaks)
    first = next(k for k in peaks if window[k] >= frac * strongest)
    return float(lags_mm[lo + first])


def linear_fit_r2(x: np.ndarray, y: np.ndarray) -> float:
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    fit = a @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot
