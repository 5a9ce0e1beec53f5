"""Forward sweep of cutting-edge trajectories through the workpiece height field.

Two kernels share one simulation plan and produce bit-identical results:

``simulate``
    Vectorized kernel. Past the fixed edge->tool step, the chain is a plane
    rotation plus a shift, so the plan keeps each tooth's tool-frame edge
    (x_t, y_t) and its time-invariant workpiece z, and per (run of steps,
    tooth, edge segment) the kernel rotates and shifts the edge points by
    broadcasting: ``x = c*x_t + s*y_t + x0`` and ``y = c*y_t - s*x_t + y(t)``.
    A coarse pass (``_live_steps``) turns the step range into runs of live
    steps; each run goes through a row stage (``_rows``), which bounds the
    (step, tooth) rows and (row, segment) pairs that can matter, and a point
    stage (``_PointStage``), which rotates the kept pairs' edge points,
    indexes their cells and scatters their z values into the height field
    with an elementwise minimum. Work that provably cannot reach the grid, or
    cannot lower any cell it reaches, is skipped before it is computed, by
    cull geometry built once in ``_plan``; the first three culls bound against
    the grid window widened by 1.5 cells:

    - coarse step pass: every ``_COARSE_STRIDE``-th global step (an anchor)
      is bounded first, against the window widened by a slack that covers the
      stride, and a step is looked at further only if its anchor passes. Every
      edge point lies in an annulus about the spindle axis (the teeth's radial
      range in the tool frame), and ``_plan`` turns the test of that annulus
      against the coarse window into a band of spindle-axis y: anchors outside
      it, whose annulus misses the window or holds it in its hole, are dropped
      before the trig, and the rest are bounded per tooth by the edge's box.
      The band's edges differ from a per-anchor test of the nearest and
      farthest window points only by rounding, which the window's margin
      absorbs. A box bound such as
      ``max(c*a_lo, c*a_hi) + max(s*b_lo, s*b_hi) + x0`` is
      a sum of terms ``a*cos`` or ``a*sin``, so it moves by at most
      ``(max|x_t| + max|y_t|)*|omega|`` per unit of angle, and ``y(t)`` by
      ``|v_f|`` per second; a step lies less than K steps of dt after its
      anchor, so the slack ``(max|x_t| + max|y_t|)*|omega|*K*dt + |v_f|*K*dt``
      covers it. (The smaller ``r_hi*|omega|*K*dt`` bounds how far one edge
      point moves, not how far the box bound moves.) Anchors are global step
      numbers, so the steps kept do not depend on span, run or worker bounds.
      The pass bounds ``_STEP_CHUNK`` anchors at a time and packs the steps
      that pass into runs of ``_STEP_CHUNK`` live steps, across spans, so a
      sparse sweep makes as few row- and point-stage calls as a dense one;
    - row cull: per (step, tooth), interval bounds on the edge's x and y
      extent drop rows whose edge misses the window;
    - segment cull: each tooth's edge is split into ``_EDGE_SEGMENTS``
      contiguous index slices with their own tool-frame ranges, and per kept
      row the same interval bound drops the slices that miss the window;
    - dominance cull: a kept (row, segment) pair is skipped when the
      segment's lowest z is at or above an upper bound of every in-grid cell
      it can reach. That bound is the worker's map of tile maxima of the
      shared field, dilated so that the tile of the cell one before the low
      corner of a square that holds the rotated segment covers all the cells
      the segment reaches. The corner's cell is clipped into the grid, which
      is sound for a *boundary* pair, whose square crosses the grid's edge:
      below the grid, the in-grid cells it reaches start at cell 0 and lie
      within the span counted from the unclipped corner, so within the
      clipped corner's 3 x 3 tile block; beyond the grid, it reaches no
      in-grid cell along that axis; and points outside the grid never land.
      The map is refreshed only when the worker has scattered since and the
      group of pairs at hand holds at least ``_REFRESH_RATIO`` points per
      grid node, so a refresh costs no more than the group. Each tooth's
      segments are visited lowest first, so the tip lowers the field before
      the segments above it are tested. This is the lower envelope of the
      Z-map: the field only decreases, so a stale map is still an upper
      bound, and a landing at or above a cell's height is a no-op of the
      minimum whatever the order. A pair whose bound lies inside the grid
      window shrunk by half a cell, one cell inside the outermost cells'
      edges (an *interior* pair), lands every point, so it also skips the
      in-grid test.

    The point stage runs in blocks of about ``_POINT_BLOCK`` elements so
    its buffers stay in cache; it computes the cell index in place with the
    same operations as ``surface_grid.locate``. The culls only choose which
    points are computed, never how: a kept point goes through exactly the
    arithmetic it would without them, a dropped point either lies outside the
    widened window, so it cannot land in a cell, or lands in the grid at or
    above the height already there. Heights are therefore the same as with
    no cull at all; the extra cell of each window absorbs the rounding
    differences between a bound and the point stage. Work is split over
    contiguous time-step ranges, one per worker thread, and every worker
    scatters into one shared height field. One lock is held around each
    scatter and around the refresh's read of the field, so no read of the
    field overlaps a write and no two scatters interleave their
    read-modify-write of a cell. A minimum does not depend on the order of
    its operands, and a map taken under the lock stays an upper bound while
    heights only fall, so heights are independent of the worker count and of
    thread timing. ``evaluated_points`` counts the points computed, and
    ``in_grid_points`` those of them that landed; with the dominance cull on,
    each worker's map sees every worker's cuts as of its last refresh, so at
    more than one worker both counts depend on thread timing. With the
    dominance cull off, ``in_grid_points`` equals the count of every
    trajectory point that lands.

    Every broadcast of the row and point stages runs along the rows: the
    segment bounds are (segment, row) arrays, from (S, 1) tool-frame ranges
    and 1-D rows, and a point block is (edge point, row), filled from an
    edge column and scaled in place by a contiguous row of cos, sin or y(t).
    A tooth has 8 segments and a segment tens to hundreds of points, but a
    run holds thousands of rows, so numpy's inner loops run long and
    contiguous instead of a few elements at a time. A product only swaps its
    operands, which is exact, so no value changes.

    The scatter ``np.minimum.at`` runs under the field's lock, so two
    threads scattering run no faster than one thread doing both, while a
    gather such as ``np.take`` scales; the fewer points reach the scatter,
    the better the workers scale. Every numpy call also holds the GIL for its
    fixed overhead, so the stages take full runs of live steps, not slices of
    the step grid: a sparse sweep, where few steps are live, then makes as
    few calls as a dense one and its threads do not serialize on per-call
    overhead. CHANGES.md and the ``BENCH_*.json`` files hold the measurements.

    The sweep computes heights only.

``simulate_reference``
    Deliberately naive baseline: for every time step, tooth, and edge point it
    rebuilds all three 4x4 transforms, applies edge->tool to the point,
    multiplies spindle->workpiece by tool->spindle, applies that product, and
    updates one cell, single-threaded with per-point temporaries. It exists as
    the correctness oracle and the benchmark baseline.

Bit-identity between the kernels holds by construction: both read the arc
samples that ``_plan`` takes once per job (``edge_x`` and ``edge_z``), take
the tool-frame coordinates from ``kinematics._apply4`` of the same edge->tool
rows at the same edge points (x, 0.0, z), take trig values from the same
libm routines, and apply the same rotation of the same tool-frame
coordinates in the same order (the product of the spindle->workpiece and
tool->spindle rows has the exact entries c, s, -s, x0, y(t) and z0, and its
zero entries add only zeros); the minimum reduction is order-insensitive.

Wall time covers only the main loop; planning, validation and export are
excluded.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, MillsurfError
from .kinematics import (
    ProcessParameters,
    ToolDefinition,
    _apply4,
    _edge_to_tool_rows,
    _matmul4,
    _spindle_to_workpiece_rows,
    _tool_to_spindle_rows,
    tooth_angle,
)
from .surface_grid import GridSpec, HeightField, locate, update_min

# Vectorized-kernel block sizes; they bound temporary memory, not results.
# The coarse pass (_live_steps: annulus band and box bounds of anchors) bounds
# spans of _STEP_CHUNK anchors, and the row stage (_rows: trig, row and segment
# bounds against the cull geometry built in _plan) takes runs of _STEP_CHUNK
# live steps, long enough that per-call overhead stays small and that a run's
# groups of pairs reach the dominance map's refresh size (at 8,192, evaluated
# points at 2 workers rose from 8.8-9.4M to 22.3-23.9M on case1 and from 4.3M
# to 7.9M on am_smooth, and each sweep took about twice as long).
# The point stage (_PointStage: rotation, cell index, scatter-min, dominance
# map) runs over each edge segment's kept rows in blocks of about _POINT_BLOCK
# (edge point, row) elements, rows fastest; its three float64 buffers take
# 0.5 MB each, so they fit a 2 MB L2 cache together.
_STEP_CHUNK = 32_768
_POINT_BLOCK = 65_536
# Cull granularity, chosen by measurement; results do not depend on them.
# Each tooth's edge is bounded in _EDGE_SEGMENTS contiguous index slices, and
# the coarse step pass bounds every _COARSE_STRIDE-th global step.
_EDGE_SEGMENTS = 8
_COARSE_STRIDE = 16
# A worker's dominance map, an upper bound of the shared field, is refreshed only
# before a group of at least _REFRESH_RATIO points per grid node, so a refresh
# never costs more than the group it can cull.
_REFRESH_RATIO = 1.0


@dataclass(frozen=True)
class SimulationConfig:
    tool: ToolDefinition
    process: ProcessParameters
    grid: GridSpec
    edge_point_count: int | None = None
    max_step_angle_rad: float | None = None  # None derives it from the grid
    time_step_s: float | None = None
    span_s: tuple[float, float] | None = None
    worker_count: int = 1

    def __post_init__(self) -> None:
        # Comparisons take True and False as 1 and 0.
        span = () if self.span_s is None else self.span_s
        for name, value in (("time_step_s", self.time_step_s),
                            ("max_step_angle_rad", self.max_step_angle_rad),
                            *(("span_s", end) for end in span)):
            if isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        # Chained comparisons with math.inf also reject NaN.
        if self.time_step_s is not None and not 0 < self.time_step_s < math.inf:
            raise ConfigError(f"time_step_s must be finite and > 0, got {self.time_step_s}")
        angle = self.max_step_angle_rad
        if angle is not None and not 0 < angle < math.inf:
            raise ConfigError(f"max_step_angle_rad must be finite and > 0, got {angle}")
        if self.span_s is not None:
            if not 0 <= self.span_s[0] < self.span_s[1] < math.inf:
                raise ConfigError(
                    f"span_s must be finite and satisfy 0 <= start < end, got {self.span_s}"
                )
            if self.process.initial_position_mm[1] is None:
                raise ConfigError(
                    "process.initial_position_mm.y is required when span_s is explicit"
                )
        if isinstance(self.worker_count, bool) or not isinstance(self.worker_count, int):
            raise ConfigError(f"worker_count must be an integer, got {self.worker_count!r}")
        if self.worker_count < 1:
            raise ConfigError(f"worker_count must be >= 1, got {self.worker_count}")
        n = self.edge_point_count
        if n is not None and (not isinstance(n, int) or n < 2):  # also rejects bools
            raise ConfigError(f"edge_point_count must be None or an integer >= 2, got {n!r}")
        if self.process.depth_of_cut_mm > self.tool.insert_radius_mm:
            raise ConfigError(
                f"process.depth_of_cut_mm {self.process.depth_of_cut_mm} exceeds "
                f"tool.insert_radius_mm {self.tool.insert_radius_mm}"
            )
        feed = self.process.feed_speed_mm_s(self.tool)  # f_z*z*n may under- or overflow
        if not 0 < feed < math.inf:
            raise ConfigError(f"feed speed on the tool's teeth must be finite and > 0, got {feed}")


@dataclass
class SimulationResult:
    field: HeightField
    time_steps: int
    trajectory_points: int
    cells_updated: int
    main_loop_seconds: float
    # Trajectory points whose coordinates were computed. The dominance cull
    # skips points that cannot lower their cell in the shared field as of the
    # worker's last map refresh, so at more than one worker this depends on
    # thread timing.
    evaluated_points: int
    # Computed points that landed in a grid cell, so at most
    # evaluated_points and, like it, dependent on thread timing at more than
    # one worker. Without the dominance cull it counts every trajectory point
    # that lands, as simulate_reference does.
    in_grid_points: int


def _engaged_half_length(
    tool: ToolDefinition, depth_of_cut_mm: float, feed_per_tooth_mm: float
) -> float:
    """Half-length of the engaged cutting edge, in mm.

    The active edge is the lower semicircular arc of the insert: a point at
    arc coordinate ``l`` (along the edge-frame X axis) sits at height
    ``z(l) = R - sqrt(R^2 - l^2)`` above the edge's lowest point. Only the
    engaged part of the arc cuts. Its half-length is the larger of the
    half-chord of the arc at axial depth ``depth_of_cut_mm`` and the feed
    floor f_z / (2 cos(radial rake)), so the sampled edge spans at least one
    tooth advance even at shallow depths. Both callers read the values from a
    ``SimulationConfig``: its process keeps them finite and > 0, and the
    config keeps the depth within R, so nothing is checked here.
    """
    r = tool.insert_radius_mm
    a_p = depth_of_cut_mm
    half_immersion = math.sqrt(r * r - (r - a_p) * (r - a_p))
    half_feed = feed_per_tooth_mm / (2.0 * math.cos(tool.radial_rake_rad))
    return max(half_immersion, half_feed)


def time_step(config: SimulationConfig) -> float:
    """Resolved time increment: explicit value, else min of the step-angle and
    feed guards (tool turns at most max_step_angle and advances at most one
    cell per step).

    Without a step angle the angle is ``spacing / (D/2 + engaged half-length)``:
    the edge's outermost point then moves at most one grid spacing per step.
    Without an edge-point count, ``_plan`` derives that from the spacing too.
    """
    if config.time_step_s is not None:
        return config.time_step_s
    proc = config.process
    angle = config.max_step_angle_rad
    if angle is None:
        half = _engaged_half_length(config.tool, proc.depth_of_cut_mm, proc.feed_per_tooth_mm)
        angle = config.grid.spacing_mm / (config.tool.cutting_diameter_mm / 2.0 + half)
    by_angle = angle / proc.angular_velocity_rad_s
    by_feed = config.grid.spacing_mm / proc.feed_speed_mm_s(config.tool)
    return min(by_angle, by_feed)


@dataclass(frozen=True)
class _ToothData:
    x_tool: np.ndarray  # (N,) tool-frame x of every edge point
    y_tool: np.ndarray  # (N,) tool-frame y of every edge point
    z_workpiece: np.ndarray  # (N,) z' of every edge point; time-invariant
    x_tool_range: tuple[float, float]
    y_tool_range: tuple[float, float]
    # Contiguous edge-index slices covering the edge, lowest first: ascending
    # in their minimum z_workpiece, ties by index. The per-slice arrays below
    # follow the same order. The ranges are (S, 1) columns, so that bounds
    # against 1-D rows are (S, R), rows fastest.
    segments: tuple[slice, ...]
    seg_x_range: tuple[np.ndarray, np.ndarray]  # (S, 1) x_tool min and max per slice
    seg_y_range: tuple[np.ndarray, np.ndarray]  # (S, 1) y_tool min and max per slice
    seg_min_z: np.ndarray  # (S,) z_workpiece minimum per slice
    # At any rotation a slice lies in the square of half-side seg_half (the
    # half-sum of its tool-frame box's sides) about its box's rotated centre.
    seg_centre: tuple[np.ndarray, np.ndarray]  # (S,) tool-frame box centre x and y
    seg_half: np.ndarray  # (S,)


@dataclass(frozen=True)
class _Plan:
    tool: ToolDefinition
    grid: GridSpec
    # Arc samples of the engaged edge: arc coordinate x and edge-frame height z
    # of each point, (N,) each; the edge's y is 0 along its whole length.
    edge_x: np.ndarray
    edge_z: np.ndarray
    teeth: tuple[_ToothData, ...]
    dt: float
    t_start: float
    steps: int
    x0: float
    y0: float
    z0: float
    feed_speed: float
    omega: float
    phase: float
    initial_height: float
    # Cull geometry (see the module docstring); windows are (x_lo, x_hi, y_lo, y_hi).
    window: tuple[float, float, float, float]
    stride: int
    coarse: tuple[float, float, float, float]
    inner: tuple[float, float, float, float]
    # Spindle-axis y of anchors whose annulus can overlap the coarse window:
    # (y_lo, y_hi, y_mid, hole) keeps y_lo <= y <= y_hi with |y - y_mid| >= hole.
    band: tuple[float, float, float, float]
    tile: int

    @property
    def trajectory_points(self) -> int:
        return self.steps * self.tool.tooth_count * self.edge_x.size

    def step_times(self, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Time and spindle-axis y of the global steps ``steps``, computed in
        place as ``t_start + steps*dt`` and ``y0 + feed_speed*t``."""
        t = np.array(steps, dtype=np.float64)
        t *= self.dt
        t += self.t_start
        ty = np.multiply(t, self.feed_speed)
        ty += self.y0
        return t, ty

    def tooth_trig(self, k_idx: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of tooth ``k_idx + 1``'s angle at the times ``t``; the
        cosine takes the angle's memory."""
        th = tooth_angle(self.phase, k_idx + 1, self.tool.tooth_count, self.omega, t)
        s = np.sin(th)
        return np.cos(th, out=th), s


def _plan(config: SimulationConfig) -> _Plan:
    tool = config.tool
    proc = config.process
    grid = config.grid
    half = _engaged_half_length(tool, proc.depth_of_cut_mm, proc.feed_per_tooth_mm)
    r = tool.insert_radius_mm
    if half > r:
        raise DomainError(
            f"engaged half-length {half:.6g} mm exceeds the insert radius {r} mm "
            "(feed per tooth too large for this insert)"
        )
    n_points = config.edge_point_count
    if n_points is None:
        # The smallest N whose edge spacing 2*half/(N-1) is at most half the
        # grid spacing, so the edge leaves a sample in every cell it crosses.
        # Past 2**53, float64 cannot tell consecutive sample indices apart;
        # the bound also keeps a quotient that overflows to inf out of ceil.
        count = 4.0 * half / grid.spacing_mm
        if not count < 2**53:
            raise ConfigError(
                f"grid spacing {grid.spacing_mm} mm takes {count:.6g} edge points, more than 2**53"
            )
        n_points = max(2, math.ceil(count) + 1)
    # Arc samples: uniform over [-half, half], endpoints exact.
    try:
        edge_x = -half + (2.0 * half) * np.arange(n_points, dtype=np.float64) / (n_points - 1)
        edge_x[0] = -half
        edge_x[-1] = half
        edge_z = r - np.sqrt(r * r - edge_x * edge_x)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise MillsurfError(f"cannot allocate {n_points} edge points: {exc}") from exc

    dt = time_step(config)
    v_f = proc.feed_speed_mm_s(tool)
    x0, y0, z0 = proc.initial_position_mm
    if config.span_s is None:
        # Auto-span: tool centre travels from just below the grid to just past
        # it, with a margin that covers the full edge footprint, so entry and
        # exit cuts are captured.
        margin = tool.cutting_diameter_mm / 2.0 + half
        y0 = grid.y_min_mm - margin
        t_start = 0.0
        t_end = (grid.y_max_mm + margin - y0) / v_f
    else:
        t_start, t_end = config.span_s
    count = (t_end - t_start) / dt if dt > 0 else math.inf  # a derived dt can round to 0
    # Past 2**53 steps, t_start + step*dt cannot tell consecutive steps apart;
    # the bound also keeps step numbers inside int64.
    if not count < 2**53:
        raise ConfigError(
            f"time step {dt} s takes {count:.6g} steps over {t_end - t_start} s, more than 2**53"
        )
    steps = int(math.floor(count)) + 1

    initial_height = z0 + proc.depth_of_cut_mm
    # Near-equal, non-empty edge slices; fewer than _EDGE_SEGMENTS when the
    # edge has fewer points.
    cuts = sorted({round(i * n_points / _EDGE_SEGMENTS) for i in range(_EDGE_SEGMENTS + 1)})
    slices = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    starts = cuts[:-1]
    teeth = []
    for k in range(1, tool.tooth_count + 1):
        xt, yt, zt = _apply4(_edge_to_tool_rows(tool, k), edge_x, 0.0, edge_z)
        zw = zt + z0
        seg_min_z = np.minimum.reduceat(zw, starts)
        order = np.argsort(seg_min_z, kind="stable")
        sx_lo, sx_hi = (f.reduceat(xt, starts)[order] for f in (np.minimum, np.maximum))
        sy_lo, sy_hi = (f.reduceat(yt, starts)[order] for f in (np.minimum, np.maximum))
        teeth.append(
            _ToothData(
                x_tool=xt,
                y_tool=yt,
                z_workpiece=zw,
                x_tool_range=(float(xt.min()), float(xt.max())),
                y_tool_range=(float(yt.min()), float(yt.max())),
                segments=tuple(slices[i] for i in order),
                seg_x_range=(sx_lo[:, None], sx_hi[:, None]),
                seg_y_range=(sy_lo[:, None], sy_hi[:, None]),
                seg_min_z=seg_min_z[order],
                seg_centre=((sx_lo + sx_hi) / 2.0, (sy_lo + sy_hi) / 2.0),
                seg_half=((sx_hi - sx_lo) + (sy_hi - sy_lo)) / 2.0,
            )
        )

    # Cull geometry (see the module docstring). The window has one extra cell
    # of slack, which absorbs the difference between the bounds' and the point
    # stage's floating-point evaluation orders; the coarse window's slack
    # covers how far a box bound can move in one stride of steps.
    dd, omega = grid.spacing_mm, proc.angular_velocity_rad_s
    wx_lo, wx_hi = grid.x_min_mm - 1.5 * dd, grid.x_max_mm + 1.5 * dd
    wy_lo, wy_hi = grid.y_min_mm - 1.5 * dd, grid.y_max_mm + 1.5 * dd
    lipschitz = max(
        max(map(abs, td.x_tool_range)) + max(map(abs, td.y_tool_range)) for td in teeth
    )
    slack = (lipschitz * abs(omega) + abs(v_f)) * _COARSE_STRIDE * dt
    coarse = (wx_lo - slack, wx_hi + slack, wy_lo - slack, wy_hi + slack)
    # Every edge point of every tooth lies in the annulus [r_lo, r_hi] about
    # the spindle axis (x0, y(t)). It overlaps the coarse window only while
    # the window's nearest point is within r_hi, so y(t) within `reach` of its
    # y range, and its farthest point beyond r_lo, so y(t) at least `hole`
    # from its middle; a `reach` of -inf keeps no step, a `hole` of -inf all.
    # Factored differences of squares keep both accurate near zero.
    radii = [np.hypot(td.x_tool, td.y_tool) for td in teeth]
    r_lo, r_hi = min(float(r.min()) for r in radii), max(float(r.max()) for r in radii)
    cx_lo, cx_hi, cy_lo, cy_hi = coarse
    near_x = max(cx_lo - x0, 0.0, x0 - cx_hi)
    far_x = max(abs(x0 - cx_lo), abs(x0 - cx_hi))
    reach = math.sqrt((r_hi - near_x) * (r_hi + near_x)) if near_x <= r_hi else -math.inf
    hole = (math.sqrt((r_lo - far_x) * (r_lo + far_x)) - (cy_hi - cy_lo) / 2.0
            if far_x < r_lo else -math.inf)
    # From one cell before the low corner of a segment's square, its cells span
    # at most 2*seg_half/dd + 4 cells per axis; with tiles of at least half the
    # largest such span they lie in the 3 x 3 tiles from that cell's tile.
    span = 2.0 * max(float(td.seg_half.max()) for td in teeth) / dd + 4.0

    return _Plan(
        tool=tool,
        grid=grid,
        edge_x=edge_x,
        edge_z=edge_z,
        teeth=tuple(teeth),
        dt=dt,
        t_start=t_start,
        steps=steps,
        x0=x0,
        y0=y0,
        z0=z0,
        feed_speed=v_f,
        omega=omega,
        phase=proc.phase_rad,
        initial_height=initial_height,
        window=(wx_lo, wx_hi, wy_lo, wy_hi),
        stride=_COARSE_STRIDE,
        coarse=coarse,
        # The span of cell indices 1..m-1 (x) and 1..n-1 (y): every point of a
        # box bound inside it lands, with one cell of slack on each side.
        inner=(grid.x_min_mm + 0.5 * dd, grid.x_min_mm + (grid.m - 0.5) * dd,
               grid.y_min_mm + 0.5 * dd, grid.y_min_mm + (grid.n - 0.5) * dd),
        band=(cy_lo - reach, cy_hi + reach, (cy_lo + cy_hi) / 2.0, hole),
        tile=math.ceil(span / 2.0),
    )


def _box_hits(c, s, x_range, y_range, x0, ty, window, inner=None):
    """Interval bound on the tool-frame box ``x_range`` x ``y_range`` rotated
    by (c, s) and shifted by (x0, ty): True where it can overlap ``window``
    ``(x_lo, x_hi, y_lo, y_hi)``. Broadcasts over steps and boxes: 1-D
    steps against (S, 1) boxes give (S, R) results, steps fastest. It works
    in place in four arrays, since the (segment, row) bounds are the
    kernel's largest temporaries after the point-stage buffers.

    With an ``inner`` window it returns ``(hits, inside)``, where ``inside``
    is True where the bound lies wholly inside ``inner``."""
    axl, axh = x_range
    ayl, ayh = y_range
    wx_lo, wx_hi, wy_lo, wy_hi = window
    a, b = c * axl, c * axh
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    np.multiply(s, ayl, out=a)
    np.multiply(s, ayh, out=b)
    lo += np.minimum(a, b)
    hi += np.maximum(a, b)
    lo += x0
    hi += x0
    hits = (hi >= wx_lo) & (lo <= wx_hi)
    if inner is not None:
        ix_lo, ix_hi, iy_lo, iy_hi = inner
        inside = (lo >= ix_lo) & (hi <= ix_hi)
    np.multiply(c, ayl, out=a)
    np.multiply(c, ayh, out=b)
    np.minimum(a, b, out=lo)
    np.maximum(a, b, out=hi)
    np.multiply(s, axl, out=a)
    np.multiply(s, axh, out=b)
    lo -= np.maximum(a, b)
    hi -= np.minimum(a, b)
    lo += ty
    hi += ty
    hits &= (hi >= wy_lo) & (lo <= wy_hi)
    if inner is None:
        return hits
    inside &= (lo >= iy_lo) & (hi <= iy_hi)
    return hits, inside


def _live_anchors(plan: _Plan, a_lo: int, a_hi: int) -> np.ndarray:
    """Coarse pass: the anchor steps in [a_lo, a_hi), multiples of the stride
    from ``a_lo``, whose spindle-axis y lies in the plan's annulus band and
    whose per-tooth edge bounds can overlap the coarse window. A function of
    its own, so its span-sized temporaries are freed before ``_live_steps``
    yields a run to the row stage. They are kept few: only the anchors in the
    band are bounded, and each tooth's cos and sin are freed before the next
    tooth's are taken."""
    x0 = plan.x0
    y_lo, y_hi, y_mid, hole = plan.band
    ta, tya = plan.step_times(np.arange(a_lo, a_hi, plan.stride))
    near = (tya >= y_lo) & (tya <= y_hi) & (np.abs(tya - y_mid) >= hole)
    ta, tya = ta[near], tya[near]
    hits = np.zeros(ta.size, dtype=bool)
    for k_idx, td in enumerate(plan.teeth):
        cs = plan.tooth_trig(k_idx, ta)
        hits |= _box_hits(*cs, td.x_tool_range, td.y_tool_range, x0, tya, plan.coarse)
        del cs
    return a_lo + plan.stride * np.flatnonzero(near)[hits]


def _live_steps(plan: _Plan, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The global steps in [lo, hi) whose anchor passes the coarse pass,
    ascending, in runs of ``_STEP_CHUNK`` (the last run may be shorter). The
    coarse pass bounds spans of ``_STEP_CHUNK`` anchors at once, and runs
    carry live steps across spans, so the row and point stages see full runs
    however sparse the live steps are."""
    stride = plan.stride
    offsets = np.arange(stride)
    per_run = max(1, _STEP_CHUNK // stride)
    pending = np.empty(0, dtype=np.int64)
    # Anchors are the global multiples of the stride, so the steps kept do
    # not depend on the span, run or worker boundaries.
    for a_lo in range(lo - lo % stride, hi, _STEP_CHUNK * stride):
        live = _live_anchors(plan, a_lo, min(a_lo + _STEP_CHUNK * stride, hi))
        # Expand a run's worth of live anchors at a time, so a span whose
        # anchors all pass never holds all of its steps. Only the first anchor
        # can start before lo and only the last one can run past hi.
        for g in range(0, live.size, per_run):
            steps = (live[g : g + per_run, None] + offsets).ravel()
            pending = np.concatenate((pending, steps[(steps >= lo) & (steps < hi)]))
            full = pending.size - pending.size % _STEP_CHUNK
            for r in range(0, full, _STEP_CHUNK):
                yield pending[r : r + _STEP_CHUNK]
            pending = pending[full:]
    if pending.size:
        yield pending


def _rows(plan: _Plan, steps: np.ndarray):
    """Row stage of a run of live global steps: the trig, and the row and
    segment bounds. Per tooth with kept rows it yields ``(tooth, c, s, ty,
    keep, inside)``: the kept rows' cos, sin and spindle-axis y as 1-D (R,)
    arrays, and (S, R) masks of the (segment, row) pairs to evaluate with the
    in-grid test and of the interior pairs, so that a segment's rows are one
    contiguous mask row."""
    x0, window, inner = plan.x0, plan.window, plan.inner
    t, ty = plan.step_times(steps)
    for k_idx, td in enumerate(plan.teeth):
        c, s = plan.tooth_trig(k_idx, t)
        # Interval bounds on the tooth's whole edge per step, then on each
        # edge segment per kept step.
        ki = np.flatnonzero(_box_hits(c, s, td.x_tool_range, td.y_tool_range, x0, ty, window))
        if ki.size == 0:
            continue
        ck, sk, tyk = c[ki], s[ki], ty[ki]
        keep, inside = _box_hits(ck, sk, td.seg_x_range, td.seg_y_range, x0, tyk, window, inner)
        keep &= ~inside
        yield td, ck, sk, tyk, keep, inside


class _PointStage:
    """Point stage of one worker: rotation, cell index and scatter-min of kept
    (row, segment) pairs into the field that all workers share, and the
    worker's dominance map of that field. ``lock`` is held around every write
    and read of the field. Counts the points evaluated and the points that
    land."""

    def __init__(self, plan: _Plan, field: HeightField, lock: threading.Lock):
        grid = plan.grid
        self.plan = plan
        self.lock = lock
        self.hflat = field.heights
        self.hmap = field.heights.reshape(grid.m + 1, grid.n + 1)
        self.tile_i = np.arange(0, grid.m + 1, plan.tile)
        self.tile_j = np.arange(0, grid.n + 1, plan.tile)
        self.refresh_points = _REFRESH_RATIO * grid.node_count
        self.bound = None  # upper bound on the field per 3 x 3 tile block, once refreshed
        self.stale = True  # this worker has scattered since `bound` was taken
        seg_len = max(sl.stop - sl.start for sl in plan.teeth[0].segments)
        # Large enough for one block of the point stage and for one run of
        # rows in bound_at.
        buf_size = max(_POINT_BLOCK, seg_len, _STEP_CHUNK)
        self.xw_buf, self.yw_buf, self.tmp_buf = (np.empty(buf_size) for _ in range(3))
        # When every point lands, the scatter takes its flat indices from
        # tmp_buf's memory, free once a block is rotated, and its z values from
        # xw_buf's, free once the indices are copied out.
        self.idx_buf = self.tmp_buf.view(np.int64)
        self.evaluated = self.in_grid = 0

    def add(self, td: _ToothData, c, s, ty, keep, inside) -> None:
        """One tooth's kept rows from the row stage, lowest segment first, so
        the tip lowers the field before the segments above it are tested for
        dominance. Per segment, its boundary rows and then its interior rows
        are each culled by dominance and scattered, the boundary rows with the
        in-grid test."""
        for j, sl in enumerate(td.segments):
            xt, yt, zw = td.x_tool[sl], td.y_tool[sl], td.z_workpiece[sl]
            width = xt.size
            for mask, all_land in ((keep, False), (inside, True)):
                kj = np.flatnonzero(mask[j])
                if kj.size == 0:
                    continue
                cj, sj, tyj = c[kj], s[kj], ty[kj]
                if self.stale and kj.size * width >= self.refresh_points:
                    self.refresh()
                if self.bound is not None:
                    live = self.bound_at(cj, sj, tyj, td, j) > td.seg_min_z[j]
                    if not live.any():
                        continue
                    cj, sj, tyj = cj[live], sj[live], tyj[live]
                self.evaluated += cj.size * width
                self.in_grid += self.scatter(cj, sj, tyj, xt, yt, zw, all_land)
                self.stale = True

    def scatter(self, cj, sj, tyj, xt, yt, zw, all_land) -> int:
        """Rotate, index and scatter-min one edge slice (xt, yt, zw) at the
        1-D rows (cj, sj, tyj), in (edge point, row) blocks. Returns the
        count of points that landed; with ``all_land`` every point is known
        to land."""
        grid, x0, hflat, xw_buf = self.plan.grid, self.plan.x0, self.hflat, self.xw_buf
        n1, dd, x_min, y_min = grid.n + 1, grid.spacing_mm, grid.x_min_mm, grid.y_min_mm
        width = xt.size
        rows = cj.size
        block_rows = max(1, _POINT_BLOCK // width)
        landed = 0
        for b in range(0, rows, block_rows):
            r = min(block_rows, rows - b)
            size = r * width
            cb, sb = cj[b : b + r], sj[b : b + r]
            xw = xw_buf[:size].reshape(width, r)
            yw = self.yw_buf[:size].reshape(width, r)
            tmp = self.tmp_buf[:size].reshape(width, r)
            # Fill, then scale in place: each product's inner loop runs along
            # the block's rows, and c*xt == xt*c exactly.
            xw[...] = xt[:, None]
            xw *= cb
            tmp[...] = yt[:, None]
            tmp *= sb
            xw += tmp
            xw += x0
            yw[...] = yt[:, None]
            yw *= cb
            tmp[...] = xt[:, None]
            tmp *= sb
            yw -= tmp
            yw += tyj[b : b + r]

            # Cell index floor((w - w_min)/dd + 1/2), computed in place in
            # the same operation order as surface_grid.locate.
            xw -= x_min
            xw /= dd
            xw += 0.5
            np.floor(xw, out=xw)
            yw -= y_min
            yw /= dd
            yw += 0.5
            np.floor(yw, out=yw)
            if all_land:
                # Exact in float64: both indices are small integers. The
                # index and values are 1-D and of equal length.
                xw *= n1
                xw += yw
                idx = self.idx_buf[:size]
                idx[...] = xw_buf[:size]
                xw[...] = zw[:, None]
                with self.lock:
                    np.minimum.at(hflat, idx, xw_buf[:size])
                landed += size
                continue
            ok = (xw >= 0.0) & (xw <= grid.m) & (yw >= 0.0) & (yw <= grid.n)
            flat = xw[ok]
            if flat.size:
                flat *= n1
                flat += yw[ok]
                landed += flat.size
                zvals = np.broadcast_to(zw[:, None], xw.shape)[ok]
                flat = flat.astype(np.int64)
                with self.lock:
                    np.minimum.at(hflat, flat, zvals)
        return landed

    def refresh(self) -> None:
        """Take the dominance map: the maximum height over each 3 x 3 block
        of tiles of the field."""
        # Reducing axis 1 first reads the field in memory order; it is the
        # only read of the field.
        with self.lock:
            b = np.maximum.reduceat(self.hmap, self.tile_j, axis=1)
        b = np.maximum.reduceat(b, self.tile_i, axis=0)
        for _ in range(2):
            b[:-1] = np.maximum(b[:-1], b[1:])
            b[:, :-1] = np.maximum(b[:, :-1], b[:, 1:])
        self.bound = b
        self.stale = False

    def bound_at(self, c, s, ty, td: _ToothData, j: int) -> np.ndarray:
        """The dominance map at the tile of the cell one before the low corner
        of segment j's square at the rows (c, s, ty), computed in the
        point-stage buffers, which are free between blocks."""
        grid, bound, g = self.plan.grid, self.bound, c.size
        xc, yc, h = td.seg_centre[0][j], td.seg_centre[1][j], td.seg_half[j]
        u, v, w = self.xw_buf[:g], self.yw_buf[:g], self.tmp_buf[:g]
        np.multiply(c, xc, out=u)
        u += np.multiply(s, yc, out=w)
        u += self.plan.x0 - h - grid.x_min_mm
        np.multiply(c, yc, out=v)
        v -= np.multiply(s, xc, out=w)
        v += ty
        v += -h - grid.y_min_mm
        for q, top in ((u, grid.m), (v, grid.n)):
            q /= grid.spacing_mm
            q -= 0.5
            np.floor(q, out=q)
            np.clip(q, 0, top, out=q)
            np.floor_divide(q, self.plan.tile, out=q)
        u *= bound.shape[1]
        u += v
        idx = self.idx_buf[:g]
        idx[...] = u
        return np.take(bound, idx, out=v)


def _run_step_range(plan: _Plan, step_lo: int, step_hi: int, field: HeightField,
                    lock: threading.Lock):
    """Vectorized sweep over global steps [step_lo, step_hi) into the field
    shared by all workers and guarded by ``lock``, run by run of live steps
    from the row stage into the point stage. Returns ``(evaluated points,
    in-grid points)``."""
    points = _PointStage(plan, field, lock)
    for steps in _live_steps(plan, step_lo, step_hi):
        for rows in _rows(plan, steps):
            points.add(*rows)
    return points.evaluated, points.in_grid


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run the optimized sweep. Heights are deterministic and independent of
    worker_count; the point counts are too at one worker."""
    plan = _plan(config)
    workers = min(config.worker_count, plan.steps)

    # The field exists before the timed main loop starts. With no more
    # workers than steps, every range holds at least one step.
    bounds = [round(w * plan.steps / workers) for w in range(workers + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    field = HeightField(plan.grid, plan.initial_height)
    lock = threading.Lock()

    t0 = time.perf_counter()
    if len(ranges) == 1:
        parts = [_run_step_range(plan, *ranges[0], field, lock)]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(lambda r: _run_step_range(plan, *r, field, lock), ranges))
    wall = time.perf_counter() - t0

    return SimulationResult(
        field=field,
        time_steps=plan.steps,
        trajectory_points=plan.trajectory_points,
        cells_updated=field.machined_cell_count(),
        main_loop_seconds=wall,
        evaluated_points=sum(part[0] for part in parts),
        in_grid_points=sum(part[1] for part in parts),
    )


def simulate_reference(config: SimulationConfig) -> SimulationResult:
    """Naive baseline sweep: same contract and same results as ``simulate``,
    built the expensive way (every matrix of the chain per point, per step)."""
    plan = _plan(config)
    grid = plan.grid
    n_teeth = plan.tool.tooth_count
    edge_xz = list(zip(plan.edge_x.tolist(), plan.edge_z.tolist()))
    field = HeightField(grid, plan.initial_height)
    in_grid = 0
    t0 = time.perf_counter()
    for step in range(plan.steps):
        t = plan.t_start + step * plan.dt
        for k in range(1, n_teeth + 1):
            for px, pz in edge_xz:
                ct = _edge_to_tool_rows(plan.tool, k)
                ts = _tool_to_spindle_rows(plan.phase, k, n_teeth, plan.omega, t)
                sw = _spindle_to_workpiece_rows(plan.x0, plan.y0, plan.z0, plan.feed_speed, t)
                x, y, z = _apply4(_matmul4(sw, ts), *_apply4(ct, px, 0.0, pz))
                idx = locate(x, y, grid)
                if idx is not None:
                    update_min(field, idx, z)
                    in_grid += 1
    wall = time.perf_counter() - t0

    return SimulationResult(
        field=field,
        time_steps=plan.steps,
        trajectory_points=plan.trajectory_points,
        cells_updated=field.machined_cell_count(),
        main_loop_seconds=wall,
        evaluated_points=plan.trajectory_points,
        in_grid_points=in_grid,
    )


@dataclass(frozen=True)
class BenchmarkRow:
    scale: float
    trajectory_points: int
    t_reference_s: float
    t_optimized_s: float
    speedup: float


@dataclass
class BenchmarkReport:
    case_id: str
    rows: list[BenchmarkRow] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        header = f"{'scale':>8} {'trajectory_points':>18} {'t_reference_s':>14} {'t_optimized_s':>14} {'speedup':>9}"
        lines = [f"case: {self.case_id}", header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.scale:>8g} {r.trajectory_points:>18d} {r.t_reference_s:>14.4f} "
                f"{r.t_optimized_s:>14.4f} {r.speedup:>9.1f}"
            )
        return "\n".join(lines)


def run_benchmark(
    config: SimulationConfig, sizes: list[float], case_id: str = "benchmark"
) -> BenchmarkReport:
    """Run both kernels at each size multiplier and report wall times.

    Sizes scale the trajectory-point count by refining the time step. The two
    kernels' height fields must agree exactly; a mismatch aborts, since
    correctness precedes speed.
    """
    if not sizes:
        raise ConfigError("benchmark sizes must be non-empty")
    base_dt = time_step(config)
    report = BenchmarkReport(case_id=case_id)
    for size in sizes:
        if not (math.isfinite(size) and size > 0):
            raise ConfigError(f"benchmark size must be finite and > 0, got {size}")
        scaled = replace(config, time_step_s=base_dt / size)
        opt = simulate(scaled)
        ref = simulate_reference(scaled)
        if not np.array_equal(opt.field.heights, ref.field.heights):
            raise MillsurfError(
                f"kernel mismatch at size {size}: optimized and reference height fields differ"
            )
        report.rows.append(
            BenchmarkRow(
                scale=size,
                trajectory_points=opt.trajectory_points,
                t_reference_s=ref.main_loop_seconds,
                t_optimized_s=opt.main_loop_seconds,
                speedup=ref.main_loop_seconds / opt.main_loop_seconds
                if opt.main_loop_seconds > 0
                else math.inf,
            )
        )
    return report
