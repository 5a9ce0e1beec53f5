"""Forward sweep of cutting-edge trajectories through the workpiece height field.

Two kernels share one simulation plan and produce bit-identical results:

``simulate``
    Vectorized kernel. Per (time chunk, tooth) it evaluates the composite
    transform entries as arrays over the chunk, applies them to the whole edge
    by broadcasting, and scatters the z values into the height field with an
    elementwise minimum. Work that provably cannot reach the grid is skipped
    before it is computed, against the grid window widened by 1.5 cells:

    - step cull: every edge point lies in an annulus about the spindle axis
      (the teeth's radial range in the tool frame); steps whose annulus misses
      the window are dropped before the trig, or, when the trajectory is
      recorded and every step is needed for it, before the point stage;
    - row cull: per (step, tooth), interval bounds on the edge's x and y
      extent drop rows whose edge misses the window.

    The kept rows run through the point stage (transform, cell index,
    scatter) in blocks of about ``_POINT_BLOCK`` elements so temporaries stay
    in cache; the cell index is computed in place with the same operations as
    ``surface_grid.locate``. Work is split over contiguous time-step ranges,
    one private height field per worker, merged with an elementwise minimum,
    so results are independent of the worker count. ``evaluated_points`` and
    ``in_grid_points`` count the points computed and the points that landed.

``simulate_reference``
    Deliberately naive baseline: for every time step, tooth, and edge point it
    rebuilds all three 4x4 transforms, multiplies the full chain, and updates
    one cell, single-threaded with per-point temporaries. It exists as the
    correctness oracle and the benchmark baseline.

Bit-identity between the kernels holds because both take trig values from the
same libm routines, evaluate matrix entries in the same fixed floating-point
order, and use an order-insensitive minimum reduction.

Wall time covers only the main loop (and the final min-merge); planning,
validation, and export are excluded.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, MillsurfError
from .kinematics import (
    ProcessParameters,
    _apply4,
    _edge_to_tool_rows,
    _matmul4,
    _spindle_to_workpiece_rows,
    _tool_to_spindle_rows,
    tooth_angle,
)
from .surface_grid import GridSpec, HeightField, TrajectoryRecord, locate, update_min
from .tool_geometry import (
    EdgeDiscretization,
    ToolDefinition,
    default_point_count,
    discretize_edge,
    effective_half_length,
)

DEFAULT_MAX_STEP_ANGLE_RAD = math.radians(0.5)

# Vectorized-kernel block sizes; they bound temporary memory, not results.
# The row stage (step cull, trig, row bounds, transform entries) runs over
# chunks of _STEP_CHUNK steps, long enough that per-call overhead stays small;
# the point stage runs over the kept rows in blocks of about _POINT_BLOCK
# (row, edge-point) elements, 1 MB per float64 temporary, so its working set
# stays in cache.
_STEP_CHUNK = 32_768
_POINT_BLOCK = 131_072


@dataclass(frozen=True)
class SimulationConfig:
    tool: ToolDefinition
    process: ProcessParameters
    grid: GridSpec
    edge_point_count: int | None = None
    max_step_angle_rad: float = DEFAULT_MAX_STEP_ANGLE_RAD
    time_step_s: float | None = None
    span_s: tuple[float, float] | None = None
    record_trajectory: bool = False
    worker_count: int = 1


@dataclass
class SimulationResult:
    field: HeightField
    trajectory: TrajectoryRecord | None
    time_steps: int
    trajectory_points: int
    cells_updated: int
    main_loop_seconds: float
    evaluated_points: int  # trajectory points whose coordinates were computed
    in_grid_points: int  # evaluated points that landed in a grid cell


def time_step(config: SimulationConfig) -> float:
    """Resolved time increment: explicit value, else min of the step-angle and
    feed guards (tool turns at most max_step_angle and advances at most one
    cell per step)."""
    if config.time_step_s is not None:
        if config.time_step_s <= 0:
            raise ConfigError(f"time_step_s must be > 0, got {config.time_step_s}")
        return config.time_step_s
    if config.max_step_angle_rad <= 0:
        raise ConfigError(f"max_step_angle_rad must be > 0, got {config.max_step_angle_rad}")
    by_angle = config.max_step_angle_rad / config.process.angular_velocity_rad_s
    by_feed = config.grid.spacing_mm / config.process.feed_speed_mm_s
    return min(by_angle, by_feed)


@dataclass(frozen=True)
class _ToothData:
    rows: tuple  # edge->tool matrix rows, plain floats
    z_workpiece: np.ndarray  # (N,) z' of every edge point; time-invariant
    min_index: int  # argmin of z_workpiece, ties to the lowest index
    x_tool_range: tuple[float, float]
    y_tool_range: tuple[float, float]
    r_tool_range: tuple[float, float]  # distance from the spindle axis


@dataclass(frozen=True)
class _Plan:
    tool: ToolDefinition
    grid: GridSpec
    edge: EdgeDiscretization
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
    record: bool
    workers: int

    @property
    def trajectory_points(self) -> int:
        return self.steps * self.tool.tooth_count * self.edge.point_count


def _plan(config: SimulationConfig) -> _Plan:
    tool = config.tool
    proc = config.process
    grid = config.grid
    if proc.depth_of_cut_mm > tool.insert_radius_mm:
        raise ConfigError(
            f"depth of cut {proc.depth_of_cut_mm} mm exceeds insert radius "
            f"{tool.insert_radius_mm} mm"
        )

    half = effective_half_length(
        tool.insert_radius_mm, proc.depth_of_cut_mm, proc.feed_per_tooth_mm, tool.radial_rake_rad
    )
    n_points = config.edge_point_count
    if n_points is None:
        n_points = default_point_count(half, grid.spacing_mm)
    edge = discretize_edge(tool, proc.depth_of_cut_mm, proc.feed_per_tooth_mm, n_points)

    dt = time_step(config)
    x0, y0, z0 = proc.initial_position_mm
    if config.span_s is None:
        # Auto-span: tool centre travels from just below the grid to just past
        # it, with a margin that covers the full edge footprint, so entry and
        # exit cuts are captured.
        margin = tool.cutting_diameter_mm / 2.0 + edge.half_length_mm
        y0 = grid.y_min_mm - margin
        t_start = 0.0
        t_end = (grid.y_max_mm + margin - y0) / proc.feed_speed_mm_s
    else:
        t_start, t_end = config.span_s
        if t_start < 0 or t_end <= t_start:
            raise ConfigError(f"span_s must satisfy 0 <= start < end, got {config.span_s}")
        if y0 is None:
            raise ConfigError("initial position y is required when span_s is explicit")
    if z0 is None:
        z0 = 0.0
    steps = int(math.floor((t_end - t_start) / dt)) + 1
    if config.worker_count < 1:
        raise ConfigError(f"worker_count must be >= 1, got {config.worker_count}")

    initial_height = z0 + proc.depth_of_cut_mm
    xp = np.ascontiguousarray(edge.x)
    yp = np.ascontiguousarray(edge.y)
    zp = np.ascontiguousarray(edge.z)
    teeth = []
    for k in range(1, tool.tooth_count + 1):
        e = _edge_to_tool_rows(tool, k)
        tz = e[2][3] + z0
        zw = ((e[2][0] * xp + e[2][1] * yp) + e[2][2] * zp) + tz
        xt = ((e[0][0] * xp + e[0][1] * yp) + e[0][2] * zp) + e[0][3]
        yt = ((e[1][0] * xp + e[1][1] * yp) + e[1][2] * zp) + e[1][3]
        rt = np.hypot(xt, yt)
        teeth.append(
            _ToothData(
                rows=tuple(tuple(r) for r in e),
                z_workpiece=zw,
                min_index=int(np.argmin(zw)),
                x_tool_range=(float(xt.min()), float(xt.max())),
                y_tool_range=(float(yt.min()), float(yt.max())),
                r_tool_range=(float(rt.min()), float(rt.max())),
            )
        )

    return _Plan(
        tool=tool,
        grid=grid,
        edge=edge,
        teeth=tuple(teeth),
        dt=dt,
        t_start=t_start,
        steps=steps,
        x0=x0,
        y0=y0,
        z0=z0,
        feed_speed=proc.feed_speed_mm_s,
        omega=proc.angular_velocity_rad_s,
        phase=proc.phase_rad,
        initial_height=initial_height,
        record=config.record_trajectory,
        workers=config.worker_count,
    )


def _run_step_range(plan: _Plan, step_lo: int, step_hi: int, field: HeightField):
    """Vectorized sweep over global steps [step_lo, step_hi) into a private field.

    Returns ``(trajectory chunks, evaluated points, in-grid points)``.
    """
    grid = plan.grid
    hflat = field.heights
    m, n = grid.m, grid.n
    n1 = n + 1
    dd = grid.spacing_mm
    x_min, y_min = grid.x_min_mm, grid.y_min_mm
    # Conservative in-grid window for the culls: one extra cell of slack
    # absorbs the difference between the bounds' and the kernel's
    # floating-point evaluation orders.
    wx_lo = x_min - 1.5 * dd
    wx_hi = x_min + m * dd + 1.5 * dd
    wy_lo = y_min - 1.5 * dd
    wy_hi = y_min + n * dd + 1.5 * dd
    # Every edge point of every tooth lies in the annulus [r_lo, r_hi] about
    # the spindle axis (x0, ty); x0 is fixed, so the x part of the nearest and
    # farthest axis-to-window distances is too.
    r_lo = min(td.r_tool_range[0] for td in plan.teeth)
    r_hi = max(td.r_tool_range[1] for td in plan.teeth)
    x0 = plan.x0
    near_x = max(wx_lo - x0, 0.0, x0 - wx_hi)
    far_x = max(abs(x0 - wx_lo), abs(x0 - wx_hi))

    xp = np.ascontiguousarray(plan.edge.x)
    yp = np.ascontiguousarray(plan.edge.y)
    zp = np.ascontiguousarray(plan.edge.z)
    n_teeth = plan.tool.tooth_count
    n_points = max(plan.edge.point_count, 1)
    block_rows = max(1, _POINT_BLOCK // n_points)
    xw_buf = np.empty((block_rows, n_points))
    yw_buf = np.empty((block_rows, n_points))
    tmp_buf = np.empty((block_rows, n_points))

    traj_chunks: list[tuple[np.ndarray, ...]] = []
    evaluated = 0
    in_grid = 0

    lo = step_lo
    while lo < step_hi:
        hi = min(lo + _STEP_CHUNK, step_hi)
        t = plan.t_start + np.arange(lo, hi, dtype=np.float64) * plan.dt
        ty = plan.y0 + plan.feed_speed * t
        near_y = np.maximum(np.maximum(wy_lo - ty, 0.0), ty - wy_hi)
        far_y = np.maximum(np.abs(ty - wy_lo), np.abs(ty - wy_hi))
        reach = (np.hypot(near_x, near_y) <= r_hi) & (np.hypot(far_x, far_y) >= r_lo)
        if plan.record:
            # Every row feeds the trajectory, so the step cull joins the row cull.
            size = hi - lo
            rec_t = np.repeat(t, n_teeth)
            rec_tooth = np.tile(np.arange(1, n_teeth + 1, dtype=np.int64), size)
            rec_x = np.empty((size, n_teeth))
            rec_y = np.empty((size, n_teeth))
            rec_z = np.empty((size, n_teeth))
        else:
            t = t[reach]
            ty = ty[reach]

        for k_idx, td in enumerate(plan.teeth):
            th = tooth_angle(plan.phase, k_idx + 1, n_teeth, plan.omega, t)
            c = np.cos(th)
            s = np.sin(th)
            ns = -s

            # Interval bound on this tooth's x and y extent per step; rows
            # that cannot reach the grid are dropped before the point stage.
            axl, axh = td.x_tool_range
            ayl, ayh = td.y_tool_range
            x_lo = np.minimum(c * axl, c * axh) + np.minimum(s * ayl, s * ayh) + x0
            x_hi = np.maximum(c * axl, c * axh) + np.maximum(s * ayl, s * ayh) + x0
            y_lo = np.minimum(ns * axl, ns * axh) + np.minimum(c * ayl, c * ayh) + ty
            y_hi = np.maximum(ns * axl, ns * axh) + np.maximum(c * ayl, c * ayh) + ty
            keep = (x_hi >= wx_lo) & (x_lo <= wx_hi) & (y_hi >= wy_lo) & (y_lo <= wy_hi)

            if plan.record:
                mat = _transform_entries(td.rows, c, s, x0, ty)
                p = td.min_index
                rec_x[:, k_idx] = ((mat[0] * xp[p] + mat[1] * yp[p]) + mat[2] * zp[p]) + mat[3]
                rec_y[:, k_idx] = ((mat[4] * xp[p] + mat[5] * yp[p]) + mat[6] * zp[p]) + mat[7]
                rec_z[:, k_idx] = td.z_workpiece[p]
                keep &= reach
            ki = np.flatnonzero(keep)
            if ki.size == 0:
                continue
            mat = _transform_entries(td.rows, c[ki], s[ki], x0, ty[ki])

            rows = ki.size
            evaluated += rows * n_points
            for b in range(0, rows, block_rows):
                r = min(block_rows, rows - b)
                m00, m01, m02, m03, m10, m11, m12, m13 = (a[b : b + r, None] for a in mat)
                xw, yw, tmp = xw_buf[:r], yw_buf[:r], tmp_buf[:r]
                np.multiply(m00, xp, out=xw)
                xw += np.multiply(m01, yp, out=tmp)
                xw += np.multiply(m02, zp, out=tmp)
                xw += m03
                np.multiply(m10, xp, out=yw)
                yw += np.multiply(m11, yp, out=tmp)
                yw += np.multiply(m12, zp, out=tmp)
                yw += m13

                # Cell index floor((w - w_min)/dd + 1/2), computed in place
                # in the same operation order as surface_grid.locate.
                xw -= x_min
                xw /= dd
                xw += 0.5
                np.floor(xw, out=xw)
                yw -= y_min
                yw /= dd
                yw += 0.5
                np.floor(yw, out=yw)
                ok = (xw >= 0.0) & (xw <= m) & (yw >= 0.0) & (yw <= n)
                flat = xw[ok]
                if flat.size:
                    # Exact in float64: both indices are small integers.
                    flat *= n1
                    flat += yw[ok]
                    in_grid += flat.size
                    zvals = np.broadcast_to(td.z_workpiece, xw.shape)[ok]
                    np.minimum.at(hflat, flat.astype(np.int64), zvals)

        if plan.record:
            traj_chunks.append(
                (rec_t, rec_tooth, rec_x.reshape(-1), rec_y.reshape(-1), rec_z.reshape(-1))
            )
        lo = hi

    return traj_chunks, evaluated, in_grid


def _transform_entries(e, c, s, x0: float, ty):
    """Top two rows of the edge->workpiece transform per step, as arrays:
    ``(m00, m01, m02, m03, m10, m11, m12, m13)``."""
    ns = -s
    return (
        c * e[0][0] + s * e[1][0],
        c * e[0][1] + s * e[1][1],
        c * e[0][2] + s * e[1][2],
        (c * e[0][3] + s * e[1][3]) + x0,
        ns * e[0][0] + c * e[1][0],
        ns * e[0][1] + c * e[1][1],
        ns * e[0][2] + c * e[1][2],
        (ns * e[0][3] + c * e[1][3]) + ty,
    )


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run the optimized sweep. Deterministic and independent of worker_count."""
    plan = _plan(config)
    workers = min(plan.workers, plan.steps) or 1

    # All buffers exist before the timed main loop starts.
    if workers == 1:
        ranges = [(0, plan.steps)]
    else:
        bounds = [round(w * plan.steps / workers) for w in range(workers + 1)]
        ranges = [(bounds[w], bounds[w + 1]) for w in range(workers) if bounds[w] < bounds[w + 1]]
    fields = [HeightField(plan.grid, plan.initial_height) for _ in ranges]

    t0 = time.perf_counter()
    if len(ranges) == 1:
        parts = [_run_step_range(plan, ranges[0][0], ranges[0][1], fields[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(
                pool.map(lambda rf: _run_step_range(plan, rf[0][0], rf[0][1], rf[1]),
                         zip(ranges, fields))
            )
    field = fields[0]
    for other in fields[1:]:
        field.merge_min(other)
    wall = time.perf_counter() - t0

    trajectory = None
    if plan.record:
        trajectory = TrajectoryRecord(plan.steps * plan.tool.tooth_count)
        for chunks, _, _ in parts:
            for chunk in chunks:
                trajectory.extend_block(*chunk)

    return SimulationResult(
        field=field,
        trajectory=trajectory,
        time_steps=plan.steps,
        trajectory_points=plan.trajectory_points,
        cells_updated=field.machined_cell_count(),
        main_loop_seconds=wall,
        evaluated_points=sum(part[1] for part in parts),
        in_grid_points=sum(part[2] for part in parts),
    )


def simulate_reference(config: SimulationConfig) -> SimulationResult:
    """Naive baseline sweep: same contract and same results as ``simulate``,
    built the expensive way (full matrix chain per point, per step)."""
    plan = _plan(config)
    grid = plan.grid
    field = HeightField(grid, plan.initial_height)
    trajectory = (
        TrajectoryRecord(plan.steps * plan.tool.tooth_count) if plan.record else None
    )
    n_teeth = plan.tool.tooth_count
    n_points = plan.edge.point_count
    edge_xyz = [
        (float(plan.edge.x[p]), float(plan.edge.y[p]), float(plan.edge.z[p]))
        for p in range(n_points)
    ]

    in_grid = 0
    t0 = time.perf_counter()
    for step in range(plan.steps):
        t = plan.t_start + step * plan.dt
        for k in range(1, n_teeth + 1):
            best_z = math.inf
            best_x = best_y = 0.0
            for px, py, pz in edge_xyz:
                ct = _edge_to_tool_rows(plan.tool, k)
                ts = _tool_to_spindle_rows(plan.phase, k, n_teeth, plan.omega, t)
                sw = _spindle_to_workpiece_rows(plan.x0, plan.y0, plan.z0, plan.feed_speed, t)
                full = _matmul4(_matmul4(sw, ts), ct)
                x, y, z = _apply4(full, px, py, pz)
                idx = locate(x, y, grid)
                if idx is not None:
                    update_min(field, idx, z)
                    in_grid += 1
                if z < best_z:
                    best_z = z
                    best_x = x
                    best_y = y
            if trajectory is not None:
                trajectory.append(t, k, best_x, best_y, best_z)
    wall = time.perf_counter() - t0

    return SimulationResult(
        field=field,
        trajectory=trajectory,
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
        return {
            "case_id": self.case_id,
            "rows": [
                {
                    "scale": r.scale,
                    "trajectory_points": r.trajectory_points,
                    "t_reference_s": r.t_reference_s,
                    "t_optimized_s": r.t_optimized_s,
                    "speedup": r.speedup,
                }
                for r in self.rows
            ],
        }

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
    kernels' height fields (and trajectories, when recorded) must agree
    exactly; a mismatch aborts, since correctness precedes speed.
    """
    if not sizes:
        raise ConfigError("benchmark sizes must be non-empty")
    base_dt = time_step(config)
    report = BenchmarkReport(case_id=case_id)
    for size in sizes:
        if size <= 0:
            raise ConfigError(f"benchmark size must be > 0, got {size}")
        scaled = replace(config, time_step_s=base_dt / size)
        opt = simulate(scaled)
        ref = simulate_reference(scaled)
        if not np.array_equal(opt.field.heights, ref.field.heights):
            raise MillsurfError(
                f"kernel mismatch at size {size}: optimized and reference height fields differ"
            )
        if opt.trajectory is not None and not opt.trajectory.equals(ref.trajectory):
            raise MillsurfError(f"kernel mismatch at size {size}: trajectory records differ")
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
