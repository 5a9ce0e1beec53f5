import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from millsurf import (
    ConfigError,
    DomainError,
    GridSpec,
    HeightField,
    ProcessParameters,
    SimulationConfig,
    ToolDefinition,
    areal_metrics,
    derive_kinematics,
    run_benchmark,
    simulate,
    simulate_reference,
    time_step,
)
from millsurf import engine

from helpers import (case1_tool, case1_process, machined_rect_roi, make_tool,
                     small_random_config, wide_cutter_config)


def tiny_config(**overrides):
    tool = case1_tool()
    process = case1_process(x0=0.0)
    grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.5))
    defaults = dict(tool=tool, process=process, grid=grid, edge_point_count=7,
                    time_step_s=2e-4, worker_count=1)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def default_step_config(seed: int) -> SimulationConfig:
    """A case1-like job with neither a time step nor a step angle: a random
    tool, feed and spacing (20 to 60 cells per feed mark), on a 1 x 0.6 mm
    grid inside the cutter's swath, so every cell must be cut."""
    rng = np.random.default_rng(seed)
    diameter = float(rng.uniform(8.0, 12.0))
    tool = ToolDefinition(cutting_diameter_mm=diameter,
                          insert_radius_mm=float(rng.uniform(0.4, 0.5)) * diameter,
                          tooth_count=int(rng.integers(1, 5)),
                          radial_rake_rad=float(rng.uniform(-0.035, 0.035)))
    feed = float(rng.uniform(0.3, 0.8))
    process = derive_kinematics(tool, depth_of_cut_mm=float(rng.uniform(0.3, 0.7)),
                                cutting_speed_m_min=float(rng.uniform(120.0, 220.0)),
                                feed_per_tooth_mm=feed, initial_position_mm=(0.0, None, 0.0))
    grid = GridSpec.from_extents(feed / float(rng.uniform(20.0, 60.0)), (-0.5, 0.5), (0.0, 0.6))
    return SimulationConfig(tool=tool, process=process, grid=grid)


class TestTimeStep:
    def test_angle_guard_value(self):
        # No step angle: spacing / (D/2 + engaged half-length), 0.399 deg here.
        cfg = tiny_config(time_step_s=None)
        dt = time_step(cfg)
        assert dt == pytest.approx(1.2290e-5, rel=1e-4)
        half = engine._engaged_half_length(cfg.tool, 0.5, 0.6)
        assert dt == cfg.grid.spacing_mm / (5.0 + half) / cfg.process.angular_velocity_rad_s

    @pytest.mark.parametrize("seed", range(5))
    def test_default_step_cuts_every_cell(self, seed):
        cfg = default_step_config(seed)
        field = simulate(cfg).field
        assert machined_rect_roi(field) == (0, 0, cfg.grid.m, cfg.grid.n)

    @pytest.mark.parametrize("seed", range(5))
    def test_default_step_converges(self, seed):
        cfg = default_step_config(seed)
        sa = areal_metrics(simulate(cfg).field).sa_um
        finer = dataclasses.replace(cfg, time_step_s=time_step(cfg) / 2)
        assert sa == pytest.approx(areal_metrics(simulate(finer).field).sa_um, rel=0.01)

    def test_explicit_passthrough(self):
        assert time_step(tiny_config(time_step_s=1e-5)) == 1e-5

    def test_feed_guard_wins_at_high_feed(self):
        cfg = tiny_config(time_step_s=None, max_step_angle_rad=math.radians(45.0))
        assert time_step(cfg) == cfg.grid.spacing_mm / cfg.process.feed_speed_mm_s(cfg.tool)

    def test_monotone_in_spindle_speed(self):
        slow = case1_process(cutting_speed_m_min=100.0)
        fast = case1_process(cutting_speed_m_min=250.0)
        cfg = tiny_config(time_step_s=None)
        dt_slow = time_step(dataclasses.replace(cfg, process=slow))
        dt_fast = time_step(dataclasses.replace(cfg, process=fast))
        assert dt_fast < dt_slow

    def test_bad_explicit_step(self):
        with pytest.raises(ConfigError):
            time_step(tiny_config(time_step_s=-1.0))

    @pytest.mark.parametrize("overrides", [
        dict(time_step_s=math.nan),
        dict(time_step_s=math.inf),
        dict(time_step_s=None, max_step_angle_rad=math.nan),
    ])
    def test_non_finite_step_rejected(self, overrides):
        with pytest.raises(ConfigError):
            time_step(tiny_config(**overrides))
        with pytest.raises(ConfigError):
            simulate(tiny_config(**overrides))


class TestEdgePointCount:
    # Without an edge-point count the plan takes the fewest points whose edge
    # spacing is at most half a grid cell.

    def test_half_cell_rule(self):
        spacing = 0.01
        grid = GridSpec.from_extents(spacing, (-0.05, 0.05), (0.0, 0.05))
        plan = engine._plan(tiny_config(grid=grid, edge_point_count=None))
        half, n = plan.edge_x[-1], plan.edge_x.size
        assert half == engine._engaged_half_length(case1_tool(), 0.5, 0.6)
        assert 2.0 * half / (n - 1) <= spacing / 2.0
        assert 2.0 * half / (n - 2) > spacing / 2.0  # minimal

    def test_floor_of_two(self):
        # An engaged half-length that rounds to 0 (a depth and a feed per
        # tooth far below the insert radius's ulp) still samples two points.
        process = ProcessParameters(spindle_speed_rpm=5000.0, feed_per_tooth_mm=5e-324,
                                    depth_of_cut_mm=1e-17, initial_position_mm=(0.0, 0.0, 0.0))
        cfg = tiny_config(process=process, edge_point_count=None, span_s=(0.0, 1e-3))
        plan = engine._plan(cfg)
        assert plan.edge_x[-1] == 0.0
        assert plan.edge_x.size == 2


# direct evaluation of the edge-arc relation at l = 2.5, R = 5
Z_AT_2_5 = 5.0 - math.sqrt(25.0 - 6.25)  # 0.6698729810778064


def edge_samples(point_count, depth=0.5, feed=0.6, **tool_kw):
    """Engaged half-length and the arc samples (x, z) that the engine's plan
    takes for a case1-like job with ``point_count`` edge points."""
    tool = make_tool(**tool_kw)
    process = derive_kinematics(tool, depth_of_cut_mm=depth, cutting_speed_m_min=170.0,
                                feed_per_tooth_mm=feed, initial_position_mm=(0.0, None, 0.0))
    grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.5))
    plan = engine._plan(SimulationConfig(tool=tool, process=process, grid=grid,
                                         edge_point_count=point_count, time_step_s=2e-4))
    return engine._engaged_half_length(tool, depth, feed), plan.edge_x, plan.edge_z


class TestEdgePoint:
    # depth of cut = R engages the whole arc: half_length == R, so the samples
    # land exactly on l = -R, ..., 0, ..., R

    def test_lowest_point(self):
        _, x, z = edge_samples(3, depth=5.0, feed=0.1)
        assert (x[1], z[1]) == (0.0, 0.0)

    def test_full_radius(self):
        _, x, z = edge_samples(3, depth=5.0, feed=0.1)
        assert (x[-1], z[-1]) == (5.0, 5.0)

    def test_mid_arc(self):
        _, x, z = edge_samples(5, depth=5.0, feed=0.1)
        assert x[3] == 2.5
        assert z[3] == pytest.approx(0.669873, abs=1e-6)
        assert z[3] == pytest.approx(Z_AT_2_5, abs=1e-15)

    def test_defining_relation(self):
        r = 4.0
        half, x, z = edge_samples(23, depth=r, feed=0.1, insert_radius_mm=r)
        assert half == r
        assert np.allclose(x, np.linspace(-r, r, 23), atol=1e-12)
        for l, zl in zip(x, z):
            assert abs(zl - (r - math.sqrt(r * r - l * l))) < 1e-12


class TestEngagedHalfLength:
    def test_depth_branch_dominates(self):
        half = engine._engaged_half_length(make_tool(radial_rake_rad=math.radians(0.6)), 0.5, 0.6)
        assert half == pytest.approx(math.sqrt(25.0 - 20.25), abs=1e-12)
        assert half == pytest.approx(2.17945, abs=1e-5)

    def test_full_immersion(self):
        assert engine._engaged_half_length(make_tool(), 5.0, 0.1) == pytest.approx(5.0, abs=1e-12)

    def test_feed_branch_dominates(self):
        assert engine._engaged_half_length(make_tool(), 1e-6, 0.6) == pytest.approx(0.3, abs=1e-15)

    def test_monotone_in_depth_and_feed(self):
        tool = make_tool()
        depths = np.linspace(0.05, 5.0, 40)
        halves = [engine._engaged_half_length(tool, float(a), 0.01) for a in depths]
        assert all(b >= a for a, b in zip(halves, halves[1:]))
        feeds = np.linspace(0.05, 2.0, 40)
        halves = [engine._engaged_half_length(tool, 0.01, float(f)) for f in feeds]
        assert all(b >= a for a, b in zip(halves, halves[1:]))


class TestDiscretizeEdge:
    # the plan samples the engaged arc uniformly over [-half, half]

    def test_three_point_case(self):
        half, x, _ = edge_samples(3, radial_rake_rad=math.radians(0.6))
        assert half == pytest.approx(2.17945, abs=1e-5)
        assert list(x) == [-half, 0.0, half]

    def test_two_points_are_endpoints(self):
        half, x, _ = edge_samples(2, depth=0.3, feed=0.2)
        assert list(x) == [-half, half]

    def test_full_immersion_five_points(self):
        _, x, z = edge_samples(5, depth=5.0, feed=0.1)
        assert np.allclose(x, [-5.0, -2.5, 0.0, 2.5, 5.0], atol=1e-12)
        assert np.allclose(z, [5.0, Z_AT_2_5, 0.0, Z_AT_2_5, 5.0], atol=1e-12)

    def test_uniform_spacing(self):
        _, x, _ = edge_samples(11)
        assert np.allclose(np.diff(x), np.diff(x)[0], atol=1e-12)

    def test_z_range_and_symmetry(self):
        _, _, z = edge_samples(37, depth=1.3, feed=0.45)
        assert np.all(z >= 0.0)
        assert np.all(z <= 5.0)
        assert np.allclose(z, z[::-1], atol=1e-12)

    def test_pure_function(self):
        _, xa, za = edge_samples(21)
        _, xb, zb = edge_samples(21)
        assert np.array_equal(xa, xb)
        assert np.array_equal(za, zb)

    def test_feed_half_length_beyond_radius(self):
        # f_z / (2 cos(radial rake)) = 5.5 mm against an insert radius of 5 mm
        with pytest.raises(DomainError, match="exceeds the insert radius"):
            edge_samples(5, feed=11.0)

    def test_arc_samples_only(self):
        # the edge is its arc coordinates and heights; its y is 0 by construction
        _, x, z = edge_samples(9)
        for arr in (x, z):
            assert arr.shape == (9,)
            assert arr.dtype == np.float64
            assert arr.flags["C_CONTIGUOUS"]


class TestSimulate:
    @pytest.mark.usefixtures("cull_off")
    def test_no_engagement_leaves_stock_uncut(self):
        cfg = tiny_config()
        proc = case1_process(x0=10.0 * (cfg.grid.x_max_mm + 10.0))
        cfg = dataclasses.replace(cfg, process=proc)
        result = simulate(cfg)
        assert result.cells_updated == 0
        assert np.all(result.field.heights == cfg.process.depth_of_cut_mm)
        assert result.trajectory_points == result.time_steps * 2 * 7
        # Every step is culled, so no point is computed.
        assert result.evaluated_points == 0
        assert_kernels_agree(result, simulate_reference(cfg))

    def test_counters(self):
        result = simulate(tiny_config())
        assert result.trajectory_points == result.time_steps * 2 * 7
        assert result.cells_updated == result.field.machined_cell_count()
        assert result.cells_updated > 0

    def test_auto_span_machines_grid_inside_swath(self):
        # narrow grid well inside the cutter swath, with the step angle tight
        # enough that every crossed cell column receives a sample: every cell
        # must then be cut
        grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.3))
        half = engine._engaged_half_length(case1_tool(), 0.5, 0.6)
        angle = grid.spacing_mm / (5.0 + half)
        cfg = tiny_config(grid=grid, edge_point_count=None, time_step_s=None,
                          max_step_angle_rad=angle)
        result = simulate(cfg)
        assert (result.field.as_array() < result.field.initial_height_mm).all()

    def test_heights_bounded_by_stock_and_runout(self):
        runouts = ((0.0, 0.0), (0.011, -0.003))
        cfg = tiny_config(tool=case1_tool(runouts=runouts))
        heights = simulate(cfg).field.heights
        a_p = cfg.process.depth_of_cut_mm
        assert np.all(heights <= a_p)
        assert heights.min() >= -0.003 - 1e-12

    def test_worker_determinism(self):
        cfg = small_random_config(101)
        base = simulate(dataclasses.replace(cfg, worker_count=1))
        for workers in (2, 4):
            other = simulate(dataclasses.replace(cfg, worker_count=workers))
            assert np.array_equal(base.field.heights, other.field.heights)

    @pytest.mark.usefixtures("cull_off")
    def test_fewer_steps_than_workers(self):
        # 3 steps at 4 workers run as 3 ranges of one step each.
        dt = 3e-5
        cfg = tiny_config(process=case1_process(x0=-5.0, y0=0.25), span_s=(0.0, 2.5 * dt),
                          time_step_s=dt, worker_count=4)
        result = simulate(cfg)
        assert result.time_steps == 3
        assert result.cells_updated > 0
        assert_kernels_agree(result, simulate_reference(cfg))

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            simulate(tiny_config(worker_count=0))

    def test_explicit_span_needs_y0(self):
        with pytest.raises(ConfigError):
            simulate(tiny_config(span_s=(0.0, 0.01)))

    def test_bad_span(self):
        for span in [(0.02, 0.01), (0.0, math.inf), (0.0, math.nan)]:
            with pytest.raises(ConfigError):
                simulate(tiny_config(process=case1_process(y0=-3.0), span_s=span))


_Y0 = case1_process(y0=-3.0)
# case1's cutter with twice the teeth.
_FOUR_TEETH = ToolDefinition(cutting_diameter_mm=10.0, insert_radius_mm=5.0, tooth_count=4)


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(time_step_s=0.0), id="time_step_s=0"),
    pytest.param(dict(time_step_s=-1.0), id="time_step_s=-1"),
    pytest.param(dict(time_step_s=math.nan), id="time_step_s=nan"),
    pytest.param(dict(time_step_s=math.inf), id="time_step_s=inf"),
    # A bool compares as 1 or 0 and would pass the range checks: True as a
    # time step would run one step of 1 s.
    pytest.param(dict(time_step_s=True), id="time_step_s=True"),
    pytest.param(dict(time_step_s=None, max_step_angle_rad=True), id="max_step_angle_rad=True"),
    pytest.param(dict(max_step_angle_rad=0.0), id="max_step_angle_rad=0"),
    pytest.param(dict(max_step_angle_rad=math.nan), id="max_step_angle_rad=nan"),
    pytest.param(dict(max_step_angle_rad=math.inf), id="max_step_angle_rad=inf"),
    pytest.param(dict(span_s=(0.0, 0.01)), id="span_s-without-y0"),
    pytest.param(dict(process=_Y0, span_s=(0.02, 0.01)), id="span_s-reversed"),
    pytest.param(dict(process=_Y0, span_s=(-0.01, 0.01)), id="span_s-negative"),
    pytest.param(dict(process=_Y0, span_s=(0.0, math.inf)), id="span_s-inf"),
    pytest.param(dict(process=_Y0, span_s=(0.0, math.nan)), id="span_s-nan"),
    pytest.param(dict(process=_Y0, span_s=(False, 0.01)), id="span_s-start=False"),
    pytest.param(dict(process=_Y0, span_s=(0.0, True)), id="span_s-end=True"),
    pytest.param(dict(worker_count=0), id="worker_count=0"),
    pytest.param(dict(worker_count=2.5), id="worker_count=2.5"),
    pytest.param(dict(worker_count=True), id="worker_count=True"),
    pytest.param(dict(edge_point_count=2.5), id="edge_point_count=2.5"),
    pytest.param(dict(edge_point_count=1), id="edge_point_count=1"),
    pytest.param(dict(edge_point_count=True), id="edge_point_count=True"),
    pytest.param(dict(process=case1_process(depth_of_cut_mm=5.5)), id="depth-beyond-insert"),
])
def test_config_rejected_at_construction(overrides):
    with pytest.raises(ConfigError):
        tiny_config(**overrides)
    valid = tiny_config()
    with pytest.raises(ConfigError):
        dataclasses.replace(valid, **overrides)


def test_step_that_cannot_cover_the_span_rejected():
    # The derived step angle / omega rounds to zero; 5e-324 s takes infinitely many steps.
    for overrides in (dict(time_step_s=None, max_step_angle_rad=1e-320), dict(time_step_s=5e-324)):
        with pytest.raises(ConfigError, match="time step"):
            simulate(tiny_config(**overrides))
    with pytest.raises(ConfigError, match="time step"):
        run_benchmark(tiny_config(), [1e308])


@pytest.mark.parametrize("steps", [2.0**53, 2.0**63, 1e200])
def test_step_count_bounded(steps):
    # Past 2**53 steps, t_start + step*dt cannot tell consecutive steps apart.
    # The plan rejects such a count before any step array is built; a finite
    # count of that size would otherwise sweep without end.
    cfg = tiny_config(process=_Y0, span_s=(0.0, 1.0), time_step_s=1.0 / steps)
    with pytest.raises(ConfigError, match="^time step ") as exc:
        engine._plan(cfg)
    assert str(exc.value).endswith(f" takes {steps:.6g} steps over 1.0 s, more than 2**53")
    assert engine._plan(dataclasses.replace(cfg, time_step_s=2.0**-52)).steps == 2**52 + 1


@pytest.mark.parametrize("spacing", [1e-308, 1e-200])
def test_edge_point_count_bounded(spacing):
    # Without an edge-point count, 4*half/spacing edge intervals: over one
    # cell it overflows to inf at 1e-308 and is finite but past 2**53 at
    # 1e-200. The plan rejects both before any edge array is built.
    cfg = tiny_config(grid=GridSpec(spacing, 0.0, 0.0, 1, 1), edge_point_count=None)
    count = 4.0 * engine._engaged_half_length(cfg.tool, 0.5, 0.6) / spacing
    with pytest.raises(ConfigError) as exc:
        simulate(cfg)
    assert str(exc.value) == (
        f"grid spacing {spacing} mm takes {count:.6g} edge points, more than 2**53"
    )


def test_tool_replaced_keeps_feed_per_tooth():
    # The process keeps f_z and n, so on twice the teeth it feeds twice as fast.
    cfg = dataclasses.replace(tiny_config(), tool=_FOUR_TEETH)
    n = cfg.process.spindle_speed_rpm
    assert cfg.process.feed_speed_mm_s(cfg.tool) == 0.6 * 4 * n / 60.0
    assert_kernels_agree(simulate(cfg), simulate_reference(cfg))


def assert_kernels_agree(opt, ref):
    assert np.array_equal(opt.field.heights, ref.field.heights)
    assert opt.time_steps == ref.time_steps
    assert opt.trajectory_points == ref.trajectory_points
    assert opt.cells_updated == ref.cells_updated
    assert ref.evaluated_points == ref.trajectory_points
    assert opt.in_grid_points <= opt.evaluated_points <= opt.trajectory_points
    # in_grid_points counts the computed points that landed. The dominance
    # cull skips points without computing them, so it can only lower the
    # count; with the cull off every point that can land is computed, and the
    # count must equal the reference's: equal heights can hide a dropped
    # in-grid point that was not the minimum, and this count cannot.
    if engine._REFRESH_RATIO == math.inf:
        assert opt.in_grid_points == ref.in_grid_points
    else:
        assert opt.in_grid_points <= ref.in_grid_points


@pytest.fixture
def cull_off(monkeypatch):
    """Turn the dominance cull off, so that assert_kernels_agree checks
    in_grid_points exactly. The small configs of the tests that use it never
    reach the map's refresh size at the default ratio, so the fixture changes
    no computed point, only what is checked."""
    monkeypatch.setattr(engine, "_REFRESH_RATIO", math.inf)


def far_from_origin(cfg):
    """``cfg`` with the tool path and the grid moved 2**44 mm along x and y."""
    x0, y0, z0 = cfg.process.initial_position_mm
    off = 2.0**44
    g = cfg.grid
    return dataclasses.replace(
        cfg,
        process=dataclasses.replace(cfg.process, initial_position_mm=(x0 + off, y0, z0)),
        grid=GridSpec(g.spacing_mm, g.x_min_mm + off, g.y_min_mm + off, g.m, g.n),
    )


def dense_config():
    """A 2 mm cutter over a grid 3.6 mm wide, so the tip's path ends inside
    the grid, with about one cell of travel per step: each tooth pass
    overlaps the last, and later passes land segments on cells the tip
    already cut, next to cells that only the edge's outer segments reach."""
    tool = ToolDefinition(cutting_diameter_mm=2.0, insert_radius_mm=1.0, tooth_count=2,
                          runouts_mm=((0.0, 0.0), (0.005, 0.002)))
    process = derive_kinematics(tool, depth_of_cut_mm=0.2, cutting_speed_m_min=100.0,
                                feed_per_tooth_mm=0.15)
    grid = GridSpec.from_extents(0.08, (-1.8, 1.8), (0.0, 0.8))
    return SimulationConfig(tool=tool, process=process, grid=grid, edge_point_count=16,
                            max_step_angle_rad=0.05)


@pytest.mark.usefixtures("cull_off")
class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fields_and_trajectories_identical(self, seed):
        cfg = small_random_config(seed)
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_nonzero_z0_identical(self, seed):
        # z0 enters the sweep as zt + z0 and the reference through the
        # spindle->workpiece translation; both must add it last.
        cfg = small_random_config(seed, random_z0=True)
        assert cfg.process.initial_position_mm[2] != 0.0
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_far_from_origin_identical(self, seed):
        # 2**44 mm from the origin a float64 coordinate resolves only 2**-8 mm,
        # 8 to 20% of a cell, so adding x0 or y(t) in another order than the
        # reference moves points across cell edges.
        cfg = far_from_origin(small_random_config(seed))
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_cutter_culls_and_agrees(self, seed):
        cfg = wide_cutter_config(seed)
        ref = simulate_reference(cfg)
        assert ref.in_grid_points > 0
        for workers in (1, 2):
            opt = simulate(dataclasses.replace(cfg, worker_count=workers))
            assert opt.evaluated_points < opt.trajectory_points
            # The segment cull leaves few evaluated points that miss the grid.
            assert opt.evaluated_points <= 2 * opt.in_grid_points
            assert_kernels_agree(opt, ref)

    @pytest.mark.parametrize("seed, step_factor", [(1, 2), (1, 3), (4, 1)])
    def test_coarse_slack_covers_stride(self, seed, step_factor):
        # At 1.6-3 degrees per step a tooth can swing from outside the coarse
        # window at an anchor into the grid before the next anchor; with half
        # the coarse slack these runs drop in-grid points.
        cfg = wide_cutter_config(seed)
        cfg = dataclasses.replace(cfg, time_step_s=cfg.time_step_s * step_factor)
        ref = simulate_reference(cfg)
        for workers in (1, 2):
            assert_kernels_agree(simulate(dataclasses.replace(cfg, worker_count=workers)), ref)

    def test_small_chunks_agree(self, monkeypatch):
        # Production chunk sizes exceed these tests' step counts, and their
        # edge segments and coarse stride are coarse; shrink them so chunk,
        # block, segment and coarse-anchor boundaries fall inside the sweep
        # (with a stride of 2 and chunks of 5 steps, some chunks start between
        # an anchor and the step after it).
        monkeypatch.setattr(engine, "_STEP_CHUNK", 5)
        monkeypatch.setattr(engine, "_POINT_BLOCK", 16)
        monkeypatch.setattr(engine, "_EDGE_SEGMENTS", 3)
        monkeypatch.setattr(engine, "_COARSE_STRIDE", 2)
        for cfg in (small_random_config(0), wide_cutter_config(0)):
            ref = simulate_reference(cfg)
            for workers in (1, 2):
                opt = simulate(dataclasses.replace(cfg, worker_count=workers))
                assert_kernels_agree(opt, ref)

    def test_kept_rows_independent_of_bounds(self, monkeypatch):
        # With the dominance cull off, evaluated_points counts the (row,
        # segment) pairs the row stage keeps, which depend on neither the chunk
        # nor the worker bounds: coarse anchors are global step numbers, and a
        # step the coarse pass drops is one the row cull would drop.
        bounds = ((5, 2), (engine._STEP_CHUNK, engine._COARSE_STRIDE))
        for cfg in (wide_cutter_config(0), wide_cutter_config(1),
                    small_random_config(0), small_random_config(1)):
            counts = set()
            for chunk, stride in bounds:
                monkeypatch.setattr(engine, "_STEP_CHUNK", chunk)
                monkeypatch.setattr(engine, "_COARSE_STRIDE", stride)
                for workers in (1, 2):
                    opt = simulate(dataclasses.replace(cfg, worker_count=workers))
                    counts.add((opt.evaluated_points, opt.in_grid_points))
            assert len(counts) == 1, counts
            assert counts.pop()[0] > 0


def record_runs(monkeypatch):
    """Spy on the row stage: the list it returns collects a copy of every run
    of steps that ``simulate`` hands to ``engine._rows``."""
    runs = []
    rows = engine._rows

    def spy(plan, steps):
        runs.append(steps.copy())
        return rows(plan, steps)

    monkeypatch.setattr(engine, "_rows", spy)
    return runs


def runs_by_worker(runs, steps, workers):
    """``runs`` grouped by the worker range that holds them, each group in
    step order, with the ranges ``simulate`` splits ``steps`` into."""
    bounds = [round(w * steps / workers) for w in range(workers + 1)]
    groups = [[] for _ in range(workers)]
    for run in sorted(runs, key=lambda r: r[0]):
        w = int(np.searchsorted(bounds, run[0], side="right")) - 1
        assert bounds[w] <= run[0] and run[-1] < bounds[w + 1]
        groups[w].append(run)
    return bounds, groups


class TestLiveRuns:
    """The coarse pass hands the row stage runs of live steps, not slices of
    the step grid, so a sweep whose steps are mostly dead still makes few,
    full row- and point-stage calls."""

    @pytest.mark.usefixtures("cull_off")
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_sparse_runs_cross_spans_and_agree(self, monkeypatch, seed):
        # In these configs most steps are dead. Spans of 5 anchors (10 steps)
        # hold fewer than 5 live steps where the cutter enters or leaves the
        # grid, so runs of 5 live steps take steps from more than one span,
        # across the dead steps between them.
        monkeypatch.setattr(engine, "_STEP_CHUNK", 5)
        monkeypatch.setattr(engine, "_COARSE_STRIDE", 2)
        span = 5 * 2
        runs = record_runs(monkeypatch)
        cfg = wide_cutter_config(seed)
        ref = simulate_reference(cfg)
        for workers in (1, 2):
            runs.clear()
            opt = simulate(dataclasses.replace(cfg, worker_count=workers))
            assert_kernels_agree(opt, ref)
            bounds, groups = runs_by_worker(runs, opt.time_steps, workers)
            live = sum(run.size for run in runs)
            assert 0 < live < opt.time_steps // 2
            crossing = [
                run for lo, group in zip(bounds, groups) for run in group
                if (run[0] - lo + lo % 2) // span != (run[-1] - lo + lo % 2) // span
            ]
            assert crossing

    @pytest.mark.parametrize("chunk, stride", [(5, 2), (3, 4), (64, 16)])
    def test_runs_are_full(self, monkeypatch, chunk, stride):
        # Every run but each worker's last holds exactly _STEP_CHUNK live
        # steps, and the runs of every worker count cover the same steps.
        monkeypatch.setattr(engine, "_STEP_CHUNK", chunk)
        monkeypatch.setattr(engine, "_COARSE_STRIDE", stride)
        runs = record_runs(monkeypatch)
        cfg = wide_cutter_config(0)
        covered = []
        for workers in (1, 2, 3):
            runs.clear()
            steps = simulate(dataclasses.replace(cfg, worker_count=workers)).time_steps
            _, groups = runs_by_worker(runs, steps, workers)
            for group in groups:
                assert group, "a worker with live steps made no run"
                assert all(run.size == chunk for run in group[:-1])
                assert 0 < group[-1].size <= chunk
            covered.append(np.concatenate(sorted(runs, key=lambda r: r[0])))
            assert np.all(np.diff(covered[-1]) > 0)
        assert all(np.array_equal(covered[0], other) for other in covered[1:])


def annulus_meets(x0, y, r_lo, r_hi, window):
    """The exact annulus test: the annulus [r_lo, r_hi] about (x0, y) meets
    ``window`` when the window's nearest point lies within r_hi and its
    farthest beyond r_lo."""
    x_lo, x_hi, y_lo, y_hi = window
    near = math.hypot(max(x_lo - x0, 0.0, x0 - x_hi), max(y_lo - y, 0.0, y - y_hi))
    far = math.hypot(max(x0 - x_lo, x_hi - x0), max(y - y_lo, y_hi - y))
    return near <= r_hi and far >= r_lo


def in_band(y, band):
    y_lo, y_hi, y_mid, hole = band
    return y_lo <= y <= y_hi and abs(y - y_mid) >= hole


def random_band_config(seed: int) -> SimulationConfig:
    """A random tool and a random grid, from a fiftieth of the cutter's width
    to more than it, that lies about the spindle axis, across the cutter's
    rim or beyond its reach: the coarse window lies in the annulus's hole,
    across the annulus or outside it."""
    rng = np.random.default_rng(seed)
    diameter = float(rng.uniform(2.0, 12.0))
    radius = float(rng.uniform(0.05, 0.3)) * diameter
    teeth = int(rng.integers(1, 5))
    tool = ToolDefinition(
        cutting_diameter_mm=diameter, insert_radius_mm=radius, tooth_count=teeth,
        radial_rake_rad=float(rng.uniform(-0.035, 0.035)),
        runouts_mm=tuple((float(rng.uniform(-0.02, 0.02)), 0.0) for _ in range(teeth)),
    )
    x0 = float(rng.uniform(-5.0, 5.0))
    process = derive_kinematics(
        tool, depth_of_cut_mm=float(rng.uniform(0.1, 0.9)) * radius,
        cutting_speed_m_min=float(rng.uniform(80.0, 250.0)),
        feed_per_tooth_mm=float(rng.uniform(0.05, 0.5)), initial_position_mm=(x0, None, 0.0),
    )
    width, length = (diameter * 10.0 ** float(rng.uniform(-1.7, 0.1)) for _ in range(2))
    offset = float(rng.choice([rng.uniform(0.0, 0.2), rng.uniform(0.3, 0.6),
                               rng.uniform(0.8, 1.5)]))
    x_mid = x0 + float(rng.choice([-1.0, 1.0])) * offset * diameter
    grid = GridSpec.from_extents(float(rng.uniform(0.01, 0.1)),
                                 (x_mid - width / 2.0, x_mid + width / 2.0), (0.0, length))
    return SimulationConfig(tool=tool, process=process, grid=grid, edge_point_count=8,
                            max_step_angle_rad=float(rng.uniform(0.0002, 0.004)))


def crossing_config() -> SimulationConfig:
    """A scaled-down am_smooth: a cutter 11 times the width of a 0.4 x 0.2 mm
    grid, whose spindle axis crosses the grid. The span runs from before the
    cutter's front reaches the grid to the axis over the grid's middle, so the
    first half of the steps cuts and the second half lies mostly in the
    annulus's hole."""
    tool = ToolDefinition(cutting_diameter_mm=4.4, insert_radius_mm=0.5, tooth_count=2)
    depth, feed = 0.2, 0.3
    reach = 2.2 + engine._engaged_half_length(tool, depth, feed)
    process = derive_kinematics(tool, depth_of_cut_mm=depth, cutting_speed_m_min=120.0,
                                feed_per_tooth_mm=feed, phase_rad=0.3,
                                initial_position_mm=(0.03, -reach - 0.1, 0.0))
    grid = GridSpec.from_extents(0.02, (-0.2, 0.2), (0.0, 0.2))
    t_end = (reach + 0.2) / process.feed_speed_mm_s(tool)
    return SimulationConfig(tool=tool, process=process, grid=grid, edge_point_count=6,
                            max_step_angle_rad=0.01, span_s=(0.0, t_end))


class TestAnnulusBand:
    """The coarse pass keeps an anchor only while its spindle-axis y lies in
    the plan's band, the annulus test against the coarse window solved for
    y."""

    def test_band_matches_exact_annulus_test(self):
        # The band keeps every y that the exact test passes, and drops every
        # y more than 1e-9 mm inside a region where it fails. y is sampled at
        # a third of a cell, so a band a cell too narrow or too wide fails.
        eps = 1e-9
        kinds = set()
        for seed in range(24):
            plan = engine._plan(random_band_config(seed))
            radii = np.concatenate([np.hypot(td.x_tool, td.y_tool) for td in plan.teeth])
            r_lo, r_hi = float(radii.min()), float(radii.max())
            _, _, cy_lo, cy_hi = plan.coarse
            dd = plan.grid.spacing_mm
            ys = np.arange(cy_lo - r_hi - 1.0, cy_hi + r_hi + 1.0, dd / 3.0)
            passes = [annulus_meets(plan.x0, float(y), r_lo, r_hi, plan.coarse) for y in ys]
            for y, ok in zip(ys.tolist(), passes):
                if ok:
                    assert in_band(y, plan.band), (seed, y)
                elif not any(annulus_meets(plan.x0, y + d, r_lo, r_hi, plan.coarse)
                             for d in (-eps, eps)):
                    assert not in_band(y, plan.band), (seed, y)
            kinds.add((any(passes), plan.band[3] > 0.0))
        # Windows beyond the annulus, in its hole and across it all occur.
        assert kinds == {(False, False), (True, True), (True, False)}, kinds

    @pytest.mark.usefixtures("cull_off")
    def test_hole_drops_anchors_and_agrees(self):
        cfg = crossing_config()
        plan = engine._plan(cfg)
        _, ty = plan.step_times(np.arange(0, plan.steps, plan.stride))
        _, _, y_mid, hole = plan.band
        assert np.count_nonzero(np.abs(ty - y_mid) < hole) > ty.size // 4
        ref = simulate_reference(cfg)
        assert ref.in_grid_points > 0
        for workers in (1, 2):
            assert_kernels_agree(simulate(dataclasses.replace(cfg, worker_count=workers)), ref)


def strip_config(seed):
    """``wide_cutter_config(seed)`` over a strip of the grid three nodes long,
    with 16 edge points: as on am_smooth, every edge segment outgrows the
    grid's inner window. Half the time step makes the passes overlap enough
    for the dominance cull to skip pairs at 1, 2 and 4 workers (seeds 1 and
    5)."""
    cfg = wide_cutter_config(seed)
    g = cfg.grid
    return dataclasses.replace(cfg, grid=GridSpec(g.spacing_mm, g.x_min_mm, g.y_min_mm, g.m, 2),
                               edge_point_count=16, time_step_s=cfg.time_step_s / 2)


class TestDominanceCull:
    """The dominance cull skips (row, segment) pairs, interior or boundary,
    whose lowest z is at or above an upper bound of every in-grid cell they
    can reach. Its map is refreshed only before groups of at least
    _REFRESH_RATIO points per grid node, which keeps the small random configs
    off the path; lowering the ratio and the chunk size refreshes it several
    times per sweep at 1 and 2 workers, and a ratio between 0 and 1 leaves
    some groups to use a stale map."""

    @pytest.mark.parametrize("far", [False, True], ids=["near", "far_from_origin"])
    @pytest.mark.parametrize("ratio", [0.0, 0.5])
    def test_dense_config_agrees(self, monkeypatch, ratio, far):
        monkeypatch.setattr(engine, "_REFRESH_RATIO", ratio)
        monkeypatch.setattr(engine, "_STEP_CHUNK", 512)
        cfg = far_from_origin(dense_config()) if far else dense_config()
        ref = simulate_reference(cfg)
        for workers in (1, 2):
            opt = simulate(dataclasses.replace(cfg, worker_count=workers))
            assert_kernels_agree(opt, ref)
            # The cull skipped points that would have landed.
            assert opt.in_grid_points < ref.in_grid_points

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_configs_agree(self, monkeypatch, seed):
        monkeypatch.setattr(engine, "_REFRESH_RATIO", 0.0)
        cfg = small_random_config(seed, random_z0=True)
        ref = simulate_reference(cfg)
        for workers in (1, 2):
            assert_kernels_agree(simulate(dataclasses.replace(cfg, worker_count=workers)), ref)

    def test_far_from_origin_random_configs_agree(self, monkeypatch):
        monkeypatch.setattr(engine, "_REFRESH_RATIO", 0.0)
        for seed in (0, 1, 2):
            cfg = far_from_origin(small_random_config(seed))
            ref = simulate_reference(cfg)
            for workers in (1, 2):
                opt = simulate(dataclasses.replace(cfg, worker_count=workers))
                assert_kernels_agree(opt, ref)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_boundary_pairs_culled(self, monkeypatch, seed):
        # As on am_smooth, every kept pair is a boundary pair: its square
        # crosses the outermost cells, and the map is read at its low corner
        # clipped into the grid.
        interior = []
        rows = engine._rows

        def spy(plan, steps):
            for row in rows(plan, steps):
                interior.append(bool(row[5].any()))
                yield row

        monkeypatch.setattr(engine, "_rows", spy)
        cfg = strip_config(seed)
        ref = simulate_reference(cfg)
        evaluated = {}
        for ratio in (math.inf, 0.0):
            monkeypatch.setattr(engine, "_REFRESH_RATIO", ratio)
            for workers in (1, 2, 4):
                opt = simulate(dataclasses.replace(cfg, worker_count=workers))
                assert_kernels_agree(opt, ref)
                evaluated[ratio, workers] = opt.evaluated_points
        assert interior and not any(interior)
        for workers in (1, 2, 4):
            assert evaluated[0.0, workers] < evaluated[math.inf, workers]

    @pytest.mark.parametrize("make, segments", [
        (dense_config, 8), (lambda: far_from_origin(dense_config()), 8),
        (lambda: strip_config(1), 8), (dense_config, 2),
    ], ids=["dense", "dense_far_from_origin", "strip", "dense_2_segments"])
    def test_map_covers_every_cell_a_segment_reaches(self, monkeypatch, make, segments):
        # The invariant the cull rests on, checked directly: at every step of
        # the sweep, the map read for a (row, segment) pair is at least the
        # height of every in-grid cell the segment's points land in, also
        # where the pair's square crosses the grid's edge and its low corner
        # is clipped into the grid. Heights that rise or fall across the
        # grid catch a map read from too few tiles after or before the
        # corner's; random heights catch a misplaced tile. Only the long
        # segments of a 2-segment edge reach the third tile of the block.
        monkeypatch.setattr(engine, "_EDGE_SEGMENTS", segments)
        plan = engine._plan(make())
        grid = plan.grid
        ramp = np.add.outer(np.arange(grid.m + 1.0), np.arange(grid.n + 1.0)).ravel()
        random = np.random.default_rng(0).uniform(-1.0, 1.0, grid.node_count)
        stages = [engine._PointStage(plan, HeightField(grid, 1.0, values), threading.Lock())
                  for values in (ramp, -ramp, random)]
        for points in stages:
            points.refresh()
        t, ty = plan.step_times(np.arange(plan.steps))
        checked = 0
        for k_idx, td in enumerate(plan.teeth):
            c, s = (a[:, None] for a in plan.tooth_trig(k_idx, t))
            for j, sl in enumerate(td.segments):
                xt, yt = td.x_tool[sl], td.y_tool[sl]
                # The point stage's cell index, in its operation order.
                i = np.floor(((c * xt + s * yt + plan.x0) - grid.x_min_mm) / grid.spacing_mm + 0.5)
                k = np.floor(((c * yt - s * xt + ty[:, None]) - grid.y_min_mm) / grid.spacing_mm
                             + 0.5)
                lands = (i >= 0) & (i <= grid.m) & (k >= 0) & (k <= grid.n)
                rows = np.flatnonzero(lands.any(axis=1))
                i, k = (np.where(lands, a, 0).astype(int) for a in (i, k))
                for points in stages:
                    bound = points.bound_at(c[rows, 0], s[rows, 0], ty[rows], td, j)
                    reached = np.where(lands, points.hmap[i, k], -np.inf)[rows].max(axis=1)
                    assert np.all(bound >= reached)
                checked += rows.size
        assert checked > 0


@pytest.mark.usefixtures("cull_off")
class TestInGridCount:
    """With the dominance cull off, assert_kernels_agree checks that
    in_grid_points equals the reference's count, here at 1, 2 and 4 workers
    and on the dense configs whose passes overlap."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda s=s: small_random_config(s), id=f"small_random-{s}")
          for s in range(5)),
        *(pytest.param(lambda s=s: small_random_config(s, random_z0=True),
                       id=f"small_random_z0-{s}") for s in range(3)),
        *(pytest.param(lambda s=s: far_from_origin(small_random_config(s)),
                       id=f"small_random_far-{s}") for s in range(3)),
        *(pytest.param(lambda s=s: wide_cutter_config(s), id=f"wide_cutter-{s}")
          for s in range(5)),
        pytest.param(dense_config, id="dense-0"),
        pytest.param(lambda: far_from_origin(dense_config()), id="dense_far-0"),
    ])
    def test_matches_reference_with_cull_off(self, make):
        cfg = make()
        ref = simulate_reference(cfg)
        assert ref.in_grid_points > 0
        for workers in (1, 2, 4):
            assert_kernels_agree(simulate(dataclasses.replace(cfg, worker_count=workers)), ref)


class TestSharedField:
    """Every sweep worker scatters into one height field, under one lock
    that also guards the dominance map's read of the field."""

    @pytest.mark.parametrize("far", [False, True], ids=["near", "far_from_origin"])
    @pytest.mark.parametrize("make", [dense_config, lambda: small_random_config(3)],
                             ids=["dense", "small_random-3"])
    def test_concurrent_workers_agree(self, monkeypatch, make, far):
        # Short runs, small blocks, a map refreshed before every group and a
        # short thread switch interval make the workers' scatters and
        # refreshes interleave often. A scatter lost to a race, or a cull
        # against a map read during a write, would leave a cell above the
        # reference's height.
        monkeypatch.setattr(engine, "_STEP_CHUNK", 64)
        monkeypatch.setattr(engine, "_POINT_BLOCK", 16)
        monkeypatch.setattr(engine, "_REFRESH_RATIO", 0.0)
        cfg = far_from_origin(make()) if far else make()
        ref = simulate_reference(cfg).field.heights.view(np.int64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 3, 8):
                for _ in range(3):
                    opt = simulate(dataclasses.replace(cfg, worker_count=workers))
                    assert np.array_equal(opt.field.heights.view(np.int64), ref)
        finally:
            sys.setswitchinterval(interval)

    def test_workers_add_less_than_a_field(self):
        # A grid of a million nodes and a short span: four workers take less
        # than one more field of traced memory than one worker does.
        grid = GridSpec.from_extents(0.01, (-5.0, 5.0), (0.0, 10.0))
        cfg = SimulationConfig(tool=case1_tool(), process=case1_process(y0=5.0), grid=grid,
                               span_s=(0.0, 0.002))
        peaks = {}
        for workers in (1, 4):
            tracemalloc.start()
            try:
                result = simulate(dataclasses.replace(cfg, worker_count=workers))
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert grid.node_count > 1_000_000 and result.cells_updated > 0
        assert result.time_steps >= 4
        assert peaks[4] - peaks[1] < result.field.heights.nbytes, peaks


def box_hits_oracle(c, s, x_range, y_range, x0, ty, window, inner):
    """``_box_hits`` of one (row, box) pair: the same formulas, in the same
    order, on Python floats."""
    axl, axh = x_range
    ayl, ayh = y_range
    x_lo = min(c * axl, c * axh) + min(s * ayl, s * ayh) + x0
    x_hi = max(c * axl, c * axh) + max(s * ayl, s * ayh) + x0
    y_lo = min(c * ayl, c * ayh) - max(s * axl, s * axh) + ty
    y_hi = max(c * ayl, c * ayh) - min(s * axl, s * axh) + ty
    wx_lo, wx_hi, wy_lo, wy_hi = window
    ix_lo, ix_hi, iy_lo, iy_hi = inner
    hits = x_hi >= wx_lo and x_lo <= wx_hi and y_hi >= wy_lo and y_lo <= wy_hi
    inside = x_lo >= ix_lo and x_hi <= ix_hi and y_lo >= iy_lo and y_hi <= iy_hi
    return hits, inside, (x_lo, x_hi, y_lo, y_hi)


class TestBroadcastLayout:
    """The row stage bounds (segment, row) pairs and the point stage rotates
    (edge point, row) blocks, so that each broadcast runs along the rows.
    Neither layout may change a value: bounds, heights and counts are those
    of a pair-by-pair evaluation."""

    def test_segment_bounds_match_scalar_oracle(self):
        rng = np.random.default_rng(7)
        S, R = 5, 64
        lo = rng.uniform(-3.0, 2.0, (2, S))
        hi = lo + rng.uniform(0.0, 1.0, (2, S))
        hi[:, 0] = lo[:, 0]  # a box of zero width along both axes
        x_range = (lo[0][:, None], hi[0][:, None])
        y_range = (lo[1][:, None], hi[1][:, None])
        th = rng.uniform(0.0, 2.0 * math.pi, R)
        th[:4] = (0.0, math.pi / 2, math.pi, -math.pi / 2)
        c, s = np.cos(th), np.sin(th)
        x0 = 0.37
        ty = rng.uniform(-2.0, 2.0, R)

        def scalar(window, inner):
            pairs = [[box_hits_oracle(c[r], s[r], (lo[0, j], hi[0, j]), (lo[1, j], hi[1, j]),
                                      x0, ty[r], window, inner) for r in range(R)]
                     for j in range(S)]
            hits = np.array([[p[0] for p in row] for row in pairs])
            inside = np.array([[p[1] for p in row] for row in pairs])
            return hits, inside, [[p[2] for p in row] for row in pairs]

        # A window cut from the middle of the bounds, then, per edge, windows
        # open on every other side whose edge lies exactly on one pair's
        # bound (hits) or on another's (inside), so that the comparisons'
        # ties are checked.
        _, _, bounds = scalar((0.0,) * 4, (0.0,) * 4)
        bounds = np.array(bounds)  # (S, R, 4): x_lo, x_hi, y_lo, y_hi
        flat = bounds.reshape(-1, 4)
        windows = [(tuple(np.median(flat, axis=0)),
                    tuple(np.quantile(flat, [0.25, 0.75, 0.25, 0.75], axis=0).diagonal()))]
        wide = np.array([-1e9, 1e9, -1e9, 1e9])
        for e in range(4):
            (j, r), (k, q) = rng.integers(0, [S, R], (2, 2))
            window, inner = wide.copy(), wide.copy()
            window[e] = bounds[j, r, e ^ 1]  # the pair's far side touches the edge
            inner[e] = bounds[k, q, e]  # the pair's near side touches the edge
            windows.append((tuple(window), tuple(inner)))
        for window, inner in windows:
            hits_want, inside_want, _ = scalar(window, inner)
            hits, inside = engine._box_hits(c, s, x_range, y_range, x0, ty, window, inner)
            assert hits.shape == inside.shape == (S, R)
            assert np.array_equal(hits, hits_want)
            assert np.array_equal(inside, inside_want)
            assert hits.any() and inside.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_size_keeps_values(self, monkeypatch, seed):
        # Blocks of one row, of one row with a block size a point short of or
        # past a segment's width, and of many rows: heights equal the
        # reference's bit for bit, with the dominance cull off the path and
        # on it. At 1 worker the counts do not depend on the block size
        # either; at 3 they depend on how the workers' scatters interleave.
        cfg = small_random_config(seed)
        cfg = dataclasses.replace(cfg, edge_point_count=21,
                                  time_step_s=cfg.time_step_s * 21 / cfg.edge_point_count)
        plan = engine._plan(cfg)
        assert cfg.tool.radial_rake_rad != 0.0 and any(map(any, cfg.tool.runouts_mm))
        assert all(np.any(td.y_tool != 0.0) for td in plan.teeth)
        width = max(sl.stop - sl.start for sl in plan.teeth[0].segments)
        ref = simulate_reference(cfg).field.heights.view(np.int64)
        paths = set()
        scatter = engine._PointStage.scatter

        def spy(self, *args):
            paths.add(args[-1])
            return scatter(self, *args)

        monkeypatch.setattr(engine._PointStage, "scatter", spy)
        blocks = (1, width - 1, width + 1, engine._POINT_BLOCK)
        for ratio in (engine._REFRESH_RATIO, 0.0):
            monkeypatch.setattr(engine, "_REFRESH_RATIO", ratio)
            for workers in (1, 3):
                counts = set()
                for block in blocks:
                    monkeypatch.setattr(engine, "_POINT_BLOCK", block)
                    opt = simulate(dataclasses.replace(cfg, worker_count=workers))
                    assert np.array_equal(opt.field.heights.view(np.int64), ref)
                    counts.add((opt.evaluated_points, opt.in_grid_points))
                assert workers > 1 or len(counts) == 1, counts
        assert paths == {False, True}


class TestBenchmark:
    def test_single_size_report(self):
        report = run_benchmark(tiny_config(), [1], case_id="tiny")
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.speedup > 0
        assert row.trajectory_points > 0
        payload = report.to_json_dict()
        assert payload["case_id"] == "tiny"
        assert set(payload["rows"][0]) == {
            "scale", "trajectory_points", "t_reference_s", "t_optimized_s", "speedup",
        }
        assert "speedup" in report.to_text()

    @pytest.mark.parametrize("size", [0.0, math.nan, math.inf])
    def test_bad_size(self, size):
        with pytest.raises(ConfigError):
            run_benchmark(tiny_config(), [size])

    def test_scaling_doubles_points(self):
        report = run_benchmark(tiny_config(), [1, 2], case_id="x")
        a, b = report.rows
        assert b.trajectory_points == pytest.approx(2 * a.trajectory_points, rel=0.01)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigError):
            run_benchmark(tiny_config(), [])
