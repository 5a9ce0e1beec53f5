import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from millsurf import (
    ConfigError,
    GridSpec,
    HeightField,
    ProcessParameters,
    SimulationConfig,
    ToolDefinition,
    derive_kinematics,
    run_benchmark,
    simulate,
    simulate_reference,
    time_step,
    trajectory,
)
from millsurf import engine

from helpers import case1_tool, case1_process, concat, small_random_config, wide_cutter_config


def tiny_config(**overrides):
    tool = case1_tool()
    process = case1_process(x0=0.0)
    grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.5))
    defaults = dict(tool=tool, process=process, grid=grid, edge_point_count=7,
                    time_step_s=2e-4, worker_count=1)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestTimeStep:
    def test_angle_guard_value(self):
        cfg = tiny_config(time_step_s=None)
        dt = time_step(cfg)
        assert dt == pytest.approx(1.5400e-5, rel=1e-4)
        assert dt == math.radians(0.5) / cfg.process.angular_velocity_rad_s

    def test_explicit_passthrough(self):
        assert time_step(tiny_config(time_step_s=1e-5)) == 1e-5

    def test_feed_guard_wins_at_high_feed(self):
        cfg = tiny_config(time_step_s=None, max_step_angle_rad=math.radians(45.0))
        assert time_step(cfg) == cfg.grid.spacing_mm / cfg.process.feed_speed_mm_s

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
        # Every step is culled, yet the trajectory covers all of them.
        assert result.evaluated_points == 0
        assert_kernels_agree(result, simulate_reference(cfg))
        assert_trajectory_agrees(cfg)

    def test_counters(self):
        result = simulate(tiny_config())
        assert result.trajectory_points == result.time_steps * 2 * 7
        assert len(concat(trajectory(tiny_config()))) == result.time_steps * 2
        assert result.cells_updated == result.field.machined_cell_count()
        assert result.cells_updated > 0

    def test_trajectory_sorted_by_time_then_tooth(self):
        rec = concat(trajectory(tiny_config()))
        t = rec.t_s[: len(rec)]
        tooth = rec.tooth[: len(rec)]
        assert np.all(np.diff(t) >= 0)
        steps = len(rec) // 2
        assert np.array_equal(tooth.reshape(steps, 2), np.tile([1, 2], (steps, 1)))

    def test_auto_span_machines_grid_inside_swath(self):
        # narrow grid well inside the cutter swath, with the step angle tight
        # enough that every crossed cell column receives a sample: every cell
        # must then be cut
        from millsurf import effective_half_length

        grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.3))
        half = effective_half_length(case1_tool(), 0.5, 0.6)
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
# case1's cutter with twice the teeth. A process derived for it at 0.6 mm per
# tooth would cut 1.2 mm per tooth on case1's two teeth, and a case1 process
# 0.3 mm per tooth on these four.
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
    pytest.param(dict(process=derive_kinematics(_FOUR_TEETH, depth_of_cut_mm=0.5,
                                                cutting_speed_m_min=170.0,
                                                feed_per_tooth_mm=0.6)),
                 id="process-for-another-tool"),
    pytest.param(dict(process=ProcessParameters(angular_velocity_rad_s=_Y0.angular_velocity_rad_s,
                                                feed_speed_mm_s=2.0 * _Y0.feed_speed_mm_s,
                                                feed_per_tooth_mm=0.6, depth_of_cut_mm=0.5)),
                 id="hand-built-process"),
    pytest.param(dict(tool=_FOUR_TEETH), id="tool-replaced"),
])
def test_config_rejected_at_construction(overrides):
    with pytest.raises(ConfigError):
        tiny_config(**overrides)
    valid = tiny_config()
    with pytest.raises(ConfigError):
        dataclasses.replace(valid, **overrides)


def test_hand_built_process_for_the_tool_accepted():
    rpm = 5000.0
    process = ProcessParameters(angular_velocity_rad_s=2.0 * math.pi * rpm / 60.0,
                                feed_speed_mm_s=0.6 * 2 * rpm / 60.0,
                                feed_per_tooth_mm=0.6, depth_of_cut_mm=0.5)
    assert tiny_config(process=process).process is process


def assert_trajectory_agrees(cfg):
    assert concat(trajectory(cfg)).equals(engine.trajectory_reference(cfg))


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
        assert_trajectory_agrees(cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_nonzero_z0_identical(self, seed):
        # z0 enters the sweep as zt + z0 and the reference through the
        # spindle->workpiece translation; both must add it last.
        cfg = small_random_config(seed, random_z0=True)
        assert cfg.process.initial_position_mm[2] != 0.0
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))
        assert_trajectory_agrees(cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_far_from_origin_identical(self, seed):
        # 2**44 mm from the origin a float64 coordinate resolves only 2**-8 mm,
        # 8 to 20% of a cell, so adding x0 or y(t) in another order than the
        # reference moves points across cell edges.
        cfg = far_from_origin(small_random_config(seed))
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))
        assert_trajectory_agrees(cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_cutter_culls_and_agrees(self, seed):
        cfg = wide_cutter_config(seed)
        assert_trajectory_agrees(cfg)
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
        # and the trajectory stream (with a stride of 2 and chunks of 5 steps,
        # some chunks start between an anchor and the step after it).
        monkeypatch.setattr(engine, "_STEP_CHUNK", 5)
        monkeypatch.setattr(engine, "_POINT_BLOCK", 16)
        monkeypatch.setattr(engine, "_EDGE_SEGMENTS", 3)
        monkeypatch.setattr(engine, "_COARSE_STRIDE", 2)
        for cfg in (small_random_config(0), wide_cutter_config(0)):
            assert_trajectory_agrees(cfg)
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
        stages = [engine._PointStage(plan, HeightField(grid, 1.0, values))
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


class TestTrajectory:
    def test_memory_bounded_by_chunks(self, monkeypatch):
        # Consumed record by record, the stream holds a few chunks of steps at
        # a time, not the whole run's trajectory.
        monkeypatch.setattr(engine, "_STEP_CHUNK", 256)
        cfg = tiny_config(time_step_s=2e-6)
        whole = rows = 0
        tracemalloc.start()
        try:
            for record in trajectory(cfg):
                rows += len(record)
                whole += sum(getattr(record, f.name).nbytes
                             for f in dataclasses.fields(record))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 2 * simulate(cfg).time_steps > 200 * engine._STEP_CHUNK
        assert 8 * peak < whole


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
