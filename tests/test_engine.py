import dataclasses
import math

import numpy as np
import pytest

from millsurf import (
    ConfigError,
    GridSpec,
    SimulationConfig,
    run_benchmark,
    simulate,
    simulate_reference,
    time_step,
)

from helpers import case1_tool, case1_process, small_random_config, wide_cutter_config


def tiny_config(**overrides):
    tool = case1_tool()
    process = case1_process(x0=0.0)
    grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.5))
    defaults = dict(tool=tool, process=process, grid=grid, edge_point_count=7,
                    time_step_s=2e-4, record_trajectory=True, worker_count=1)
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


class TestSimulate:
    def test_no_engagement_leaves_stock_uncut(self):
        cfg = tiny_config()
        proc = case1_process(x0=10.0 * (cfg.grid.x_max_mm + 10.0))
        cfg = dataclasses.replace(cfg, process=proc)
        result = simulate(cfg)
        assert result.cells_updated == 0
        assert np.all(result.field.heights == cfg.process.depth_of_cut_mm)
        assert result.trajectory_points == result.time_steps * 2 * 7

    def test_counters(self):
        result = simulate(tiny_config())
        assert result.trajectory_points == result.time_steps * 2 * 7
        assert len(result.trajectory) == result.time_steps * 2
        assert result.cells_updated == result.field.machined_cell_count()
        assert result.cells_updated > 0

    def test_trajectory_sorted_by_time_then_tooth(self):
        rec = simulate(tiny_config()).trajectory
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
        half = effective_half_length(5.0, 0.5, 0.6)
        angle = grid.spacing_mm / (5.0 + half)
        cfg = tiny_config(grid=grid, edge_point_count=None, time_step_s=None,
                          max_step_angle_rad=angle)
        result = simulate(cfg)
        assert result.field.machined_mask().all()

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
            assert base.trajectory.equals(other.trajectory)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            simulate(tiny_config(worker_count=0))

    def test_explicit_span_needs_y0(self):
        cfg = tiny_config(span_s=(0.0, 0.01))
        with pytest.raises(ConfigError):
            simulate(cfg)

    def test_bad_span(self):
        cfg = tiny_config(process=case1_process(y0=-3.0), span_s=(0.02, 0.01))
        with pytest.raises(ConfigError):
            simulate(cfg)


def assert_kernels_agree(opt, ref):
    assert np.array_equal(opt.field.heights, ref.field.heights)
    if ref.trajectory is None:
        assert opt.trajectory is None
    else:
        assert opt.trajectory.equals(ref.trajectory)
    assert opt.time_steps == ref.time_steps
    assert opt.trajectory_points == ref.trajectory_points
    assert opt.cells_updated == ref.cells_updated
    # Equal heights can hide a culled in-grid point that was not the minimum.
    assert opt.in_grid_points == ref.in_grid_points
    assert ref.evaluated_points == ref.trajectory_points
    assert opt.in_grid_points <= opt.evaluated_points <= opt.trajectory_points


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fields_and_trajectories_identical(self, seed):
        cfg = small_random_config(seed)
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fields_identical_without_trajectory(self, seed):
        # Without a trajectory the vectorized kernel skips the trig of culled
        # steps, a path the recording configs above never take.
        cfg = dataclasses.replace(small_random_config(seed), record_trajectory=False)
        assert_kernels_agree(simulate(cfg), simulate_reference(cfg))

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_cutter_culls_and_agrees(self, seed, record):
        cfg = dataclasses.replace(wide_cutter_config(seed), record_trajectory=record)
        ref = simulate_reference(cfg)
        assert ref.in_grid_points > 0
        for workers in (1, 2):
            opt = simulate(dataclasses.replace(cfg, worker_count=workers))
            assert opt.evaluated_points < opt.trajectory_points
            assert_kernels_agree(opt, ref)


class TestBenchmark:
    def test_single_size_report(self):
        report = run_benchmark(tiny_config(record_trajectory=False), [1], case_id="tiny")
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

    def test_scaling_doubles_points(self):
        report = run_benchmark(tiny_config(record_trajectory=False), [1, 2], case_id="x")
        a, b = report.rows
        assert b.trajectory_points == pytest.approx(2 * a.trajectory_points, rel=0.01)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigError):
            run_benchmark(tiny_config(), [])
