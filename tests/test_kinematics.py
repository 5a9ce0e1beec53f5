import math

import numpy as np
import pytest

from millsurf import (
    ConfigError,
    DomainError,
    GridSpec,
    ProcessParameters,
    SimulationConfig,
    ToolDefinition,
    derive_kinematics,
)
from millsurf import engine
from millsurf.kinematics import (
    _apply4,
    _edge_to_tool_rows,
    _matmul4,
    _spindle_to_workpiece_rows,
    _tool_to_spindle_rows,
)

from helpers import case1_tool, case1_process, make_tool

EDGE_ORIGIN = (0.0, 0.0, 0.0)  # lowest point of the edge arc
FOUR_TOOTH_50MM = ToolDefinition(cutting_diameter_mm=50.0, insert_radius_mm=6.0, tooth_count=4)


def chain(tool, params, tooth, t, point):
    """Map an edge-frame point to workpiece coordinates as simulate_reference does:
    edge->tool first, then the spindle->workpiece . tool->spindle product."""
    x0, y0, z0 = params.initial_position_mm
    ct = _edge_to_tool_rows(tool, tooth)
    ts = _tool_to_spindle_rows(params.phase_rad, tooth, tool.tooth_count,
                               params.angular_velocity_rad_s, t)
    sw = _spindle_to_workpiece_rows(x0, y0, z0, params.feed_speed_mm_s(tool), t)
    return _apply4(_matmul4(sw, ts), *_apply4(ct, *point))


def edge_points(tool):
    """Edge-frame (x, y, z) samples of a case1 plan's engaged arc, |l| <= 2.18 mm."""
    grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.5))
    plan = engine._plan(SimulationConfig(tool=tool, process=case1_process(), grid=grid,
                                         edge_point_count=41))
    return [(x, 0.0, z) for x, z in zip(plan.edge_x.tolist(), plan.edge_z.tolist())]


def chain_oracle(tool, params, tooth, t, point):
    """Independently coded matrix-product chain for cross-checking chain()."""
    gf, gp = tool.radial_rake_rad, tool.axial_rake_rad
    eps_r, eps_a = tool.runouts_mm[tooth - 1]
    edge_to_tool = np.array([
        [math.cos(gf), math.sin(gf) * math.cos(gp), math.sin(gf) * math.sin(gp),
         tool.cutting_diameter_mm / 2 + (tooth - 1) * eps_r],
        [-math.sin(gf), math.cos(gf) * math.cos(gp), math.cos(gf) * math.sin(gp), 0.0],
        [0.0, -math.sin(gp), math.cos(gp), (tooth - 1) * eps_a],
        [0.0, 0.0, 0.0, 1.0],
    ])
    th = (params.phase_rad + 2.0 * math.pi * (tooth - 1) / tool.tooth_count
          - params.angular_velocity_rad_s * t)
    tool_to_spindle = np.array([
        [math.cos(th), math.sin(th), 0.0, 0.0],
        [-math.sin(th), math.cos(th), 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    x0, y0, z0 = params.initial_position_mm
    spindle_to_work = np.array([
        [1.0, 0.0, 0.0, x0],
        [0.0, 1.0, 0.0, y0 + params.feed_speed_mm_s(tool) * t],
        [0.0, 0.0, 1.0, z0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    vec = spindle_to_work @ tool_to_spindle @ edge_to_tool @ np.array([*point, 1.0])
    return vec[:3]


class TestEdgeToTool:
    def test_zero_rake_first_tooth(self):
        m = np.array(_edge_to_tool_rows(case1_tool(), 1))
        assert np.array_equal(m[:3, :3], np.eye(3))
        assert np.array_equal(m[:, 3], [5.0, 0.0, 0.0, 1.0])

    def test_small_radial_rake_entries(self):
        tool = case1_tool(radial_rake_rad=math.radians(0.6))
        m = _edge_to_tool_rows(tool, 1)
        assert m[0][0] == pytest.approx(0.9999452, abs=1e-7)
        assert m[0][1] == pytest.approx(0.0104717, abs=1e-7)
        assert m[0][3] == 5.0

    def test_second_tooth_runout_translation(self):
        tool = case1_tool(runouts=((0.0, 0.0), (0.011, 0.003)))
        m = _edge_to_tool_rows(tool, 2)
        assert m[0][3] == pytest.approx(5.011, abs=1e-12)
        assert m[1][3] == 0.0
        assert m[2][3] == pytest.approx(0.003, abs=1e-12)


class TestToolToSpindle:
    def test_identity_at_zero_angle(self):
        m = np.array(_tool_to_spindle_rows(0.0, 1, 2, 100.0, 0.0))
        assert np.array_equal(m, np.eye(4))

    def test_half_turn_for_opposite_tooth(self):
        m = np.array(_tool_to_spindle_rows(0.0, 2, 2, 100.0, 0.0))
        assert np.allclose(np.diag(m), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)
        assert abs(m[0, 1]) < 1e-12

    def test_phase_cancels_rotation(self):
        omega = 566.6666666666666
        t = (math.pi / 2) / omega
        m = np.array(_tool_to_spindle_rows(math.pi / 2, 1, 2, omega, t))
        assert np.allclose(m, np.eye(4), atol=1e-12)


class TestSpindleToWorkpiece:
    def test_identity_at_origin(self):
        assert np.array_equal(np.array(_spindle_to_workpiece_rows(0, 0, 0, 1.0, 0.0)), np.eye(4))

    def test_feed_translation(self):
        proc = case1_process()
        m = _spindle_to_workpiece_rows(0.0, -10.0, 0.0, proc.feed_speed_mm_s(case1_tool()), 0.1)
        assert m[1][3] == pytest.approx(0.8225, abs=1e-4)

    def test_pure_translation(self):
        m = np.array(_spindle_to_workpiece_rows(3.0, 1.0, 0.5, 2.0, 2.0))
        assert np.array_equal(m[:3, :3], np.eye(3))
        assert np.array_equal(m[:3, 3], [3.0, 5.0, 0.5])


class TestTransformPoint:
    def test_all_zero_is_edge_to_tool_translation(self):
        tool = case1_tool()
        proc = case1_process(x0=1.5, y0=-2.0)
        x, y, z = chain(tool, proc, 1, 0.0, EDGE_ORIGIN)
        assert x == pytest.approx(1.5 + 5.0, abs=1e-12)
        assert y == pytest.approx(-2.0, abs=1e-12)
        assert z == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_chain_oracle(self):
        tool = ToolDefinition(
            cutting_diameter_mm=10.0,
            insert_radius_mm=5.0,
            tooth_count=2,
            radial_rake_rad=math.radians(0.6),
            axial_rake_rad=math.radians(0.0),
            runouts_mm=((0.0, 0.0), (0.011, 0.003)),
        )
        proc = case1_process(x0=0.3, y0=-4.0)
        points = edge_points(tool)
        rng = np.random.default_rng(5)
        for _ in range(50):
            tooth = int(rng.integers(1, 3))
            t = float(rng.uniform(0.0, 0.01))
            p = points[int(rng.integers(len(points)))]
            got = chain(tool, proc, tooth, t, p)
            want = chain_oracle(tool, proc, tooth, t, p)
            assert np.all(np.abs(np.subtract(got, want)) < 1e-12)

    def test_opposite_teeth_related_by_half_turn(self):
        tool = case1_tool()
        proc = case1_process(x0=0.0, y0=-3.0)
        t = 0.0123
        center_y = -3.0 + proc.feed_speed_mm_s(tool) * t
        p = edge_points(tool)[33]
        a = chain(tool, proc, 1, t, p)
        b = chain(tool, proc, 2, t, p)
        assert -(a[0] - 0.0) == pytest.approx(b[0] - 0.0, abs=1e-9)
        assert -(a[1] - center_y) == pytest.approx(b[1] - center_y, abs=1e-9)
        assert a[2] == pytest.approx(b[2], abs=1e-12)

    def test_tooth_shift_time_shift_equivalence(self):
        # identical teeth: advancing one tooth index equals advancing one tooth
        # period in time minus the feed advance over that period
        tool = case1_tool()
        proc = case1_process(y0=-5.0)
        period = 2.0 * math.pi / (proc.angular_velocity_rad_s * tool.tooth_count)
        shift = proc.feed_speed_mm_s(tool) * period
        points = edge_points(tool)
        rng = np.random.default_rng(9)
        for _ in range(25):
            t = float(rng.uniform(0.0, 0.02))
            p = points[int(rng.integers(len(points)))]
            a = chain(tool, proc, 1, t, p)
            b = chain(tool, proc, 2, t + period, p)
            assert a[0] == pytest.approx(b[0], abs=1e-9)
            assert a[1] + shift == pytest.approx(b[1], abs=1e-9)
            assert a[2] == pytest.approx(b[2], abs=1e-9)

    def test_lowest_point_height_invariant(self):
        # zero axial rake, zero axial run-out: the lowest edge point stays at
        # the tool reference height for any phase and time
        tool = case1_tool(radial_rake_rad=math.radians(1.0))
        rng = np.random.default_rng(11)
        for _ in range(20):
            proc = derive_kinematics(
                tool, depth_of_cut_mm=0.5,
                cutting_speed_m_min=170.0, feed_per_tooth_mm=0.6,
                phase_rad=float(rng.uniform(0, 6.28)),
                initial_position_mm=(0.0, -1.0, 0.25),
            )
            _, _, z = chain(tool, proc, 1, float(rng.uniform(0, 0.05)), EDGE_ORIGIN)
            assert z == pytest.approx(0.25, abs=1e-12)

    def test_composition_order_guard(self):
        tool = case1_tool(radial_rake_rad=0.02, axial_rake_rad=0.01,
                          runouts=((0.0, 0.0), (0.01, 0.005)))
        proc = case1_process(x0=0.7, y0=-2.0)
        ct = _edge_to_tool_rows(tool, 2)
        ts = _tool_to_spindle_rows(proc.phase_rad, 2, 2, proc.angular_velocity_rad_s, 0.004)
        sw = _spindle_to_workpiece_rows(0.7, -2.0, 0.0, proc.feed_speed_mm_s(tool), 0.004)
        point = (1.3, 0.0, 0.17)
        correct = chain(tool, proc, 2, 0.004, point)
        assert correct == _apply4(_matmul4(sw, ts), *_apply4(ct, *point))
        swapped = _apply4(_matmul4(_matmul4(sw, ct), ts), *point)
        reversed_ = _apply4(_matmul4(_matmul4(ct, ts), sw), *point)
        assert not np.allclose(correct, swapped, atol=1e-6)
        assert not np.allclose(correct, reversed_, atol=1e-6)


class TestTransformInvariants:
    def test_rotation_blocks_orthonormal(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            tool = ToolDefinition(
                cutting_diameter_mm=10.0, insert_radius_mm=5.0, tooth_count=3,
                radial_rake_rad=float(rng.uniform(-0.5, 0.5)),
                axial_rake_rad=float(rng.uniform(-0.5, 0.5)),
            )
            mats = [
                _edge_to_tool_rows(tool, int(rng.integers(1, 4))),
                _tool_to_spindle_rows(float(rng.uniform(0, 7)), 1, 3,
                                      float(rng.uniform(1, 1000)), float(rng.uniform(0, 1))),
                _spindle_to_workpiece_rows(1.0, 2.0, 3.0, 10.0, float(rng.uniform(0, 1))),
            ]
            mats.append(_matmul4(_matmul4(mats[2], mats[1]), mats[0]))
            for m in map(np.array, mats):
                rot = m[:3, :3]
                assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-12)
                assert np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0])


class TestToolDefinition:
    def test_runout_defaults_to_zero_pairs(self):
        tool = make_tool(tooth_count=3)
        assert tool.runouts_mm == ((0.0, 0.0),) * 3

    def test_runout_length_mismatch(self):
        with pytest.raises(DomainError):
            make_tool(runouts_mm=((0.0, 0.0),))

    def test_runout_magnitude_bound(self):
        with pytest.raises(DomainError):
            make_tool(runouts_mm=((0.0, 0.0), (5.0, 0.0)))

    @pytest.mark.parametrize("pair", [(math.nan, 0.0), (0.0, math.nan), (-math.inf, 0.0)])
    def test_non_finite_runout(self, pair):
        with pytest.raises(DomainError):
            make_tool(runouts_mm=((0.0, 0.0), pair))

    @pytest.mark.parametrize("kw", [
        dict(cutting_diameter_mm=0.0),
        dict(insert_radius_mm=-1.0),
        dict(tooth_count=0),
        dict(cutting_diameter_mm=math.nan),
        dict(cutting_diameter_mm=math.inf),
        dict(insert_radius_mm=math.nan),
        dict(insert_radius_mm=math.inf),
        dict(radial_rake_rad=math.nan),
        dict(radial_rake_rad=-math.inf),
        dict(axial_rake_rad=math.nan),
        dict(axial_rake_rad=math.inf),
        dict(radial_rake_rad=math.pi / 2),
        dict(radial_rake_rad=-2.0),
        dict(axial_rake_rad=2.0),
        dict(axial_rake_rad=-math.pi / 2),
        dict(tooth_count=2.5),
        dict(tooth_count=2.0),
        dict(tooth_count=True),
    ])
    def test_basic_bounds(self, kw):
        with pytest.raises(DomainError):
            make_tool(**kw)


class TestProcessParameters:
    @pytest.mark.parametrize("kw", [
        dict(spindle_speed_rpm=math.nan),
        dict(spindle_speed_rpm=math.inf),
        dict(spindle_speed_rpm=0.0),
        dict(spindle_speed_rpm=5e-324),  # its angular velocity rounds to zero
        dict(feed_per_tooth_mm=math.nan),
        dict(feed_per_tooth_mm=-math.inf),
        dict(depth_of_cut_mm=math.nan),
        dict(depth_of_cut_mm=math.inf),
        dict(phase_rad=math.nan),
        dict(phase_rad=math.inf),
        dict(initial_position_mm=(math.nan, None, 0.0)),
        dict(initial_position_mm=(0.0, math.inf, 0.0)),
        dict(initial_position_mm=(0.0, -3.0, math.nan)),
        dict(initial_position_mm=(0.0, None, -math.inf)),
        dict(initial_position_mm=(None, None, 0.0)),
        dict(initial_position_mm=(0.0, None, None)),
        dict(feed_per_tooth_mm=0.0),
        dict(feed_per_tooth_mm=-0.6),
        dict(depth_of_cut_mm=0.0),
        dict(depth_of_cut_mm=-0.1),
    ])
    def test_non_finite_rejected(self, kw):
        fields = dict(spindle_speed_rpm=5411.3, feed_per_tooth_mm=0.6, depth_of_cut_mm=0.5)
        ProcessParameters(**fields)
        with pytest.raises(DomainError):
            ProcessParameters(**{**fields, **kw})


class TestDeriveKinematics:
    def test_case1_closed_form(self):
        proc = case1_process()
        rpm = proc.spindle_speed_rpm
        assert rpm == pytest.approx(5411.27, abs=5e-3)
        assert proc.angular_velocity_rad_s == pytest.approx(566.667, abs=5e-4)
        assert proc.feed_speed_mm_s(case1_tool()) == pytest.approx(108.225, abs=5e-4)
        # closed-form cross-checks
        assert rpm == pytest.approx(1000 * 170 / (math.pi * 10), rel=1e-12)
        assert proc.angular_velocity_rad_s == pytest.approx(2 * math.pi * rpm / 60, rel=1e-15)
        assert proc.feed_speed_mm_s(case1_tool()) == pytest.approx(0.6 * 2 * rpm / 60, rel=1e-12)

    def test_consistent_speed_pair_equals_rpm_only(self):
        common = dict(tool=case1_tool(), depth_of_cut_mm=0.5, feed_per_tooth_mm=0.6)
        rpm = 1000 * 170 / (math.pi * 10)
        both = derive_kinematics(cutting_speed_m_min=170.0, spindle_speed_rpm=rpm, **common)
        assert both == derive_kinematics(spindle_speed_rpm=rpm, **common)

    def test_consistent_feed_pair_equals_feed_per_tooth_only(self):
        common = dict(tool=FOUR_TOOTH_50MM, depth_of_cut_mm=2.5, spindle_speed_rpm=995.0)
        both = derive_kinematics(feed_per_tooth_mm=0.125, feed_speed_mm_min=497.5, **common)
        assert both == derive_kinematics(feed_per_tooth_mm=0.125, **common)

    def test_feed_speed_route(self):
        proc = derive_kinematics(
            FOUR_TOOTH_50MM, depth_of_cut_mm=2.5,
            spindle_speed_rpm=995.0, feed_speed_mm_min=125.0,
        )
        assert proc.feed_speed_mm_s(FOUR_TOOTH_50MM) == pytest.approx(2.0833, abs=5e-4)
        assert proc.feed_per_tooth_mm == pytest.approx(125.0 / (4 * 995.0), rel=1e-12)

    def test_unit_case(self):
        tool = ToolDefinition(cutting_diameter_mm=10.0, insert_radius_mm=5.0, tooth_count=1)
        proc = derive_kinematics(tool, depth_of_cut_mm=0.5,
                                 spindle_speed_rpm=60.0, feed_per_tooth_mm=1.0)
        assert proc.angular_velocity_rad_s == pytest.approx(2 * math.pi, rel=1e-15)
        assert proc.feed_speed_mm_s(tool) == pytest.approx(1.0, rel=1e-15)

    def test_exclusive_speed_inputs(self):
        with pytest.raises(ConfigError):
            derive_kinematics(case1_tool(), depth_of_cut_mm=0.5,
                              cutting_speed_m_min=170.0, spindle_speed_rpm=5000.0,
                              feed_per_tooth_mm=0.6)
        with pytest.raises(ConfigError):
            derive_kinematics(case1_tool(), depth_of_cut_mm=0.5,
                              feed_per_tooth_mm=0.6)

    def test_exclusive_feed_inputs(self):
        with pytest.raises(ConfigError):
            derive_kinematics(case1_tool(), depth_of_cut_mm=0.5,
                              cutting_speed_m_min=170.0, feed_per_tooth_mm=0.6,
                              feed_speed_mm_min=125.0)

    def test_positivity(self):
        for value in (-5.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="cutting_speed_m_min"):
                derive_kinematics(case1_tool(), depth_of_cut_mm=0.5,
                                  cutting_speed_m_min=value, feed_per_tooth_mm=0.6)
