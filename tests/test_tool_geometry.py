import math

import numpy as np
import pytest

from millsurf import (
    DomainError,
    GridSpec,
    SimulationConfig,
    ToolDefinition,
    derive_kinematics,
    effective_half_length,
)
from millsurf import engine

# direct evaluation of the edge-arc relation at l = 2.5, R = 5
Z_AT_2_5 = 5.0 - math.sqrt(25.0 - 6.25)  # 0.6698729810778064


def make_tool(**kw):
    defaults = dict(cutting_diameter_mm=10.0, insert_radius_mm=5.0, tooth_count=2)
    defaults.update(kw)
    return ToolDefinition(**defaults)


def edge_samples(point_count, depth=0.5, feed=0.6, **tool_kw):
    """Engaged half-length and the arc samples (x, z) that the engine's plan
    takes for a case1-like job with ``point_count`` edge points."""
    tool = make_tool(**tool_kw)
    process = derive_kinematics(tool, depth_of_cut_mm=depth, cutting_speed_m_min=170.0,
                                feed_per_tooth_mm=feed, initial_position_mm=(0.0, None, 0.0))
    grid = GridSpec.from_extents(0.05, (-0.5, 0.5), (0.0, 0.5))
    plan = engine._plan(SimulationConfig(tool=tool, process=process, grid=grid,
                                         edge_point_count=point_count, time_step_s=2e-4))
    return effective_half_length(tool, depth, feed), plan.edge_x, plan.edge_z


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


class TestEffectiveHalfLength:
    def test_depth_branch_dominates(self):
        half = effective_half_length(make_tool(radial_rake_rad=math.radians(0.6)), 0.5, 0.6)
        assert half == pytest.approx(math.sqrt(25.0 - 20.25), abs=1e-12)
        assert half == pytest.approx(2.17945, abs=1e-5)

    def test_full_immersion(self):
        assert effective_half_length(make_tool(), 5.0, 0.1) == pytest.approx(5.0, abs=1e-12)

    def test_feed_branch_dominates(self):
        assert effective_half_length(make_tool(), 1e-6, 0.6) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("depth", [0.0, -0.1, 5.1])
    def test_depth_domain(self, depth):
        with pytest.raises(DomainError):
            effective_half_length(make_tool(), depth, 0.6)

    def test_bad_feed(self):
        with pytest.raises(DomainError):
            effective_half_length(make_tool(), 0.5, 0.0)

    def test_monotone_in_depth_and_feed(self):
        tool = make_tool()
        depths = np.linspace(0.05, 5.0, 40)
        halves = [effective_half_length(tool, float(a), 0.01) for a in depths]
        assert all(b >= a for a, b in zip(halves, halves[1:]))
        feeds = np.linspace(0.05, 2.0, 40)
        halves = [effective_half_length(tool, 0.01, float(f)) for f in feeds]
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
