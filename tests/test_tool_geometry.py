import math

import numpy as np
import pytest

from millsurf import (
    DomainError,
    ToolDefinition,
    discretize_edge,
    effective_half_length,
)
from millsurf.tool_geometry import default_point_count

# direct evaluation of the edge-arc relation at l = 2.5, R = 5
Z_AT_2_5 = 5.0 - math.sqrt(25.0 - 6.25)  # 0.6698729810778064


def make_tool(**kw):
    defaults = dict(cutting_diameter_mm=10.0, insert_radius_mm=5.0, tooth_count=2)
    defaults.update(kw)
    return ToolDefinition(**defaults)


class TestEdgePoint:
    # depth of cut = R engages the whole arc: half_length == R, so the samples
    # land exactly on l = -R, ..., 0, ..., R

    def test_lowest_point(self):
        edge = discretize_edge(make_tool(), 5.0, 0.1, 3)
        assert tuple(edge.points[1]) == (0.0, 0.0, 0.0, 1.0)

    def test_full_radius(self):
        edge = discretize_edge(make_tool(), 5.0, 0.1, 3)
        assert tuple(edge.points[-1]) == (5.0, 0.0, 5.0, 1.0)

    def test_mid_arc(self):
        edge = discretize_edge(make_tool(), 5.0, 0.1, 5)
        assert edge.x[3] == 2.5
        assert edge.y[3] == 0.0
        assert edge.z[3] == pytest.approx(0.669873, abs=1e-6)
        assert edge.z[3] == pytest.approx(Z_AT_2_5, abs=1e-15)

    def test_defining_relation(self):
        r = 4.0
        edge = discretize_edge(make_tool(insert_radius_mm=r), r, 0.1, 23)
        assert edge.half_length_mm == r
        assert np.allclose(edge.x, np.linspace(-r, r, 23), atol=1e-12)
        for l, z in zip(edge.x, edge.z):
            assert abs(z - (r - math.sqrt(r * r - l * l))) < 1e-12


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
    def test_three_point_case(self):
        edge = discretize_edge(make_tool(radial_rake_rad=math.radians(0.6)), 0.5, 0.6, 3)
        half = edge.half_length_mm
        assert half == pytest.approx(2.17945, abs=1e-5)
        assert list(edge.x) == [-half, 0.0, half]

    def test_two_points_are_endpoints(self):
        edge = discretize_edge(make_tool(), 0.3, 0.2, 2)
        assert edge.x[0] == -edge.half_length_mm
        assert edge.x[1] == edge.half_length_mm

    def test_full_immersion_five_points(self):
        edge = discretize_edge(make_tool(), 5.0, 0.1, 5)
        assert np.allclose(edge.x, [-5.0, -2.5, 0.0, 2.5, 5.0], atol=1e-12)
        assert np.allclose(edge.z, [5.0, Z_AT_2_5, 0.0, Z_AT_2_5, 5.0], atol=1e-12)

    def test_uniform_spacing(self):
        edge = discretize_edge(make_tool(), 0.5, 0.6, 11)
        assert np.allclose(np.diff(edge.x), np.diff(edge.x)[0], atol=1e-12)

    def test_z_range_and_symmetry(self):
        edge = discretize_edge(make_tool(), 1.3, 0.45, 37)
        assert np.all(edge.z >= 0.0)
        assert np.all(edge.z <= 5.0)
        assert np.allclose(edge.z, edge.z[::-1], atol=1e-12)

    def test_pure_function(self):
        a = discretize_edge(make_tool(), 0.5, 0.6, 21)
        b = discretize_edge(make_tool(), 0.5, 0.6, 21)
        assert np.array_equal(a.points, b.points)

    def test_bad_point_count(self):
        with pytest.raises(DomainError):
            discretize_edge(make_tool(), 0.5, 0.6, 1)

    def test_feed_half_length_beyond_radius(self):
        with pytest.raises(DomainError):
            discretize_edge(make_tool(), 0.5, 11.0, 5)

    def test_contiguous_homogeneous_buffer(self):
        edge = discretize_edge(make_tool(), 0.5, 0.6, 9)
        assert edge.points.flags["C_CONTIGUOUS"]
        assert edge.points.shape == (9, 4)
        assert np.all(edge.points[:, 3] == 1.0)
        assert np.all(edge.points[:, 1] == 0.0)


class TestDefaultPointCount:
    def test_half_cell_rule(self):
        half, spacing = 2.179449471770337, 0.01
        n = default_point_count(half, spacing)
        assert 2.0 * half / (n - 1) <= spacing / 2.0
        assert 2.0 * half / (n - 2) > spacing / 2.0  # minimal

    def test_floor_of_two(self):
        assert default_point_count(1e-9, 10.0) == 2


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
