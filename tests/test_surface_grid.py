import math

import numpy as np
import pytest

from millsurf import DomainError, GridSpec, HeightField
from millsurf.surface_grid import locate, update_min


def make_spec(spacing=0.01, m=10, n=10, x_min=0.0, y_min=0.0):
    return GridSpec(spacing_mm=spacing, x_min_mm=x_min, y_min_mm=y_min, m=m, n=n)


class TestGridSpec:
    def test_from_extents_rounding(self):
        spec = GridSpec.from_extents(0.01, (0.0, 1.0), (0.0, 0.5))
        assert (spec.m, spec.n) == (100, 50)
        assert spec.x_max_mm == pytest.approx(1.0, abs=1e-12)
        assert spec.node_count == 101 * 51

    def test_from_extents_too_small(self):
        with pytest.raises(DomainError):
            GridSpec.from_extents(1.0, (0.0, 0.4), (0.0, 10.0))

    def test_from_extents_unbounded_cell_count(self):
        # finite and > 0, but 10 / 1e-310 overflows to inf
        with pytest.raises(DomainError, match=r"\(-5\.0, 5\.0\) x \(0\.0, 5\.0\) at spacing 1e-310"):
            GridSpec.from_extents(1e-310, (-5.0, 5.0), (0.0, 5.0))

    def test_bad_spacing(self):
        with pytest.raises(DomainError):
            make_spec(spacing=0.0)

    @pytest.mark.parametrize("axis", ["m", "n"])
    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_non_integer_cell_count(self, axis, count):
        # a float count would give a float node_count; True would be a 1-cell grid
        with pytest.raises(DomainError, match=f"cell count {axis} must be an integer"):
            make_spec(**{axis: count})

    def test_node_coords(self):
        spec = make_spec(spacing=0.5, m=2, n=3, x_min=-1.0, y_min=2.0)
        assert np.allclose(spec.x_coords(), [-1.0, -0.5, 0.0])
        assert np.allclose(spec.y_coords(), [2.0, 2.5, 3.0, 3.5])


class TestLocate:
    def test_interior_point(self):
        spec = make_spec()
        assert locate(0.012, 0.0, spec) == (1, 0)

    def test_origin_node(self):
        assert locate(0.0, 0.0, make_spec()) == (0, 0)

    def test_below_range(self):
        assert locate(-0.006, 0.0, make_spec()) is None

    def test_above_range(self):
        spec = make_spec(m=10)
        assert locate(10 * 0.01 + 0.0051, 0.0, spec) is None

    def test_boundary_goes_to_upper_cell(self):
        # a point exactly on a shared cell boundary belongs to the higher cell
        spec = make_spec(spacing=0.01)
        assert locate(0.005, 0.0, spec) == (1, 0)
        assert locate(0.015, 0.0, spec) == (2, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            locate(math.nan, 0.0, make_spec())
        with pytest.raises(DomainError):
            locate(0.0, math.inf, make_spec())

    def test_membership_agrees_with_index(self):
        # away from exact boundaries, the located cell is the one whose node is
        # within half a spacing of the point
        spec = make_spec(spacing=0.013, m=40, n=40, x_min=-0.1, y_min=-0.2)
        rng = np.random.default_rng(2)
        for _ in range(500):
            x = float(rng.uniform(-0.09, 0.4))
            y = float(rng.uniform(-0.19, 0.3))
            hit = locate(x, y, spec)
            if hit is None:
                continue
            i, j = hit
            assert abs(x - (spec.x_min_mm + i * spec.spacing_mm)) <= spec.spacing_mm / 2 + 1e-12
            assert abs(y - (spec.y_min_mm + j * spec.spacing_mm)) <= spec.spacing_mm / 2 + 1e-12


class TestUpdateMin:
    def test_first_cut(self):
        field = HeightField(make_spec(), 0.5)
        assert update_min(field, (3, 4), 0.1) is True
        assert field.as_array()[3, 4] == 0.1

    def test_higher_pass_leaves_no_mark(self):
        field = HeightField(make_spec(), 0.5)
        update_min(field, (3, 4), 0.1)
        assert update_min(field, (3, 4), 0.3) is False
        assert field.as_array()[3, 4] == 0.1

    def test_equal_height_is_not_a_write(self):
        field = HeightField(make_spec(), 0.5)
        update_min(field, (3, 4), 0.1)
        assert update_min(field, (3, 4), 0.1) is False

    def test_out_of_range_rejected(self):
        field = HeightField(make_spec(m=5, n=5), 0.5)
        with pytest.raises(DomainError):
            update_min(field, (6, 0), 0.1)
        with pytest.raises(DomainError):
            update_min(field, (0, -1), 0.1)

    def test_replay_order_insensitive(self):
        spec = make_spec(m=8, n=8)
        rng = np.random.default_rng(7)
        updates = [
            ((int(rng.integers(0, 9)), int(rng.integers(0, 9))), float(rng.uniform(0.0, 0.5)))
            for _ in range(400)
        ]
        fields = []
        for perm_seed in (0, 1, 2):
            order = np.random.default_rng(perm_seed).permutation(len(updates))
            field = HeightField(spec, 0.5)
            for k in order:
                update_min(field, *updates[k])
            fields.append(field)
        assert np.array_equal(fields[0].heights, fields[1].heights)
        assert np.array_equal(fields[0].heights, fields[2].heights)

    def test_heights_monotone_nonincreasing(self):
        field = HeightField(make_spec(m=4, n=4), 1.0)
        rng = np.random.default_rng(13)
        previous = field.heights.copy()
        for _ in range(200):
            update_min(field, (int(rng.integers(0, 5)), int(rng.integers(0, 5))),
                       float(rng.uniform(-0.2, 1.2)))
            assert np.all(field.heights <= previous)
            previous = field.heights.copy()


class TestHeightField:
    def test_buffer_shape_checked(self):
        with pytest.raises(DomainError):
            HeightField(make_spec(m=2, n=2), 1.0, heights=np.zeros(4))

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_height(self, height):
        # a NaN sentinel would read every cell as uncut and every metric as NaN
        with pytest.raises(DomainError, match="uncut sentinel height is .*, not finite"):
            HeightField(make_spec(m=2, n=2), height)

    def test_machined_cell_count(self):
        field = HeightField(make_spec(m=2, n=2), 1.0)
        assert field.machined_cell_count() == 0
        update_min(field, (0, 1), 0.5)
        update_min(field, (2, 2), -0.1)
        assert field.machined_cell_count() == 2

