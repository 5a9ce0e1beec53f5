import math

import numpy as np
import pytest

from millsurf import DomainError, GridSpec, HeightField


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

    @pytest.mark.parametrize("field, pattern", [
        ("spacing", "grid spacing must be a finite number"),
        ("x_min", "grid origin must be two finite numbers"),
        ("y_min", "grid origin must be two finite numbers"),
    ], ids=["spacing", "x_min", "y_min"])
    def test_bool_rejected(self, field, pattern):
        # comparisons would read True as 1.0
        with pytest.raises(DomainError, match=pattern):
            make_spec(**{field: True})

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


class TestHeightField:
    def test_buffer_shape_checked(self):
        with pytest.raises(DomainError):
            HeightField(make_spec(m=2, n=2), 1.0, heights=np.zeros(4))

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_height(self, height):
        # a NaN sentinel would read every cell as uncut and every metric as NaN
        with pytest.raises(DomainError, match="uncut sentinel height is .*, not finite"):
            HeightField(make_spec(m=2, n=2), height)

    @pytest.mark.parametrize("height", [True, False])
    def test_bool_initial_height(self, height):
        with pytest.raises(DomainError, match="uncut sentinel height must be a number"):
            HeightField(make_spec(m=2, n=2), height)

    def test_machined_cell_count(self):
        field = HeightField(make_spec(m=2, n=2), 1.0)
        assert field.machined_cell_count() == 0
        field.as_array()[0, 1] = 0.5
        field.as_array()[2, 2] = -0.1
        assert field.machined_cell_count() == 2

