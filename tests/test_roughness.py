import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from helpers import front_cut_config
from millsurf import (
    DomainError,
    GridSpec,
    HeightField,
    areal_metrics,
    extract_profile,
    line_roughness,
    simulate,
)
from millsurf import roughness
from millsurf.roughness import MM_TO_UM, LineProfile


def field_from_um(z_um: np.ndarray, sentinel_mm: float = 1.0) -> HeightField:
    m, n = z_um.shape[0] - 1, z_um.shape[1] - 1
    spec = GridSpec(spacing_mm=0.01, x_min_mm=0.0, y_min_mm=0.0, m=m, n=n)
    return HeightField(spec, sentinel_mm, np.ascontiguousarray(z_um / 1000.0).reshape(-1))


def sinusoid_um(amplitude_um=1.0, rows=100, period=100):
    j = np.arange(rows)
    row = amplitude_um * np.sin(2.0 * np.pi * j / period)
    return np.tile(row, (rows, 1))


def brute_force_metrics(z_um: np.ndarray):
    """Two-pass loops, no numpy reductions: the independent oracle."""
    values = [float(v) for v in z_um.reshape(-1)]
    count = len(values)
    mean = sum(values) / count
    d = [v - mean for v in values]
    sa = sum(abs(v) for v in d) / count
    sq = math.sqrt(sum(v * v for v in d) / count)
    sp = max(d)
    sv = -min(d)
    ssk = (sum(v**3 for v in d) / count) / sq**3 if sq else None
    sku = (sum(v**4 for v in d) / count) / sq**4 if sq else None
    return sa, sq, sp, sv, ssk, sku


def pow_moments(field: HeightField, roi=None, leveling="mean"):
    """Ssk and Sku by the direct formulas ``np.mean(d**3)`` and ``np.mean(d**4)``:
    the bit-identity oracle for the distinct-value lookup, and the memory baseline.
    The plane is removed by the same closed form as ``areal_metrics``, so that
    only the moments are compared; ``lstsq_metrics`` checks the leveling."""
    i_lo, j_lo, i_hi, j_hi = roi or (0, 0, field.spec.m, field.spec.n)
    z = field.as_array()[i_lo : i_hi + 1, j_lo : j_hi + 1] * MM_TO_UM
    d = z - z.mean()
    if leveling == "plane":
        ni, nj = d.shape
        i = np.arange(ni) - (ni - 1) / 2
        j = np.arange(nj) - (nj - 1) / 2
        if ni > 1:
            d -= (i @ d.sum(axis=1) / (nj * (i @ i))) * i[:, None]
        if nj > 1:
            d -= (j @ d.sum(axis=0) / (ni * (j @ j))) * j
    sq = float(np.sqrt(np.mean(d * d)))
    return float(np.mean(d**3) / sq**3), float(np.mean(d**4) / sq**4)


def lstsq_metrics(field: HeightField, roi=None):
    """Plane-leveled deviations and metrics by ``np.linalg.lstsq`` on an N x 3
    design matrix: the oracle for the closed-form plane. The index columns are
    centred, which keeps the oracle's own rounding below the 1e-12 um the
    comparison allows on heights of hundreds of um; Ssk and Sku are None where
    Sq is below that tolerance."""
    i_lo, j_lo, i_hi, j_hi = roi or (0, 0, field.spec.m, field.spec.n)
    z = field.as_array()[i_lo : i_hi + 1, j_lo : j_hi + 1] * MM_TO_UM
    ni, nj = z.shape
    xi, yj = np.meshgrid(np.arange(ni) - ni // 2, np.arange(nj) - nj // 2, indexing="ij")
    a = np.column_stack([xi.ravel(), yj.ravel(), np.ones(z.size)])
    coef, *_ = np.linalg.lstsq(a, z.ravel(), rcond=None)
    d = z - (a @ coef).reshape(z.shape)
    sq = float(np.sqrt(np.mean(d * d)))
    flat = sq < 1e-12
    return d, {
        "Sa_um": float(np.mean(np.abs(d))),
        "Sq_um": sq,
        "Sp_um": float(np.max(d)),
        "Sv_um": float(-np.min(d)),
        "Sz_um": float(np.max(d) - np.min(d)),
        "Ssk": None if flat else float(np.mean(d**3) / sq**3),
        "Sku": None if flat else float(np.mean(d**4) / sq**4),
        "cell_count": z.size,
    }


def tilted_field(shape, seed) -> HeightField:
    """Normal heights (um) on a random plane: slopes of up to 5 um per node and
    an offset of up to 500 um, the depth scale of the shipped configs."""
    rng = np.random.default_rng(seed)
    xi, yj = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    slope_i, slope_j, offset = rng.uniform(-5.0, 5.0, 3)
    z = rng.normal(0.0, 2.0, shape) + slope_i * xi + slope_j * yj + 100.0 * offset
    return field_from_um(z, sentinel_mm=1e6)


def shuffled_levels(shape, count, seed=0) -> HeightField:
    """A field of ``count`` distinct heights (whole micrometres) in random cell order."""
    cells = shape[0] * shape[1]
    z_um = np.random.default_rng(seed).permutation(np.arange(cells) % count)
    return field_from_um(z_um.reshape(shape).astype(float), sentinel_mm=1e6)


@pytest.fixture(scope="module")
def simulated_field():
    """A fully machined case-1 leading-edge strip: 101 x 201 nodes, 61 distinct heights."""
    config = front_cut_config(feed_per_tooth_mm=0.6, spacing_mm=0.01, roi_len_mm=2.0,
                              x_half_mm=0.5)
    return simulate(config).field


def assert_same_bits(field, roi=None, leveling="mean"):
    metrics = areal_metrics(field, roi, leveling)
    ssk, sku = pow_moments(field, roi, leveling)
    assert (metrics.ssk.hex(), metrics.sku.hex()) == (ssk.hex(), sku.hex())


class TestMomentsBitIdentity:
    @pytest.mark.parametrize("roi", [None, (10, 20, 90, 180)], ids=["full", "roi"])
    @pytest.mark.parametrize("leveling", ["mean", "plane"])
    def test_simulated_field(self, simulated_field, roi, leveling):
        assert_same_bits(simulated_field, roi, leveling)

    def test_all_distinct_field(self):
        rng = np.random.default_rng(3)
        assert_same_bits(field_from_um(rng.normal(0.0, 3.0, (301, 201)), sentinel_mm=1.0))

    @pytest.mark.parametrize("extra, lookup", [(0, True), (1, False)],
                             ids=["last-lookup", "first-fallback"])
    def test_either_side_of_cut_over(self, extra, lookup):
        shape = (257, 129)
        field = shuffled_levels(shape, shape[0] * shape[1] // 64 + extra)
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as spy:
            assert_same_bits(field)
        assert spy.called == lookup

    def test_signed_zeros_and_zero_mean(self):
        field = field_from_um(np.tile([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], (60, 10)))
        z = field.as_array() * MM_TO_UM
        assert z.mean() == 0.0
        assert sorted(set(np.signbit(z[z == 0.0]).tolist())) == [False, True]
        assert_same_bits(field)

    def test_peak_memory_not_above_pow(self):
        field = shuffled_levels((1001, 501), 117, seed=5)
        peaks = []
        for moments in (pow_moments, areal_metrics):
            tracemalloc.start()
            try:
                moments(field)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024, f"traced peaks (pow, lookup): {peaks}"


class TestArealMetrics:
    def test_flat_surface(self):
        metrics = areal_metrics(field_from_um(np.zeros((21, 21))))
        assert metrics.sa_um == 0.0
        assert metrics.sq_um == 0.0
        assert metrics.sp_um == 0.0
        assert metrics.sv_um == 0.0
        assert metrics.sz_um == 0.0
        assert metrics.ssk is None
        assert metrics.sku is None
        assert metrics.cell_count == 441

    def test_two_level_surface(self):
        z = np.ones((20, 20))
        z[:10] = -1.0
        metrics = areal_metrics(field_from_um(z))
        assert metrics.sa_um == pytest.approx(1.0, abs=1e-12)
        assert metrics.sq_um == pytest.approx(1.0, abs=1e-12)
        assert metrics.sp_um == pytest.approx(1.0, abs=1e-12)
        assert metrics.sv_um == pytest.approx(1.0, abs=1e-12)
        assert metrics.sz_um == pytest.approx(2.0, abs=1e-12)
        assert metrics.ssk == pytest.approx(0.0, abs=1e-12)
        assert metrics.sku == pytest.approx(1.0, abs=1e-12)

    def test_sinusoid_analytic_moments(self):
        metrics = areal_metrics(field_from_um(sinusoid_um()))
        assert metrics.sa_um == pytest.approx(2.0 / math.pi, rel=0.01)
        assert metrics.sq_um == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)
        assert metrics.ssk == pytest.approx(0.0, abs=0.01)
        assert metrics.sku == pytest.approx(1.5, rel=0.01)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        z = rng.normal(0.0, 3.0, (17, 23))
        metrics = areal_metrics(field_from_um(z, sentinel_mm=10.0))
        sa, sq, sp, sv, ssk, sku = brute_force_metrics(z)
        assert metrics.sa_um == pytest.approx(sa, rel=1e-12)
        assert metrics.sq_um == pytest.approx(sq, rel=1e-12)
        assert metrics.sp_um == pytest.approx(sp, rel=1e-12)
        assert metrics.sv_um == pytest.approx(sv, rel=1e-12)
        assert metrics.sz_um == pytest.approx(sp + sv, rel=1e-12)
        assert metrics.ssk == pytest.approx(ssk, rel=1e-12)
        assert metrics.sku == pytest.approx(sku, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0.0, 2.0, (12, 12))
        a = areal_metrics(field_from_um(z, sentinel_mm=50.0))
        b = areal_metrics(field_from_um(z + 17.0, sentinel_mm=50.0))
        assert b.sa_um == pytest.approx(a.sa_um, rel=1e-9)
        assert b.sq_um == pytest.approx(a.sq_um, rel=1e-9)
        assert b.sp_um == pytest.approx(a.sp_um, rel=1e-9)
        assert b.sv_um == pytest.approx(a.sv_um, rel=1e-9)
        assert b.ssk == pytest.approx(a.ssk, rel=1e-6)
        assert b.sku == pytest.approx(a.sku, rel=1e-6)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0.0, 1.0, (12, 12))
        z -= z.mean()
        a = areal_metrics(field_from_um(z))
        b = areal_metrics(field_from_um(3.0 * z))
        assert b.sa_um == pytest.approx(3.0 * a.sa_um, rel=1e-12)
        assert b.sq_um == pytest.approx(3.0 * a.sq_um, rel=1e-12)
        assert b.sz_um == pytest.approx(3.0 * a.sz_um, rel=1e-12)
        assert b.ssk == pytest.approx(a.ssk, rel=1e-9)
        assert b.sku == pytest.approx(a.sku, rel=1e-9)

    def test_reflection(self):
        rng = np.random.default_rng(6)
        z = rng.normal(0.0, 1.0, (12, 12))
        z -= z.mean()
        a = areal_metrics(field_from_um(z))
        b = areal_metrics(field_from_um(-z))
        assert b.sp_um == pytest.approx(a.sv_um, rel=1e-12)
        assert b.sv_um == pytest.approx(a.sp_um, rel=1e-12)
        assert b.ssk == pytest.approx(-a.ssk, rel=1e-9)
        assert b.sa_um == pytest.approx(a.sa_um, rel=1e-12)
        assert b.sq_um == pytest.approx(a.sq_um, rel=1e-12)
        assert b.sz_um == pytest.approx(a.sz_um, rel=1e-12)
        assert b.sku == pytest.approx(a.sku, rel=1e-9)

    def test_uncut_cells_rejected(self):
        field = HeightField(GridSpec(0.01, 0.0, 0.0, 4, 4), 1.0)
        with pytest.raises(DomainError, match="unmachined"):
            areal_metrics(field)

    def test_roi_bounds_checked(self):
        field = field_from_um(np.zeros((5, 5)))
        with pytest.raises(DomainError):
            areal_metrics(field, roi=(0, 0, 9, 9))
        with pytest.raises(DomainError):
            areal_metrics(field, roi=(3, 0, 2, 4))

    def test_roi_subset(self):
        z = np.zeros((10, 10))
        z[2:5, 2:5] = 4.0
        full = areal_metrics(field_from_um(z))
        sub = areal_metrics(field_from_um(z), roi=(2, 2, 4, 4))
        assert sub.cell_count == 9
        assert sub.sa_um == 0.0  # constant inside the roi
        assert full.sa_um > 0.0

    def test_plane_leveling_removes_tilt(self):
        rng = np.random.default_rng(8)
        z = rng.normal(0.0, 1.0, (15, 15))
        xi, yj = np.meshgrid(np.arange(15), np.arange(15), indexing="ij")
        tilted = z + 0.5 * xi - 0.2 * yj
        a = areal_metrics(field_from_um(z, sentinel_mm=99.0), leveling="plane")
        b = areal_metrics(field_from_um(tilted, sentinel_mm=99.0), leveling="plane")
        assert b.sq_um == pytest.approx(a.sq_um, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("roi", [None, (7, 2, 7, 20), (3, 11, 30, 11), (12, 9, 12, 9)],
                             ids=["full", "1xk", "kx1", "1x1"])
    def test_plane_matches_lstsq(self, seed, roi):
        field = tilted_field((37, 23), seed)
        expected_d, expected = lstsq_metrics(field, roi)
        seen = []
        real = roughness._third_and_fourth_means

        def spy(d):
            seen.append(d.copy())
            return real(d)

        with mock.patch.object(roughness, "_third_and_fourth_means", side_effect=spy):
            metrics = areal_metrics(field, roi, leveling="plane").to_json_dict()
        if seen:  # the helper is skipped where Sq is 0
            assert seen[0] == pytest.approx(expected_d, rel=1e-12, abs=1e-12)
        else:
            assert metrics["Sq_um"] == 0.0
            assert expected_d == pytest.approx(np.zeros_like(expected_d), abs=1e-12)
        assert metrics == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_plane_peak_memory_below_lstsq(self):
        field = tilted_field((1001, 501), seed=9)
        peaks = []
        for leveled in (lstsq_metrics, lambda f: areal_metrics(f, leveling="plane")):
            tracemalloc.start()
            try:
                leveled(field)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0], f"traced peaks (lstsq, closed form): {peaks}"

    def test_unknown_leveling(self):
        with pytest.raises(DomainError):
            areal_metrics(field_from_um(np.zeros((4, 4))), leveling="median")


class TestExtractProfile:
    def test_feed_center_rule(self):
        field = field_from_um(np.zeros((11, 21)))
        profile = extract_profile(field, "feed")
        assert profile.index == 5  # round(m/2) with m = 10
        assert profile.heights_mm.size == 21
        assert profile.spacing_mm == 0.01
        assert np.allclose(np.diff(profile.positions_mm), 0.01)

    def test_pickfeed_first_row(self):
        field = field_from_um(np.zeros((11, 21)))
        profile = extract_profile(field, "pickfeed", index=0)
        assert profile.heights_mm.size == 11  # m + 1 samples along x

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            extract_profile(field_from_um(np.zeros((5, 5))), "diagonal")

    def test_uncut_cell_in_profile(self):
        field = HeightField(GridSpec(0.01, 0.0, 0.0, 4, 4), 1.0)
        field.heights[:] = 0.0
        field.heights[12] = 1.0  # node (2, 2) stays at stock
        with pytest.raises(DomainError):
            extract_profile(field, "feed", index=2)
        extract_profile(field, "feed", index=1)  # other columns are fine

    def test_index_outside_roi(self):
        field = field_from_um(np.zeros((9, 9)))
        with pytest.raises(DomainError):
            extract_profile(field, "feed", index=20)


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: extract_profile(f, "feed", True), id="profile-index-True"),
    pytest.param(lambda f: extract_profile(f, "feed", 2.5), id="profile-index-2.5"),
    pytest.param(lambda f: extract_profile(f, "pickfeed", 1.0), id="profile-index-1.0"),
    pytest.param(lambda f: extract_profile(f, "feed", 1, roi=(0, 0, True, 4)),
                 id="profile-roi-True"),
    pytest.param(lambda f: areal_metrics(f, roi=(0, 0, 2.0, 2)), id="areal-roi-2.0"),
    pytest.param(lambda f: areal_metrics(f, roi=(0, False, 2, 2)), id="areal-roi-False"),
    pytest.param(lambda f: areal_metrics(f, roi=(0, 0, 2)), id="areal-roi-3-values"),
])
def test_non_integer_index_rejected(call):
    # A bool is not an index: extract_profile(field, "feed", True) used to
    # return the whole field as one "profile"; floats, and an roi that is not
    # four values, raised Python's and numpy's own errors.
    field = field_from_um(np.arange(25.0).reshape(5, 5))
    with pytest.raises(DomainError, match="integer"):
        call(field)


def test_numpy_integer_indices_accepted():
    field = field_from_um(np.arange(25.0).reshape(5, 5))
    assert extract_profile(field, "feed", np.int64(1)).index == 1
    roi = (np.int32(0), 0, 2, np.int64(2))
    assert areal_metrics(field, roi=roi) == areal_metrics(field, roi=(0, 0, 2, 2))


class TestLineRoughness:
    def test_constant_profile(self):
        profile = LineProfile("feed", 0, np.arange(5.0), np.ones(5), 1.0)
        assert line_roughness(profile) == 0.0

    def test_alternating_profile(self):
        heights_mm = np.array([1e-3, -1e-3] * 10)
        profile = LineProfile("feed", 0, np.arange(20.0), heights_mm, 1.0)
        assert line_roughness(profile) == pytest.approx(1.0, abs=1e-12)

    def test_sinusoid(self):
        j = np.arange(1000)
        heights_mm = 1e-3 * np.sin(2 * np.pi * j / 100)
        profile = LineProfile("feed", 0, j * 0.01, heights_mm, 0.01)
        assert line_roughness(profile) == pytest.approx(2.0 / math.pi, rel=0.01)

    def test_too_short(self):
        with pytest.raises(DomainError):
            line_roughness(LineProfile("feed", 0, np.zeros(1), np.zeros(1), 1.0))
