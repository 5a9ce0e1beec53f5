import json
import math

import numpy as np
import pytest

import millsurf.dataset
from millsurf import ConfigError, ParameterRange, generate_dataset, lhs_sample, read_surface


def base_raw(**grid_overrides):
    grid = {"spacing_mm": 0.05, "x_min_mm": -0.3, "x_max_mm": 0.3,
            "y_min_mm": 0.0, "y_max_mm": 0.3}
    grid.update(grid_overrides)
    return {
        "tool": {"cutting_diameter_mm": 10.0, "insert_radius_mm": 5.0, "tooth_count": 2},
        "process": {
            "cutting_speed_m_min": 170.0,
            "feed_per_tooth_mm": 0.3,
            "depth_of_cut_mm": 0.2,
            "initial_position_mm": {"x": 0.0, "y": None, "z": 0.0},
        },
        "grid": grid,
        "engine": {"max_step_angle_deg": 0.4},
    }


class TestLhsSample:
    def test_one_sample_per_stratum(self):
        ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 0.7),
                  ParameterRange("depth_of_cut_mm", 0.1, 0.5)]
        samples = lhs_sample(ranges, 10, seed=3)
        assert samples.shape == (10, 2)
        for d, prm in enumerate(ranges):
            strata = np.floor((samples[:, d] - prm.low) / (prm.high - prm.low) * 10).astype(int)
            assert sorted(strata) == list(range(10))

    def test_single_dimension_quartiles(self):
        samples = lhs_sample([ParameterRange("phase_deg", 0.0, 1.0)], 4, seed=0)
        assert sorted(np.floor(samples[:, 0] * 4).astype(int)) == [0, 1, 2, 3]

    def test_deterministic(self):
        ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 0.7),
                  ParameterRange("cutting_speed_m_min", 100.0, 250.0)]
        a = lhs_sample(ranges, 100, seed=7)
        b = lhs_sample(ranges, 100, seed=7)
        assert np.array_equal(a, b)
        c = lhs_sample(ranges, 100, seed=8)
        assert not np.array_equal(a, c)

    def test_bounds_respected(self):
        ranges = [ParameterRange("depth_of_cut_mm", 0.1, 0.4)]
        samples = lhs_sample(ranges, 50, seed=1)
        assert samples.min() >= 0.1
        assert samples.max() < 0.4

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            lhs_sample([ParameterRange("phase_deg", 0.0, 1.0)], 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            lhs_sample([ParameterRange("phase_deg", 0.0, 1.0)], 5, seed=-1)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ConfigError):
            lhs_sample([], 5, seed=0)


class TestParameterRange:
    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown dataset parameter"):
            ParameterRange("chip_load", 0.0, 1.0)

    def test_inverted_bounds(self):
        with pytest.raises(ConfigError):
            ParameterRange("feed_per_tooth_mm", 0.7, 0.2)

    def test_positive_parameters(self):
        with pytest.raises(ConfigError):
            ParameterRange("cutting_speed_m_min", -10.0, 100.0)

    @pytest.mark.parametrize("low, high", [(100.0, math.inf), (math.nan, 250.0)])
    def test_non_finite_bounds(self, low, high):
        with pytest.raises(ConfigError, match="finite"):
            ParameterRange("cutting_speed_m_min", low, high)

    def test_rake_bounds(self):
        with pytest.raises(ConfigError):
            ParameterRange("radial_rake_deg", -95.0, 5.0)


class TestGenerateDataset:
    def test_batch_outputs_and_manifest(self, tmp_path):
        ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 0.4),
                  ParameterRange("runout_axial_mm", -0.005, 0.005)]
        manifest = generate_dataset(ranges, 3, seed=5, base_raw=base_raw(),
                                    out_dir=tmp_path, workers=1)
        assert manifest.count == 3
        assert len(manifest.rows) == 3
        lines = (tmp_path / "manifest.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4  # header + one row per sample
        header = json.loads(lines[0])
        assert header["seed"] == 5
        assert header["count"] == 3
        assert header["rng"] == "numpy-default-pcg64"
        for k, line in enumerate(lines[1:]):
            row = json.loads(line)
            assert row["index"] == k
            assert row["status"] == "ok"
            assert set(row["params"]) == {"feed_per_tooth_mm", "runout_axial_mm"}
            assert row["counters"]["trajectory_points"] > 0
            assert row["metrics"]["Sa_um"] >= 0.0
            surface = read_surface(tmp_path / row["surface_file"])
            assert (surface.as_array() < surface.initial_height_mm).all()

    def test_reruns_byte_identical_across_schedules(self, tmp_path):
        ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 0.4)]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        generate_dataset(ranges, 4, seed=9, base_raw=base_raw(), out_dir=dir_a, workers=1)
        generate_dataset(ranges, 4, seed=9, base_raw=base_raw(), out_dir=dir_b, workers=3)
        for name in ["manifest.jsonl"] + [f"sample_{k:05d}.srtf" for k in range(4)]:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_failed_sample_recorded_not_fatal(self, tmp_path):
        # spacing samples above the grid extent make some configs invalid
        ranges = [ParameterRange("grid_spacing_mm", 0.05, 1.8)]
        manifest = generate_dataset(ranges, 6, seed=2, base_raw=base_raw(),
                                    out_dir=tmp_path, workers=1)
        statuses = [row["status"] for row in manifest.rows]
        assert "failed" in statuses
        assert "ok" in statuses
        for row in manifest.rows:
            if row["status"] == "failed":
                assert row["error"]
                assert row["surface_file"] is None
            else:
                assert (tmp_path / row["surface_file"]).exists()

    def test_write_error_mid_batch_leaves_no_manifest(self, tmp_path, monkeypatch):
        real_write = millsurf.dataset.write_surface

        def write_surface(field, path):
            if path.name == "sample_00002.srtf":
                raise OSError("disk full")
            real_write(field, path)

        monkeypatch.setattr(millsurf.dataset, "write_surface", write_surface)
        ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 0.4)]
        with pytest.raises(OSError, match="disk full"):
            generate_dataset(ranges, 5, seed=0, base_raw=base_raw(), out_dir=tmp_path, workers=2)
        assert not (tmp_path / "manifest.jsonl").exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_range_validated_against_base_tool(self, tmp_path):
        with pytest.raises(ConfigError, match="insert radius"):
            generate_dataset([ParameterRange("depth_of_cut_mm", 0.1, 9.0)], 2, seed=0,
                             base_raw=base_raw(), out_dir=tmp_path)

    def test_runout_override_applies_to_all_teeth(self, tmp_path):
        ranges = [ParameterRange("runout_radial_mm", 0.004, 0.005)]
        manifest = generate_dataset(ranges, 1, seed=1, base_raw=base_raw(),
                                    out_dir=tmp_path, workers=1)
        header = json.loads((tmp_path / "manifest.jsonl").read_text().split("\n")[0])
        assert header["ranges"][0]["name"] == "runout_radial_mm"
        value = manifest.rows[0]["params"]["runout_radial_mm"]
        assert 0.004 <= value < 0.005

    def test_broken_base_config_fails_fast(self, tmp_path):
        raw = base_raw()
        del raw["tool"]["insert_radius_mm"]
        with pytest.raises(ConfigError):
            generate_dataset([ParameterRange("phase_deg", 0.0, 90.0)], 2, seed=0,
                             base_raw=raw, out_dir=tmp_path)

    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            generate_dataset([ParameterRange("phase_deg", 0.0, 90.0)], 2, seed=0,
                             base_raw=base_raw(), out_dir=tmp_path, workers=0)
        assert not (tmp_path / "manifest.jsonl").exists()
