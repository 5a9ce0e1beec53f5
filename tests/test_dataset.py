import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import millsurf.dataset
from millsurf import (
    ConfigError,
    MillsurfError,
    ParameterRange,
    generate_dataset,
    lhs_sample,
    read_surface,
)
from millsurf.config import config_from_dict
from millsurf.dataset import PARAMETER_NAMES, _apply_overrides, _load_dataset_config


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

    @pytest.mark.parametrize("count, seed", [(2.5, 0), (True, 0), (2.0, 0), (5, 1.5), (5, False)])
    def test_non_integer_count_or_seed_rejected(self, count, seed):
        with pytest.raises(ConfigError, match="must be an integer"):
            lhs_sample([ParameterRange("phase_deg", 0.0, 1.0)], count, seed)


class TestParameterRange:
    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown dataset parameter"):
            ParameterRange("chip_load", 0.0, 1.0)

    def test_inverted_bounds(self):
        with pytest.raises(ConfigError):
            ParameterRange("feed_per_tooth_mm", 0.7, 0.2)

    @pytest.mark.parametrize("low, high", [(100.0, math.inf), (math.nan, 250.0)])
    def test_non_finite_bounds(self, low, high):
        with pytest.raises(ConfigError, match="finite"):
            ParameterRange("cutting_speed_m_min", low, high)

    def test_width_overflow(self):
        # both ends are finite, but high - low is inf, so every LHS sample would be
        with pytest.raises(ConfigError, match=r"^range for phase_deg: bounds and their width "):
            ParameterRange("phase_deg", -1e308, 1e308)

    @pytest.mark.parametrize("low, high", [(False, True), (0.0, True), (False, 1.0)])
    def test_bool_bounds(self, low, high):
        # arithmetic would take the bools as 0 and 1 and draw phases in [0, 1)
        with pytest.raises(ConfigError, match="bounds must be numbers"):
            ParameterRange("phase_deg", low, high)


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
        # Both ends parse, but only a run finds that the largest feeds per
        # tooth engage more than the insert radius.
        ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 14.0)]
        manifest = generate_dataset(ranges, 6, seed=2, base_raw=base_raw(),
                                    out_dir=tmp_path, workers=1)
        statuses = [row["status"] for row in manifest.rows]
        assert "failed" in statuses
        assert "ok" in statuses
        for row in manifest.rows:
            if row["status"] == "failed":
                assert "exceeds the insert radius" in row["error"]
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

    @pytest.mark.parametrize("name, low, high", [
        ("cutting_speed_m_min", -10.0, 100.0),
        ("spindle_speed_rpm", 0.0, 5000.0),
        ("radial_rake_deg", -95.0, 5.0),
        ("depth_of_cut_mm", 0.1, 9.0),
        ("runout_radial_mm", 0.001, 5.0),
        ("grid_spacing_mm", 0.05, 1.8),
        ("grid_spacing_mm", 1e-310, 0.01),
    ], ids=["negative-speed", "zero-rpm", "rake-past-90", "depth-past-insert",
            "runout-at-radius", "spacing-past-grid", "spacing-overflows-cell-count"])
    def test_range_end_checked_against_base(self, tmp_path, name, low, high):
        # base_raw(): insert radius 5 mm, grid 0.6 x 0.3 mm
        with pytest.raises(ConfigError, match=rf"^ranges\[0\]: {name} = "):
            generate_dataset([ParameterRange(name, low, high)], 2, seed=0,
                             base_raw=base_raw(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_ranges_with_parsing_ends_parse_throughout(self):
        # generate_dataset parses only a range's ends; that covers its inside
        # only while each config rule on one parameter admits an interval.
        # Spans straddle every valid domain (insert radius 5 mm, grid 0.6 x 0.3 mm).
        spans = {"cutting_speed_m_min": (-100.0, 400.0), "spindle_speed_rpm": (-2e3, 1e4),
                 "feed_per_tooth_mm": (-0.5, 1.0), "depth_of_cut_mm": (-1.0, 7.0),
                 "phase_deg": (-400.0, 400.0), "grid_spacing_mm": (-0.2, 1.0),
                 "radial_rake_deg": (-120.0, 120.0), "axial_rake_deg": (-120.0, 120.0),
                 "runout_radial_mm": (-7.0, 7.0), "runout_axial_mm": (-7.0, 7.0)}
        assert set(spans) == set(PARAMETER_NAMES)
        rng = np.random.default_rng(11)
        base = base_raw()

        def parses(name, value):
            try:
                config_from_dict(_apply_overrides(base, [name], [value]))
            except MillsurfError:
                return False
            return True

        accepted = rejected = 0
        for name, span in spans.items():
            for _ in range(20):
                low, high = np.sort(rng.uniform(*span, size=2))
                if not (parses(name, low) and parses(name, high)):
                    rejected += 1
                    continue
                accepted += 1
                samples = lhs_sample([ParameterRange(name, low, high)], 20, seed=accepted)
                bad = [v for v in samples[:, 0] if not parses(name, v)]
                assert bad == [], f"{name} in [{low}, {high}]"
        assert accepted > 50 and rejected > 50

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

    @pytest.mark.parametrize("names", [
        ("feed_per_tooth_mm", "feed_per_tooth_mm"),
        ("cutting_speed_m_min", "spindle_speed_rpm"),
        ("spindle_speed_rpm", "depth_of_cut_mm", "cutting_speed_m_min"),
    ])
    def test_ranges_that_would_mislabel_samples(self, tmp_path, names):
        # A repeated name has two header ranges but one row value; with both
        # speeds sampled, each sample would run on the spindle speed alone
        # while its row also records a cutting speed that was not simulated.
        bounds = {"feed_per_tooth_mm": (0.2, 0.4), "cutting_speed_m_min": (150.0, 250.0),
                  "spindle_speed_rpm": (5000.0, 9000.0), "depth_of_cut_mm": (0.1, 0.3)}
        ranges = [ParameterRange(name, *bounds[name]) for name in names]
        message = rf"^ranges\[{len(names) - 1}\]: \w+ cannot be sampled with \w+$"
        with pytest.raises(ConfigError, match=message):
            generate_dataset(ranges, 2, seed=0, base_raw=base_raw(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            generate_dataset([ParameterRange("phase_deg", 0.0, 90.0)], 2, seed=0,
                             base_raw=base_raw(), out_dir=tmp_path, workers=0)
        assert not (tmp_path / "manifest.jsonl").exists()

    @pytest.mark.parametrize("workers", [1.5, True, 2.0])
    def test_non_integer_workers_rejected(self, tmp_path, workers):
        with pytest.raises(ConfigError, match="workers must be an integer"):
            generate_dataset([ParameterRange("phase_deg", 0.0, 90.0)], 2, seed=0,
                             base_raw=base_raw(), out_dir=tmp_path, workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_each_sample_builds_its_config_when_it_runs(self, tmp_path, monkeypatch):
        # Sample configs are built in the sample's own task, one just before
        # each simulation, not all of them before the first sample runs.
        built, built_at_simulate = [], []
        apply_overrides, simulate = millsurf.dataset._apply_overrides, millsurf.dataset.simulate

        def counting_overrides(*args):
            built.append(args)
            return apply_overrides(*args)

        def counting_simulate(config):
            built_at_simulate.append(len(built))
            return simulate(config)

        monkeypatch.setattr(millsurf.dataset, "_apply_overrides", counting_overrides)
        monkeypatch.setattr(millsurf.dataset, "simulate", counting_simulate)
        generate_dataset([ParameterRange("phase_deg", 0.0, 90.0)], 4, seed=0,
                         base_raw=base_raw(), out_dir=tmp_path, workers=1)
        # 2 range-end checks, then one build per sample
        assert built_at_simulate == [3, 4, 5, 6]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestLoadDatasetConfig:
    def write(self, tmp_path, **keys):
        path = tmp_path / "dataset.json"
        raw = {"base_config": base_raw(),
               "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
               "count": 2, "seed": 3}
        raw.update(keys)
        path.write_text(json.dumps(raw))
        return path

    def test_shipped_example_with_relative_base(self):
        job = _load_dataset_config(CONFIGS / "dataset_example.json")
        assert [prm.name for prm in job["ranges"]] == [
            "cutting_speed_m_min", "feed_per_tooth_mm", "depth_of_cut_mm"]
        assert (job["count"], job["seed"], job["workers"]) == (16, 42, 4)
        assert job["base_raw"] == json.loads((CONFIGS / "case1.json").read_text())

    def test_flags_replace_count_and_seed(self, tmp_path):
        job = _load_dataset_config(self.write(tmp_path, count=0, seed=None), count=5, seed=7)
        assert (job["count"], job["seed"], job["workers"]) == (5, 7, 1)

    def test_duplicate_key_in_dataset_config(self, tmp_path):
        path = self.write(tmp_path)
        path.write_text(path.read_text().replace('"seed": 3', '"seed": 3, "seed": 4'))
        with pytest.raises(ConfigError, match=f"^malformed JSON in {re.escape(str(path))}: "
                                              "duplicate key 'seed'$"):
            _load_dataset_config(path)

    def test_duplicate_key_in_base_config(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(base_raw()).replace('"tooth_count": 2',
                                                       '"tooth_count": 2, "tooth_count": 4'))
        with pytest.raises(ConfigError, match=f"^malformed JSON in {re.escape(str(base))}: "
                                              "duplicate key 'tooth_count'$"):
            _load_dataset_config(self.write(tmp_path, base_config="base.json"))

    def test_null_workers_means_one(self, tmp_path):
        assert _load_dataset_config(self.write(tmp_path, workers=None))["workers"] == 1

    def test_base_config_passed_through_as_written(self, tmp_path):
        base = base_raw()
        base["engine"] = {"workers": None, "edge_points": None}
        job = _load_dataset_config(self.write(tmp_path, base_config=base))
        assert job["base_raw"] == base

    @pytest.mark.parametrize("keys, message", [
        ({"cuont": 2}, r"^dataset\.cuont: unknown key$"),
        ({"count": None}, r"^dataset\.count: must not be null$"),
        ({"seed": 1.5}, r"^dataset\.seed: expected an integer, got 1\.5$"),
        ({"base_config": [1]}, r"^dataset\.base_config: expected an object"),
        ({"base_config": "missing.json"}, r"^cannot read base config "),
        ({"ranges": []}, r"^dataset\.ranges: expected a non-empty list$"),
        ({"ranges": [{"name": "phase_deg", "low": 0.0}]},
         r"^dataset\.ranges\[0\]\.high: required key missing$"),
        ({"ranges": [{"name": "phase_deg", "low": "0", "high": 1.0}]},
         r"^dataset\.ranges\[0\]\.low: expected a number"),
    ], ids=["unknown-key", "null-count", "float-seed", "list-base", "missing-base-file",
            "empty-ranges", "range-without-high", "string-low"])
    def test_errors_name_the_key_path(self, tmp_path, keys, message):
        with pytest.raises(ConfigError, match=message):
            _load_dataset_config(self.write(tmp_path, **keys))

    def test_missing_count_is_required(self, tmp_path):
        path = self.write(tmp_path)
        raw = json.loads(path.read_text())
        del raw["count"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=r"^dataset\.count: required key missing$"):
            _load_dataset_config(path)
        assert _load_dataset_config(path, count=1)["count"] == 1
