import json
import math
from pathlib import Path

import pytest

from millsurf import read_surface
from millsurf.cli import main


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def sim_config_dict():
    return {
        "tool": {"cutting_diameter_mm": 10.0, "insert_radius_mm": 5.0, "tooth_count": 2},
        "process": {
            "cutting_speed_m_min": 170.0,
            "feed_per_tooth_mm": 0.3,
            "depth_of_cut_mm": 0.2,
            "initial_position_mm": {"x": 0.0, "y": None, "z": 0.0},
        },
        "grid": {"spacing_mm": 0.05, "x_min_mm": -0.3, "x_max_mm": 0.3,
                 "y_min_mm": 0.0, "y_max_mm": 0.3},
        "engine": {"max_step_angle_deg": 0.4},
        "output": {"formats": ["surface", "csv", "graymap", "metrics"], "basename": "part"},
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(sim_config_dict()))
    return path


class TestSimulateCommand:
    def test_writes_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        for name in ["part.srtf", "part.csv", "part.pgm", "part_metrics.json", "part_summary.json"]:
            assert (out / name).exists(), name
        captured = capsys.readouterr()
        assert captured.out == ""  # informational output goes to stderr
        assert "wrote" in captured.err
        summary = json.loads((out / "part_summary.json").read_text())
        assert summary["time_steps"] > 0
        assert summary["trajectory_points"] % (summary["time_steps"] * 2) == 0
        assert summary["cells_updated"] == 13 * 7
        field = read_surface(out / "part.srtf")
        assert (field.as_array() < field.initial_height_mm).all()

    def test_trajectory_flag(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config_path), "--out", str(out), "--trajectory"])
        assert code == 0
        lines = (out / "part_trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t_s,tooth,x_mm,y_mm,z_mm"
        summary = json.loads((out / "part_summary.json").read_text())
        assert len(lines) - 1 == summary["time_steps"] * 2
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert int(first[1]) == 1
        assert all(math.isfinite(float(v)) for v in first[2:])

    def test_trajectory_format_in_config(self, config_path, tmp_path):
        # The output format writes what the flag writes; the flag on top of it
        # adds nothing, and the CSV is listed after the metrics.
        flagged = tmp_path / "flag"
        assert main(["simulate", "--config", str(config_path), "--out", str(flagged),
                     "--trajectory"]) == 0
        raw = sim_config_dict()
        raw["output"]["formats"].append("trajectory")
        config_path.write_text(json.dumps(raw))
        for out, extra in ((tmp_path / "format", []), (tmp_path / "both", ["--trajectory"])):
            assert main(["simulate", "--config", str(config_path), "--out", str(out),
                         *extra]) == 0
            for name in ["part_trajectory.csv", "part_summary.json"]:
                assert (out / name).read_bytes() == (flagged / name).read_bytes(), name
        summary = json.loads((flagged / "part_summary.json").read_text())
        assert summary["outputs"] == ["part.srtf", "part.csv", "part.pgm", "part_metrics.json",
                                      "part_trajectory.csv"]

    def test_workers_override_same_outputs(self, config_path, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_path), "--out", str(out2),
                     "--workers", "3"]) == 0
        for name in ["part.srtf", "part.csv", "part.pgm", "part_metrics.json",
                     "part_summary.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_no_cut_run_still_writes_summary(self, tmp_path, capsys):
        # The spindle passes 100 mm beside the grid, so no cell is machined:
        # the graymap and the metrics are skipped, and the run still succeeds.
        raw = sim_config_dict()
        raw["process"]["initial_position_mm"]["x"] = 100.0
        path = tmp_path / "far.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "graymap skipped: graymap export needs at least one machined cell" in err
        assert "metrics skipped:" in err
        assert not (out / "part.pgm").exists()
        summary = json.loads((out / "part_summary.json").read_text())
        assert summary["cells_updated"] == 0
        assert summary["outputs"] == ["part.srtf", "part.csv", "part_metrics.json"]
        assert "error" in json.loads((out / "part_metrics.json").read_text())

    def test_zero_workers_is_validation_error(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--workers", "0"]) == 1
        assert "worker_count must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        raw = sim_config_dict()
        raw["process"]["feed_per_tooth_mm"] = -1.0
        bad.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_basename_outside_out_rejected(self, tmp_path):
        raw = sim_config_dict()
        raw["output"]["basename"] = "../escaped"
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert list(tmp_path.glob("escaped*")) == []

    @pytest.mark.parametrize("spacing", [1e-8, 1e-200])
    def test_grid_too_large_to_allocate(self, tmp_path, capsys, spacing):
        # a fixed edge count and time step keep the plan small; only the field is huge
        raw = sim_config_dict()
        raw["grid"]["spacing_mm"] = spacing
        raw["engine"] = {"edge_points": 6, "time_step_s": 1e-4}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("runtime failure: cannot allocate a height field of ")

    def test_edge_too_long_to_allocate(self, tmp_path, capsys):
        # without edge_points the edge count follows the spacing; at 1e-200
        # numpy refuses the size before allocating anything
        raw = json.loads((CONFIGS / "bench_10x5.json").read_text())
        del raw["engine"]["edge_points"]
        raw["grid"]["spacing_mm"] = 1e-200
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failures = [line for line in err.splitlines() if line.startswith("runtime failure:")]
        assert len(failures) == 1
        assert failures[0].startswith("runtime failure: cannot allocate ")
        assert " edge points: " in failures[0]


class TestRoughnessCommand:
    @pytest.fixture
    def surface_path(self, config_path, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        return out / "part.srtf"

    def test_metrics_json_on_stdout(self, surface_path, capsys):
        assert main(["roughness", "--surface", str(surface_path)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"Sa_um", "Sq_um", "Sp_um", "Sv_um", "Sz_um",
                                "Ssk", "Sku", "cell_count"}
        assert metrics["Sq_um"] >= metrics["Sa_um"]

    def test_roi_restricts_cells(self, surface_path, capsys):
        assert main(["roughness", "--surface", str(surface_path),
                     "--roi=-0.1,0.05,0.1,0.25"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["cell_count"] == 5 * 5

    def test_profile_csv(self, surface_path, capsys):
        assert main(["roughness", "--surface", str(surface_path), "--profile", "feed"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == "position_mm,height_um"
        assert len(lines) == 1 + 7  # n + 1 samples
        for line in lines[1:]:
            pos, height = line.split(",")
            float(pos), float(height)  # plain parsable numbers
        assert "Ra" in captured.err

    def test_profile_with_index(self, surface_path, capsys):
        assert main(["roughness", "--surface", str(surface_path),
                     "--profile", "pickfeed:2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 13  # m + 1 samples

    def test_bad_profile_index(self, surface_path):
        assert main(["roughness", "--surface", str(surface_path),
                     "--profile", "feed:notanumber"]) == 1

    def test_missing_surface_file(self, tmp_path, capsys):
        assert main(["roughness", "--surface", str(tmp_path / "missing.srtf")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot read surface ")

    @pytest.mark.parametrize("roi", ["1,2,3", "nan,0,1,1", "-inf,0,1,1"])
    def test_bad_roi(self, surface_path, roi):
        assert main(["roughness", "--surface", str(surface_path), f"--roi={roi}"]) == 1

    def test_corrupt_surface(self, tmp_path):
        path = tmp_path / "junk.srtf"
        path.write_bytes(b"JUNKJUNKJUNK" * 10)
        assert main(["roughness", "--surface", str(path)]) == 1


class TestDatasetCommand:
    def test_generates_and_reproduces(self, config_path, tmp_path):
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
        }))
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--seed", "11", "--out", str(out1)]) == 0
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--seed", "11", "--out", str(out2)]) == 0
        assert (out1 / "manifest.jsonl").read_bytes() == (out2 / "manifest.jsonl").read_bytes()
        assert (out1 / "sample_00000.srtf").read_bytes() == (out2 / "sample_00000.srtf").read_bytes()

    def test_missing_seed_is_validation_error(self, config_path, tmp_path):
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
        }))
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--out", str(tmp_path / "d")]) == 1

    def test_unknown_range_name(self, config_path, tmp_path):
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "nonsense", "low": 0.0, "high": 1.0}],
        }))
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--seed", "3", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("low", ["abc", None, True, -math.inf])
    def test_non_numeric_range_bound(self, config_path, tmp_path, capsys, low):
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "feed_per_tooth_mm", "low": low, "high": 0.4}],
        }))
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--seed", "3", "--out", str(tmp_path / "d")]) == 1
        assert "ranges[0]" in capsys.readouterr().err


    @pytest.mark.parametrize("key, value, flags", [
        ("count", True, []), ("count", 0, []), ("seed", False, []), ("seed", -1, []),
        ("workers", True, []), ("seed", 3, ["--seed", "-1"]),
    ])
    def test_bad_count_seed_workers(self, config_path, tmp_path, capsys, key, value, flags):
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
            **{"count": 2, "seed": 3, key: value},
        }))
        argv = ["dataset", "--config", str(ds_config), "--out", str(tmp_path / "d"), *flags]
        assert main(argv) == 1
        problem = "expected an integer" if isinstance(value, bool) else "must be >="
        assert f"error: dataset.{key}: {problem}" in capsys.readouterr().err

    def test_shipped_example(self, tmp_path, capsys):
        example = CONFIGS / "dataset_example.json"
        argv = ["dataset", "--config", str(example), "--samples", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        header, row = (tmp_path / "manifest.jsonl").read_text().splitlines()
        assert json.loads(header)["seed"] == 42
        assert json.loads(row)["status"] == "ok"
        assert "(1 ok, 0 failed)" in capsys.readouterr().err


class TestBenchCommand:
    @pytest.fixture
    def bench_config(self, tmp_path):
        # keep the reference kernel's workload tiny
        raw = sim_config_dict()
        raw["process"]["initial_position_mm"]["y"] = -6.5
        raw["engine"] = {"edge_points": 6, "time_step_s": 2e-4, "span_s": [0.0, 0.05]}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(raw))
        return path

    def test_report_and_table(self, bench_config, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["bench", "--config", str(bench_config), "--scale", "1,2",
                     "--out", str(report_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "speedup" in captured.out
        payload = json.loads(report_path.read_text())
        assert payload["case_id"] == "bench"
        assert len(payload["rows"]) == 2

    def test_bad_scale(self, bench_config, tmp_path):
        assert main(["bench", "--config", str(bench_config), "--scale", "1,x",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_nan_scale(self, bench_config, tmp_path, capsys):
        assert main(["bench", "--config", str(bench_config), "--scale", "nan",
                     "--out", str(tmp_path / "r.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_required(self, bench_config):
        assert main(["bench", "--config", str(bench_config)]) == 1


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1
