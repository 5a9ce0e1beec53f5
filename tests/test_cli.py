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


def only_error(err: str) -> str:
    """The one ``error:`` line of a run that printed no traceback."""
    assert "Traceback" not in err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    return line


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

    def test_trajectory_format_in_config(self, config_path, tmp_path, capsys):
        # The trajectory CSV is gone: neither an output format nor a flag asks for it.
        raw = sim_config_dict()
        raw["output"]["formats"].append("trajectory")
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
        assert only_error(capsys.readouterr().err) == (
            "error: output.formats: unknown format 'trajectory', "
            "allowed: surface, csv, graymap, metrics"
        )
        assert not out.exists()
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--trajectory"]) == 1
        assert "unrecognized arguments: --trajectory" in capsys.readouterr().err

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

    def test_out_is_a_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: --out: ")

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_basename_outside_out_rejected(self, tmp_path, capsys):
        raw = sim_config_dict()
        path = tmp_path / "sim.json"
        for basename in ("../escaped", "escaped\u0000"):
            raw["output"]["basename"] = basename
            path.write_text(json.dumps(raw))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
            assert only_error(capsys.readouterr().err).startswith("error: output.basename: ")
        assert list(tmp_path.glob("escaped*")) == []
        assert not (tmp_path / "out").exists()

    def test_malformed_config_named(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert only_error(capsys.readouterr().err).startswith(f"error: malformed JSON in {path}: ")

    @pytest.mark.parametrize("engine", [
        pytest.param({"max_step_angle_deg": 1e-320}, id="derived_step_rounds_to_zero"),
        pytest.param({"time_step_s": 5e-324}, id="infinite_step_count"),
    ])
    def test_step_that_cannot_cover_the_span(self, tmp_path, capsys, engine):
        raw = json.loads((CONFIGS / "bench_10x5.json").read_text())
        raw["engine"] = engine
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert only_error(capsys.readouterr().err).startswith("error: time step ")

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

    def test_spacing_too_fine_to_count_cells(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "case1.json").read_text())
        raw["grid"]["spacing_mm"] = 1e-310
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "at spacing 1e-310" in errors[0]

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "bench_10x5.json").read_text())
        raw["process"]["depth_of_cut_mm"] = 10**400
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: process.depth_of_cut_mm: integer too large for a float"]

    def test_edge_too_long_to_allocate(self, tmp_path, capsys):
        # without edge_points the edge count follows the spacing; at 1e-14 it
        # is 8.7e14 points, under the 2**53 bound, and numpy cannot allocate
        # their 6 PiB, so it fails before touching any memory
        raw = json.loads((CONFIGS / "bench_10x5.json").read_text())
        del raw["engine"]["edge_points"]
        raw["grid"]["spacing_mm"] = 1e-14
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failures = [line for line in err.splitlines() if line.startswith("runtime failure:")]
        assert len(failures) == 1
        assert failures[0].startswith("runtime failure: cannot allocate ")
        assert " edge points: " in failures[0]


    @pytest.mark.parametrize("spacing", [1e-308, 1e-200])
    def test_edge_point_count_bounded(self, tmp_path, capsys, spacing):
        # without edge_points the edge count follows the spacing: over one
        # cell, 4*half/spacing overflows to inf at 1e-308 and is past 2**53 at 1e-200
        raw = json.loads((CONFIGS / "bench_10x5.json").read_text())
        del raw["engine"]["edge_points"]
        raw["grid"] = {"spacing_mm": spacing, "x_min_mm": 0.0, "x_max_mm": spacing,
                       "y_min_mm": 0.0, "y_max_mm": spacing}
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        line = only_error(capsys.readouterr().err)
        assert line.startswith(f"error: grid spacing {spacing} mm takes ")
        assert line.endswith(" edge points, more than 2**53")


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

    @pytest.mark.parametrize("far, near", [("0,0,1e308,1", "0,0,1,1"),
                                           ("-1e308,0,1,1", "-1,0,1,1")])
    def test_roi_edge_far_past_the_grid_clips(self, surface_path, capsys, far, near):
        # (1e308 - x_min) / spacing overflows to inf; the ROI still clips to the grid
        assert main(["roughness", "--surface", str(surface_path), f"--roi={near}"]) == 0
        clipped = capsys.readouterr().out
        assert main(["roughness", "--surface", str(surface_path), f"--roi={far}"]) == 0
        assert capsys.readouterr().out == clipped

    def test_roi_far_outside_the_grid(self, surface_path, capsys):
        assert main(["roughness", "--surface", str(surface_path),
                     "--roi=1e307,0,1.5e308,1"]) == 1
        assert only_error(capsys.readouterr().err) == (
            "error: --roi 1e307,0,1.5e308,1 contains no grid nodes")

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

    def test_out_is_a_file(self, config_path, tmp_path, capsys):
        # As for simulate: a validation error before any sample is generated.
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
        }))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--seed", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("error: --out: ")
        assert "generating" not in err

    def test_unknown_range_name(self, config_path, tmp_path):
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "nonsense", "low": 0.0, "high": 1.0}],
        }))
        assert main(["dataset", "--config", str(ds_config), "--samples", "2",
                     "--seed", "3", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("low", ["abc", None, True, -math.inf,
                                     pytest.param(10**400, id="integer_too_large")])
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

    @pytest.mark.parametrize("count", [10**15, 10**19])
    def test_count_too_large_to_allocate(self, config_path, tmp_path, capsys, count):
        # numpy refuses both sample arrays before allocating anything: 10**15
        # rows with a MemoryError, 10**19 with a ValueError
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json",
            "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
            "count": count, "seed": 3,
        }))
        out = tmp_path / "d"
        assert main(["dataset", "--config", str(ds_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if line.startswith("runtime failure:")]
        assert line.startswith(f"runtime failure: cannot allocate {count} LHS samples: ")
        assert not (out / "manifest.jsonl").exists()

    @pytest.mark.parametrize("engine, spacing_range, noted", [
        ({"max_step_angle_deg": 0.08, "span_s": [0.0, 0.001]}, True, True),
        ({"span_s": [0.0, 0.001]}, True, False),
        ({"max_step_angle_deg": 0.08, "span_s": [0.0, 0.001]}, False, False),
    ], ids=["fixed_step", "derived_step", "no_spacing_range"])
    def test_fixed_step_under_resolves_spacing(self, tmp_path, capsys, engine, spacing_range,
                                               noted):
        # At 0.016 mm a 0.08 deg step resolves the grid (the spacing derives
        # 0.143 deg); at the range's low end of 0.008 mm it derives 0.072 deg.
        base = sim_config_dict()
        base["grid"] = {"spacing_mm": 0.016, "x_min_mm": -0.08, "x_max_mm": 0.08,
                        "y_min_mm": 0.0, "y_max_mm": 0.08}
        base["process"]["initial_position_mm"]["y"] = -5.0
        base["engine"] = engine
        (tmp_path / "sim.json").write_text(json.dumps(base))
        name, low, high = (("grid_spacing_mm", 0.008, 0.016) if spacing_range
                           else ("feed_per_tooth_mm", 0.2, 0.4))
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json", "count": 1, "seed": 3,
            "ranges": [{"name": name, "low": low, "high": high}],
        }))
        out = tmp_path / "d"
        assert main(["dataset", "--config", str(ds_config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
        if noted:
            [note] = notes
            assert "grid_spacing_mm = 0.008 mm" in note
            steps = [float(w) for w in note.split() if w[0].isdigit() and "e-" in w]
            assert len(steps) == 2 and steps[0] > steps[1]
        else:
            assert notes == []
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["manifest.jsonl", "sample_00000.srtf"]

    def test_step_that_cannot_cover_the_span_fails_samples(self, tmp_path, capsys):
        base = sim_config_dict()
        base["engine"] = {"time_step_s": 5e-324}
        (tmp_path / "sim.json").write_text(json.dumps(base))
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json", "count": 2, "seed": 3,
            "ranges": [{"name": "feed_per_tooth_mm", "low": 0.2, "high": 0.4}],
        }))
        out = tmp_path / "d"
        assert main(["dataset", "--config", str(ds_config), "--out", str(out)]) == 2
        assert "(0 ok, 2 failed)" in capsys.readouterr().err
        rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()[1:]]
        assert [row["status"] for row in rows] == ["failed", "failed"]
        assert all(row["error"].startswith("time step ") for row in rows)

    def test_spacing_range_on_broken_base(self, tmp_path, capsys):
        (tmp_path / "sim.json").write_text(json.dumps({**sim_config_dict(), "grid": []}))
        ds_config = tmp_path / "dataset.json"
        ds_config.write_text(json.dumps({
            "base_config": "sim.json", "count": 1, "seed": 3,
            "ranges": [{"name": "grid_spacing_mm", "low": 0.02, "high": 0.05}],
        }))
        assert main(["dataset", "--config", str(ds_config), "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: grid")

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

    def test_out_in_new_directory(self, bench_config, tmp_path):
        report_path = tmp_path / "new" / "deeper" / "report.json"
        assert main(["bench", "--config", str(bench_config), "--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["case_id"] == "bench"

    def test_bad_scale(self, bench_config, tmp_path):
        assert main(["bench", "--config", str(bench_config), "--scale", "1,x",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_nan_scale(self, bench_config, tmp_path, capsys):
        assert main(["bench", "--config", str(bench_config), "--scale", "nan",
                     "--out", str(tmp_path / "r.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_required(self, bench_config):
        assert main(["bench", "--config", str(bench_config)]) == 1

    def test_scale_too_large_for_a_step_count(self, bench_config, tmp_path, capsys):
        assert main(["bench", "--config", str(bench_config), "--scale", "1e308",
                     "--out", str(tmp_path / "r.json")]) == 1
        assert only_error(capsys.readouterr().err).startswith("error: time step ")
        assert not (tmp_path / "r.json").exists()

    def test_scale_too_large_for_the_step_bound(self, tmp_path, capsys):
        # A finite but huge step count: more than 2**53 steps, each one sweepable.
        assert main(["bench", "--config", str(CONFIGS / "bench_10x5.json"), "--scale", "1e200",
                     "--out", str(tmp_path / "r.json")]) == 1
        line = only_error(capsys.readouterr().err)
        assert line.startswith("error: time step ") and line.endswith(", more than 2**53")
        assert not (tmp_path / "r.json").exists()

    def test_malformed_config_named(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert only_error(capsys.readouterr().err).startswith(f"error: malformed JSON in {path}: ")


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1
