import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from millsurf import ConfigError, parse_config, time_step


def case1_raw(**overrides):
    raw = {
        "tool": {
            "cutting_diameter_mm": 10.0,
            "insert_radius_mm": 5.0,
            "tooth_count": 2,
            "radial_rake_deg": 0.6,
            "axial_rake_deg": 0.0,
            "runouts_mm": [[0.0, 0.0], [0.011, 0.003]],
        },
        "process": {
            "cutting_speed_m_min": 170.0,
            "feed_per_tooth_mm": 0.6,
            "depth_of_cut_mm": 0.5,
            "initial_position_mm": {"x": 0.0, "y": None, "z": 0.0},
        },
        "grid": {
            "spacing_mm": 0.01,
            "x_min_mm": -5.0,
            "x_max_mm": 5.0,
            "y_min_mm": 0.0,
            "y_max_mm": 5.0,
        },
        "engine": {"edge_points": 40, "workers": 2},
        "output": {"formats": ["surface", "csv"], "basename": "case1"},
    }
    for path, value in overrides.items():
        block, key = path.split(".")
        if value is _DELETE:
            raw[block].pop(key, None)
        else:
            raw[block][key] = value
    return raw


_DELETE = object()


class TestParseConfig:
    def test_case1_derives_kinematics(self):
        doc = parse_config(json.dumps(case1_raw()))
        assert doc.simulation.process.angular_velocity_rad_s == pytest.approx(566.667, abs=5e-4)
        omega = doc.simulation.process.angular_velocity_rad_s
        assert omega * 60 / (2 * math.pi) == pytest.approx(5411.27, abs=5e-3)
        assert doc.simulation.tool.radial_rake_rad == pytest.approx(math.radians(0.6), abs=1e-15)
        assert doc.simulation.grid.m == 1000 and doc.simulation.grid.n == 500
        assert doc.simulation.edge_point_count == 40
        assert doc.simulation.worker_count == 2
        assert doc.output.formats == ("surface", "csv")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config("{not json")

    def test_unknown_key_names_path(self):
        raw = case1_raw()
        raw["tool"]["ratial_rake_deg"] = 0.6
        with pytest.raises(ConfigError, match="tool.ratial_rake_deg"):
            parse_config(json.dumps(raw))

    def test_negative_feed_names_path(self):
        raw = case1_raw(**{"process.feed_per_tooth_mm": -0.1})
        with pytest.raises(ConfigError, match="process.feed_per_tooth_mm"):
            parse_config(json.dumps(raw))

    def test_inconsistent_speed_pair_cites_both(self):
        raw = case1_raw(**{"process.spindle_speed_rpm": 4000.0})
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert "cutting_speed_m_min" in str(err.value)
        assert "spindle_speed_rpm" in str(err.value)

    def test_consistent_speed_pair_accepted(self):
        rpm = 1000.0 * 170.0 / (math.pi * 10.0)
        raw = case1_raw(**{"process.spindle_speed_rpm": rpm})
        doc = parse_config(json.dumps(raw))
        omega = doc.simulation.process.angular_velocity_rad_s
        assert omega * 60 / (2 * math.pi) == pytest.approx(rpm, rel=1e-12)

    def test_inconsistent_feed_pair_cites_both(self):
        raw = case1_raw(**{"process.feed_speed_mm_min": 1000.0})
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert "feed_per_tooth_mm" in str(err.value)
        assert "feed_speed_mm_min" in str(err.value)

    def test_neither_speed_given(self):
        raw = case1_raw(**{"process.cutting_speed_m_min": _DELETE})
        with pytest.raises(ConfigError, match="cutting_speed_m_min / spindle_speed_rpm"):
            parse_config(json.dumps(raw))

    def test_depth_beyond_insert_radius(self):
        raw = case1_raw(**{"process.depth_of_cut_mm": 6.0})
        with pytest.raises(ConfigError, match="depth_of_cut_mm"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("path, value, named", [
        ("process.depth_of_cut_mm", 10**400, "process.depth_of_cut_mm"),
        ("grid.x_min_mm", -10**400, "grid.x_min_mm"),
        ("tool.runouts_mm", [[0.0, 0.0], [0.011, 10**400]], "tool.runouts_mm[1][1]"),
        ("engine.span_s", [0, 10**400], "engine.span_s[1]"),
    ], ids=["number", "negative_number", "runout_pair", "span_pair"])
    def test_integer_too_large_for_a_float(self, path, value, named):
        # The number and pair readers both name the key, not an OverflowError.
        raw = case1_raw(**{path: value})
        message = rf"^{re.escape(named)}: integer too large for a float$"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(raw))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    def test_integer_past_the_digit_limit(self):
        # Beyond int()'s digit limit json.loads itself raises a ValueError.
        with pytest.raises(ConfigError, match="^malformed JSON: "):
            parse_config('{"tool": ' + "1" * 5000 + "}")

    def test_runout_pair_count(self):
        raw = case1_raw(**{"tool.runouts_mm": [[0.0, 0.0]]})
        with pytest.raises(ConfigError, match="runouts_mm"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_runout(self, value):
        # json writes and reads these as NaN and Infinity.
        raw = case1_raw(**{"tool.runouts_mm": [[0.0, 0.0], [0.011, value]]})
        with pytest.raises(ConfigError, match=r"tool\.runouts_mm\[1\]"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("path", [
        "tool.radial_rake_rad",
        "tool.axial_rake_rad",
        "process.phase_rad",
        "engine.max_step_angle_rad",
    ])
    def test_rad_keys_are_unknown(self, path):
        # angles take *_deg keys only
        raw = case1_raw(**{path: 0.01})
        with pytest.raises(ConfigError, match=f"^{path}: unknown key$"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("angle", [0.0, -0.5])
    def test_non_positive_step_angle(self, angle):
        # the error names the key and the value as written, in degrees
        raw = case1_raw(**{"engine.max_step_angle_deg": angle})
        message = rf"^engine\.max_step_angle_deg: must be > 0\.0, got {angle}$"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(raw))

    def test_span_requires_initial_y(self):
        raw = case1_raw()
        raw["engine"]["span_s"] = [0.0, 0.01]
        with pytest.raises(ConfigError, match="initial_position_mm.y"):
            parse_config(json.dumps(raw))

    def test_bad_span(self):
        for span in ([0.02, 0.01], [0.0, math.inf], [0.0, math.nan]):
            raw = case1_raw()
            raw["engine"]["span_s"] = span
            raw["process"]["initial_position_mm"]["y"] = -3.0
            with pytest.raises(ConfigError, match="span_s"):
                parse_config(json.dumps(raw))

    def test_unknown_output_format(self):
        raw = case1_raw(**{"output.formats": ["surface", "stl"]})
        with pytest.raises(ConfigError, match="output.formats"):
            parse_config(json.dumps(raw))

    def test_trajectory_is_neither_an_output_format_nor_an_engine_key(self):
        raw = case1_raw(**{"engine.record_trajectory": True})
        with pytest.raises(ConfigError, match=r"^engine\.record_trajectory: unknown key$"):
            parse_config(json.dumps(raw))
        raw = case1_raw(**{"output.formats": ["surface", "trajectory"]})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert str(exc.value) == ("output.formats: unknown format 'trajectory', "
                                  "allowed: surface, csv, graymap, metrics")

    @pytest.mark.parametrize("basename", ["../../x/y", "a/b", "/abs", "."])
    def test_basename_is_one_file_name(self, basename):
        # outputs are named <basename>.<ext> inside the output directory
        raw = case1_raw(**{"output.basename": basename})
        with pytest.raises(ConfigError, match=r"^output\.basename: expected a single file name"):
            parse_config(json.dumps(raw))

    def test_grid_must_span_a_cell(self):
        raw = case1_raw(**{"grid.x_max_mm": -5.0})
        with pytest.raises(ConfigError):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("path, value", [
        ("grid.x_max_mm", -4.999),  # (-5.0, -4.999) is under one cell at spacing 0.01
        ("grid.spacing_mm", 1e-310),  # 10 mm / 1e-310 cells overflows
    ], ids=["under_one_cell", "cell_count_overflows"])
    def test_grid_error_names_the_grid(self, path, value):
        with pytest.raises(ConfigError, match=r"^grid: grid extents "):
            parse_config(json.dumps(case1_raw(**{path: value})))

    def test_defaults_without_engine_and_output(self):
        raw = case1_raw()
        del raw["engine"]
        del raw["output"]
        doc = parse_config(json.dumps(raw))
        assert doc.simulation.edge_point_count is None
        assert doc.simulation.max_step_angle_rad is None  # derived from the grid
        angle = time_step(doc.simulation) * doc.simulation.process.angular_velocity_rad_s
        assert math.degrees(angle) == pytest.approx(0.0798, abs=1e-4)
        assert doc.simulation.worker_count == 1
        assert doc.output.formats == ("surface",)

    @pytest.mark.parametrize("block", ["engine", "output"])
    def test_missing_null_and_empty_block_agree(self, block):
        raw = case1_raw()
        del raw[block]
        docs = [parse_config(json.dumps(raw))]
        for value in (None, {}):
            raw[block] = value
            docs.append(parse_config(json.dumps(raw)))
        assert docs[0] == docs[1] == docs[2]
        raw[block] = []
        with pytest.raises(ConfigError, match=f"{block}: expected an object"):
            parse_config(json.dumps(raw))

    def test_every_engine_key_reaches_simulation_config(self):
        raw = case1_raw()
        raw["process"]["initial_position_mm"]["y"] = -7.5
        raw["engine"] = {
            "edge_points": 12,
            "max_step_angle_deg": 0.25,
            "time_step_s": 3e-5,
            "span_s": [0.001, 0.004],
            "workers": 3,
        }
        sim = parse_config(json.dumps(raw)).simulation
        assert sim.edge_point_count == 12
        assert sim.max_step_angle_rad == math.radians(0.25)
        assert sim.time_step_s == 3e-5
        assert sim.span_s == (0.001, 0.004)
        assert sim.worker_count == 3

    def test_missing_keys_named_alike_in_every_process(self, tmp_path):
        # Each config lacks two required keys. The first one the readers
        # reach is named whatever the hash seed, which orders a set.
        raw = case1_raw(**{"tool.insert_radius_mm": _DELETE, "tool.tooth_count": _DELETE})
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"count": 1, "seed": 0}))
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from millsurf import ConfigError, parse_config\n"
            "from millsurf.dataset import _load_dataset_config\n"
            "for parse, arg in ((parse_config, sys.argv[1]), (parse_config, '{}'),\n"
            "                   (_load_dataset_config, Path(sys.argv[2]))):\n"
            "    try:\n"
            "        parse(arg)\n"
            "    except ConfigError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            outputs.add(subprocess.run(
                [sys.executable, "-c", script, json.dumps(raw), str(dataset)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout)
        assert outputs == {
            "tool.insert_radius_mm: required key missing\n"
            "<config>.tool: required key missing\n"
            "dataset.base_config: required key missing\n"
        }


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", [
    "am_aggressive", "am_smooth", "bench_10x5", "case1", "case2", "case3",
])
def test_shipped_simulation_configs_parse(name):
    doc = parse_config((CONFIGS / f"{name}.json").read_text())
    assert doc.simulation.grid.node_count > 0
