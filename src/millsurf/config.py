"""JSON configuration parsing and validation.

Configuration files use industry units (degrees, m/min, mm/min, rpm) and are
converted to the internal mm/s/rad system at parse time. Validation is strict:
unknown keys are rejected so a typo in a cutting parameter cannot silently
produce a plausible but wrong surface, and every error names the offending
JSON path.

The ``process`` block gives the speed pair (cutting_speed_m_min /
spindle_speed_rpm) and the feed pair (feed_per_tooth_mm / feed_speed_mm_min).
This module checks that each given value is a finite number;
``kinematics.derive_kinematics`` checks its sign and owns the rule that
resolves a pair and checks that two given members agree.

Angles take ``*_deg`` fields only. Checks on a single object's own fields
(the time step, step angle, span, worker count, and the process against the
tool: depth of cut against the insert radius, and a feed speed on the tool's
teeth that is finite and > 0) live in that object's constructor; this module
adds the JSON type checks and the key paths as written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import PurePath

from .engine import SimulationConfig
from .errors import ConfigError, DomainError
from .kinematics import ProcessParameters, ToolDefinition, derive_kinematics
from .surface_grid import GridSpec

OUTPUT_FORMATS = ("surface", "csv", "graymap", "metrics")


@dataclass(frozen=True)
class OutputSettings:
    formats: tuple[str, ...] = ("surface",)
    basename: str = "surface"


@dataclass(frozen=True)
class ConfigDocument:
    simulation: SimulationConfig
    output: OutputSettings = field(default_factory=OutputSettings)

    def to_simulation_config(self) -> SimulationConfig:
        """``simulation`` itself; kept only because ``perfbench/run.py`` calls it."""
        return self.simulation


def _require_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(block: dict, path: str, allowed: set[str],
                required: tuple[str, ...] = ()) -> None:
    """Reject the first key of ``block`` outside ``allowed``, then the first
    missing key of ``required``, in the order given. A key that ``_number`` or
    ``_integer`` reads is left out of ``required``: they report it missing, in
    the order they read."""
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in block:
            raise ConfigError(f"{path}.{key}: required key missing")


_REQUIRED = object()  # the readers' default: an absent or null key is an error


def _float(value: int | float, path: str) -> float:
    """A JSON number as a float; an integer beyond the float range is an error
    that names ``path``, not an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None


def _number(block: dict, path: str, key: str, *, default=_REQUIRED, exclusive_min=None):
    value = block.get(key)
    if value is None:
        if default is _REQUIRED:
            problem = "must not be null" if key in block else "required key missing"
            raise ConfigError(f"{path}.{key}: {problem}")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    value = _float(value, f"{path}.{key}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite, got {value}")
    if exclusive_min is not None and value <= exclusive_min:
        raise ConfigError(f"{path}.{key}: must be > {exclusive_min}, got {value}")
    return value


def _integer(block: dict, path: str, key: str, *, default=_REQUIRED, minimum=None):
    value = block.get(key)
    if value is None:
        if default is _REQUIRED:
            problem = "must not be null" if key in block else "required key missing"
            raise ConfigError(f"{path}.{key}: {problem}")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _pair(value, path: str, shape: str) -> tuple[float, float]:
    """A two-number JSON list as floats; ``shape`` names its members in the error."""
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(f"{path}: expected {shape}")
    return _float(value[0], f"{path}[0]"), _float(value[1], f"{path}[1]")


def _angle_rad(block: dict, path: str, stem: str) -> float:
    """Read `<stem>_deg` (default 0) and return radians."""
    return math.radians(_number(block, path, f"{stem}_deg", default=0.0))


def _parse_tool(block: dict, path: str = "tool") -> ToolDefinition:
    _require_dict(block, path)
    _check_keys(
        block,
        path,
        allowed={
            "cutting_diameter_mm",
            "insert_radius_mm",
            "tooth_count",
            "radial_rake_deg",
            "axial_rake_deg",
            "runouts_mm",
        },
    )
    diameter = _number(block, path, "cutting_diameter_mm", exclusive_min=0.0)
    radius = _number(block, path, "insert_radius_mm", exclusive_min=0.0)
    teeth = _integer(block, path, "tooth_count", minimum=1)
    rake_f = _angle_rad(block, path, "radial_rake")
    rake_p = _angle_rad(block, path, "axial_rake")
    if abs(rake_f) >= math.pi / 2 or abs(rake_p) >= math.pi / 2:
        raise ConfigError(f"{path}: rake angles must satisfy |angle| < 90 degrees")

    runouts = block.get("runouts_mm")
    if runouts is not None and (not isinstance(runouts, list) or len(runouts) != teeth):
        raise ConfigError(f"{path}.runouts_mm: expected a list of {teeth} [radial, axial] pairs")
    pairs = tuple(
        _pair(pair, f"{path}.runouts_mm[{k}]", "[radial_mm, axial_mm]")
        for k, pair in enumerate(runouts or ())
    )
    for k, (radial, axial) in enumerate(pairs):
        if not (abs(radial) < radius and abs(axial) < radius):  # also rejects NaN
            raise ConfigError(
                f"{path}.runouts_mm[{k}]: run-out must be finite and small against "
                f"the insert radius {radius} mm, got {runouts[k]}"
            )

    return ToolDefinition(
        cutting_diameter_mm=diameter,
        insert_radius_mm=radius,
        tooth_count=teeth,
        radial_rake_rad=rake_f,
        axial_rake_rad=rake_p,
        runouts_mm=pairs,
    )


def _parse_process(block: dict, tool: ToolDefinition, path: str = "process") -> ProcessParameters:
    _require_dict(block, path)
    _check_keys(
        block,
        path,
        allowed={
            "cutting_speed_m_min",
            "spindle_speed_rpm",
            "feed_per_tooth_mm",
            "feed_speed_mm_min",
            "depth_of_cut_mm",
            "phase_deg",
            "initial_position_mm",
        },
    )
    v_c = _number(block, path, "cutting_speed_m_min", default=None)
    rpm = _number(block, path, "spindle_speed_rpm", default=None)
    f_z = _number(block, path, "feed_per_tooth_mm", default=None)
    v_f = _number(block, path, "feed_speed_mm_min", default=None)
    a_p = _number(block, path, "depth_of_cut_mm", exclusive_min=0.0)
    phase = _angle_rad(block, path, "phase")

    pos_block = block.get("initial_position_mm")
    if pos_block is None:
        position: tuple[float, float | None, float] = (0.0, None, 0.0)
    else:
        pos_path = f"{path}.initial_position_mm"
        _require_dict(pos_block, pos_path)
        _check_keys(pos_block, pos_path, allowed={"x", "y", "z"})
        x = _number(pos_block, pos_path, "x")
        y = _number(pos_block, pos_path, "y", default=None)
        z = _number(pos_block, pos_path, "z", default=0.0)
        position = (x, y, z)

    return derive_kinematics(
        tool,
        depth_of_cut_mm=a_p,
        cutting_speed_m_min=v_c,
        spindle_speed_rpm=rpm,
        feed_per_tooth_mm=f_z,
        feed_speed_mm_min=v_f,
        phase_rad=phase,
        initial_position_mm=position,
    )


def _parse_grid(block: dict, path: str = "grid") -> GridSpec:
    _require_dict(block, path)
    _check_keys(
        block,
        path,
        allowed={"spacing_mm", "x_min_mm", "x_max_mm", "y_min_mm", "y_max_mm"},
    )
    spacing = _number(block, path, "spacing_mm", exclusive_min=0.0)
    x_lo = _number(block, path, "x_min_mm")
    x_hi = _number(block, path, "x_max_mm")
    y_lo = _number(block, path, "y_min_mm")
    y_hi = _number(block, path, "y_max_mm")
    try:
        return GridSpec.from_extents(spacing, (x_lo, x_hi), (y_lo, y_hi))
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_engine(
    block: dict | None,
    tool: ToolDefinition,
    process: ProcessParameters,
    grid: GridSpec,
    path: str = "engine",
) -> SimulationConfig:
    """The engine block's settings applied to the parsed tool, process and grid;
    ``SimulationConfig`` owns the default of each setting the block leaves out."""
    block = {} if block is None else _require_dict(block, path)
    _check_keys(
        block,
        path,
        allowed={
            "edge_points",
            "max_step_angle_deg",
            "time_step_s",
            "span_s",
            "workers",
        },
    )
    max_deg = _number(block, path, "max_step_angle_deg", default=None, exclusive_min=0.0)
    span = block.get("span_s")
    given = {
        "edge_point_count": _integer(block, path, "edge_points", default=None, minimum=2),
        "max_step_angle_rad": None if max_deg is None else math.radians(max_deg),
        "time_step_s": _number(block, path, "time_step_s", default=None, exclusive_min=0.0),
        "span_s": None if span is None else _pair(span, f"{path}.span_s", "[t_start_s, t_end_s]"),
        "worker_count": _integer(block, path, "workers", default=None, minimum=1),
    }
    return SimulationConfig(
        tool=tool,
        process=process,
        grid=grid,
        **{name: value for name, value in given.items() if value is not None},
    )


def _parse_output(block: dict | None, path: str = "output") -> OutputSettings:
    block = {} if block is None else _require_dict(block, path)
    _check_keys(block, path, allowed={"formats", "basename"})
    formats = block.get("formats", ["surface"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError(f"{path}.formats: expected a non-empty list")
    for fmt in formats:
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(
                f"{path}.formats: unknown format {fmt!r}, allowed: {', '.join(OUTPUT_FORMATS)}"
            )
    basename = block.get("basename", "surface")
    if not isinstance(basename, str) or not basename:
        raise ConfigError(f"{path}.basename: expected a non-empty string")
    if PurePath(basename).name != basename or "\0" in basename:  # a file in the out dir
        raise ConfigError(f"{path}.basename: expected a single file name, got {basename!r}")
    return OutputSettings(formats=tuple(formats), basename=basename)


def config_from_dict(raw: dict) -> ConfigDocument:
    _require_dict(raw, "<config>")
    _check_keys(
        raw,
        "<config>",
        allowed={"tool", "process", "grid", "engine", "output"},
        required=("tool", "process", "grid"),
    )
    tool = _parse_tool(raw["tool"])
    process = _parse_process(raw["process"], tool)
    grid = _parse_grid(raw["grid"])
    simulation = _parse_engine(raw.get("engine"), tool, process, grid)
    return ConfigDocument(simulation=simulation, output=_parse_output(raw.get("output")))


def parse_config(text: str) -> ConfigDocument:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ConfigError(f"malformed JSON: {exc}") from exc
    return config_from_dict(raw)
