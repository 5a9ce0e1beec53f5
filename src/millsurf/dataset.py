"""Latin hypercube parameter sampling and batch surface generation.

A dataset run samples machining parameters with a seeded Latin hypercube,
simulates one surface per sample, and writes a JSON-lines manifest next to the
surface files. The manifest starts with one header object (schema version,
seed, count, RNG identity, ranges, and the embedded base configuration)
followed by exactly one object per sample, in sample-index order. The file is
streamed to a temp name and renamed into place whole when the batch ends.

Reruns with the same seed and base configuration are byte-identical: rows
reference surface files by relative name and carry only deterministic
counters (wall time is deliberately excluded).

Ranges are checked by the configuration's own readers, at each end. A sample
fails in its manifest row only for what a run finds: a feed per tooth whose
engaged half-length exceeds the insert radius, a grid spacing that derives
more than 2**53 edge points, or an allocation failure.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import _check_keys, _integer, _number, _require_dict, config_from_dict
from .engine import simulate, time_step
from .errors import ConfigError, MillsurfError
from .roughness import areal_metrics
from .surface_io import atomic_write_bytes, write_surface

SCHEMA_VERSION = 1
RNG_NAME = "numpy-default-pcg64"

# Sampled parameter -> (config block, key, sibling keys cleared so the pair
# stays consistent). Run-outs are handled separately (they rewrite the
# per-tooth pair list).
_PARAMETER_PATHS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "cutting_speed_m_min": ("process", "cutting_speed_m_min", ("spindle_speed_rpm",)),
    "spindle_speed_rpm": ("process", "spindle_speed_rpm", ("cutting_speed_m_min",)),
    "feed_per_tooth_mm": ("process", "feed_per_tooth_mm", ("feed_speed_mm_min",)),
    "depth_of_cut_mm": ("process", "depth_of_cut_mm", ()),
    "phase_deg": ("process", "phase_deg", ()),
    "grid_spacing_mm": ("grid", "spacing_mm", ()),
    "radial_rake_deg": ("tool", "radial_rake_deg", ()),
    "axial_rake_deg": ("tool", "axial_rake_deg", ()),
}
_RUNOUT_NAMES = ("runout_radial_mm", "runout_axial_mm")

PARAMETER_NAMES = tuple(_PARAMETER_PATHS) + _RUNOUT_NAMES


@dataclass(frozen=True)
class ParameterRange:
    """Closed sampling interval for one named machining parameter (linear scale).

    ``generate_dataset`` checks the bounds against the base configuration.
    """

    name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.name not in PARAMETER_NAMES:
            raise ConfigError(
                f"unknown dataset parameter {self.name!r}; known: {', '.join(PARAMETER_NAMES)}"
            )
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigError(
                f"range for {self.name}: bounds must be finite, got [{self.low}, {self.high}]"
            )
        if not self.low < self.high:
            raise ConfigError(f"range for {self.name}: low {self.low} must be < high {self.high}")


@dataclass
class DatasetManifest:
    seed: int
    count: int
    rows: list[dict]
    path: Path
    # One line per sampled grid spacing that the base config's fixed time
    # step under-resolves; the run and its outputs do not change.
    notes: list[str]


def lhs_sample(ranges: list[ParameterRange], count: int, seed: int) -> np.ndarray:
    """Seeded Latin hypercube: (count, len(ranges)) array, one sample per
    stratum in every dimension, identical output for identical inputs."""
    for name, value in (("sample count", count), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not ranges:
        raise ConfigError("at least one parameter range is required")
    rng = np.random.default_rng(seed)
    try:
        out = np.empty((count, len(ranges)), dtype=np.float64)
        for d, prm in enumerate(ranges):
            strata = rng.permutation(count)
            offsets = rng.random(count)
            unit = (strata + offsets) / count
            out[:, d] = prm.low + (prm.high - prm.low) * unit
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise MillsurfError(f"cannot allocate {count} LHS samples: {exc}") from exc
    return out


def _apply_overrides(base_raw: dict, names: list[str], values: np.ndarray) -> dict:
    raw = deepcopy(base_raw)
    runout_r = None
    runout_a = None
    for name, value in zip(names, values):
        value = float(value)
        if name == "runout_radial_mm":
            runout_r = value
            continue
        if name == "runout_axial_mm":
            runout_a = value
            continue
        block_name, key, clears = _PARAMETER_PATHS[name]
        block = raw.setdefault(block_name, {})
        block[key] = value
        for cleared in clears:
            block.pop(cleared, None)
    if runout_r is not None or runout_a is not None:
        tool = raw.setdefault("tool", {})
        teeth = tool.get("tooth_count", 1)
        base_pairs = tool.get("runouts_mm") or [[0.0, 0.0] for _ in range(teeth)]
        tool["runouts_mm"] = [
            [
                runout_r if runout_r is not None else pair[0],
                runout_a if runout_a is not None else pair[1],
            ]
            for pair in base_pairs
        ]
    return raw


def _run_sample(index: int, names: list[str], values: np.ndarray, base_raw: dict,
                out_dir: Path) -> dict:
    """Simulate one sample: the base configuration with ``values`` applied to
    ``names``, built here so that only the running samples hold a config."""
    params = {name: float(value) for name, value in zip(names, values)}
    raw = _apply_overrides(base_raw, names, values)
    filename = f"sample_{index:05d}.srtf"
    row: dict = {
        "index": index,
        "params": params,
        "surface_file": filename,
        "status": "ok",
        "error": None,
        "metrics": None,
        "metrics_error": None,
        "counters": None,
    }
    try:
        doc = config_from_dict(raw)
        sim_config = replace(doc.simulation, worker_count=1)
        result = simulate(sim_config)
        write_surface(result.field, out_dir / filename)
        row["counters"] = {
            "time_steps": result.time_steps,
            "trajectory_points": result.trajectory_points,
            "cells_updated": result.cells_updated,
        }
        try:
            row["metrics"] = areal_metrics(result.field).to_json_dict()
        except MillsurfError as exc:
            row["metrics_error"] = str(exc)
    except MillsurfError as exc:
        row["status"] = "failed"
        row["error"] = str(exc)
        row["surface_file"] = None
    return row


def generate_dataset(
    ranges: list[ParameterRange],
    count: int,
    seed: int,
    base_raw: dict,
    out_dir: Path,
    workers: int = 1,
) -> DatasetManifest:
    """Simulate ``count`` LHS-sampled surfaces and write files plus manifest.

    Samples are independent and run concurrently up to ``workers``; each
    sample's simulation is single-threaded so results do not depend on the
    schedule. A failing sample is recorded in its manifest row and does not
    abort the batch. A parameter may be sampled once, and not together with
    the other member of its pair (cutting speed and spindle speed). A range
    is rejected up front when the base configuration with either end applied
    does not parse.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    config_from_dict(base_raw)  # fail fast on a broken base configuration
    names = [prm.name for prm in ranges]
    notes = []
    for k, name in enumerate(names):
        # A row holds one value per name, and overriding one member of a pair
        # clears the other, so either clash would record a value not simulated.
        siblings = _PARAMETER_PATHS[name][2] if name in _PARAMETER_PATHS else ()
        clashes = {name, *siblings} & set(names[:k])
        if clashes:
            raise ConfigError(f"ranges[{k}]: {name} cannot be sampled with {clashes.pop()}")
        # Each rule the config applies to one sampled parameter admits an
        # interval of its values (a sign, a bound against the insert radius or
        # the grid extent), so a range whose two ends parse lies inside all.
        for end in (ranges[k].low, ranges[k].high):
            try:
                sim = config_from_dict(_apply_overrides(base_raw, [name], [end])).simulation
            except MillsurfError as exc:
                raise ConfigError(f"ranges[{k}]: {name} = {end}: {exc}") from exc
            # Both steps scale at most linearly with the spacing: its low end is the worst.
            if name == "grid_spacing_mm" and end == ranges[k].low:
                fixed = time_step(sim)
                derived = time_step(replace(sim, max_step_angle_rad=None, time_step_s=None))
                if fixed > derived:
                    notes.append(
                        f"ranges[{k}] grid_spacing_mm = {end:g} mm is under-resolved by the "
                        f"base config's fixed time step {fixed:.4g} s; the spacing derives "
                        f"{derived:.4g} s")
    samples = lhs_sample(ranges, count, seed)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    header = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "count": count,
        "rng": RNG_NAME,
        "ranges": [{"name": p.name, "low": p.low, "high": p.high} for p in ranges],
        "base_config": base_raw,
    }

    rows: list[dict] = []

    def lines():
        yield (json.dumps(header) + "\n").encode()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tasks = pool.map(lambda i: _run_sample(i, names, samples[i], base_raw, out_dir),
                             range(count))
            for row in tasks:
                rows.append(row)
                yield (json.dumps(row) + "\n").encode()

    atomic_write_bytes(manifest_path, lines())
    return DatasetManifest(seed=seed, count=count, rows=rows, path=manifest_path, notes=notes)


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _load_dataset_config(path: Path, count: int | None = None, seed: int | None = None) -> dict:
    """``generate_dataset``'s arguments, but ``out_dir``, from a dataset config file.

    ``count`` and ``seed`` replace the file's keys before they are checked.
    The base config is passed on as written, since the manifest embeds it.
    """
    raw = _require_dict(_read_json(path, "dataset config"), "dataset")
    _check_keys(raw, "dataset", allowed={"base_config", "ranges", "count", "seed", "workers"},
                required=("base_config", "ranges"))
    overrides = {"count": count, "seed": seed}
    raw.update({key: value for key, value in overrides.items() if value is not None})
    base = raw["base_config"]
    if isinstance(base, str):  # a path relative to the dataset config
        base = _read_json(path.parent / base, "base config")
    if not isinstance(raw["ranges"], list) or not raw["ranges"]:
        raise ConfigError("dataset.ranges: expected a non-empty list")
    ranges = []
    for k, item in enumerate(raw["ranges"]):
        item_path = f"dataset.ranges[{k}]"
        _check_keys(_require_dict(item, item_path), item_path, allowed={"name", "low", "high"},
                    required=("name",))
        low, high = _number(item, item_path, "low"), _number(item, item_path, "high")
        ranges.append(ParameterRange(item["name"], low, high))
    return {
        "ranges": ranges,
        "count": _integer(raw, "dataset", "count", minimum=1),
        "seed": _integer(raw, "dataset", "seed", minimum=0),
        "base_raw": _require_dict(base, "dataset.base_config"),
        "workers": _integer(raw, "dataset", "workers", default=1, minimum=1),
    }
