"""Command-line entry points.

Subcommands: simulate, roughness, dataset, bench. All informational output
goes to stderr; machine-readable results go to files or stdout. Exit codes:
0 success, 1 validation error (bad arguments, configuration, or input files),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import parse_config
from .dataset import _load_dataset_config, generate_dataset
from .engine import run_benchmark, simulate
from .errors import ConfigError, DomainError, MillsurfError, SurfaceFormatError
from .roughness import MM_TO_UM, areal_metrics, extract_profile, line_roughness
from .surface_io import (
    atomic_write_bytes,
    read_surface,
    write_graymap,
    write_heights_csv,
    write_surface,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are validation
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        if not isinstance(exc.__cause__, ValueError):  # raised on the JSON decode only
            raise
        raise ConfigError(f"malformed JSON in {path}: {exc.__cause__}") from exc.__cause__


def _make_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create directory {path}: {exc}") from exc


def _parse_roi(field, roi_text: str | None):
    """--roi x0,y0,x1,y1 in mm -> inclusive node-index range."""
    if roi_text is None:
        return None
    parts = roi_text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--roi expects x0,y0,x1,y1 in mm, got {roi_text!r}")
    try:
        x0, y0, x1, y1 = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--roi expects numbers, got {roi_text!r}") from exc
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
        raise ConfigError(f"--roi expects finite numbers, got {roi_text!r}")
    if x1 <= x0 or y1 <= y0:
        raise ConfigError(f"--roi must satisfy x0 < x1 and y0 < y1, got {roi_text!r}")
    grid = field.spec
    eps = 1e-9
    i_lo = max(0, math.ceil((x0 - grid.x_min_mm) / grid.spacing_mm - eps))
    j_lo = max(0, math.ceil((y0 - grid.y_min_mm) / grid.spacing_mm - eps))
    i_hi = min(grid.m, math.floor((x1 - grid.x_min_mm) / grid.spacing_mm + eps))
    j_hi = min(grid.n, math.floor((y1 - grid.y_min_mm) / grid.spacing_mm + eps))
    if i_lo > i_hi or j_lo > j_hi:
        raise ConfigError(f"--roi {roi_text} contains no grid nodes")
    return (i_lo, j_lo, i_hi, j_hi)


def _cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    sim_config = doc.simulation
    if args.workers is not None:
        sim_config = replace(sim_config, worker_count=args.workers)
    formats = doc.output.formats

    out_dir = Path(args.out)
    _make_out_dir(out_dir)
    _info(f"simulating {sim_config.grid.m + 1}x{sim_config.grid.n + 1} nodes ...")
    result = simulate(sim_config)
    _info(
        f"done: {result.time_steps} steps, {result.trajectory_points} trajectory points, "
        f"{result.evaluated_points} evaluated, {result.in_grid_points} in grid, "
        f"{result.cells_updated} cells updated, main loop {result.main_loop_seconds:.3f} s"
    )

    base = doc.output.basename
    written = []
    if "surface" in formats:
        path = out_dir / f"{base}.srtf"
        write_surface(result.field, path)
        written.append(path)
    if "csv" in formats:
        path = out_dir / f"{base}.csv"
        write_heights_csv(result.field, path)
        written.append(path)
    if "graymap" in formats:
        path = out_dir / f"{base}.pgm"
        try:
            write_graymap(result.field, path)
            written.append(path)
        except DomainError as exc:
            _info(f"graymap skipped: {exc}")
    if "metrics" in formats:
        path = out_dir / f"{base}_metrics.json"
        try:
            payload = areal_metrics(result.field).to_json_dict()
        except DomainError as exc:
            payload = {"error": str(exc)}
            _info(f"metrics skipped: {exc}")
        atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode())
        written.append(path)

    # wall time goes to stderr only: output files stay byte-identical across runs
    summary = {
        "time_steps": result.time_steps,
        "trajectory_points": result.trajectory_points,
        "cells_updated": result.cells_updated,
        "outputs": [p.name for p in written],
    }
    atomic_write_bytes(out_dir / f"{base}_summary.json", (json.dumps(summary, indent=2) + "\n").encode())
    for p in written:
        _info(f"wrote {p}")
    return 0


def _cmd_roughness(args) -> int:
    try:
        field = read_surface(Path(args.surface))
    except OSError as exc:
        raise ConfigError(f"cannot read surface {args.surface}: {exc}") from exc
    roi = _parse_roi(field, args.roi)
    if args.profile is None:
        metrics = areal_metrics(field, roi, leveling=args.level)
        _info(metrics.to_text())
        print(json.dumps(metrics.to_json_dict(), indent=2))
        return 0

    profile_arg = args.profile
    if ":" in profile_arg:
        direction, index_text = profile_arg.split(":", 1)
        try:
            index = int(index_text)
        except ValueError as exc:
            raise ConfigError(f"--profile index must be an integer, got {index_text!r}") from exc
    else:
        direction, index = profile_arg, None
    profile = extract_profile(field, direction, index, roi)
    ra = line_roughness(profile)
    _info(f"{profile.direction} profile at index {profile.index}: Ra = {ra:.6f} um")
    print("position_mm,height_um")
    for pos, height in zip(profile.positions_mm, profile.heights_mm):
        print(f"{float(pos)!r},{float(height) * MM_TO_UM!r}")
    return 0


def _cmd_dataset(args) -> int:
    job = _load_dataset_config(Path(args.config), count=args.samples, seed=args.seed)
    _make_out_dir(Path(args.out))
    _info(f"generating {job['count']} samples (seed {job['seed']}) into {args.out} ...")
    manifest = generate_dataset(**job, out_dir=Path(args.out))
    for note in manifest.notes:
        _info(f"note: {note}")
    failed = sum(1 for row in manifest.rows if row["status"] != "ok")
    _info(f"wrote {manifest.path} ({manifest.count - failed} ok, {failed} failed)")
    return 0 if failed == 0 else 2


def _cmd_bench(args) -> int:
    doc = _load_config(args.config)
    try:
        sizes = [float(s) for s in args.scale.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"--scale expects comma-separated numbers, got {args.scale!r}") from exc
    _make_out_dir(Path(args.out).parent)
    _info(f"benchmarking sizes {sizes} ...")
    report = run_benchmark(doc.simulation, sizes, case_id=Path(args.config).stem)
    atomic_write_bytes(
        Path(args.out), (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()
    )
    _info(f"wrote {args.out}")
    print(report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="millsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--workers", type=int, default=None, help="override worker count")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rough = sub.add_parser("roughness", help="areal metrics or a line profile from a surface file")
    p_rough.add_argument("--surface", required=True, help="SRTF surface file")
    p_rough.add_argument("--roi", default=None, help="x0,y0,x1,y1 in mm")
    p_rough.add_argument(
        "--profile", default=None, metavar="feed|pickfeed[:index]",
        help="emit a line profile as CSV instead of areal metrics",
    )
    p_rough.add_argument(
        "--level", default="mean", choices=("mean", "plane"),
        help="leveling before areal metrics (default: mean)",
    )
    p_rough.set_defaults(func=_cmd_roughness)

    p_data = sub.add_parser("dataset", help="generate an LHS-sampled batch of surfaces")
    p_data.add_argument("--config", required=True, help="dataset config JSON")
    p_data.add_argument("--samples", type=int, default=None, help="sample count")
    p_data.add_argument("--seed", type=int, default=None, help="RNG seed")
    p_data.add_argument("--out", required=True, help="output directory")
    p_data.set_defaults(func=_cmd_dataset)

    p_bench = sub.add_parser("bench", help="compare the optimized and reference kernels")
    p_bench.add_argument("--config", required=True, help="simulation config JSON")
    p_bench.add_argument("--scale", default="1", help="comma-separated size multipliers")
    p_bench.add_argument("--out", required=True, help="JSON report path")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, DomainError, SurfaceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MillsurfError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
