"""End-to-end and per-layer benchmark of the millsurf CLI.

Usage:
    python3 perfbench/run.py --workload {case1,am_smooth,lhs} --seed N \
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-digests

Each workload runs real ``millsurf`` CLI commands, one at a time (closed
loop), each in a fresh ``python3`` process with ``PYTHONPATH`` set to this
checkout's ``src``. An iteration is one pass over a workload's commands; the
benchmark repeats iterations while the next one is expected to end within
``--seconds`` and reports medians. See ``perfbench/README.md`` for the
workloads, the metrics and which layer metric should move which end-to-end
metric.

``--seed`` picks the inputs: per-tooth run-outs drawn from
``random.Random(seed % VARIANTS)`` replace the run-outs of the workload's
base config. Run-outs change the surface but not the amount of work, so
seeds are comparable. Every output is checked against the sha256 digests in
``digests.json``, recorded for each of the ``VARIANTS`` input sets with
``--record-digests``. Before timing, the vectorized kernel is checked against
the naive reference on ``inputs/bench_10x5.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (spans around the public functions the CLI calls, see
``child.py``), the tracing overhead and the single-thread speed-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
DIGESTS = BENCH / "digests.json"
RUN_DIR = ROOT / ".perfbench_run"

VARIANTS = 8  # input sets with recorded digests; --seed selects seed % VARIANTS
WORKERS = 2  # engine threads (case1, am_smooth) or sample threads (lhs)
ROI = "-4,1,4,4"  # case1 interior in mm: nodes 100..900 x 100..400

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "config.parse_s": "s",
    "engine.simulate_s": "s",
    "engine.sweep_s": "s",
    "engine.plan_s": "s",
    "engine.time_steps": "count",
    "engine.nominal_points": "count",
    "engine.nominal_pts_per_s": "1/s",
    "engine.cells_updated": "count",
    "engine.parallel_speedup": "x",
    "roughness.areal_s": "s",
    "roughness.profile_s": "s",
    "surface_io.write_srtf_s": "s",
    "surface_io.write_csv_s": "s",
    "surface_io.write_pgm_s": "s",
    "surface_io.write_metrics_s": "s",
    "surface_io.read_srtf_s": "s",
    "surface_io.bytes_written": "B",
    "dataset.lhs_s": "s",
    "dataset.generate_s": "s",
    "dataset.sample_s_p50": "s",
    "dataset.sample_s_max": "s",
    "dataset.pool_idle_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def clock() -> float:
    """System-wide monotonic clock; child.py reads the same one."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    name: str  # stdout is kept as <name>.stdout and checked like the files
    args: list[str]  # millsurf CLI arguments


def _simulate(config: Path, it: Path, workers: int) -> Step:
    args = ["simulate", "--config", str(config), "--workers", str(workers), "--out", str(it / "out")]
    return Step("simulate", args)


def case1_steps(work: Path, it: Path, workers: int) -> list[Step]:
    srtf = str(it / "out" / "case1.srtf")
    return [
        _simulate(work / "case1.json", it, workers),
        Step("areal", ["roughness", "--surface", srtf, f"--roi={ROI}"]),
        Step("profile", ["roughness", "--surface", srtf, f"--roi={ROI}", "--profile", "feed"]),
    ]


def am_smooth_steps(work: Path, it: Path, workers: int) -> list[Step]:
    return [_simulate(work / "am_smooth.json", it, workers)]


def lhs_steps(work: Path, it: Path, workers: int) -> list[Step]:
    # Sample threads come from lhs.json; each sample's simulate is forced to
    # worker_count=1 by the dataset runner, so ``workers`` does not apply.
    return [Step("dataset", ["dataset", "--config", str(work / "lhs.json"), "--out", str(it / "out")])]


@dataclass(frozen=True)
class Workload:
    base: str  # input config whose run-outs the seed replaces
    steps: Callable[[Path, Path, int], list[Step]]  # (work dir, iteration dir, workers)
    baseline: bool  # traced run also sweeps at one worker for engine.parallel_speedup


WORKLOADS = {
    "case1": Workload("case1.json", case1_steps, baseline=True),
    "am_smooth": Workload("am_smooth.json", am_smooth_steps, baseline=True),
    "lhs": Workload("case1.json", lhs_steps, baseline=False),
}


def prepare_inputs(workload: str, variant: int, work: Path) -> None:
    """Write the workload's configs for one input variant into ``work``."""
    spec = WORKLOADS[workload]
    config = json.loads((INPUTS / spec.base).read_text())
    rng = random.Random(variant)
    config["tool"]["runouts_mm"] = [
        [round(rng.uniform(-0.03, 0.03), 4), round(rng.uniform(-0.01, 0.01), 4)]
        for _ in range(config["tool"]["tooth_count"])
    ]
    (work / spec.base).write_text(json.dumps(config, indent=2) + "\n")
    if workload == "lhs":
        shutil.copyfile(INPUTS / "lhs.json", work / "lhs.json")


# --- running one iteration -------------------------------------------------


@dataclass
class Iteration:
    kind: str  # "plain", "traced" or "baseline"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    surfaces: int
    attempted: int
    failed: set[str]
    digests: dict[str, str]
    records: list[dict] = field(default_factory=list)
    spawn: list[float] = field(default_factory=list)


def run_cli(args: list[str], record: Path, trace: bool, stdout: Path, stderr: Path):
    """Run one CLI command in a fresh process; return (spawn time, wall, rc, cpu_s, rss_mb).

    ``os.wait4`` gives this child's own CPU time and peak RSS; the
    RUSAGE_CHILDREN totals would mix in earlier children.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), str(record)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *args]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1 - t0, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _owner(rel: str, steps: list[Step]) -> str:
    """The operation that produced an output: a sample, a command's stdout, or the first command."""
    name = Path(rel).name
    if name.startswith("sample_"):
        return name.split(".")[0]
    if rel.startswith("out/"):
        return steps[0].name
    return name.split(".")[0]


def _setup_s(record: dict, spawn: float) -> float | None:
    """Spawn until the first sweep starts: import, parsing, and simulate outside its main loop."""
    sims = [s for s in record["spans"] if s["name"].endswith(".simulate") and "main_loop_seconds" in s]
    if not sims:
        return None
    first = min(sims, key=lambda s: s["start"])
    return (first["start"] - spawn) + (first["end"] - first["start"] - first["main_loop_seconds"])


def run_iteration(workload: str, work: Path, index: int, kind: str,
                  expected: dict[str, str] | None) -> Iteration:
    it = work / f"iter{index}"
    meta = work / f"meta{index}"
    it.mkdir()
    meta.mkdir()
    workers = 1 if kind == "baseline" else WORKERS
    steps = WORKLOADS[workload].steps(work, it, workers)
    result = Iteration(kind, 0.0, 0.0, 0.0, None, 0, len(steps), set(), {})
    for step in steps:
        record_path = meta / f"{step.name}.json"
        spawn, wall, rc, cpu, rss = run_cli(
            step.args, record_path, kind != "plain", it / f"{step.name}.stdout",
            meta / f"{step.name}.stderr",
        )
        result.wall_s += wall
        result.cpu_s += cpu
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
        if rc != 0:
            result.failed.add(step.name)
            tail = (meta / f"{step.name}.stderr").read_text(errors="replace")[-2000:]
            print(f"[{workload}] {step.name} exited {rc}:\n{tail}", file=sys.stderr)
        if record_path.exists():
            record = json.loads(record_path.read_text())
            result.records.append(record)
            result.spawn.append(spawn)
            if result.setup_s is None:
                result.setup_s = _setup_s(record, spawn)

    for path in sorted(p for p in it.rglob("*") if p.is_file()):
        result.digests[path.relative_to(it).as_posix()] = _sha256(path)
    result.surfaces = sum(1 for rel in result.digests if rel.endswith(".srtf"))
    if workload == "lhs":
        result.attempted += json.loads((INPUTS / "lhs.json").read_text())["count"]
    if expected is not None:
        for rel in set(expected) | set(result.digests):
            if expected.get(rel) != result.digests.get(rel):
                result.failed.add(_owner(rel, steps))
                print(f"[{workload}] output mismatch: {rel}", file=sys.stderr)
    shutil.rmtree(it)
    shutil.rmtree(meta)
    return result


def oracle_check() -> bool:
    """Vectorized kernel == naive reference, bit for bit, on the bench_10x5 config."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        from millsurf.config import parse_config
        from millsurf.engine import simulate, simulate_reference

        config = parse_config((INPUTS / "bench_10x5.json").read_text()).to_simulation_config()
        return bool(np.array_equal(simulate(config).field.heights,
                                   simulate_reference(config).field.heights))
    except Exception:  # any failure of the program under test is a failed check
        traceback.print_exc()
        return False


# --- per-layer metrics from spans ------------------------------------------


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _samples(spans: list[dict]) -> list[tuple[float, float]]:
    """(start, end) of each dataset sample, rebuilt from the spans of its pool thread.

    A sample is the run of dataset.* calls on one thread that starts with
    config_from_dict; the base config's fail-fast parse comes before
    lhs_sample and is not a sample.
    """
    lhs = [s for s in spans if s["name"] == "dataset.lhs_sample"]
    if not lhs:
        return []
    after = max(s["end"] for s in lhs)
    by_thread: dict[int, list[dict]] = {}
    for s in spans:
        if s["name"].startswith("dataset.") and s["start"] >= after:
            by_thread.setdefault(s["thread"], []).append(s)
    samples = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s["start"])
        current = None
        for s in thread_spans:
            if s["name"] == "dataset.config_from_dict":
                current = [s["start"], s["end"]]
                samples.append(current)
            elif current is not None:
                current[1] = max(current[1], s["end"])
    return [tuple(s) for s in samples]


def layer_metrics(records: list[dict], sample_threads: int) -> dict[str, float]:
    """Per-layer busy times and counts of one traced iteration (all its commands)."""
    spans = [s for r in records for s in r["spans"]]

    def total(*names: str) -> float:
        return sum(_dur(s) for s in spans if s["name"] in names)

    sims = [s for s in spans if s["name"] in ("cli.simulate", "dataset.simulate")]
    simulate_s = sum(_dur(s) for s in sims)
    sweep_s = sum(s["main_loop_seconds"] for s in sims)
    nominal = sum(s["trajectory_points"] for s in sims)
    writes = [s for s in spans if "bytes" in s]
    samples = _samples(spans)
    sample_s = [end - start for start, end in samples]
    window = (max(e for _, e in samples) - min(s for s, _ in samples)) if samples else 0.0
    return {
        "cli.import_s": records[0]["import_s"],
        "config.parse_s": total("cli.parse_config", "dataset.config_from_dict"),
        "engine.simulate_s": simulate_s,
        "engine.sweep_s": sweep_s,
        "engine.plan_s": simulate_s - sweep_s,
        "engine.time_steps": sum(s["time_steps"] for s in sims),
        "engine.nominal_points": nominal,
        "engine.nominal_pts_per_s": nominal / sweep_s if sweep_s > 0 else 0.0,
        "engine.cells_updated": sum(s["cells_updated"] for s in sims),
        "roughness.areal_s": total("cli.areal_metrics", "dataset.areal_metrics"),
        "roughness.profile_s": total("cli.extract_profile"),
        "surface_io.write_srtf_s": total("cli.write_surface", "dataset.write_surface"),
        "surface_io.write_csv_s": total("cli.write_heights_csv"),
        "surface_io.write_pgm_s": total("cli.write_graymap"),
        "surface_io.write_metrics_s": sum(
            _dur(s) for s in writes if s.get("file", "").endswith("_metrics.json")
        ),
        "surface_io.read_srtf_s": total("cli.read_surface"),
        "surface_io.bytes_written": sum(s["bytes"] for s in writes),
        "dataset.lhs_s": total("dataset.lhs_sample"),
        "dataset.generate_s": total("cli.generate_dataset"),
        "dataset.sample_s_p50": statistics.median(sample_s) if sample_s else 0.0,
        "dataset.sample_s_max": max(sample_s, default=0.0),
        "dataset.pool_idle_frac": (
            1.0 - sum(sample_s) / (sample_threads * window) if window > 0 else 0.0
        ),
    }


# --- measuring -------------------------------------------------------------


def measure(workload: str, work: Path, seconds: float, trace: bool,
            expected: dict[str, str]) -> list[Iteration]:
    """Closed loop of iterations inside a ``seconds`` window.

    The plain run repeats untraced iterations. The traced run always makes
    one untraced and one traced iteration (their ratio is the tracing
    overhead) and, where the workload has one, a traced single-worker
    baseline; it then alternates untraced and traced iterations. An
    iteration starts only if the longest earlier one of its kind would
    still end inside the window.
    """
    start = clock()
    took: dict[str, float] = {}
    iterations: list[Iteration] = []

    def run(kind: str) -> None:
        t0 = clock()
        iterations.append(run_iteration(workload, work, len(iterations), kind, expected))
        took[kind] = max(took.get(kind, 0.0), clock() - t0)

    def fits(*kinds: str) -> bool:
        return clock() - start + sum(took[k] for k in kinds) <= seconds

    if not trace:
        run("plain")
        while fits("plain"):
            run("plain")
        return iterations
    run("plain")
    run("traced")
    if WORKLOADS[workload].baseline:
        run("baseline")
    while fits("plain", "traced"):
        run("plain")
        run("traced")
    return iterations


def end_to_end_metrics(iterations: list[Iteration]) -> dict[str, list[float]]:
    setups = [i.setup_s for i in iterations if i.setup_s is not None]
    if not setups:
        raise RuntimeError("no iteration reached the sweep, so setup_s is unknown")
    return {
        "wall_s": [i.wall_s for i in iterations],
        "setup_s": setups,
        "cpu_s": [i.cpu_s for i in iterations],
        "peak_rss_mb": [i.peak_rss_mb for i in iterations],
        "samples_per_s": [i.surfaces / i.wall_s for i in iterations],
    }


def traced_metrics(iterations: list[Iteration]) -> dict[str, list[float]]:
    traced = [i for i in iterations if i.kind == "traced"]
    plain = [i for i in iterations if i.kind == "plain"]
    per_iter = [layer_metrics(i.records, WORKERS) for i in traced]
    values = {name: [m[name] for m in per_iter] for name in per_iter[0]}
    baseline = [i for i in iterations if i.kind == "baseline"]
    if baseline:
        single = layer_metrics(baseline[0].records, WORKERS)["engine.sweep_s"]
        values["engine.parallel_speedup"] = [single / statistics.median(values["engine.sweep_s"])]
    else:
        # lhs: the dataset runner forces worker_count=1, so each sweep is its
        # own single-thread baseline.
        values["engine.parallel_speedup"] = [1.0]
    values["trace.overhead_frac"] = [
        statistics.median([i.wall_s for i in traced]) / statistics.median([i.wall_s for i in plain]) - 1.0
    ]
    return values


def report(values: dict[str, list[float]], units: dict[str, str]) -> dict[str, dict]:
    metrics = {}
    for name, unit in units.items():
        vals = values[name]
        value = statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:28s} {value:>16.6g} {unit:6s} "
              f"(median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})")
    return metrics


def record_digests() -> int:
    """Run every workload once per input variant and store its output digests."""
    table: dict[str, dict[str, dict[str, str]]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for variant in range(VARIANTS):
            work = _workdir(f"record-{workload}")
            try:
                prepare_inputs(workload, variant, work)
                it = run_iteration(workload, work, 0, "plain", None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if it.failed:
                print(f"{workload} variant {variant}: {sorted(it.failed)} failed", file=sys.stderr)
                return 1
            table[workload][str(variant)] = it.digests
            print(f"{workload} variant {variant}: {len(it.digests)} outputs, {it.wall_s:.2f} s")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def _workdir(tag: str) -> Path:
    work = RUN_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run each workload on every input variant and rewrite digests.json")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_cli kills and reaps its running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "millsurf" / "cli.py").is_file():
        print(f"millsurf sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    variant = args.seed % VARIANTS
    expected = json.loads(DIGESTS.read_text())[args.workload][str(variant)]
    work = _workdir(args.workload)
    try:
        prepare_inputs(args.workload, variant, work)
        oracle_ok = oracle_check()
        iterations = measure(args.workload, work, args.seconds, bool(args.trace), expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = 1 + sum(i.attempted for i in iterations)
    failed = (0 if oracle_ok else 1) + sum(len(i.failed) for i in iterations)
    print(f"{args.workload} seed {args.seed} (input variant {variant}), "
          f"{len(iterations)} iterations in {args.seconds:g} s window")
    try:
        if args.trace:
            values = traced_metrics(iterations)
            units = PER_LAYER
        else:
            values = end_to_end_metrics([i for i in iterations if i.kind == "plain"])
            units = END_TO_END
    except (RuntimeError, LookupError, ZeroDivisionError, statistics.StatisticsError) as exc:
        print(f"no metrics: {failed} of {attempted} operations failed ({exc!r})", file=sys.stderr)
        return 1
    if args.trace:
        trace_file = RUN_DIR / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps(
            [{"kind": i.kind, "spawn": i.spawn, "records": i.records} for i in iterations]
        ))
        print(f"spans written to {trace_file}")
    metrics = report(values, units)
    print(f"  {'failed_frac':28s} {failed / attempted:>16.6g}        ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
