"""Run one millsurf CLI command in this process and record where its time went.

Usage:
    python3 child.py RECORD_JSON [--trace] -- <millsurf CLI arguments>

The parent (run.py) starts one of these per CLI command, with PYTHONPATH set
to the checkout's ``src``. It times ``import millsurf.cli``, wraps public
functions where ``cli.py`` and ``dataset.py`` imported them, calls
``millsurf.cli.main`` and exits with its code.

Without ``--trace`` only ``simulate`` is wrapped, at both import sites: the
benchmark needs its start and main-loop time for ``setup_s``, and that costs
two clock reads per call. With ``--trace`` every name in ``TRACED`` is
wrapped. Spans (name, start, end, parent span, thread, counts) stay in memory
and are written to RECORD_JSON once, when the command ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SIMULATE_SITES = {"millsurf.cli": ("simulate",), "millsurf.dataset": ("simulate",)}

TRACED = {
    "millsurf.cli": (
        "parse_config",
        "simulate",
        "write_surface",
        "write_heights_csv",
        "write_graymap",
        "atomic_write_bytes",
        "areal_metrics",
        "read_surface",
        "extract_profile",
        "generate_dataset",
    ),
    "millsurf.dataset": (
        "config_from_dict",
        "simulate",
        "write_surface",
        "areal_metrics",
        "lhs_sample",
    ),
}

_SIM_COUNTS = ("time_steps", "trajectory_points", "cells_updated", "main_loop_seconds")
_FILE_WRITERS = ("write_surface", "write_heights_csv", "write_graymap")


def clock() -> float:
    """System-wide monotonic clock, comparable with the parent's timestamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    if name == "simulate":
        return {key: getattr(result, key) for key in _SIM_COUNTS}
    if name in _FILE_WRITERS:
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": Path(path).stat().st_size}
    if name == "atomic_write_bytes":
        path = args[0] if args else kwargs["path"]
        payload = args[1] if len(args) > 1 else kwargs["payload"]
        return {"bytes": len(payload), "file": Path(path).name}
    return {}


class Recorder:
    """Collects spans from wrapped functions; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, module, name: str) -> None:
        fn = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(self._ids),
                "name": label,
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(),
            }
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
                self.spans.append(span)
            span.update(_counts(name, args, kwargs, result))
            return result

        setattr(module, name, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        print("usage: child.py RECORD_JSON [--trace] -- <millsurf CLI arguments>", file=sys.stderr)
        return 3
    split = argv.index("--")
    record_path = Path(argv[0])
    trace = "--trace" in argv[1:split]
    cli_args = argv[split + 1 :]

    t0 = clock()
    import millsurf.cli
    import millsurf.dataset

    import_s = clock() - t0
    if not Path(millsurf.cli.__file__).resolve().is_relative_to(SRC):
        print(f"millsurf imported from {millsurf.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    recorder = Recorder()
    modules = {"millsurf.cli": millsurf.cli, "millsurf.dataset": millsurf.dataset}
    untraced = []
    for module_name, names in (TRACED if trace else SIMULATE_SITES).items():
        for name in names:
            if hasattr(modules[module_name], name):
                recorder.wrap(modules[module_name], name)
            elif name == "simulate":
                print(f"{module_name}.simulate is gone; setup_s cannot be measured", file=sys.stderr)
                return 3
            else:
                untraced.append(f"{module_name}.{name}")
    try:
        return millsurf.cli.main(cli_args)
    finally:
        record = {"import_s": import_s, "untraced": untraced, "spans": recorder.spans}
        record_path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
