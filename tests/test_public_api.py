import contextlib
import io
import re
from pathlib import Path

import millsurf

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "ArealMetrics",
    "BenchmarkReport",
    "ConfigDocument",
    "ConfigError",
    "DomainError",
    "GridSpec",
    "HeightField",
    "LineProfile",
    "MillsurfError",
    "ParameterRange",
    "ProcessParameters",
    "SimulationConfig",
    "SimulationResult",
    "SurfaceFormatError",
    "ToolDefinition",
    "areal_metrics",
    "derive_kinematics",
    "extract_profile",
    "generate_dataset",
    "lhs_sample",
    "line_roughness",
    "parse_config",
    "read_surface",
    "run_benchmark",
    "simulate",
    "simulate_reference",
    "time_step",
    "write_surface",
]


def test_public_names_are_pinned():
    # growing or shrinking the public API must be a deliberate edit of this list
    assert len(PUBLIC_NAMES) == 28
    assert sorted(millsurf.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in millsurf.__all__:
        assert getattr(millsurf, name) is not None


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines()
    names = ["Sa", "Sq", "Sp", "Sv", "Sz", "Ssk", "Sku", "cells"]
    assert [line.split()[0] for line in lines] == names
