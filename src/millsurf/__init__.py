"""Face-milling surface topography simulation and roughness analysis."""

from .config import ConfigDocument, parse_config
from .dataset import ParameterRange, generate_dataset, lhs_sample
from .engine import (
    BenchmarkReport,
    SimulationConfig,
    SimulationResult,
    run_benchmark,
    simulate,
    simulate_reference,
    time_step,
)
from .errors import ConfigError, DomainError, MillsurfError, SurfaceFormatError
from .kinematics import ProcessParameters, derive_kinematics
from .roughness import ArealMetrics, LineProfile, areal_metrics, extract_profile, line_roughness
from .surface_grid import GridSpec, HeightField, TrajectoryRecord
from .surface_io import read_surface, write_surface
from .tool_geometry import (
    EdgeDiscretization,
    ToolDefinition,
    discretize_edge,
    effective_half_length,
)

__version__ = "0.1.0"

__all__ = [
    "ArealMetrics",
    "BenchmarkReport",
    "ConfigDocument",
    "ConfigError",
    "DomainError",
    "EdgeDiscretization",
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
    "TrajectoryRecord",
    "areal_metrics",
    "derive_kinematics",
    "discretize_edge",
    "effective_half_length",
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
