import millsurf

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    # growing or shrinking the public API must be a deliberate edit of this list
    assert len(PUBLIC_NAMES) == 32
    assert sorted(millsurf.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in millsurf.__all__:
        assert getattr(millsurf, name) is not None
