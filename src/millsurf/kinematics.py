"""Homogeneous transform chain: cutting edge -> tool -> spindle -> workpiece.

Internal units are mm, seconds, and radians; unit conversion happens only at
configuration parsing and report emission. The chain for a point p on the
cutting edge of tooth K at time t is

    p_workpiece = T_spindle_to_workpiece(t) . T_tool_to_spindle(K, t) . T_edge_to_tool(K) . p

where the edge-to-tool transform carries the rake rotation plus the radial
placement (cutter radius and per-tooth run-out), the tool-to-spindle transform
is a pure Z rotation by the instantaneous tooth angle, and the spindle-to-
workpiece transform is the straight-line feed translation along Y.

The ``*_rows`` builders return plain nested lists of Python floats and are the
single source of truth for matrix entries. They are private and check
nothing: the engine passes tooth indices from ``1..tooth_count`` and times
from a span that ``SimulationConfig`` keeps at or after 0. Both engine
kernels apply the edge-to-tool rows first (``_apply4``), to the edge point
(x, 0.0, z) of an arc sample: the edge lies in its frame's y = 0 plane.
The naive reference then applies the product (``_matmul4``) of the
spindle-to-workpiece and tool-to-spindle rows; the vectorized sweep applies
the same rotation by ``tooth_angle`` and shift directly, in the same
evaluation order, which keeps the kernels bit-identical.

A ``ProcessParameters`` keeps the spindle speed n in rpm and derives
omega = 2 pi n / 60 from it; its feed speed v_f = f_z z n / 60 follows from
the tooth count z of the tool it is asked about, so it cannot disagree with it.

``derive_kinematics`` owns the rule that resolves the speed pair (cutting
speed / spindle speed) and the feed pair (feed per tooth / feed speed), and
checks that each given member is finite and > 0, for config files and library
callers alike; ``config`` only reads the keys. It takes the tooth count and
the cutting diameter from the ``ToolDefinition`` it is given, which owns
their checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .tool_geometry import ToolDefinition


@dataclass(frozen=True)
class ProcessParameters:
    """Kinematic state of one cut: spindle speed in rpm, lengths mm, angles rad;
    angular velocity rad/s, and feed speed mm/s on a given tool's teeth."""

    spindle_speed_rpm: float
    feed_per_tooth_mm: float
    depth_of_cut_mm: float
    phase_rad: float = 0.0
    initial_position_mm: tuple[float, float | None, float] = (0.0, None, 0.0)

    @property
    def angular_velocity_rad_s(self) -> float:
        return 2.0 * math.pi * self.spindle_speed_rpm / 60.0

    def feed_speed_mm_s(self, tool: ToolDefinition) -> float:
        return self.feed_per_tooth_mm * tool.tooth_count * self.spindle_speed_rpm / 60.0

    def __post_init__(self) -> None:
        for name, value in (
            ("spindle speed", self.spindle_speed_rpm),
            ("angular velocity", self.angular_velocity_rad_s),
            ("feed per tooth", self.feed_per_tooth_mm),
            ("depth of cut", self.depth_of_cut_mm),
        ):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value}")
        x0, y0, z0 = self.initial_position_mm
        for name, value in (("phase", self.phase_rad), ("initial x", x0),
                            ("initial y", 0.0 if y0 is None else y0), ("initial z", z0)):
            if value is None or not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")


def tooth_angle(
    phase_rad: float,
    tooth_index: int,
    tooth_count: int,
    angular_velocity_rad_s: float,
    t_s,
):
    """Instantaneous rotation angle of tooth K about the spindle Z axis.

    Accepts a scalar or ndarray ``t_s`` and preserves the exact floating-point
    evaluation order either way.
    """
    base = phase_rad + (2.0 * math.pi) * (tooth_index - 1) / tooth_count
    return base - angular_velocity_rad_s * t_s


def _edge_to_tool_rows(tool: ToolDefinition, tooth_index: int) -> list[list[float]]:
    cf = math.cos(tool.radial_rake_rad)
    sf = math.sin(tool.radial_rake_rad)
    cp = math.cos(tool.axial_rake_rad)
    sp = math.sin(tool.axial_rake_rad)
    eps_r, eps_a = tool.runouts_mm[tooth_index - 1]
    tx = tool.cutting_diameter_mm / 2.0 + (tooth_index - 1) * eps_r
    tz = (tooth_index - 1) * eps_a
    return [
        [cf, sf * cp, sf * sp, tx],
        [-sf, cf * cp, cf * sp, 0.0],
        [0.0, -sp, cp, tz],
        [0.0, 0.0, 0.0, 1.0],
    ]


def _tool_to_spindle_rows(
    phase_rad: float,
    tooth_index: int,
    tooth_count: int,
    angular_velocity_rad_s: float,
    t_s: float,
) -> list[list[float]]:
    th = tooth_angle(phase_rad, tooth_index, tooth_count, angular_velocity_rad_s, t_s)
    c = math.cos(th)
    s = math.sin(th)
    return [
        [c, s, 0.0, 0.0],
        [-s, c, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]


def _spindle_to_workpiece_rows(
    x0_mm: float, y0_mm: float, z0_mm: float, feed_speed_mm_s: float, t_s: float
) -> list[list[float]]:
    return [
        [1.0, 0.0, 0.0, x0_mm],
        [0.0, 1.0, 0.0, y0_mm + feed_speed_mm_s * t_s],
        [0.0, 0.0, 1.0, z0_mm],
        [0.0, 0.0, 0.0, 1.0],
    ]


def _matmul4(a, b) -> list[list[float]]:
    """4x4 matrix product with fixed left-to-right summation order."""
    return [
        [
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] + a[i][3] * b[3][j]
            for j in range(4)
        ]
        for i in range(4)
    ]


def _apply4(m, x: float, y: float, z: float) -> tuple[float, float, float]:
    """Apply a homogeneous transform to (x, y, z, 1)."""
    return (
        m[0][0] * x + m[0][1] * y + m[0][2] * z + m[0][3],
        m[1][0] * x + m[1][1] * y + m[1][2] * z + m[1][3],
        m[2][0] * x + m[2][1] * y + m[2][2] * z + m[2][3],
    )


def derive_kinematics(
    tool: ToolDefinition,
    depth_of_cut_mm: float,
    cutting_speed_m_min: float | None = None,
    spindle_speed_rpm: float | None = None,
    feed_per_tooth_mm: float | None = None,
    feed_speed_mm_min: float | None = None,
    phase_rad: float = 0.0,
    initial_position_mm: tuple[float, float | None, float] = (0.0, None, 0.0),
) -> ProcessParameters:
    """Resolve the speed pair (cutting speed / spindle speed) and the feed pair
    (feed per tooth / feed speed).

    Standard machining relations: n = 1000 v_c / (pi D) and
    v_f = f_z z_n n / 60, with the diameter D and the tooth count z_n read
    from ``tool``. Each pair needs at least one member. When both are given
    they must agree (1e-9 relative for the speeds, 1e-9 mm/s for the feeds),
    and the spindle speed and the feed per tooth are used. Errors name the
    keys as a config file's ``process`` block writes them.
    """
    for key, value in (("cutting_speed_m_min", cutting_speed_m_min),
                       ("spindle_speed_rpm", spindle_speed_rpm),
                       ("feed_per_tooth_mm", feed_per_tooth_mm),
                       ("feed_speed_mm_min", feed_speed_mm_min)):
        if value is not None and not 0 < value < math.inf:  # also rejects NaN
            raise ConfigError(f"process.{key}: must be finite and > 0, got {value}")

    if cutting_speed_m_min is None and spindle_speed_rpm is None:
        raise ConfigError("process: one of cutting_speed_m_min / spindle_speed_rpm is required")
    rpm = spindle_speed_rpm
    if cutting_speed_m_min is not None:
        implied_rpm = 1000.0 * cutting_speed_m_min / (math.pi * tool.cutting_diameter_mm)
        if rpm is None:
            rpm = implied_rpm
        elif abs(implied_rpm - rpm) > 1e-9 * max(abs(rpm), 1.0):
            raise ConfigError(
                "process.cutting_speed_m_min and process.spindle_speed_rpm are inconsistent: "
                f"{cutting_speed_m_min} m/min implies {implied_rpm:.6f} rpm, got {rpm}"
            )

    if feed_per_tooth_mm is None and feed_speed_mm_min is None:
        raise ConfigError("process: one of feed_per_tooth_mm / feed_speed_mm_min is required")
    f_z = feed_per_tooth_mm
    if f_z is None:
        f_z = feed_speed_mm_min / (tool.tooth_count * rpm)
    process = ProcessParameters(rpm, f_z, depth_of_cut_mm, phase_rad, initial_position_mm)
    if feed_per_tooth_mm is not None and feed_speed_mm_min is not None:
        feed_mm_s = process.feed_speed_mm_s(tool)
        if abs(feed_mm_s - feed_speed_mm_min / 60.0) > 1e-9:
            raise ConfigError(
                "process.feed_per_tooth_mm and process.feed_speed_mm_min are inconsistent: "
                f"f_z {f_z} implies {feed_mm_s * 60.0:.9f} mm/min, got {feed_speed_mm_min}"
            )
    return process
