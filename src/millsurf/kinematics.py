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
single source of truth for matrix entries. Both engine kernels apply the
edge-to-tool rows to the edge point first (``_apply4``). The naive reference
then applies the product (``_matmul4``) of the spindle-to-workpiece and
tool-to-spindle rows; the vectorized sweep and its trajectory pass apply the
same rotation by ``tooth_angle`` and shift directly, in the same evaluation
order, which keeps the kernels bit-identical.

``derive_kinematics`` owns the rule that resolves the speed pair (cutting
speed / spindle speed) and the feed pair (feed per tooth / feed speed), for
config files and library callers alike; ``config`` only reads the keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .tool_geometry import ToolDefinition


@dataclass(frozen=True)
class ProcessParameters:
    """Kinematic state of one cut. Feed speed is mm/s; angles rad; lengths mm."""

    angular_velocity_rad_s: float
    feed_speed_mm_s: float
    feed_per_tooth_mm: float
    depth_of_cut_mm: float
    phase_rad: float = 0.0
    initial_position_mm: tuple[float, float | None, float] = (0.0, None, 0.0)

    def __post_init__(self) -> None:
        for name, value in (
            ("angular velocity", self.angular_velocity_rad_s),
            ("feed speed", self.feed_speed_mm_s),
            ("feed per tooth", self.feed_per_tooth_mm),
            ("depth of cut", self.depth_of_cut_mm),
        ):
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value}")
        x0, y0, z0 = self.initial_position_mm
        for name, value in (("phase", self.phase_rad), ("initial x", x0),
                            ("initial y", y0), ("initial z", z0)):
            if value is not None and not math.isfinite(value):
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


def _check_tooth_index(tooth_index: int, tooth_count: int) -> None:
    if not 1 <= tooth_index <= tooth_count:
        raise DomainError(f"tooth index {tooth_index} out of range 1..{tooth_count}")


def _edge_to_tool_rows(tool: ToolDefinition, tooth_index: int) -> list[list[float]]:
    _check_tooth_index(tooth_index, tool.tooth_count)
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
    if tooth_count < 1:
        raise DomainError(f"tooth_count must be >= 1, got {tooth_count}")
    _check_tooth_index(tooth_index, tooth_count)
    if t_s < 0:
        raise DomainError(f"time must be >= 0, got {t_s}")
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
    if t_s < 0:
        raise DomainError(f"time must be >= 0, got {t_s}")
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
    tooth_count: int,
    cutting_diameter_mm: float,
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

    Standard machining relations: n = 1000 v_c / (pi D), omega = 2 pi n / 60,
    v_f = f_z z_n n / 60. Each pair needs at least one member. When both are
    given they must agree (1e-9 relative for the speeds, 1e-9 mm/s for the
    feeds), and the spindle speed and the feed per tooth are used. Errors name
    the keys as a config file's ``process`` block writes them.
    """
    if isinstance(tooth_count, bool) or not isinstance(tooth_count, int) or tooth_count < 1:
        raise ConfigError(f"tooth_count must be an integer >= 1, got {tooth_count!r}")
    if cutting_diameter_mm <= 0:
        raise ConfigError(f"cutting_diameter_mm must be > 0, got {cutting_diameter_mm}")
    for key, value in (("cutting_speed_m_min", cutting_speed_m_min),
                       ("spindle_speed_rpm", spindle_speed_rpm),
                       ("feed_per_tooth_mm", feed_per_tooth_mm),
                       ("feed_speed_mm_min", feed_speed_mm_min)):
        if value is not None and not 0 < value < math.inf:  # also rejects NaN
            raise ConfigError(f"{key} must be finite and > 0, got {value}")

    if cutting_speed_m_min is None and spindle_speed_rpm is None:
        raise ConfigError("process: one of cutting_speed_m_min / spindle_speed_rpm is required")
    rpm = spindle_speed_rpm
    if cutting_speed_m_min is not None:
        implied_rpm = 1000.0 * cutting_speed_m_min / (math.pi * cutting_diameter_mm)
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
        f_z = feed_speed_mm_min / (tooth_count * rpm)
    feed_mm_s = f_z * tooth_count * rpm / 60.0
    both = feed_per_tooth_mm is not None and feed_speed_mm_min is not None
    if both and abs(feed_mm_s - feed_speed_mm_min / 60.0) > 1e-9:
        raise ConfigError(
            "process.feed_per_tooth_mm and process.feed_speed_mm_min are inconsistent: "
            f"f_z {f_z} implies {feed_mm_s * 60.0:.9f} mm/min, got {feed_speed_mm_min}"
        )

    return ProcessParameters(
        angular_velocity_rad_s=2.0 * math.pi * rpm / 60.0,
        feed_speed_mm_s=feed_mm_s,
        feed_per_tooth_mm=f_z,
        depth_of_cut_mm=depth_of_cut_mm,
        phase_rad=phase_rad,
        initial_position_mm=initial_position_mm,
    )
