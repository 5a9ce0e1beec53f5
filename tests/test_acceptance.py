"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete (pytest otherwise shows them only for failing tests or with -rA).
The whole suite is sized to finish in a few minutes on commodity hardware.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from millsurf import (
    GridSpec,
    HeightField,
    ParameterRange,
    SimulationConfig,
    areal_metrics,
    derive_kinematics,
    extract_profile,
    generate_dataset,
    lhs_sample,
    read_surface,
    run_benchmark,
    simulate,
    simulate_reference,
    time_step,
    write_surface,
)
from millsurf import engine

from helpers import (
    case1_tool,
    dominant_period_mm,
    front_cut_config,
    linear_fit_r2,
    machined_rect_roi,
    small_random_config,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")


# --- shared simulation results -------------------------------------------------

@pytest.fixture(scope="session")
def random_config_results():
    """Criterion 1 workload: optimized + reference runs of randomized configs,
    with the dominance cull off, so that the optimized kernel computes every
    point that can land and its in-grid count must equal the reference's."""
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_REFRESH_RATIO", math.inf)
        for seed in range(20):
            config = small_random_config(seed + 1000)
            results.append((config, simulate(config), simulate_reference(config)))
    return results


@pytest.fixture(scope="session")
def cusp_result():
    """Criterion 2 workload: Case 1 cusp geometry on a leading-edge window."""
    config = front_cut_config(feed_per_tooth_mm=0.6, spacing_mm=0.002)
    return config, simulate(config)


@pytest.fixture(scope="session")
def runout_results():
    """Criterion 3 workload: identical teeth vs +9 um axial run-out on tooth 2."""
    uniform = front_cut_config(feed_per_tooth_mm=0.5, spacing_mm=0.004)
    shifted = front_cut_config(
        feed_per_tooth_mm=0.5, spacing_mm=0.004,
        runouts=((0.0, 0.0), (0.0, 0.009)),
    )
    return (uniform, simulate(uniform)), (shifted, simulate(shifted))


# --- criterion 1 ----------------------------------------------------------------

def test_criterion_1_kernel_oracle_equivalence(random_config_results):
    worst = 0.0
    for config, opt, ref in random_config_results:
        grid = config.grid
        assert grid.m + 1 <= 200 and grid.n + 1 <= 200
        assert opt.trajectory_points <= 50_000
        worst = max(worst, float(np.max(np.abs(opt.field.heights - ref.field.heights))))
        assert opt.in_grid_points == ref.in_grid_points
    report(1, "kernel-oracle equivalence", worst <= 1e-12,
           f"(20 configs, max height deviation {worst:.2e} mm)")
    assert worst <= 1e-12


# --- criterion 2 ----------------------------------------------------------------

def test_criterion_2_closed_form_cusp_height(cusp_result):
    config, result = cusp_result
    profile = extract_profile(result.field, "feed")
    window = (profile.positions_mm >= 0.25) & (profile.positions_mm <= 4.75)
    heights = profile.heights_mm[window]
    assert heights.size > 2000
    measured_um = (heights.max() - heights.min()) * 1000.0
    expected_um = (5.0 - math.sqrt(5.0**2 - (0.6 / 2.0) ** 2)) * 1000.0
    tol_um = 0.4
    ok = abs(measured_um - expected_um) <= tol_um
    report(2, "closed-form cusp height", ok,
           f"(measured {measured_um:.4f} um vs {expected_um:.4f} um, tol +-{tol_um} um)")
    assert abs(measured_um - expected_um) <= tol_um


# --- criterion 3 ----------------------------------------------------------------

def test_criterion_3_runout_period_shift(runout_results):
    (uni_cfg, uni_res), (run_cfg, run_res) = runout_results
    feed = uni_cfg.process.feed_per_tooth_mm
    teeth = uni_cfg.tool.tooth_count
    spacing = uni_cfg.grid.spacing_mm

    periods = []
    for res in (uni_res, run_res):
        profile = extract_profile(res.field, "feed")
        window = (profile.positions_mm >= 0.25) & (profile.positions_mm <= 4.75)
        periods.append(
            dominant_period_mm(profile.heights_mm[window], spacing,
                               lag_lo_mm=0.3 * feed, lag_hi_mm=1.4 * teeth * feed)
        )
    uniform_period, shifted_period = periods
    tol = 5 * spacing
    ok = abs(uniform_period - feed) <= tol and abs(shifted_period - teeth * feed) <= tol
    report(3, "run-out period shift", ok,
           f"(dominant period {uniform_period:.3f} -> {shifted_period:.3f} mm; "
           f"expected {feed} -> {teeth * feed} mm)")
    assert abs(uniform_period - feed) <= tol
    assert abs(shifted_period - teeth * feed) <= tol


# --- criterion 4 ----------------------------------------------------------------

def test_criterion_4_roughness_analytic_suite():
    spec = GridSpec(spacing_mm=0.01, x_min_mm=0.0, y_min_mm=0.0, m=99, n=99)

    j = np.arange(100)
    sine_row_mm = 0.001 * np.sin(2.0 * np.pi * j / 100.0)
    sine = HeightField(spec, 1.0, np.tile(sine_row_mm, (100, 1)).reshape(-1))
    m_sine = areal_metrics(sine)

    two_level = np.full((100, 100), 0.001)
    two_level[:50] = -0.001
    m_two = areal_metrics(HeightField(spec, 1.0, two_level.reshape(-1)))

    m_flat = areal_metrics(HeightField(spec, 1.0, np.zeros(100 * 100)))

    checks = {
        "sine Sa": abs(m_sine.sa_um - 2.0 / math.pi) <= 0.01 * (2.0 / math.pi),
        "sine Sq": abs(m_sine.sq_um - 1.0 / math.sqrt(2.0)) <= 0.01 / math.sqrt(2.0),
        "sine Ssk": abs(m_sine.ssk) <= 0.01,
        "sine Sku": abs(m_sine.sku - 1.5) <= 0.015,
        "two-level": (
            m_two.sa_um == pytest.approx(1.0, abs=1e-9)
            and m_two.sq_um == pytest.approx(1.0, abs=1e-9)
            and m_two.sz_um == pytest.approx(2.0, abs=1e-9)
            and m_two.ssk == pytest.approx(0.0, abs=1e-9)
            and m_two.sku == pytest.approx(1.0, abs=1e-9)
        ),
        "flat": (
            m_flat.sa_um == 0.0 and m_flat.sq_um == 0.0 and m_flat.sz_um == 0.0
            and m_flat.ssk is None and m_flat.sku is None
        ),
    }
    ok = all(checks.values())
    detail = f"(sine Sa {m_sine.sa_um:.4f}, Sq {m_sine.sq_um:.4f}, Sku {m_sine.sku:.4f}"
    if not ok:
        detail += "; failed: " + ", ".join(k for k, v in checks.items() if not v)
    report(4, "roughness analytic suite", ok, detail + ")")
    assert ok, checks


# --- criterion 5 ----------------------------------------------------------------

def test_criterion_5_metric_consistency(random_config_results, cusp_result, runout_results):
    fields = [opt.field for _, opt, _ in random_config_results]
    fields.append(cusp_result[1].field)
    fields.extend(res.field for _, res in runout_results)

    checked = 0
    for field in fields:
        roi = machined_rect_roi(field)
        assert roi is not None, "surface has no machined rectangle"
        metrics = areal_metrics(field, roi)
        assert metrics.sz_um == pytest.approx(metrics.sp_um + metrics.sv_um, abs=1e-9)
        # one ulp of slack: S_q == S_a exactly on two-point distributions
        assert metrics.sq_um >= metrics.sa_um * (1.0 - 1e-12)
        if metrics.sku is not None:
            assert metrics.sku >= (metrics.ssk**2 + 1.0) * (1.0 - 1e-12)
        checked += 1
    ok = checked == len(fields)
    report(5, "metric consistency invariants", ok,
           f"(held on all {checked} simulated surfaces from criteria 1-3)")
    assert ok


# --- criterion 6 ----------------------------------------------------------------

def _table6_config(v_c: float, f_z: float, a_p: float, dt: float) -> SimulationConfig:
    process = derive_kinematics(
        case1_tool(), depth_of_cut_mm=a_p,
        cutting_speed_m_min=v_c, feed_per_tooth_mm=f_z,
        initial_position_mm=(0.0, None, 0.0),
    )
    grid = GridSpec.from_extents(0.01, (-5.0, 5.0), (0.0, 5.0))
    return SimulationConfig(tool=case1_tool(), process=process, grid=grid,
                            edge_point_count=40, time_step_s=dt, worker_count=1)


TABLE6 = [
    (170.0, 0.4, 0.3), (170.0, 0.5, 0.4), (170.0, 0.6, 0.5),
    (200.0, 0.4, 0.3), (200.0, 0.5, 0.4), (200.0, 0.6, 0.5),
    (230.0, 0.4, 0.3), (230.0, 0.5, 0.4), (230.0, 0.6, 0.5),
]


def test_criterion_6_performance_scaling():
    # Nine-condition sweep on the 10x5 mm area: both kernels, fields verified
    # equal inside run_benchmark, wall times reported per condition.
    print()
    print(f"{'case':>6} {'v_c':>6} {'f_z':>5} {'a_p':>5} {'points':>10} "
          f"{'t_ref_s':>9} {'t_opt_s':>9} {'speedup':>8}")
    for k, (v_c, f_z, a_p) in enumerate(TABLE6, start=1):
        row = run_benchmark(_table6_config(v_c, f_z, a_p, 1e-4), [1],
                            case_id=f"table6-{k}").rows[0]
        print(f"{k:>6} {v_c:>6.0f} {f_z:>5.1f} {a_p:>5.1f} {row.trajectory_points:>10d} "
              f"{row.t_reference_s:>9.3f} {row.t_optimized_s:>9.3f} {row.speedup:>8.1f}")

    # Linearity of the optimized kernel over >= 4 sizes (condition 3 geometry).
    # The sizes are timed in interleaved rounds, one run of each per round, so
    # a change in machine speed during the test reaches every size alike
    # instead of bending the line. The first round warms up and is discarded;
    # each size's time is the minimum of the 10 runs after it, since a
    # scheduler stall only ever adds time. The sizes start at 8, where a main
    # loop takes tens of milliseconds, so fixed per-call costs and host noise
    # do not decide the fit.
    sizes = (8, 16, 32, 64)
    configs = [_table6_config(170.0, 0.6, 0.5, 1e-4 / size) for size in sizes]
    samples = [[] for _ in sizes]
    for round_index in range(11):
        results = [simulate(config) for config in configs]
        if round_index > 0:
            for runs, result in zip(samples, results):
                runs.append(result.main_loop_seconds)
    points = [result.trajectory_points for result in results]
    opt_times = [min(runs) for runs in samples]
    size8_field = results[0].field
    size8_opt_time = opt_times[0]
    r_squared = linear_fit_r2(np.array(points, dtype=float), np.array(opt_times))
    times_text = ", ".join(f"size {size}: {t * 1e3:.1f} ms" for size, t in zip(sizes, opt_times))

    # Reference baseline at >= 1e6 trajectory points.
    big = _table6_config(170.0, 0.6, 0.5, 1e-4 / 8)
    ref_big = simulate_reference(big)
    assert ref_big.trajectory_points >= 1_000_000
    assert np.array_equal(ref_big.field.heights, size8_field.heights)
    speedup = ref_big.main_loop_seconds / size8_opt_time

    # Determinism across worker counts.
    base = _table6_config(170.0, 0.6, 0.5, 1e-4)
    reference_run = simulate(base)
    deterministic = all(
        np.array_equal(
            simulate(dataclasses.replace(base, worker_count=w)).field.heights,
            reference_run.field.heights,
        )
        for w in (2, 4)
    )

    ok = r_squared > 0.98 and speedup >= 10.0 and deterministic
    report(6, "performance scaling", ok,
           f"(R^2 {r_squared:.4f} over sizes {sizes}; "
           f"{ref_big.trajectory_points} points: reference {ref_big.main_loop_seconds:.2f} s, "
           f"optimized {size8_opt_time:.3f} s, speedup {speedup:.0f}x; "
           f"worker-count deterministic: {deterministic})")
    assert r_squared > 0.98, f"R^2 {r_squared:.4f}; {times_text}"
    assert speedup >= 10.0, f"speedup {speedup:.1f}x; {times_text}"
    assert deterministic


# --- criterion 7 ----------------------------------------------------------------

def test_criterion_7_lhs_stratification():
    names = ["cutting_speed_m_min", "feed_per_tooth_mm", "depth_of_cut_mm",
             "grid_spacing_mm", "radial_rake_deg", "phase_deg"]
    bounds = [(100.0, 250.0), (0.2, 0.7), (0.1, 0.5), (0.005, 0.05), (-2.0, 2.0), (0.0, 180.0)]
    cases = 0
    for dims in (1, 3, 6):
        ranges = [ParameterRange(names[d], *bounds[d]) for d in range(dims)]
        for count in (9, 100):
            first = lhs_sample(ranges, count, seed=42)
            second = lhs_sample(ranges, count, seed=42)
            assert np.array_equal(first, second)
            for d, prm in enumerate(ranges):
                strata = np.floor(
                    (first[:, d] - prm.low) / (prm.high - prm.low) * count
                ).astype(int)
                assert sorted(strata) == list(range(count)), (dims, count, prm.name)
            cases += 1
    report(7, "LHS stratification", True,
           f"({cases} (dims, count) cases, every stratum hit exactly once, seeded reruns equal)")


# --- criterion 8 ----------------------------------------------------------------

def test_criterion_8_end_to_end_reproducibility(tmp_path):
    base_raw = {
        "tool": {"cutting_diameter_mm": 10.0, "insert_radius_mm": 5.0, "tooth_count": 2},
        "process": {
            "cutting_speed_m_min": 170.0,
            "feed_per_tooth_mm": 0.3,
            "depth_of_cut_mm": 0.2,
            "initial_position_mm": {"x": 0.0, "y": None, "z": 0.0},
        },
        "grid": {"spacing_mm": 0.02, "x_min_mm": -0.5, "x_max_mm": 0.5,
                 "y_min_mm": 0.0, "y_max_mm": 0.5},
        "engine": {"max_step_angle_deg": 0.15},
    }
    ranges = [ParameterRange("feed_per_tooth_mm", 0.2, 0.4),
              ParameterRange("depth_of_cut_mm", 0.15, 0.3)]
    dir_a, dir_b = tmp_path / "run_a", tmp_path / "run_b"
    generate_dataset(ranges, 16, seed=2024, base_raw=base_raw, out_dir=dir_a, workers=2)
    generate_dataset(ranges, 16, seed=2024, base_raw=base_raw, out_dir=dir_b, workers=1)

    names = ["manifest.jsonl"] + [f"sample_{k:05d}.srtf" for k in range(16)]
    identical = all((dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names)

    round_trips = True
    for k in range(16):
        field = read_surface(dir_a / f"sample_{k:05d}.srtf")
        copy_path = tmp_path / "copy.srtf"
        write_surface(field, copy_path)
        round_trips &= copy_path.read_bytes() == (dir_a / f"sample_{k:05d}.srtf").read_bytes()

    ok = identical and round_trips
    report(8, "end-to-end reproducibility", ok,
           f"(16 samples + manifest byte-identical across reruns/schedules: {identical}; "
           f"surface files round-trip bit-exactly: {round_trips})")
    assert identical
    assert round_trips
