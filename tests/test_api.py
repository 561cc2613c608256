"""The public surface of the package: a name added to or removed from the API
shows up as an edit of this list."""

from __future__ import annotations

import inspect

import clogsim

PUBLIC_NAMES = [
    "AVOGADRO", "ApertureState", "CalibrationInfeasibleError", "CalibrationResult",
    "CellGrid", "Chemistry", "ConvergenceError", "DegenerateNetworkError",
    "DepletionEstimate", "FilterConfig", "FlowField", "LayerSchedule", "LayerStats",
    "LifetimeEstimate", "PressureField", "SimulationState", "SimulationTrace",
    "SlowLayerSolution", "TraceSnapshot", "axial_depletion", "build_grid",
    "calibrate_rate_constant", "catch_probability", "check_connected",
    "equal_contamination_schedule", "flows_from_pressures", "growth_rate", "initialize",
    "layer_concentrations", "lifetime_estimates", "outlet_flow", "pass_probability",
    "penetration_probability", "quantile_penetration_forms",
    "quantile_schedule", "radius_for_catch", "run", "solve_pressures",
    "solve_slow_layer", "stationary_velocity", "step", "step_blocking_probability",
    "total_flow", "uniform_schedule", "wall_concentration_profile", "wall_concentration_slow",
]


def test_public_surface_is_pinned():
    assert sorted(clogsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(clogsim, name)


def test_solve_pressures_options_are_pinned():
    # a deleted option cannot come back unnoticed
    assert list(inspect.signature(clogsim.solve_pressures).parameters) == [
        "grid", "p_in", "p_out", "tol", "max_iter", "initial", "guess", "sweep", "hierarchy"]
