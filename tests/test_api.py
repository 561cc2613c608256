"""The public surface of the package: a name added to or removed from the API
shows up as an edit of this list."""

from __future__ import annotations

import dataclasses
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


def test_simulation_state_fields_are_pinned():
    # the engine's state is public: a field added or removed is an API change
    assert [f.name for f in dataclasses.fields(clogsim.SimulationState)] == [
        "config", "grid", "pressures", "layer_concentration", "catches", "time", "steps",
        "rng", "solver_tol", "clean_flow", "last_dt", "prev_pressures", "prev_dt",
        "trace", "open_facets", "open_weights", "hierarchy"]
