"""Clogging dynamics of layered porous filters.

Simulates particle capture and chemical deposit growth in a lattice of
cubic cells joined by circular apertures, with flow recomputed from a
pressure network as apertures block and shrink.  Also ships the
closed-form design helpers: aperture sizing schedules, rate-constant
calibration from a measured growth rate, and lifetime estimates.
"""

from .design import (LayerSchedule, LifetimeEstimate, catch_probability,
                     equal_contamination_schedule, lifetime_estimates,
                     penetration_probability, quantile_penetration_forms,
                     quantile_schedule, radius_for_catch, uniform_schedule)
from .engine import (LayerStats, SimulationState, SimulationTrace, TraceSnapshot,
                     initialize, layer_concentrations, pass_probability, run, step,
                     step_blocking_probability)
from .hydraulics import (ConvergenceError, DegenerateNetworkError, FlowField,
                         PressureField, check_connected, flows_from_pressures,
                         outlet_flow, solve_pressures, total_flow)
from .model import (AVOGADRO, ApertureState, CellGrid, Chemistry, FilterConfig,
                    build_grid)
from .sediment import (CalibrationInfeasibleError, CalibrationResult,
                       DepletionEstimate, SlowLayerSolution, axial_depletion,
                       calibrate_rate_constant, growth_rate, solve_slow_layer,
                       stationary_velocity, wall_concentration_profile,
                       wall_concentration_slow)

__version__ = "0.1.0"

__all__ = [
    "AVOGADRO",
    "ApertureState",
    "CalibrationInfeasibleError",
    "CalibrationResult",
    "CellGrid",
    "Chemistry",
    "ConvergenceError",
    "DegenerateNetworkError",
    "DepletionEstimate",
    "FilterConfig",
    "FlowField",
    "LayerSchedule",
    "LayerStats",
    "LifetimeEstimate",
    "PressureField",
    "SimulationState",
    "SimulationTrace",
    "SlowLayerSolution",
    "TraceSnapshot",
    "axial_depletion",
    "build_grid",
    "calibrate_rate_constant",
    "catch_probability",
    "check_connected",
    "equal_contamination_schedule",
    "flows_from_pressures",
    "growth_rate",
    "initialize",
    "layer_concentrations",
    "lifetime_estimates",
    "outlet_flow",
    "pass_probability",
    "penetration_probability",
    "quantile_penetration_forms",
    "quantile_schedule",
    "radius_for_catch",
    "run",
    "solve_pressures",
    "solve_slow_layer",
    "stationary_velocity",
    "step",
    "step_blocking_probability",
    "total_flow",
    "uniform_schedule",
    "wall_concentration_profile",
    "wall_concentration_slow",
]
