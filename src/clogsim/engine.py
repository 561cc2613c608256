"""Time-stepping engine coupling capture, deposition and the flow network.

A step recomputes the pressure field, lets each open filtering aperture
draw a capture event against the particle flux reaching its membrane,
shrinks the still-open apertures by deposit growth, then refreshes the
particle concentration profile along the filter from the membranes' mean
pass probabilities.  A run repeats steps until the filter effectively
stops (total flow under a set fraction of the clean-filter flow), the
network disconnects, or a configured time limit is reached.

Particle capture:  a rod of length l meeting an aperture of radius r
passes with probability q = 1 - sqrt(1 - (2r/l)^2); a rod shorter than
the opening diameter always slips through (q = 1 once 2r >= l).  With
F dt N particle arrivals expected in a step, the simple per-step capture
law is 1 - q^(F dt N); the corrected law rescales it so the expected
number of captures in a membrane matches the arrival-limited exponential
rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import _FACET_FAMILIES, ApertureState, CellGrid, FilterConfig, build_grid
from .hydraulics import (DegenerateNetworkError, FlowField, Hierarchy, _flows,
                         flows_from_pressures, reference_cell_flow, solve_pressures,
                         total_flow)
from .sediment import axial_depletion, growth_rate, wall_concentration_profile

BLOCKING_SIMPLE = "simple"
BLOCKING_CORRECTED = "corrected"

# Adaptive step targets: at most this fraction of a membrane's open apertures
# expected to block, and of any open radius to shrink, per step.
_BLOCK_FRACTION = 0.01
_SHRINK_FRACTION = 0.01


def pass_probability(radius, rod_length: float):
    """Probability that a rod of length ``rod_length`` slips through a hole.

    A rod is caught when it lands across the opening; only orientations
    within the chord of length 2r survive, giving q = 1 - sqrt(1-(2r/l)^2).
    Rods shorter than the diameter are never caught (q = 1).
    """
    if not rod_length > 0:
        raise ValueError(f"rod_length must be positive (m), got {rod_length!r}")
    r = np.asarray(radius, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    ratio = 2.0 * r / rod_length
    q = np.where(ratio >= 1.0, 1.0, 1.0 - np.sqrt(np.maximum(1.0 - ratio * ratio, 0.0)))
    return float(q) if np.isscalar(radius) else q


@dataclass(frozen=True)
class LayerStats:
    """Averages over the open apertures of a membrane (corrected law).

    Scalars for one membrane, or one value per membrane (broadcast against
    the trailing axis of the probability arrays).
    """
    mean_catch_flow: object         # <(1 - q) F>, m^3/s
    mean_simple_probability: object  # <1 - q^(F dt N)>


def step_blocking_probability(pass_prob, flow, concentration, time_step: float,
                              law: str = BLOCKING_SIMPLE,
                              layer_stats: LayerStats | None = None):
    """Per-step capture probability of one open aperture.

    ``flow`` is the aperture's volumetric flow (sign ignored).  The simple
    law is 1 - q^(F dt N).  The corrected law multiplies it by
    (1 - exp(-N <(1-q) F> dt)) / <1 - q^(F dt N)> so the membrane's expected
    captures follow the arrival rate of particles actually caught; it needs
    the membrane averages in ``layer_stats``.  All inputs broadcast.
    """
    if time_step < 0:
        raise ValueError(f"time_step must be >= 0 (s), got {time_step!r}")
    q = np.asarray(pass_prob, dtype=float)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("pass_prob must lie in [0, 1]")
    arrivals = np.abs(np.asarray(flow, dtype=float)) * time_step * np.asarray(concentration)
    p = 1.0 - q ** arrivals
    if law == BLOCKING_CORRECTED:
        if layer_stats is None:
            raise ValueError("corrected law needs layer_stats")
        p = _corrected(p, concentration, time_step, layer_stats)
    elif law != BLOCKING_SIMPLE:
        raise ValueError(f"law must be 'simple' or 'corrected', got {law!r}")
    return float(p) if np.isscalar(pass_prob) and np.isscalar(flow) else p


def _corrected(p_simple, concentration, time_step: float, layer_stats: LayerStats):
    """The corrected law's capture probability from the simple law's."""
    mean_catch = np.asarray(layer_stats.mean_catch_flow, dtype=float)
    mean_simple = np.asarray(layer_stats.mean_simple_probability, dtype=float)
    expected = -np.expm1(-np.asarray(concentration) * mean_catch * time_step)
    live = mean_simple > 0.0
    scale = np.where(live, expected / np.where(live, mean_simple, 1.0), 0.0)
    return np.clip(p_simple * scale, 0.0, 1.0)


def layer_concentrations(inlet_concentration: float, mean_pass: Sequence[float]) -> np.ndarray:
    """Particle concentration ahead of each cell layer.

    ``mean_pass[k]`` is membrane k's mean pass probability; the first layer
    sees the inlet concentration, each next layer the previous one times the
    membrane's mean pass.  Length of the result is len(mean_pass) + 1.
    """
    if inlet_concentration < 0:
        raise ValueError(f"inlet_concentration must be >= 0, got {inlet_concentration!r}")
    q = np.asarray(mean_pass, dtype=float)
    if np.any(q < 0) or np.any(q > 1):
        raise ValueError("mean pass probabilities must lie in [0, 1]")
    out = np.empty(q.size + 1)
    out[0] = inlet_concentration
    if q.size:
        np.cumprod(q, out=out[1:])
        out[1:] *= inlet_concentration
    return out


# per-membrane count groups of a snapshot, in trace.csv column order
_COUNT_GROUPS = ("open", "blocked", "sealed", "catches")


@dataclass(frozen=True)
class TraceSnapshot:
    time: float              # s, state time at the start of the step
    dt: float                # s, step advanced from here
    total_flow: float        # m^3/s through the inlet window
    open: tuple[int, ...]    # per-membrane open facet counts
    blocked: tuple[int, ...]
    sealed: tuple[int, ...]
    catches: tuple[int, ...]  # cumulative caught particles per membrane
    depletion_warning: bool


@dataclass
class SimulationTrace:
    snapshots: list[TraceSnapshot]
    stop_reason: str | None   # "flow-stopped" | "time-limit" | "degenerate"
    n_membranes: int
    final_grid: CellGrid | None = None

    def to_csv(self) -> str:
        cols = ["time_s", "dt_s", "total_flow_m3_s", "depletion_warning"]
        cols += [f"{group}_m{k + 1}" for group in _COUNT_GROUPS for k in range(self.n_membranes)]
        lines = [",".join(cols)]
        for s in self.snapshots:
            row = [repr(s.time), repr(s.dt), repr(s.total_flow), str(int(s.depletion_warning))]
            row += [str(v) for group in _COUNT_GROUPS for v in getattr(s, group)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @property
    def duration(self) -> float:
        return self.snapshots[-1].time if self.snapshots else 0.0

    def final_counts(self) -> dict[str, int]:
        last = self.snapshots[-1]
        return {group: sum(getattr(last, group)) for group in _COUNT_GROUPS}


@dataclass(eq=False)
class SimulationState:
    config: FilterConfig
    grid: CellGrid
    pressures: np.ndarray
    layer_concentration: np.ndarray   # (n_z,), m^-3
    pass_prob: np.ndarray             # (n_x, n_y, n_z - 1), of the current z radii
    catches: np.ndarray               # (n_z - 1,), cumulative per membrane
    time: float
    steps: int
    rng: np.random.Generator
    solver_tol: float
    clean_flow: float | None = None
    topology_dirty: bool = True
    last_dt: float | None = None
    # converged field and step before the last ones; with them the next
    # solve gets a linearly extrapolated candidate start
    prev_pressures: np.ndarray | None = None
    prev_dt: float | None = None
    trace: list[TraceSnapshot] = field(default_factory=list)
    # previous wall concentrations per aperture family; warm-starts the
    # deposition solve, never affects the converged values
    wall_cache: dict = field(default_factory=dict)
    # the coarse multigrid levels the step solves share
    hierarchy: Hierarchy = field(default_factory=Hierarchy)

    @property
    def p_out(self) -> float:
        return self.config.p_grad * self.config.L_z


def _open_weights(grid: CellGrid):
    """Open sub-aperture counts per membrane facet and their per-membrane sums."""
    w = np.where(grid.z_state == ApertureState.OPEN, grid.z_open_count, 0)
    return w, w.sum(axis=(0, 1))


def _pass_and_concentration(config: FilterConfig, grid: CellGrid):
    """Pass probability of every filtering facet and the layer concentrations
    that the membranes' mean pass over their open sub-apertures gives.
    """
    if config.l_particle > 0:
        q = pass_probability(grid.z_radius, config.l_particle)
    else:
        q = np.ones_like(grid.z_radius)
    w, wt = _open_weights(grid)
    mean_pass = np.where(wt > 0, (w * q).sum(axis=(0, 1)) / np.maximum(wt, 1), 0.0)
    return q, layer_concentrations(config.N_particles, mean_pass)


def initialize(config: FilterConfig) -> SimulationState:
    grid = build_grid(config)
    p_out = config.p_grad * config.L_z
    tol = config.solver_tol if config.solver_tol is not None \
        else 1e-6 * reference_cell_flow(grid, 0.0, p_out)
    ramp = np.linspace(0.0, p_out, config.n_z)
    pressures = np.broadcast_to(ramp, (config.n_x, config.n_y, config.n_z)).copy()
    q, conc = _pass_and_concentration(config, grid)
    return SimulationState(
        config=config, grid=grid, pressures=pressures,
        layer_concentration=conc, pass_prob=q,
        catches=np.zeros(config.n_z - 1, dtype=np.int64),
        time=0.0, steps=0,
        rng=np.random.default_rng(config.seed),
        solver_tol=tol,
    )


def _aperture_kinetics(state: SimulationState, flows: FlowField):
    """Wall concentration, shrink rate and centreline speed per open aperture.

    Returns {family: (open_mask, rate, v0)} with full-shape arrays, zeros on
    closed facets.  Dead branches (zero flow) run diffusion-limited, so their
    deposit still grows.
    """
    chem = state.config.chemistry
    grid = state.grid
    c0 = state.config.c0_entrance
    out = {}
    flow_by_axis = (flows.flow_x, flows.flow_y, flows.flow_z)
    for fam in _FACET_FAMILIES:
        _, radius, _, counts = fam.arrays(grid)
        flow = flow_by_axis[fam.axis]
        open_mask = fam.open_mask(grid)
        rate = np.zeros_like(radius)
        v0 = np.zeros_like(radius)
        if chem is not None and np.any(open_mask):
            r = radius[open_mask]
            f = np.abs(flow[open_mask])
            if fam.filtering:
                f = f / counts[open_mask]
            speed = 2.0 * f / (np.pi * r * r)
            cached = state.wall_cache.get(fam.name)
            guess = cached[open_mask] if cached is not None else None
            c1 = wall_concentration_profile(chem, r, c0, speed, guess=guess)
            rate[open_mask] = growth_rate(chem, c1)
            v0[open_mask] = speed
            store = np.zeros_like(radius)
            store[open_mask] = c1
            state.wall_cache[fam.name] = store
        out[fam.name] = (open_mask, rate, v0)
    return out


def _membrane_stats(state: SimulationState, flows: FlowField):
    """Capture inputs for all membranes: (q, per-sub flow, open weights, sums).

    Full (n_x, n_y, m) arrays; zeros on closed facets.  None when no particle
    load is configured.
    """
    cfg = state.config
    if cfg.N_particles <= 0 or cfg.l_particle <= 0:
        return None
    grid = state.grid
    w, wt = _open_weights(grid)
    if not wt.any():
        return None
    f_sub = np.where(w > 0, np.abs(flows.flow_z) / np.maximum(w, 1), 0.0)
    return state.pass_prob, f_sub, w, wt


def _adaptive_dt(state: SimulationState, prep, kinetics) -> float:
    caps = []
    if prep is not None:
        q, f_sub, w, wt = prep
        conc = state.layer_concentration[:state.grid.n_membranes]
        hazard = conc * (w * (1.0 - q) * f_sub).sum(axis=(0, 1))
        live = hazard > 0
        if live.any():
            caps.append(_BLOCK_FRACTION * float((wt[live] / hazard[live]).min()))
    if state.config.chemistry is not None:
        for fam in _FACET_FAMILIES:
            open_mask, rate, _ = kinetics[fam.name]
            _, radius, _, _ = fam.arrays(state.grid)
            busy = open_mask & (rate > 0)
            if np.any(busy):
                caps.append(_SHRINK_FRACTION * float(np.min(radius[busy] / rate[busy])))
    return min(caps) if caps else np.inf


def _record(state: SimulationState, dt: float, total: float, warning: bool) -> None:
    counts = (*state.grid.membrane_state_counts(), state.catches)
    state.trace.append(TraceSnapshot(
        state.time, dt, total, *(tuple(int(v) for v in group) for group in counts), warning))


def _depletion_warning(state: SimulationState, kinetics) -> bool:
    chem = state.config.chemistry
    if chem is None:
        return False
    cfg = state.config
    open_mask, _, v0 = kinetics["z"]
    speed = float(v0[open_mask].mean()) if np.any(open_mask) else 0.0
    cavity = (cfg.h_x + cfg.h_y + cfg.h_z) / 3.0
    prev = state.wall_cache.get("cavity")
    c1 = float(wall_concentration_profile(chem, cavity, cfg.c0_entrance, speed,
                                          guess=prev)[0])
    state.wall_cache["cavity"] = np.array([c1])
    est = axial_depletion(chem, cavity, cfg.c0_entrance, c1, speed, cfg.L_z,
                          threshold=cfg.depletion_threshold)
    return not est.negligible


def step(state: SimulationState, dt: float | None = None,
         rng: np.random.Generator | None = None) -> SimulationState:
    """Advance the simulation one step (in place); records one trace row.

    With ``dt`` None the configured step is used: a fixed value, or the
    largest step that keeps expected captures per membrane and relative
    radius shrink under their per-step budgets.
    """
    cfg = state.config
    grid = state.grid
    chem = cfg.chemistry
    rng = rng if rng is not None else state.rng

    guess = None
    if state.prev_pressures is not None:
        # p_n + (p_n - p_{n-1}) dt_n / dt_{n-1}, built in one array
        guess = state.pressures - state.prev_pressures
        guess *= state.last_dt / state.prev_dt
        guess += state.pressures
    field_ = solve_pressures(
        grid, 0.0, state.p_out, tol=state.solver_tol,
        max_iter=cfg.solver_max_iter, initial=state.pressures, guess=guess,
        sweep=cfg.solver_sweep, check_connectivity=state.topology_dirty,
        hierarchy=state.hierarchy)
    if state.steps > 0:    # before the first solve, pressures holds the ramp
        # one buffer per run: keeping each step's array a step longer
        # fragments the heap and raised the peak RSS of scenario 1 by 1 MB
        if state.prev_pressures is None:
            state.prev_pressures = np.empty_like(state.pressures)
        np.copyto(state.prev_pressures, state.pressures)
    state.pressures = field_.pressure
    state.topology_dirty = False
    flows = _flows(field_.conductances, field_.pressure)
    total = total_flow(grid, flows)
    if state.clean_flow is None:
        state.clean_flow = total

    kinetics = _aperture_kinetics(state, flows)
    prep = _membrane_stats(state, flows)

    if dt is None:
        if isinstance(cfg.dt, (int, float)):
            dt = float(cfg.dt)
        else:
            dt = _adaptive_dt(state, prep, kinetics)
            if not np.isfinite(dt):
                if state.last_dt is not None:
                    dt = state.last_dt
                elif cfg.time_limit is not None:
                    dt = cfg.time_limit / 100.0
                else:
                    raise ValueError(
                        "adaptive step is unbounded (no capture or deposition in "
                        "progress); set dt or time_limit")
    if cfg.time_limit is not None:
        dt = min(dt, cfg.time_limit - state.time)
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt!r}")

    _record(state, dt, total, _depletion_warning(state, kinetics))

    # capture draws, all membranes at once, against the pre-step concentrations
    if prep is not None:
        q, f_sub, w, wt = prep
        conc = state.layer_concentration[:grid.n_membranes][None, None, :]
        p = step_blocking_probability(q, f_sub, conc, dt)
        if cfg.blocking_law == BLOCKING_CORRECTED:
            denom = np.maximum(wt, 1)
            p = _corrected(p, conc, dt, LayerStats(
                mean_catch_flow=(w * (1.0 - q) * f_sub).sum(axis=(0, 1)) / denom,
                mean_simple_probability=(w * p).sum(axis=(0, 1)) / denom,
            ))
        p = np.where((w > 0) & (conc > 0), p, 0.0)
        hits = rng.binomial(w, p)
        per_membrane = hits.sum(axis=(0, 1))
        if per_membrane.any():
            grid.z_open_count -= hits
            exhausted = (grid.z_state == ApertureState.OPEN) & (grid.z_open_count == 0)
            if exhausted.any():
                grid.z_state[exhausted] = ApertureState.PARTICLE_BLOCKED
                state.topology_dirty = True
            state.catches += per_membrane

    # deposit growth on whatever is still open
    if chem is not None:
        for fam in _FACET_FAMILIES:
            open_mask, rate, _ = kinetics[fam.name]
            radius0, radius, st, _ = fam.arrays(grid)
            still_open = open_mask & (st == ApertureState.OPEN)
            if not np.any(still_open):
                continue
            radius[still_open] = np.maximum(radius[still_open] - rate[still_open] * dt, 0.0)
            sealing = still_open & (radius <= cfg.seal_fraction * radius0)
            if np.any(sealing):
                st[sealing] = ApertureState.SEDIMENT_SEALED
                state.topology_dirty = True

    state.pass_prob, state.layer_concentration = _pass_and_concentration(cfg, grid)
    state.time += dt
    state.steps += 1
    state.prev_dt, state.last_dt = state.last_dt, dt
    return state


def run(config: FilterConfig, *, max_steps: int = 1_000_000) -> SimulationTrace:
    """Simulate until the filter stops, disconnects, or hits the time limit."""
    state = initialize(config)
    reason = None
    threshold = None
    while state.steps < max_steps:
        try:
            step(state)
        except DegenerateNetworkError:
            _record(state, 0.0, 0.0, False)
            reason = "degenerate"
            break
        last = state.trace[-1]
        if threshold is None:
            threshold = config.flow_stop_fraction * state.clean_flow
        if last.total_flow <= threshold:
            reason = "flow-stopped"
            break
        if config.time_limit is not None and state.time >= config.time_limit * (1 - 1e-12):
            try:
                field_ = solve_pressures(
                    state.grid, 0.0, state.p_out, tol=state.solver_tol,
                    max_iter=config.solver_max_iter, initial=state.pressures,
                    sweep=config.solver_sweep, check_connectivity=True)
                flow_now = total_flow(state.grid, flows_from_pressures(state.grid, field_))
            except DegenerateNetworkError:
                flow_now = 0.0
            _record(state, 0.0, flow_now, False)
            reason = "time-limit"
            break
    if reason is None:
        raise RuntimeError(f"run exceeded max_steps = {max_steps} without stopping")
    return SimulationTrace(snapshots=state.trace, stop_reason=reason,
                           n_membranes=state.grid.n_membranes, final_grid=state.grid)
