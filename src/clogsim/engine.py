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

Bookkeeping:  the state keeps, per facet family, a compact table of its
open facets in flat index order: their indices and seal radii, and for
the filtering family each facet's membrane, open sub-aperture count and
pass probability.  A step computes radius, speed, wall concentration,
shrink rate, shrink cap, deposit and seal test once on these arrays, and
the membranes' open weights, catch hazard and state counts once per step.
The pass probabilities follow the radii: the layer concentrations are
refreshed from them at the end of each step and at each table rebuild.
The tables and the state counts are rebuilt from the grid only at the
start of a step that follows a topology change (``topology_dirty``: a
facet blocked or sealed), and a family whose open facets did not change
keeps its table; in between, captures update the sub-aperture counts in
place.  A caller that edits the grid between steps sets
``topology_dirty``; the flag triggers only this rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import _FACET_FAMILIES, ApertureState, CellGrid, FilterConfig, build_grid
from .hydraulics import (DegenerateNetworkError, FlowField, Hierarchy, _default_tol,
                         flows_from_pressures, solve_pressures, total_flow)
from .sediment import (axial_depletion, growth_rate, solve_slow_layer,
                       wall_concentration_profile, wall_concentration_slow)

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
        p = np.clip(p * _corrected_scale(concentration, time_step, layer_stats), 0.0, 1.0)
    elif law != BLOCKING_SIMPLE:
        raise ValueError(f"law must be 'simple' or 'corrected', got {law!r}")
    return float(p) if np.isscalar(pass_prob) and np.isscalar(flow) else p


def _corrected_scale(concentration, time_step: float, layer_stats: LayerStats):
    """Factor by which the corrected law multiplies the simple law's
    probability, before the result is clipped to [0, 1]."""
    mean_catch = np.asarray(layer_stats.mean_catch_flow, dtype=float)
    mean_simple = np.asarray(layer_stats.mean_simple_probability, dtype=float)
    expected = -np.expm1(-np.asarray(concentration) * mean_catch * time_step)
    live = mean_simple > 0.0
    return np.where(live, expected / np.where(live, mean_simple, 1.0), 0.0)


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
class _OpenFacets:
    """The open facets of one family, in flat index order: the compact
    arrays a step computes on.  Rebuilt from the grid after a step that
    closed a facet of the family; in between, captures update ``weights``
    in place.  ``mask`` serves the whole-table gathers and scatters, where
    boolean indexing is several times faster than ``np.put`` (numpy 2.4);
    ``index`` serves the updates of a few facets."""

    index: np.ndarray          # flat indices into the family's arrays
    mask: np.ndarray           # the same facets as a mask of the family's shape
    seal_radius: np.ndarray    # radius at or under which each facet seals
    # filtering families only
    membrane: np.ndarray | None = None   # membrane of each facet
    weights: np.ndarray | None = None    # open sub-apertures, zero once closed
    pass_prob: np.ndarray | None = None  # pass probability of the current radii


@dataclass(eq=False)
class SimulationState:
    config: FilterConfig
    grid: CellGrid
    pressures: np.ndarray
    layer_concentration: np.ndarray   # (n_z,), m^-3
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
    # per facet family, in _FACET_FAMILIES order, its open facets
    open_facets: tuple[_OpenFacets, ...] = ()
    # per membrane: (open, blocked, sealed) facet counts, and open sub-apertures
    membrane_counts: tuple[np.ndarray, ...] = ()
    open_weights: np.ndarray | None = None
    # the coarse multigrid levels the step solves share
    hierarchy: Hierarchy = field(default_factory=Hierarchy)

    @property
    def p_out(self) -> float:
        return self.config.p_grad * self.config.L_z


def _index_open_facets(state: SimulationState) -> None:
    """Rebuild the open-facet tables and the membrane counts from the grid,
    then the open weights and layer concentrations from the new tables;
    a family whose open facets are unchanged keeps its table."""
    grid = state.grid
    tables = []
    for fam, old in zip(_FACET_FAMILIES, state.open_facets or (None,) * len(_FACET_FAMILIES)):
        radius0, _, _, counts = fam.arrays(grid)
        mask = fam.open_mask(grid)
        if old is not None and np.array_equal(mask, old.mask):
            table = old
        else:
            table = _OpenFacets(np.flatnonzero(mask), mask,
                                state.config.seal_fraction * radius0[mask])
            if fam.filtering:
                table.membrane = np.broadcast_to(np.arange(grid.n_membranes), mask.shape)[mask]
        if fam.filtering:
            table.weights = counts[mask]
        tables.append(table)
    state.open_facets = tuple(tables)
    state.membrane_counts = grid.membrane_state_counts()
    _refresh_concentration(state)


def _refresh_concentration(state: SimulationState) -> None:
    """After the radii or the open weights changed: the filtering facets'
    pass probabilities at their current radii, the open weights per
    membrane, and the layer concentrations that the membranes' mean pass
    over them gives."""
    m, rod, z = state.grid.n_membranes, state.config.l_particle, state.open_facets[-1]
    r = state.grid.z_radius[z.mask]
    z.pass_prob = pass_probability(r, rod) if rod > 0 else np.ones_like(r)
    wt = np.bincount(z.membrane, z.weights, minlength=m)
    mean_pass = np.where(wt > 0, np.bincount(z.membrane, z.weights * z.pass_prob, minlength=m)
                         / np.maximum(wt, 1), 0.0)
    state.open_weights = wt
    state.layer_concentration = layer_concentrations(state.config.N_particles, mean_pass)


def initialize(config: FilterConfig) -> SimulationState:
    grid = build_grid(config)
    p_out = config.p_grad * config.L_z
    tol = config.solver_tol if config.solver_tol is not None \
        else _default_tol(grid, 0.0, p_out)
    ramp = np.linspace(0.0, p_out, config.n_z)
    pressures = np.broadcast_to(ramp, (config.n_x, config.n_y, config.n_z)).copy()
    state = SimulationState(
        config=config, grid=grid, pressures=pressures, layer_concentration=None,
        catches=np.zeros(config.n_z - 1, dtype=np.int64),
        time=0.0, steps=0,
        rng=np.random.default_rng(config.seed),
        solver_tol=tol,
    )
    _index_open_facets(state)
    return state


def _aperture_kinetics(state: SimulationState, flows: FlowField, f_sub: np.ndarray):
    """Radius, shrink rate and centreline speed of the open facets, one
    (radius, rate, speed) triple of compact arrays per family; the filtering
    family's flow is ``f_sub``, per sub-aperture.  Dead branches (zero flow)
    run diffusion-limited, so their deposit still grows.
    """
    chem = state.config.chemistry
    c0 = state.config.c0_entrance
    out = []
    for fam, table, flow in zip(_FACET_FAMILIES, state.open_facets,
                                (flows.flow_x, flows.flow_y, flows.flow_z)):
        r = fam.arrays(state.grid)[1][table.mask]
        f = f_sub if fam.filtering else np.abs(flow[table.mask])
        speed = 2.0 * f / (np.pi * r * r)
        rate = r
        if r.size:
            rate = growth_rate(chem, wall_concentration_profile(chem, r, c0, speed))
        out.append((r, rate, speed))
    return out


def _adaptive_dt(state: SimulationState, catch_flow, kinetics) -> float:
    """The largest step within the capture and the shrink budgets; inf when
    neither applies.  ``catch_flow`` is each membrane's sum of w (1 - q) f_sub."""
    caps = []
    if catch_flow is not None:
        hazard = state.layer_concentration[:state.grid.n_membranes] * catch_flow
        live = hazard > 0
        if live.any():
            caps.append(_BLOCK_FRACTION * float((state.open_weights[live] / hazard[live]).min()))
    for r, rate, _ in kinetics:
        busy = rate > 0
        if busy.all():
            if r.size:
                caps.append(_SHRINK_FRACTION * float(np.min(r / rate)))
        elif busy.any():
            caps.append(_SHRINK_FRACTION * float(np.min(r[busy] / rate[busy])))
    return min(caps) if caps else np.inf


def _record(state: SimulationState, dt: float, total: float, warning: bool,
            counts=None) -> None:
    """Append a trace row; ``counts`` defaults to the grid's current state counts."""
    counts = (*(counts or state.grid.membrane_state_counts()), state.catches)
    state.trace.append(TraceSnapshot(
        state.time, dt, total, *(tuple(int(v) for v in group) for group in counts), warning))


def _depletion_warning(state: SimulationState, kinetics) -> bool:
    chem = state.config.chemistry
    if chem is None:
        return False
    cfg = state.config
    z_speed = kinetics[-1][2]
    speed = float(z_speed.mean()) if z_speed.size else 0.0
    cavity = (cfg.h_x + cfg.h_y + cfg.h_z) / 3.0
    c0, threshold = cfg.c0_entrance, cfg.depletion_threshold
    if speed > 0:
        # the drop over c0 is per c1^n, with c1 between its diffusion-limited
        # value and c0: bounds clear of the threshold by far more than
        # rounding decide without the slow-layer solve
        per, n = 4.0 * chem.rate_constant * cfg.L_z / (speed * cavity * c0), chem.reaction_order
        if per * wall_concentration_slow(chem, cavity, c0) ** n > threshold * (1 + 1e-9):
            return True
        if per * c0 ** n < threshold * (1 - 1e-9):
            return False
    c1 = solve_slow_layer(chem, cavity, c0, speed).wall_concentration
    est = axial_depletion(chem, cavity, c0, c1, speed, cfg.L_z, threshold=threshold)
    return not est.negligible


def _capture(state: SimulationState, f_sub, catch_flow, dt: float) -> bool:
    """Capture draws, all membranes at once, against the pre-step
    concentrations; True when a facet lost its last sub-aperture.  Draws run
    only where p > 0 (every open facet has w > 0): numpy draws nothing for
    p = 0, so the random stream is that of a draw over every facet."""
    grid = state.grid
    z = state.open_facets[-1]
    conc = state.layer_concentration[:grid.n_membranes]
    p = 1.0 - z.pass_prob ** (f_sub * dt * conc.take(z.membrane))
    if state.config.blocking_law == BLOCKING_CORRECTED:
        denom = np.maximum(state.open_weights, 1)
        scale = _corrected_scale(conc, dt, LayerStats(
            mean_catch_flow=catch_flow / denom,
            mean_simple_probability=np.bincount(
                z.membrane, z.weights * p, minlength=grid.n_membranes) / denom))
        p = np.clip(p * scale.take(z.membrane), 0.0, 1.0)
    drawn = np.flatnonzero(p > 0)
    hits = state.rng.binomial(z.weights.take(drawn), p.take(drawn))
    nonzero = hits > 0
    if not nonzero.any():
        return False
    hit, hits = drawn[nonzero], hits[nonzero]
    z.weights[hit] -= hits
    grid.z_open_count.put(z.index[hit], grid.z_open_count.take(z.index[hit]) - hits)
    np.add.at(state.catches, z.membrane[hit], hits)
    exhausted = hit[z.weights[hit] == 0]
    if not exhausted.size:
        return False
    grid.z_state.put(z.index[exhausted], ApertureState.PARTICLE_BLOCKED)
    state.topology_dirty = True
    return True


def _deposit(state: SimulationState, kinetics, dt: float, blocked: bool) -> None:
    """Deposit growth on whatever is still open, then the seal test.
    ``blocked``: a capture closed a filtering facet this step, which keeps its
    radius."""
    grid = state.grid
    for fam, table, (r, rate, _) in zip(_FACET_FAMILIES, state.open_facets, kinetics):
        if not r.size:
            continue
        _, radius, st, _ = fam.arrays(grid)
        shrunk = np.maximum(r - rate * dt, 0.0)
        sealing = shrunk <= table.seal_radius
        if fam.filtering and blocked:
            closed = table.weights == 0
            shrunk[closed] = r[closed]
            sealing &= ~closed
        radius[table.mask] = shrunk
        if sealing.any():
            st.put(table.index[sealing], ApertureState.SEDIMENT_SEALED)
            state.topology_dirty = True
            if fam.filtering:
                table.weights[sealing] = 0


def _solve(state: SimulationState) -> FlowField:
    """Solve the pressures from the current start and the extrapolated
    guess, keep the field and the one before it, and return the flows."""
    guess = None
    if state.prev_pressures is not None:
        # p_n + (p_n - p_{n-1}) dt_n / dt_{n-1}, built in one array
        guess = state.pressures - state.prev_pressures
        guess *= state.last_dt / state.prev_dt
        guess += state.pressures
    field_ = solve_pressures(
        state.grid, 0.0, state.p_out, tol=state.solver_tol,
        max_iter=state.config.solver_max_iter, initial=state.pressures, guess=guess,
        hierarchy=state.hierarchy)
    if state.steps > 0:    # before the first solve, pressures holds the ramp
        # one buffer per run: keeping each step's array a step longer
        # fragments the heap and raised the peak RSS of scenario 1 by 1 MB
        if state.prev_pressures is None:
            state.prev_pressures = np.empty_like(state.pressures)
        np.copyto(state.prev_pressures, state.pressures)
    state.pressures = field_.pressure
    return flows_from_pressures(state.grid, field_)


def step(state: SimulationState) -> SimulationState:
    """Advance the simulation one step (in place); records one trace row.

    The step length is the configured ``dt``: a fixed value, or the largest
    step that keeps expected captures per membrane and relative radius
    shrink under their per-step budgets.  Captures draw from ``state.rng``.
    """
    cfg = state.config
    grid = state.grid
    chem = cfg.chemistry

    if state.topology_dirty:
        _index_open_facets(state)
        state.topology_dirty = False
    flows = _solve(state)
    total = total_flow(grid, flows)
    if state.clean_flow is None:
        state.clean_flow = total

    z = state.open_facets[-1]
    f_sub = np.abs(flows.flow_z[z.mask]) / z.weights
    kinetics = _aperture_kinetics(state, flows, f_sub) if chem is not None else ()
    catch_flow = None
    if cfg.N_particles > 0 and cfg.l_particle > 0 and state.open_weights.any():
        catch_flow = np.bincount(z.membrane, z.weights * (1.0 - z.pass_prob) * f_sub,
                                 minlength=grid.n_membranes)

    if isinstance(cfg.dt, (int, float)):
        dt = float(cfg.dt)
    else:
        dt = _adaptive_dt(state, catch_flow, kinetics)
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

    _record(state, dt, total, _depletion_warning(state, kinetics), state.membrane_counts)

    blocked = catch_flow is not None and _capture(state, f_sub, catch_flow, dt)
    _deposit(state, kinetics, dt, blocked)
    _refresh_concentration(state)
    state.time += dt
    state.steps += 1
    state.prev_dt, state.last_dt = state.last_dt, dt
    return state


def run(config: FilterConfig, *, max_steps: int = 1_000_000) -> SimulationTrace:
    """Simulate until the filter stops, disconnects, or hits the time limit."""
    state = initialize(config)
    reason = None
    while state.steps < max_steps:
        try:
            step(state)
        except DegenerateNetworkError:
            _record(state, 0.0, 0.0, False)
            reason = "degenerate"
            break
        if state.trace[-1].total_flow <= config.flow_stop_fraction * state.clean_flow:
            reason = "flow-stopped"
            break
        if config.time_limit is not None and state.time >= config.time_limit * (1 - 1e-12):
            try:
                flow_now = total_flow(state.grid, _solve(state))
            except DegenerateNetworkError:
                flow_now = 0.0
            _record(state, 0.0, flow_now, False)
            reason = "time-limit"
            break
    if reason is None:
        raise RuntimeError(f"run exceeded max_steps = {max_steps} without stopping")
    return SimulationTrace(snapshots=state.trace, stop_reason=reason,
                           n_membranes=state.grid.n_membranes, final_grid=state.grid)
