from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from clogsim import engine
from clogsim.engine import (BLOCKING_CORRECTED, LayerStats, SimulationTrace, initialize,
                            layer_concentrations, pass_probability, run, step,
                            step_blocking_probability)
from clogsim.hydraulics import (DegenerateNetworkError, flows_from_pressures, solve_pressures,
                                total_flow)
from clogsim.model import _FACET_FAMILIES, ApertureState, FilterConfig
from clogsim.sediment import axial_depletion, solve_slow_layer, wall_concentration_slow

from conftest import CHANNEL_RADIUS, DATA_DIR  # noqa: F401  (fixture module import)

Q_SCENARIO = 0.6939019764846559      # pass_probability(1.19e-5, 2.5e-5), frozen
Q19_SCENARIO = 9.653045780678363e-4  # Q_SCENARIO ** 19, frozen


def make_config(**overrides) -> FilterConfig:
    base = dict(
        L_x=2e-4, L_y=2e-4, L_z=2e-4, n_x=4, n_y=4, n_z=4,
        p_grad=-1e4, mu=1e-3, l_particle=2.5e-5, N_particles=1.389e7,
        r_filter=1e-5, r_side=2e-5, dt="adaptive", seed=0,
    )
    base.update(overrides)
    return FilterConfig(**base)


class TestPassProbability:
    def test_limits(self):
        assert pass_probability(0.0, 2.5e-5) == 0.0
        assert pass_probability(1.25e-5, 2.5e-5) == 1.0
        assert pass_probability(5e-5, 2.5e-5) == 1.0

    def test_frozen_scenario_value(self):
        assert pass_probability(1.19e-5, 2.5e-5) == pytest.approx(Q_SCENARIO, rel=1e-12)

    def test_closed_form(self):
        r, l = 0.8e-5, 2.5e-5
        want = 1.0 - math.sqrt(1.0 - (2 * r / l) ** 2)
        assert pass_probability(r, l) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_radius(self):
        radii = np.linspace(0.0, 1.3e-5, 40)
        q = pass_probability(radii, 2.5e-5)
        assert q.shape == radii.shape
        assert np.all(np.diff(q) >= 0)
        for r, qi in zip(radii, q):
            assert pass_probability(float(r), 2.5e-5) == qi

    def test_input_validation(self):
        with pytest.raises(ValueError, match="rod_length"):
            pass_probability(1e-5, 0.0)
        with pytest.raises(ValueError, match="radius"):
            pass_probability(-1e-6, 2.5e-5)


class TestBlockingProbability:
    def test_simple_law_formula(self):
        q, f, n, dt = 0.6, 2.0, 3.0, 0.25
        want = 1.0 - q ** (f * dt * n)
        assert step_blocking_probability(q, f, n, dt) == pytest.approx(want, rel=1e-12)

    def test_no_exposure_means_no_blocking(self):
        assert step_blocking_probability(0.5, 0.0, 1e7, 10.0) == 0.0
        assert step_blocking_probability(0.5, 1e-12, 1e7, 0.0) == 0.0
        assert step_blocking_probability(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_perfect_pass_never_blocks(self):
        assert step_blocking_probability(1.0, 1.0, 1e7, 100.0) == 0.0
        stats = LayerStats(mean_catch_flow=0.0, mean_simple_probability=0.0)
        assert step_blocking_probability(1.0, 1.0, 1e7, 100.0,
                                         law="corrected", layer_stats=stats) == 0.0

    def test_total_capture_at_high_exposure(self):
        # ten guaranteed-catch arrivals
        assert step_blocking_probability(0.0, 1.0, 10.0, 1.0) == 1.0

    def test_corrected_uniform_layer_identity(self):
        # all apertures alike: correction reduces to 1 - exp(-N (1-q) F dt)
        q, f, n, dt = 0.7, 3e-13, 1.4e7, 50.0
        stats = LayerStats(mean_catch_flow=(1 - q) * f,
                           mean_simple_probability=1.0 - q ** (f * dt * n))
        got = step_blocking_probability(q, f, n, dt, law="corrected", layer_stats=stats)
        assert got == pytest.approx(-math.expm1(-n * (1 - q) * f * dt), rel=1e-12)

    def test_corrected_broadcasts_per_membrane(self):
        q = np.array([[0.3, 0.5], [0.7, 0.9]])
        f = np.full((2, 2), 2e-13)
        n = np.array([1e7, 5e6])
        stats = LayerStats(
            mean_catch_flow=((1 - q) * f).mean(axis=0),
            mean_simple_probability=(1.0 - q ** (f * 30.0 * n)).mean(axis=0))
        got = step_blocking_probability(q, f, n, 30.0, law="corrected",
                                        layer_stats=stats)
        assert got.shape == (2, 2)
        for col in range(2):
            expected = -math.expm1(-n[col] * stats.mean_catch_flow[col] * 30.0)
            simple = 1.0 - q[:, col] ** (f[:, col] * 30.0 * n[col])
            want = simple * expected / stats.mean_simple_probability[col]
            np.testing.assert_allclose(got[:, col], want, rtol=1e-12)

    def test_corrected_clipped_to_unit(self):
        stats = LayerStats(mean_catch_flow=1.0, mean_simple_probability=1e-6)
        got = step_blocking_probability(0.5, 1.0, 10.0, 1.0,
                                        law="corrected", layer_stats=stats)
        assert got == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="time_step"):
            step_blocking_probability(0.5, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError, match="pass_prob"):
            step_blocking_probability(1.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="law"):
            step_blocking_probability(0.5, 1.0, 1.0, 1.0, law="other")
        with pytest.raises(ValueError, match="layer_stats"):
            step_blocking_probability(0.5, 1.0, 1.0, 1.0, law="corrected")


class TestLayerConcentrations:
    def test_single_membrane(self):
        np.testing.assert_allclose(layer_concentrations(5.0, [0.5]), [5.0, 2.5])

    def test_perfect_pass_keeps_concentration(self):
        np.testing.assert_allclose(layer_concentrations(2e7, [1.0] * 6), [2e7] * 7)

    def test_products_accumulate(self):
        got = layer_concentrations(8.0, [0.5, 0.25])
        np.testing.assert_allclose(got, [8.0, 4.0, 1.0])

    def test_scenario_attenuation(self):
        got = layer_concentrations(1.389e7, [Q_SCENARIO] * 19)
        assert got.size == 20
        assert got[-1] == pytest.approx(1.389e7 * Q19_SCENARIO, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="inlet_concentration"):
            layer_concentrations(-1.0, [0.5])
        with pytest.raises(ValueError, match="pass"):
            layer_concentrations(1.0, [1.5])


class TestInitialize:
    def test_state_layout(self, calcium):
        cfg = make_config(chemistry=calcium, c0_entrance=4.4e21)
        state = initialize(cfg)
        assert state.pressures.shape == (4, 4, 4)
        np.testing.assert_allclose(state.pressures[2, 1, :],
                                   np.linspace(0.0, -2.0, 4))
        assert state.layer_concentration.shape == (4,)
        assert state.layer_concentration[0] == cfg.N_particles
        assert state.catches.tolist() == [0, 0, 0]
        assert state.time == 0.0
        assert state.clean_flow is None


class TestStepMechanics:
    def test_dead_branch_deposit_still_grows(self, calcium):
        # full-window uniform grid: every lateral aperture carries zero flow,
        # deposit must still grow at the diffusion-limited rate
        cfg = make_config(chemistry=calcium, c0_entrance=4.428044676470588e21,
                          N_particles=0.0, dt=1000.0)
        state = initialize(cfg)
        step(state)
        shrink = 2e-5 - state.grid.x_radius
        from clogsim.sediment import growth_rate, wall_concentration_slow
        c1 = wall_concentration_slow(calcium, 2e-5, cfg.c0_entrance)
        want = growth_rate(calcium, c1) * 1000.0
        np.testing.assert_allclose(shrink, want, rtol=1e-6)

    def test_capture_counts_match_open_count_deficit(self):
        cfg = make_config(aperture_multiplicity=3, dt=20000.0, seed=11,
                          time_limit=2e5)
        state = initialize(cfg)
        for _ in range(5):
            step(state)
        deficit = (3 - state.grid.z_open_count).sum(axis=(0, 1))
        np.testing.assert_array_equal(state.catches, deficit)
        assert state.catches.sum() > 0

    def test_blocked_facets_equal_catches_without_multiplicity(self):
        cfg = make_config(dt=20000.0, seed=3, time_limit=3e5)
        trace = run(cfg)
        for snap in trace.snapshots:
            assert snap.blocked == snap.catches

    def test_step_draws_from_state_rng(self):
        # captures draw from state.rng alone: equal seeds give equal draws,
        # and the generator moves on
        cfg = make_config(dt=20000.0, seed=5)
        a, b = initialize(cfg), initialize(cfg)
        start = a.rng.bit_generator.state
        step(a)
        step(b)
        np.testing.assert_array_equal(a.catches, b.catches)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state != start

    def test_degenerate_raised_from_step(self):
        cfg = make_config()
        state = initialize(cfg)
        state.grid.z_state[:, :, 1] = ApertureState.PARTICLE_BLOCKED
        state.grid.z_open_count[:, :, 1] = 0
        with pytest.raises(DegenerateNetworkError):
            step(state)

    def test_step_past_the_time_limit_names_it(self):
        cfg = make_config(dt=20000.0, time_limit=2e4)
        state = initialize(cfg)
        step(state)
        assert state.time == 2e4
        with pytest.raises(ValueError, match=r"time 20000\.0 s has reached time_limit = 20000\.0"):
            step(state)
        assert state.steps == 1 and len(state.trace) == 1

    def test_unflagged_edit_reaches_the_next_capture(self):
        # fewer sub-apertures left than the last step saw: the next capture
        # draws against the grid's counts, so none goes below zero
        cfg = make_config(aperture_multiplicity=3, dt=3e4, seed=3)
        state = initialize(cfg)
        step(state)
        grid = state.grid
        full = (grid.z_state == ApertureState.OPEN) & (grid.z_open_count == 3)
        assert full.any()
        grid.z_open_count[full] = 1
        state.config = dataclasses.replace(cfg, dt=3e6)
        step(state)
        assert grid.z_open_count.min() >= 0
        np.testing.assert_array_equal(grid.z_state == ApertureState.PARTICLE_BLOCKED,
                                      grid.z_open_count == 0)
        assert (grid.z_open_count[full] == 0).any()


class TestRunOutcomes:
    def test_sealing_only_run(self, calcium):
        cfg = make_config(chemistry=calcium, c0_entrance=4.428044676470588e21,
                          N_particles=0.0, seal_fraction=0.05)
        trace = run(cfg)
        assert trace.stop_reason == "degenerate"
        counts = trace.final_counts()
        assert counts["blocked"] == 0
        assert counts["catches"] == 0
        assert counts["sealed"] > 0
        last = trace.snapshots[-1]
        assert last.dt == 0.0
        assert last.total_flow == 0.0

    def test_flow_stop_threshold(self, calcium):
        cfg = make_config(chemistry=calcium, c0_entrance=4.428044676470588e21,
                          N_particles=0.0, flow_stop_fraction=0.5)
        trace = run(cfg)
        assert trace.stop_reason == "flow-stopped"
        clean = trace.snapshots[0].total_flow
        assert trace.snapshots[-1].total_flow <= 0.5 * clean
        assert trace.snapshots[-2].total_flow > 0.5 * clean
        assert trace.final_counts()["blocked"] == 0

    def test_time_limit_appends_final_row(self):
        cfg = make_config(dt=50.0, time_limit=220.0, N_particles=1e3)
        trace = run(cfg)
        assert trace.stop_reason == "time-limit"
        times = [s.time for s in trace.snapshots]
        assert times == [0.0, 50.0, 100.0, 150.0, 200.0, 220.0]
        assert trace.snapshots[-2].dt == pytest.approx(20.0)
        assert trace.snapshots[-1].dt == 0.0
        assert trace.snapshots[-1].total_flow > 0.0
        assert trace.duration == 220.0

    def test_adaptive_without_any_kinetics_is_an_error(self):
        cfg = make_config(N_particles=0.0)
        with pytest.raises(ValueError, match="unbounded"):
            run(cfg)

    def test_adaptive_falls_back_to_time_limit_fraction(self):
        cfg = make_config(N_particles=0.0, time_limit=100.0)
        trace = run(cfg)
        assert trace.stop_reason == "time-limit"
        assert trace.snapshots[0].dt == pytest.approx(1.0)

    def test_max_steps_guard(self):
        cfg = make_config(dt=1.0, time_limit=1e9)
        with pytest.raises(RuntimeError, match="max_steps"):
            run(cfg, max_steps=2)


@pytest.fixture(scope="module")
def full_trace(calcium):
    cfg = make_config(chemistry=calcium, c0_entrance=4.428044676470588e21,
                      N_particles=2e8, seed=7, seal_fraction=0.05)
    return run(cfg)


class TestInvariants:
    def test_run_terminates(self, full_trace):
        assert full_trace.stop_reason in ("degenerate", "flow-stopped")
        assert len(full_trace.snapshots) > 10

    def test_state_counts_conserved(self, full_trace):
        for snap in full_trace.snapshots:
            for k in range(3):
                assert snap.open[k] + snap.blocked[k] + snap.sealed[k] == 16

    def test_monotone_counters(self, full_trace):
        snaps = full_trace.snapshots
        for a, b in zip(snaps, snaps[1:]):
            for k in range(3):
                assert b.open[k] <= a.open[k]
                assert b.blocked[k] >= a.blocked[k]
                assert b.sealed[k] >= a.sealed[k]
                assert b.catches[k] >= a.catches[k]

    def test_flow_never_recovers(self, full_trace):
        snaps = full_trace.snapshots
        clean = snaps[0].total_flow
        for a, b in zip(snaps, snaps[1:]):
            assert b.total_flow <= a.total_flow + 1e-6 * clean

    def test_time_strictly_increases(self, full_trace):
        times = [s.time for s in full_trace.snapshots]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] == 0.0

    def test_csv_round_trip(self, full_trace):
        text = full_trace.to_csv()
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["time_s", "dt_s", "total_flow_m3_s", "depletion_warning"]
        assert header[4:7] == ["open_m1", "open_m2", "open_m3"]
        assert len(header) == 4 + 4 * 3
        assert len(lines) == 1 + len(full_trace.snapshots)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert int(first[4]) == 16


class TestDeterminism:
    def test_same_seed_bit_identical(self, calcium):
        cfg = make_config(chemistry=calcium, c0_entrance=4.428044676470588e21,
                          N_particles=2e8, seed=21, seal_fraction=0.05)
        a = run(cfg).to_csv()
        b = run(cfg).to_csv()
        assert a == b

    def test_different_seed_differs(self):
        base = make_config(dt=20000.0, time_limit=4e5, N_particles=5e7)
        a = run(dataclasses.replace(base, seed=1)).to_csv()
        b = run(dataclasses.replace(base, seed=2)).to_csv()
        assert a != b


def scenario1_small(chemistry) -> FilterConfig:
    """Scenario 1's filter, chemistry and particle load on a 6^3 lattice."""
    return make_config(L_x=3e-4, L_y=3e-4, L_z=3e-4, n_x=6, n_y=6, n_z=6,
                       r_filter=1.19e-5, r_side=2.5e-5, chemistry=chemistry,
                       c0_entrance=4.428044676470588e21, seed=1,
                       inlet_window=((2, 5), (2, 5)), outlet_window=((2, 5), (2, 5)))


class TestWarmStart:
    @staticmethod
    def record_solves(monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            field_ = solve_pressures(*args, **kwargs)
            calls.append((kwargs.get("guess"), field_.pressure))
            return field_

        monkeypatch.setattr(engine, "solve_pressures", recording)
        return calls

    def test_guess_extrapolates_from_third_step_on(self, calcium, monkeypatch):
        calls = self.record_solves(monkeypatch)
        # scenario 1 on a 6^3 lattice: every step's solve moves the field
        state = initialize(scenario1_small(calcium))
        for _ in range(6):
            step(state)
        dts = [snap.dt for snap in state.trace]
        assert len(set(dts)) == len(dts)   # adaptive steps, so the ratio matters
        assert calls[0][0] is None and calls[1][0] is None
        for k in range(2, 6):
            p_n, p_prev = calls[k - 1][1], calls[k - 2][1]
            assert np.any(p_n != p_prev)
            want = p_n + (p_n - p_prev) * (dts[k - 1] / dts[k - 2])
            assert calls[k][0].tobytes() == want.tobytes(), f"step {k + 1}"

    def test_pass_probability_once_per_step(self, calcium, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return pass_probability(*args, **kwargs)

        monkeypatch.setattr(engine, "pass_probability", counting)
        cfg = scenario1_small(calcium)
        state = initialize(cfg)
        assert len(calls) == 1
        rebuilt = False
        for _ in range(30):
            before = state.open_facets[-1]
            want = pass_probability(state.grid.z_radius, cfg.l_particle)
            step(state)
            # one call when each step reads the grid, whether or not a
            # table was rebuilt
            assert len(calls) == 1 + state.steps
            # the probabilities the step used are those of the radii it started from
            z = state.open_facets[-1]
            rebuilt |= z is not before
            np.testing.assert_array_equal(z.pass_prob, want[z.mask])
        assert rebuilt
        assert np.any(state.grid.z_radius != state.grid.z_radius0)


class TestHierarchy:
    def test_steps_share_the_state_hierarchy(self, calcium, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(kwargs.get("hierarchy"))
            return solve_pressures(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_pressures", recording)
        state = initialize(scenario1_small(calcium))
        for _ in range(6):
            step(state)
        assert len(calls) == 6 and all(h is state.hierarchy for h in calls)
        assert state.hierarchy.coarse and state.hierarchy.reuses > 0
        assert state.hierarchy.finest is not None    # kept for the next step

    def test_time_limit_solve_shares_the_hierarchy(self, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return solve_pressures(*args, **kwargs)

        monkeypatch.setattr(engine, "solve_pressures", recording)
        cfg = make_config(dt=20000.0, time_limit=6e4, N_particles=5e7)
        trace = run(cfg)
        assert trace.stop_reason == "time-limit"
        tol = initialize(cfg).solver_tol
        hierarchy = calls[0]["hierarchy"]
        assert hierarchy is not None
        assert all(c["hierarchy"] is hierarchy and c["tol"] == tol for c in calls)
        # the final row's flow is that of the final grid, to the solve's bound
        # summed over the cells
        grid = trace.final_grid
        cold = solve_pressures(grid, 0.0, cfg.p_grad * cfg.L_z, tol=tol)
        slack = grid.n_x * grid.n_y * grid.n_z * tol
        assert trace.snapshots[-1].total_flow == pytest.approx(
            total_flow(grid, flows_from_pressures(grid, cold)), abs=slack)


class TestConductanceBuilds:
    def test_one_conductance_build_per_step(self, calcium, monkeypatch):
        from clogsim import hydraulics
        builds = []
        build = hydraulics.conductance_arrays

        def counting(grid):
            builds.append(grid)
            return build(grid)

        monkeypatch.setattr(hydraulics, "conductance_arrays", counting)
        state = initialize(scenario1_small(calcium))
        before = len(builds)
        for _ in range(5):
            step(state)
        assert len(builds) - before == 5


class TestMeanField:
    def test_first_step_captures_match_expected_rate(self):
        # pooled over seeds, first-step captures follow the analytic uniform
        # layer rate within 3 sigma
        cfg = make_config(chemistry=None, dt=25_000.0)
        state = initialize(cfg)
        field = solve_pressures(state.grid, 0.0, -2.0, tol=state.solver_tol)
        flows = flows_from_pressures(state.grid, field)
        f = float(np.abs(flows.flow_z).mean())
        assert np.allclose(np.abs(flows.flow_z), f, rtol=1e-6)
        q = pass_probability(1e-5, 2.5e-5)
        # membrane k sees the inlet load attenuated by the k upstream layers
        conc = cfg.N_particles * q ** np.arange(3)
        p = -np.expm1(-conc * (1 - q) * f * 25_000.0)
        assert 0.01 < p.min() and p.max() < 0.2

        seeds = 300
        total = 0
        for s in range(seeds):
            st = initialize(dataclasses.replace(cfg, seed=s))
            step(st)
            total += int(st.catches.sum())
        expect = 16 * float(p.sum())
        sigma = math.sqrt(16 * float((p * (1 - p)).sum()) / seeds)
        assert abs(total / seeds - expect) <= 3 * sigma


class TestDepletionFlag:
    def test_flag_follows_threshold(self, calcium):
        strict = make_config(chemistry=calcium, c0_entrance=4.428044676470588e21,
                             N_particles=0.0, dt=10.0, time_limit=10.0,
                             depletion_threshold=1e-12)
        trace = run(strict)
        assert trace.snapshots[0].depletion_warning
        loose = dataclasses.replace(strict, depletion_threshold=0.999)
        trace = run(loose)
        assert not trace.snapshots[0].depletion_warning

    @pytest.mark.parametrize("order", [1, 2])
    def test_bounds_give_the_flag_of_the_slow_layer_solve(self, calcium, order, monkeypatch):
        # the bounds on the wall concentration decide only where the full
        # solve agrees, at thresholds far from and next to its ratio, and
        # they leave the solve to the near ones alone
        chem = dataclasses.replace(calcium, reaction_order=order)
        state = initialize(make_config(chemistry=chem, c0_entrance=4.428044676470588e21))
        cfg = state.config
        cavity, c0 = (cfg.h_x + cfg.h_y + cfg.h_z) / 3.0, cfg.c0_entrance
        # how far apart the bounds on the ratio lie
        band = 2.0 * (c0 / wall_concentration_slow(chem, cavity, c0)) ** order
        solves = []
        monkeypatch.setattr(engine, "solve_slow_layer",
                            lambda *args: solves.append(args) or solve_slow_layer(*args))
        for speed in [0.0, *np.geomspace(1e-9, 1e2, 45)]:
            c1 = solve_slow_layer(chem, cavity, c0, speed).wall_concentration
            ratio = axial_depletion(chem, cavity, c0, c1, speed, cfg.L_z).delta_c0 / c0
            near = [ratio * f for f in (1 - 1e-12, 1.0, 1 + 1e-12)] if speed else []
            for threshold in (ratio / band, ratio * band, *near):
                state.config = dataclasses.replace(cfg, depletion_threshold=threshold)
                want = not axial_depletion(chem, cavity, c0, c1, speed, cfg.L_z,
                                           threshold=threshold).negligible
                before = len(solves)
                assert engine._depletion_warning(state, [(None, None, np.array([speed]))]) \
                    == want
                assert len(solves) - before == (threshold in near or not speed)



# SHA-256 of the trace text of scenario1_small with captures ruled out
NO_CAPTURE_SHA256 = "02603ba2f568c5e55811c06ce021433a71acfeb01e53f5cddd28d1af8d0810f7"


class TestPinnedTraces:
    """Trace text of two runs, captured when the order-1 wall concentration
    became a closed-form root, again when the pressure CG moved to float32
    with float64 reliable updates, and again when every pressure operator
    product took the flux form (float columns only, each time); a step's
    bookkeeping may change how it is computed, never a byte of the trace."""

    def test_scenario1_small_run(self, calcium):
        trace = run(scenario1_small(calcium))
        want = (DATA_DIR / "scenario1_small.trace.csv").read_text()
        assert trace.to_csv() == want

    def test_multiplicity_three_corrected_law_run(self, calcium):
        cfg = dataclasses.replace(scenario1_small(calcium), aperture_multiplicity=3,
                                  N_particles=3e7, seed=5)
        assert cfg.blocking_law == "corrected"
        trace = run(cfg)
        want = (DATA_DIR / "multiplicity3_corrected.trace.csv").read_text()
        assert trace.to_csv() == want
        final = trace.snapshots[-1]
        assert sum(final.sealed) > 0 and sum(final.catches) > sum(final.blocked) > 0

    @pytest.mark.parametrize("law", ["simple", "corrected"])
    @pytest.mark.parametrize("no_capture", ["N_particles", "l_particle"])
    def test_runs_without_captures(self, calcium, law, no_capture):
        # no particles, or rods of length 0: every capture probability is 0,
        # so sediment alone decides the run, under either law
        cfg = dataclasses.replace(scenario1_small(calcium), blocking_law=law,
                                  **{no_capture: 0.0})
        trace = run(cfg)
        assert sum(trace.final_counts()[group] for group in ("blocked", "catches")) == 0
        assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == NO_CAPTURE_SHA256


def closed_since_read(state) -> bool:
    """A facet closed since the state's tables were read from the grid."""
    return any(not np.array_equal(table.mask, fam.open_mask(state.grid))
               for fam, table in zip(_FACET_FAMILIES, state.open_facets))


class TestOpenFacets:
    def test_binomial_draws_nothing_for_empty_or_zero_entries(self):
        # the engine draws captures on the entries with w > 0 and p > 0 only;
        # numpy returns 0 without a draw for n = 0 or p = 0, so the draws and
        # the generator state match a draw over every entry
        gen = np.random.default_rng(4)
        for seed in range(20):
            w = gen.integers(0, 4, (6, 7, 5))
            p = np.where(gen.random(w.shape) < 0.3, gen.random(w.shape) * 0.2, 0.0)
            full, live = np.random.default_rng(seed), np.random.default_rng(seed)
            want = full.binomial(w, p)
            drawn = np.flatnonzero((w > 0) & (p > 0))
            got = np.zeros(w.size, dtype=want.dtype)
            got[drawn] = live.binomial(w.reshape(-1)[drawn], p.reshape(-1)[drawn])
            np.testing.assert_array_equal(got, want.reshape(-1))
            assert live.bit_generator.state == full.bit_generator.state

    def test_tables_follow_the_grid(self, calcium):
        cfg = dataclasses.replace(scenario1_small(calcium), aperture_multiplicity=3,
                                  N_particles=3e7, seed=5)
        state = initialize(cfg)
        grid = state.grid
        closed_once = False
        for _ in range(200):
            # the grid the step starts from
            before = state.open_facets
            masks = [fam.open_mask(grid) for fam in _FACET_FAMILIES]
            w = np.where(grid.z_state == ApertureState.OPEN, grid.z_open_count, 0)
            q = pass_probability(grid.z_radius, cfg.l_particle)
            step(state)
            for fam, old, new, mask in zip(_FACET_FAMILIES, before, state.open_facets, masks):
                # a family whose open facets did not change keeps its table
                assert new is old or not np.array_equal(new.mask, old.mask)
                closed_once |= new is not old
                np.testing.assert_array_equal(new.mask, mask)
                np.testing.assert_array_equal(new.index, np.flatnonzero(mask))
                radius0 = fam.arrays(grid)[0].reshape(-1)[new.index]
                np.testing.assert_array_equal(new.seal_radius, cfg.seal_fraction * radius0)
            z = state.open_facets[-1]
            # the step wrote no capture into the weights it read
            np.testing.assert_array_equal(z.weights, w.reshape(-1)[z.index])
            np.testing.assert_array_equal(z.pass_prob, q.reshape(-1)[z.index])
            # the per-membrane sums over the compact arrays equal the sums
            # over the whole lattice, bit for bit
            wt = w.sum(axis=(0, 1))
            np.testing.assert_array_equal(state.open_weights, wt)
            mean_pass = np.where(wt > 0, (w * q).sum(axis=(0, 1))
                                 / np.maximum(wt, 1), 0.0)
            want = layer_concentrations(cfg.N_particles, mean_pass)
            assert state.layer_concentration.tobytes() == want.tobytes()
        assert closed_once

    def test_grid_edit_between_steps_reaches_the_tables(self, calcium):
        # a caller that closes facets between steps gets tables rebuilt from
        # the grid at the next step; untouched families keep theirs
        state = initialize(scenario1_small(calcium))
        step(state)
        grid = state.grid
        assert not closed_since_read(state)
        x_before, y_before, z_before = state.open_facets
        grid.x_state[2, 2, 2] = ApertureState.SEDIMENT_SEALED
        grid.z_state[3, 3, 1] = ApertureState.PARTICLE_BLOCKED
        grid.z_open_count[3, 3, 1] = 0
        # the concentrations the next capture reads: each membrane's pass,
        # weighted over its open facets
        open_ = (grid.z_state == ApertureState.OPEN) & (grid.z_open_count > 0)
        weights = np.where(open_, grid.z_open_count, 0)
        mean_pass = ((weights * pass_probability(grid.z_radius, state.config.l_particle))
                     .sum(axis=(0, 1)) / weights.sum(axis=(0, 1)))
        counts = grid.z_open_count.copy()
        step(state)
        np.testing.assert_allclose(
            state.layer_concentration,
            layer_concentrations(state.config.N_particles, mean_pass), rtol=1e-13)
        x, y, z = state.open_facets
        assert z is not z_before and x is not x_before and y is y_before
        assert not x.mask[2, 2, 2] and not z.mask[3, 3, 1]
        assert x.index.size == x_before.index.size - 1
        assert z.index.size == z_before.index.size - 1
        np.testing.assert_array_equal(z.weights, counts[z.mask])

    def test_radius_edit_between_steps_reaches_the_capture_law(self, calcium, monkeypatch):
        # an edited radius changes no open facet, so the z table is kept; the
        # capture of the next step still reads the pass of the edited radius
        seen, capture = [], engine._capture

        def recording(state, *args):
            z = state.open_facets[-1]
            seen.append((z.index.copy(), z.pass_prob.copy(), state.layer_concentration.copy()))
            return capture(state, *args)

        monkeypatch.setattr(engine, "_capture", recording)
        state = initialize(scenario1_small(calcium))
        step(state)
        grid, l_particle = state.grid, state.config.l_particle
        assert not closed_since_read(state)
        before = pass_probability(grid.z_radius[2, 2, 0], l_particle)
        grid.z_radius[2, 2, 0] *= 0.5
        edited = pass_probability(grid.z_radius[2, 2, 0], l_particle)
        assert edited < 0.5 * before
        open_ = (grid.z_state == ApertureState.OPEN) & (grid.z_open_count > 0)
        weights = np.where(open_, grid.z_open_count, 0)
        mean_pass = ((weights * pass_probability(grid.z_radius, l_particle)).sum(axis=(0, 1))
                     / weights.sum(axis=(0, 1)))
        step(state)
        index, q, concentration = seen[-1]
        assert len(seen) == 2
        flat = np.ravel_multi_index((2, 2, 0), grid.z_radius.shape)
        assert q[index == flat].tolist() == [edited]
        np.testing.assert_allclose(
            concentration, layer_concentrations(state.config.N_particles, mean_pass),
            rtol=1e-13)

    @pytest.mark.parametrize("law", ["simple", "corrected"])
    @pytest.mark.parametrize("multiplicity", [1, 3])
    def test_capture_draws_follow_the_public_law(self, calcium, monkeypatch, law, multiplicity):
        # the p every capture draw uses is step_blocking_probability's, with
        # the membrane means taken per facet, bit for bit
        drawn, checked, capture = [], [], engine._capture

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, n, p):
                drawn.append(p)
                return self.rng.binomial(n, p)

        def checking(state, f_sub, catch_flow, dt):
            z, m = state.open_facets[-1], state.grid.n_membranes
            conc = state.layer_concentration[:m].take(z.membrane)
            stats = None
            if law == BLOCKING_CORRECTED:
                denom = np.maximum(state.open_weights, 1)
                simple = step_blocking_probability(z.pass_prob, f_sub, conc, dt)
                mean_catch = np.bincount(z.membrane, z.weights * (1.0 - z.pass_prob) * f_sub,
                                         minlength=m) / denom
                mean_simple = np.bincount(z.membrane, z.weights * simple, minlength=m) / denom
                stats = LayerStats(mean_catch.take(z.membrane), mean_simple.take(z.membrane))
            want = step_blocking_probability(z.pass_prob, f_sub, conc, dt, law, stats)
            closed = capture(state, f_sub, catch_flow, dt)
            assert drawn[-1].tobytes() == want[want > 0].tobytes()
            checked.append(drawn[-1].size)
            return closed

        monkeypatch.setattr(engine, "_capture", checking)
        cfg = dataclasses.replace(scenario1_small(calcium), aperture_multiplicity=multiplicity,
                                  N_particles=3e7, blocking_law=law)
        state = initialize(cfg)
        state.rng = Recorder(state.rng)
        for _ in range(12):
            step(state)
        assert len(checked) == 12 and min(checked) > 0
        assert state.catches.sum() > 0

    def test_row_counts_are_the_grid_at_the_step_start(self, calcium):
        # a row's open/blocked/sealed counts come from the grid the step
        # started from, on steps that closed facets and on steps that did not
        state = initialize(scenario1_small(calcium))
        changed = 0
        for _ in range(150):
            changed += closed_since_read(state)
            want = tuple(tuple(int(v) for v in c) for c in state.grid.membrane_state_counts())
            step(state)
            snap = state.trace[-1]
            assert (snap.open, snap.blocked, snap.sealed) == want
        assert 0 < changed < 150
        for snap in state.trace[-3:]:
            assert sum(snap.open) + sum(snap.blocked) + sum(snap.sealed) == 6 * 6 * 5

    def test_blocked_to_sealed_edit_reaches_the_next_row(self):
        # an edit that moves a closed facet from blocked to sealed changes no
        # open facet, after a step that closed nothing; the next row still
        # counts the grid as edited
        state = initialize(make_config(dt=2000.0, seed=3))
        grid = state.grid
        for _ in range(200):
            step(state)
            if (grid.z_state == ApertureState.PARTICLE_BLOCKED).any() \
                    and not closed_since_read(state):
                break
        else:
            pytest.fail("no quiet step after a capture")
        blocked = np.argwhere(grid.z_state == ApertureState.PARTICLE_BLOCKED)[0]
        grid.z_state[tuple(blocked)] = ApertureState.SEDIMENT_SEALED
        _, want_blocked, want_sealed = grid.membrane_state_counts()
        step(state)
        snap = state.trace[-1]
        assert snap.blocked == tuple(int(v) for v in want_blocked)
        assert snap.sealed == tuple(int(v) for v in want_sealed)
        assert sum(snap.sealed) == 1
