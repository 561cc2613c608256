"""End-to-end acceptance gate.

One test per acceptance criterion, so ``pytest -v`` prints one pass/fail
line for each.  Batch fixtures run twenty seeds of every shipped scenario
once per session and are shared across criteria.
"""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from clogsim.cli import parse_config
from clogsim.design import (quantile_penetration_forms, radius_for_catch,
                            equal_contamination_schedule)
from clogsim.engine import pass_probability, run
from clogsim.hydraulics import (DegenerateNetworkError, cell_net_outflow,
                                conductance_arrays, flows_from_pressures,
                                reference_cell_flow, solve_pressures)
from clogsim.model import ApertureState, Chemistry, build_grid
from clogsim.sediment import (calibrate_rate_constant, solve_slow_layer,
                              stationary_velocity, wall_concentration_profile)

from conftest import CONFIG_DIR, GROWTH
from test_hydraulics import dense_pressures, make_config, random_connected_grid
from test_sediment import oracle_wall_concentration

SEEDS = range(1, 21)
DAY = 86400.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _batch(name: str):
    config = parse_config(CONFIG_DIR / name)
    start = time.perf_counter()
    traces = {seed: run(dataclasses.replace(config, seed=seed)) for seed in SEEDS}
    elapsed = time.perf_counter() - start
    return config, traces, elapsed


@pytest.fixture(scope="module")
def scenario1():
    return _batch("scenario1.cfg")


@pytest.fixture(scope="module")
def scenario2():
    return _batch("scenario2.cfg")


@pytest.fixture(scope="module")
def scenario3():
    return _batch("scenario3.cfg")


def test_criterion_1_calcite_calibration():
    # 0.1 mm/month growth in a 1 um channel pins the surface rate constant
    start = time.perf_counter()
    result = calibrate_rate_constant(
        GROWTH, 1e-3, solute_molar_mass=0.136, sediment_molar_mass=0.100,
        sediment_density=2710.0, diffusivity=1e-9, radius=1e-6)
    chem = Chemistry(rate_constant=result.rate_constant, reaction_order=1,
                     diffusivity=1e-9, sediment_molar_mass=0.100,
                     sediment_stoichiometry=1, sediment_density=2710.0,
                     solute_molar_mass=0.136)
    v_stat = stationary_velocity(chem, 1e-6, result.entrance_concentration)
    elapsed = time.perf_counter() - start

    checks = [
        ("K", result.rate_constant, 1.66e-4, 0.01),
        ("c0", result.entrance_concentration, 4.4e21, 0.02),
        ("c1", result.wall_concentration, 3.8e21, 0.03),
        ("v_stat", v_stat, 1.4e-4, 0.03),
    ]
    errors = {name: abs(got - want) / want for name, got, want, _ in checks}
    ok = all(err <= tol for (name, _, _, tol), err
             in zip(checks, errors.values())) and elapsed < 0.1
    detail = ", ".join(f"{name} = {got:.4e} (err {errors[name]:.2%})"
                       for name, got, _, _ in checks)
    _report(1, ok, f"{detail}, runtime {elapsed * 1e3:.1f} ms")


def test_criterion_2_rod_pass_design():
    q = pass_probability(1.19e-5, 2.5e-5)
    penetration = q ** 19
    target_err = abs(penetration - 1e-3) / 1e-3

    rod = 2.5e-5
    rng = np.random.default_rng(2024)
    radii = rng.uniform(0.1 * rod / 2, 0.999 * rod / 2, size=1000)
    back = radius_for_catch(1.0 - pass_probability(radii, rod), rod)
    invert_err = float(np.max(np.abs(back - radii) / radii))

    ok = target_err <= 0.02 and invert_err <= 1e-12
    _report(2, ok,
            f"q = {q:.10f}, q^19 = {penetration:.4e} vs 1.0e-3 "
            f"(err {target_err:.2%}, tol 2%), "
            f"radius inversion max rel err {invert_err:.2e} over 1000 points")


def test_criterion_3_slow_layer_roots_vs_oracle():
    c0 = 4.428044676470588e21
    worst = 0.0
    count = 0
    # rate-constant scale drops ~1e-22 per order so fluxes stay physical
    for n, k_scale in ((1, 1.0), (2, 1e-22), (3, 1e-44)):
        for k_mul in np.logspace(-2, 2, 7):
            chem = Chemistry(rate_constant=1.6576116288274028e-4 * k_scale * k_mul,
                             reaction_order=n, diffusivity=1e-9,
                             sediment_molar_mass=0.100, sediment_stoichiometry=1,
                             sediment_density=2710.0, solute_molar_mass=0.136)
            for r in np.logspace(-7, -4.5, 7):
                v_stat = stationary_velocity(chem, float(r), c0)
                for v_mul in np.logspace(-2, 3, 8):
                    v0 = v_stat * float(v_mul)
                    got = float(wall_concentration_profile(
                        chem, float(r), c0, v0)[0])
                    want = oracle_wall_concentration(chem, float(r), c0, v0)
                    worst = max(worst, abs(got - want) / want)
                    count += 1

    # regime hand-off: at the stationary speed both branches meet exactly
    cont = 0.0
    for n in (1, 2):
        chem = Chemistry(rate_constant=1.6576116288274028e-4, reaction_order=n,
                         diffusivity=1e-9, sediment_molar_mass=0.100,
                         sediment_stoichiometry=1, sediment_density=2710.0,
                         solute_molar_mass=0.136)
        for r in (1e-6, 5e-6, 3e-5):
            v_stat = stationary_velocity(chem, r, c0)
            slow = solve_slow_layer(chem, r, c0, 0.5 * v_stat).wall_concentration
            at = float(wall_concentration_profile(chem, r, c0, v_stat)[0])
            above = float(wall_concentration_profile(chem, r, c0,
                                                     v_stat * (1 + 1e-9))[0])
            cont = max(cont, abs(at - slow) / slow, abs(above - slow) / slow)

    ok = count >= 1000 and worst <= 1e-10 and cont <= 1e-6
    _report(3, ok, f"{count} log-grid tuples, worst rel err {worst:.2e} "
                   f"(tol 1e-10), regime continuity {cont:.2e}")


def test_criterion_4_telescoping_and_quantile_forms():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        c1 = rng.uniform(1e-12, 1.0 / m)
        sched = equal_contamination_schedule(c1, m)
        product = math.prod(1.0 - c for c in sched.catch_probabilities)
        worst = max(worst, abs(product - (1.0 - m * c1)))

    product12, shortcut12 = quantile_penetration_forms(12)
    forms_ok = (abs(product12 - 5.372321709247829e-5) / 5.372321709247829e-5 <= 1e-12
                and abs(shortcut12 - 1.5389654375500732e-3) / 1.5389654375500732e-3
                <= 1e-12)

    ok = worst <= 1e-12 and forms_ok
    _report(4, ok,
            f"telescoping worst abs err {worst:.2e} over 1000 draws (m <= 50); "
            f"12-layer penetration forms {product12:.6e} (product) vs "
            f"{shortcut12:.6e} (shortcut), ratio {shortcut12 / product12:.1f}")


def test_criterion_5_network_solver_vs_dense():
    rng = np.random.default_rng(55)
    p_in, p_out = 0.0, -2.0
    tol = 1e-10 * reference_cell_flow(build_grid(make_config()), p_in, p_out)
    worst_p = 0.0
    worst_net = 0.0
    for _ in range(100):
        grid = random_connected_grid(rng, rng.uniform(0.0, 0.45),
                                     rng.uniform(0.0, 0.3))
        want = dense_pressures(grid, p_in, p_out)
        gx, gy, gz = conductance_arrays(grid)
        den = np.zeros((4, 4, 4))
        den[:-1, :, :] += gx
        den[1:, :, :] += gx
        den[:, :-1, :] += gy
        den[:, 1:, :] += gy
        den[:, :, :-1] += gz
        den[:, :, 1:] += gz
        fixed = np.zeros((4, 4, 4), dtype=bool)
        fixed[:, :, 0] = grid.inlet_mask
        fixed[:, :, -1] = grid.outlet_mask
        active = ~fixed & (den > 0)
        for sweep in ("lexicographic", "cg"):
            field = solve_pressures(grid, p_in, p_out, tol=tol, sweep=sweep)
            err = np.max(np.abs(np.where(active, field.pressure - want, 0.0))) / 2.0
            worst_p = max(worst_p, float(err))
            flows = flows_from_pressures(grid, field)
            net = cell_net_outflow(flows, 4, 4, 4)
            worst_net = max(worst_net, float(
                np.max(np.abs(np.where(active, net, 0.0))) / tol))

    missed = 0
    for _ in range(100):
        grid = random_connected_grid(rng, rng.uniform(0.0, 0.3),
                                     rng.uniform(0.0, 0.2))
        k = int(rng.integers(grid.n_membranes))
        grid.z_state[:, :, k] = ApertureState.PARTICLE_BLOCKED
        grid.z_open_count[:, :, k] = 0
        try:
            solve_pressures(grid, p_in, p_out)
            missed += 1
        except DegenerateNetworkError:
            pass

    ok = worst_p <= 1e-8 and worst_net <= 1.0 and missed == 0
    _report(5, ok,
            f"100 random closure patterns x 2 sweeps: worst pressure rel err "
            f"{worst_p:.2e} (tol 1e-8), worst cell imbalance {worst_net:.2f} x tol; "
            f"degeneracy missed on {missed}/100 closed-membrane patterns")


def test_criterion_6_scenario_batches(scenario1, scenario2, scenario3):
    _, s1, t1 = scenario1
    _, s2, t2 = scenario2
    _, s3, t3 = scenario3

    days = np.array([s1[s].duration for s in SEEDS]) / DAY
    blocked1 = np.array([s1[s].final_counts()["blocked"] for s in SEEDS])
    sealed1 = np.array([s1[s].final_counts()["sealed"] for s in SEEDS])
    conserved = all(
        sum(s1[s].final_counts()[k] for k in ("open", "blocked", "sealed")) == 7600
        for s in SEEDS)

    blocked2 = np.array([s2[s].final_counts()["blocked"] for s in SEEDS])
    harder = bool(np.all(blocked2 > blocked1))

    catches3 = np.array([s3[s].final_counts()["catches"] for s in SEEDS])
    caught_fraction = float(catches3.mean()) / (20 * 20 * 11)
    pooled = np.sum([s3[s].snapshots[-1].catches for s in SEEDS], axis=0)
    total = pooled.sum()
    expect = total / 11.0
    sigma = math.sqrt(total * (1 / 11) * (1 - 1 / 11))
    flat = bool(np.all(np.abs(pooled - expect) <= 3 * sigma))

    ok = (1.5 <= days.mean() <= 6.0
          and 135 <= blocked1.mean() <= 540
          and 5100 <= sealed1.mean() <= 7600
          and conserved
          and 350 <= blocked2.mean() <= 1380
          and harder
          and caught_fraction >= 0.70
          and flat
          and max(t1, t2, t3) < 300.0)
    _report(6, ok,
            f"S1 mean stop {days.mean():.2f} d, blocked {blocked1.mean():.0f}, "
            f"sealed {sealed1.mean():.0f}, counts conserved {conserved}; "
            f"S2 blocked {blocked2.mean():.0f} (> S1 on every seed: {harder}); "
            f"S3 caught {caught_fraction:.1%} of apertures, flat within 3 sigma: "
            f"{flat}; batch times {t1:.0f}/{t2:.0f}/{t3:.0f} s (cap 300)")


def test_criterion_7_reproducibility(scenario1):
    config, traces, _ = scenario1
    fresh = run(dataclasses.replace(config, seed=1))
    ok = fresh.to_csv() == traces[1].to_csv()
    _report(7, ok, f"seed-1 rerun trace CSV bit-identical: {ok} "
                   f"({len(fresh.snapshots)} rows)")


def test_criterion_8_catch_depth_profiles(scenario1, scenario3):
    _, s1, _ = scenario1
    pooled1 = np.sum([s1[s].snapshots[-1].catches for s in SEEDS], axis=0)
    deep = float(pooled1[5:].sum()) / pooled1.sum()
    # counts fall with depth, up to Poisson noise on adjacent membranes
    rises = sum(
        1 for a, b in zip(pooled1, pooled1[1:])
        if b > a + 3.0 * math.sqrt(a + b + 1.0))

    _, s3, _ = scenario3
    pooled3 = np.sum([s3[s].snapshots[-1].catches for s in SEEDS], axis=0)
    total = pooled3.sum()
    expect = total / 11.0
    sigma = math.sqrt(total * (1 / 11) * (1 - 1 / 11))
    spread = float(np.max(np.abs(pooled3 - expect)) / sigma)

    ok = deep < 0.05 and rises == 0 and spread <= 3.0
    _report(8, ok,
            f"uniform design: membranes 6..19 take {deep:.2%} of catches "
            f"(< 5%), {rises} significant depth rises; sized design: "
            f"per-membrane pooled counts within {spread:.2f} sigma of flat (<= 3)")
