from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clogsim.model import AVOGADRO, Chemistry
from clogsim.sediment import (CONVECTIVE, DIFFUSION_LIMITED, CalibrationInfeasibleError,
                              _bracketed_root, _convective_first_order, axial_depletion,
                              calibrate_rate_constant, growth_rate, solve_slow_layer,
                              stationary_velocity, wall_concentration_profile,
                              wall_concentration_slow)

from conftest import (CHANNEL_RADIUS, DIFFUSIVITY, ENTRANCE_CONCENTRATION, GROWTH,
                      MASS_CONCENTRATION, RATE_CONSTANT, SEDIMENT_DENSITY,
                      SEDIMENT_MOLAR_MASS, SOLUTE_MOLAR_MASS, WALL_CONCENTRATION)

STATIONARY_SPEED = 1.4219135802469136e-4   # K * c1 / c0 for the calcium benchmark


def _chem(k=RATE_CONSTANT, n=1, D=DIFFUSIVITY) -> Chemistry:
    return Chemistry(rate_constant=k, reaction_order=n, diffusivity=D,
                     sediment_molar_mass=SEDIMENT_MOLAR_MASS, sediment_stoichiometry=1,
                     sediment_density=SEDIMENT_DENSITY, solute_molar_mass=SOLUTE_MOLAR_MASS)


# Independent scalar oracle: plain deep bisection on the defining balances,
# no secant polish, no shared code with the production path.

def _bisect(f, lo, hi, iters=200):
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo, f_lo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_wall_concentration(chem: Chemistry, radius: float, c0: float, v0: float) -> float:
    k, n, D = chem.rate_constant, chem.reaction_order, chem.diffusivity
    c_slow = _bisect(lambda c: D * (c0 - c) - k * c ** n * radius, 0.0, c0)
    v_stat = k * c_slow ** n / c0
    if v0 <= v_stat:
        return c_slow
    if n == 1:
        a = k * radius / D
        b = k / v0
        y = _bisect(lambda t: t * (2.0 - t) * (a * t + 1.0) - b, 0.0, 1.0)
        return c0 / (a * y + 1.0)

    def residual(c):
        sink = k * c ** n
        f = D * (c0 - c) / (sink * radius)
        return sink - c0 * v0 * f * (2.0 - f)

    return _bisect(residual, c_slow, c0)


class TestCalibration:
    def test_calcium_benchmark_frozen_values(self):
        result = calibrate_rate_constant(
            GROWTH, MASS_CONCENTRATION,
            solute_molar_mass=SOLUTE_MOLAR_MASS,
            sediment_molar_mass=SEDIMENT_MOLAR_MASS,
            sediment_density=SEDIMENT_DENSITY,
            diffusivity=DIFFUSIVITY, radius=CHANNEL_RADIUS)
        assert result.rate_constant == pytest.approx(RATE_CONSTANT, rel=1e-12)
        assert result.entrance_concentration == pytest.approx(ENTRANCE_CONCENTRATION, rel=1e-12)
        assert result.wall_concentration == pytest.approx(WALL_CONCENTRATION, rel=1e-12)

    def test_calibrated_constants_reproduce_growth(self, calcium):
        # closing the loop: the calibrated chemistry must grow sediment at
        # exactly the measured rate in the diffusion-limited channel
        c1 = wall_concentration_slow(calcium, CHANNEL_RADIUS, ENTRANCE_CONCENTRATION)
        assert c1 == pytest.approx(WALL_CONCENTRATION, rel=1e-12)
        assert growth_rate(calcium, c1) == pytest.approx(GROWTH, rel=1e-12)

    def test_stationary_speed_frozen(self, calcium):
        v = stationary_velocity(calcium, CHANNEL_RADIUS, ENTRANCE_CONCENTRATION)
        assert v == pytest.approx(STATIONARY_SPEED, rel=1e-12)

    def test_infeasible_growth_raises(self):
        # diffusion cannot deliver mass faster than D c0m mu2 / (n rho2 mu0 R)
        with pytest.raises(CalibrationInfeasibleError):
            calibrate_rate_constant(
                GROWTH * 10, MASS_CONCENTRATION,
                solute_molar_mass=SOLUTE_MOLAR_MASS,
                sediment_molar_mass=SEDIMENT_MOLAR_MASS,
                sediment_density=SEDIMENT_DENSITY,
                diffusivity=DIFFUSIVITY, radius=CHANNEL_RADIUS)

    def test_feasibility_boundary(self):
        limit = (DIFFUSIVITY * MASS_CONCENTRATION * SEDIMENT_MOLAR_MASS
                 / (SEDIMENT_DENSITY * SOLUTE_MOLAR_MASS * CHANNEL_RADIUS))
        kwargs = dict(solute_molar_mass=SOLUTE_MOLAR_MASS,
                      sediment_molar_mass=SEDIMENT_MOLAR_MASS,
                      sediment_density=SEDIMENT_DENSITY,
                      diffusivity=DIFFUSIVITY, radius=CHANNEL_RADIUS)
        calibrate_rate_constant(limit * 0.999, MASS_CONCENTRATION, **kwargs)
        with pytest.raises(CalibrationInfeasibleError):
            calibrate_rate_constant(limit * 1.001, MASS_CONCENTRATION, **kwargs)

    @pytest.mark.parametrize("bad", [0.0, -1e-11])
    def test_rejects_nonpositive_growth(self, bad):
        with pytest.raises(ValueError, match="growth"):
            calibrate_rate_constant(bad, MASS_CONCENTRATION,
                                    solute_molar_mass=SOLUTE_MOLAR_MASS,
                                    sediment_molar_mass=SEDIMENT_MOLAR_MASS,
                                    sediment_density=SEDIMENT_DENSITY,
                                    diffusivity=DIFFUSIVITY, radius=CHANNEL_RADIUS)


class TestSlowLayer:
    def test_first_order_closed_form(self):
        chem = _chem()
        c0 = 5e21
        for r in (1e-7, 1e-6, 1e-5):
            expected = DIFFUSIVITY * c0 / (RATE_CONSTANT * r + DIFFUSIVITY)
            assert wall_concentration_slow(chem, r, c0) == pytest.approx(expected, rel=1e-14)

    def test_second_order_closed_form_matches_bisection(self):
        # the quadratic closed form against the deep-bisection oracle; the
        # raw balance residual is cancellation-limited, the root is not
        chem = _chem(k=1e-27, n=2)
        c0 = 4e21
        for r in (1e-7, 1e-6, 1e-5):
            c1 = wall_concentration_slow(chem, r, c0)
            want = _bisect(lambda c: DIFFUSIVITY * (c0 - c) - chem.rate_constant * c ** 2 * r,
                           0.0, c0)
            assert c1 == pytest.approx(want, rel=1e-12)

    def test_higher_order_root_matches_balance(self):
        chem = _chem(k=1e-49, n=3)
        c0 = 4e21
        c1 = wall_concentration_slow(chem, 1e-6, c0)
        assert DIFFUSIVITY * (c0 - c1) == pytest.approx(
            chem.rate_constant * c1 ** 3 * 1e-6, rel=1e-10)

    def test_diffusion_limited_regime(self, calcium):
        sol = solve_slow_layer(calcium, CHANNEL_RADIUS, ENTRANCE_CONCENTRATION,
                               STATIONARY_SPEED * 0.5)
        assert sol.regime == DIFFUSION_LIMITED
        assert sol.thickness == 1.0
        assert sol.boundary_radius == 0.0
        assert sol.wall_concentration == pytest.approx(WALL_CONCENTRATION, rel=1e-12)

    def test_convective_regime_thin_layer(self, calcium):
        sol = solve_slow_layer(calcium, CHANNEL_RADIUS, ENTRANCE_CONCENTRATION,
                               STATIONARY_SPEED * 100)
        assert sol.regime == CONVECTIVE
        assert 0.0 < sol.thickness < 1.0
        assert sol.boundary_radius == pytest.approx(
            (1.0 - sol.thickness) * CHANNEL_RADIUS, rel=1e-12)
        # a faster core keeps the wall better supplied
        assert sol.wall_concentration > WALL_CONCENTRATION

    def test_convective_cubic_satisfied(self, calcium):
        c0 = ENTRANCE_CONCENTRATION
        v0 = STATIONARY_SPEED * 7.5
        sol = solve_slow_layer(calcium, CHANNEL_RADIUS, c0, v0)
        a = calcium.rate_constant * CHANNEL_RADIUS / calcium.diffusivity
        b = calcium.rate_constant / v0
        y = sol.thickness
        assert y * (2.0 - y) * (a * y + 1.0) == pytest.approx(b, abs=1e-12 * max(b, 1.0))
        assert sol.wall_concentration == pytest.approx(c0 / (a * y + 1.0), rel=1e-12)

    def test_regime_continuity_at_stationary_speed(self, calcium):
        c0 = ENTRANCE_CONCENTRATION
        below = solve_slow_layer(calcium, CHANNEL_RADIUS, c0, STATIONARY_SPEED)
        above = solve_slow_layer(calcium, CHANNEL_RADIUS, c0,
                                 STATIONARY_SPEED * (1 + 1e-12))
        assert below.regime == DIFFUSION_LIMITED and above.regime == CONVECTIVE
        assert above.wall_concentration == pytest.approx(
            below.wall_concentration, rel=1e-10)
        assert above.thickness == pytest.approx(1.0, abs=1e-6)

    def test_regime_continuity_general_order(self):
        chem = _chem(k=2e-27, n=2)
        c0 = 3e21
        v_stat = stationary_velocity(chem, 1e-6, c0)
        below = solve_slow_layer(chem, 1e-6, c0, v_stat)
        above = solve_slow_layer(chem, 1e-6, c0, v_stat * (1 + 1e-12))
        assert above.wall_concentration == pytest.approx(
            below.wall_concentration, rel=1e-10)

    def test_input_validation(self, calcium):
        with pytest.raises(ValueError, match="radius"):
            solve_slow_layer(calcium, 0.0, 1e21, 1e-4)
        with pytest.raises(ValueError, match="c0"):
            solve_slow_layer(calcium, 1e-6, 0.0, 1e-4)
        with pytest.raises(ValueError, match="v0"):
            solve_slow_layer(calcium, 1e-6, 1e21, -1e-4)


class TestOracleGrid:
    def test_root_solver_against_bisection_oracle(self):
        # >= 1000 parameter tuples spanning decades in rate constant,
        # radius and speed, all three reaction orders
        c0 = ENTRANCE_CONCENTRATION
        count = 0
        for n, k_scale in ((1, 1.0), (2, 1e-22), (3, 1e-44)):
            for k_mul in np.logspace(-2, 2, 7):
                chem = _chem(k=RATE_CONSTANT * k_scale * k_mul, n=n)
                for r in np.logspace(-7, -4.5, 7):
                    v_stat = stationary_velocity(chem, r, c0)
                    for v_mul in np.logspace(-2, 3, 8):
                        v0 = v_stat * v_mul
                        got = solve_slow_layer(chem, float(r), c0, float(v0))
                        want = oracle_wall_concentration(chem, float(r), c0, float(v0))
                        assert got.wall_concentration == pytest.approx(want, rel=1e-10), (
                            f"n={n} k={chem.rate_constant} r={r} v0={v0}")
                        count += 1
        assert count == 3 * 7 * 7 * 8 >= 1000

    def test_vectorized_profile_matches_scalar(self):
        chem = _chem()
        c0 = ENTRANCE_CONCENTRATION
        rng = np.random.default_rng(7)
        radius = 10 ** rng.uniform(-7, -4.5, size=300)
        v0 = STATIONARY_SPEED * 10 ** rng.uniform(-2, 3, size=300)
        c1 = wall_concentration_profile(chem, radius, c0, v0)
        for i in range(0, 300, 17):
            sol = solve_slow_layer(chem, float(radius[i]), c0, float(v0[i]))
            assert c1[i] == pytest.approx(sol.wall_concentration, rel=1e-12)


    @pytest.mark.parametrize("n, k_scale", [(1, 1.0), (2, 1e-22), (3, 1e-44)])
    def test_one_element_profile_is_the_scalar_solve(self, n, k_scale):
        # the engine's depletion warning takes the scalar solve for one
        # channel, the deposition kinetics the array one: bit for bit the
        # same in every order
        chem = _chem(k=RATE_CONSTANT * k_scale, n=n)
        c0, r = ENTRANCE_CONCENTRATION, 5e-5
        v_stat = stationary_velocity(chem, r, c0)
        for v0 in [0.0, *(v_stat * np.logspace(-3, 3, 601))]:
            got = solve_slow_layer(chem, r, c0, float(v0)).wall_concentration
            want = float(wall_concentration_profile(chem, r, c0, float(v0))[0])
            assert got == want, v0


class TestGrowthRate:
    def test_first_order_formula(self, calcium):
        c1 = 3e21
        expected = (RATE_CONSTANT * c1 * SEDIMENT_MOLAR_MASS
                    / (SEDIMENT_DENSITY * AVOGADRO))
        assert growth_rate(calcium, c1) == pytest.approx(expected, rel=1e-14)

    def test_order_divides_rate(self, calcium):
        # k c1^n / n: doubling the order squares the sink and halves the
        # per-event deposit yield
        second = dataclasses.replace(calcium, reaction_order=2)
        c1 = 2e21
        ratio = growth_rate(second, c1) / growth_rate(calcium, c1)
        assert ratio == pytest.approx(c1 / 2, rel=1e-12)

    def test_array_input(self, calcium):
        rates = growth_rate(calcium, np.array([1e21, 2e21]))
        assert rates.shape == (2,)
        assert rates[1] == pytest.approx(2 * rates[0], rel=1e-12)


class TestAxialDepletion:
    def test_zero_speed_never_negligible(self, calcium):
        est = axial_depletion(calcium, 2.5e-5, ENTRANCE_CONCENTRATION,
                              WALL_CONCENTRATION, 0.0, 1e-3)
        assert math.isinf(est.delta_c0)
        assert not est.negligible

    def test_fast_flow_negligible(self, calcium):
        est = axial_depletion(calcium, 2.5e-5, ENTRANCE_CONCENTRATION,
                              WALL_CONCENTRATION, 10.0, 1e-3)
        assert est.negligible
        assert est.delta_c0 < 0.05 * ENTRANCE_CONCENTRATION

    def test_drop_formula(self, calcium):
        c0, c1, v0, L, R = ENTRANCE_CONCENTRATION, WALL_CONCENTRATION, 1e-3, 1e-3, 2.5e-5
        est = axial_depletion(calcium, R, c0, c1, v0, L)
        expected = 4.0 * RATE_CONSTANT * c1 * L / (v0 * R)
        assert est.delta_c0 == pytest.approx(expected, rel=1e-12)

    def test_slow_regime_average(self, calcium):
        c0, c1 = ENTRANCE_CONCENTRATION, WALL_CONCENTRATION
        est = axial_depletion(calcium, 2.5e-5, c0, c1, 1e-9, 1e-3)
        assert est.average_concentration == pytest.approx(c0 / 3 + 2 * c1 / 3, rel=1e-12)

    def test_average_continuous_across_regimes(self, calcium):
        R = 2.5e-5
        c0 = ENTRANCE_CONCENTRATION
        v_stat = stationary_velocity(calcium, R, c0)
        c_slow = wall_concentration_slow(calcium, R, c0)
        lo = axial_depletion(calcium, R, c0, c_slow, v_stat * (1 - 1e-9), 1e-3)
        hi = axial_depletion(calcium, R, c0, c_slow, v_stat * (1 + 1e-9), 1e-3)
        assert hi.average_concentration == pytest.approx(
            lo.average_concentration, rel=1e-6)

    @pytest.mark.parametrize("core, fast", [(0.0, True), (0.3, True), (0.9, True),
                                            (1.0, True), (0.0, False)])
    def test_average_is_the_profile_quadrature(self, calcium, core, fast):
        # the cross-section average of the piecewise profile (c0 in the core
        # of radius r, linear to c1 at the wall), by trapezoid quadrature
        c0, R = ENTRANCE_CONCENTRATION, 2.5e-5
        v_stat = stationary_velocity(calcium, R, c0)
        # the wall concentration whose slow layer leaves a core of core * R
        c1 = (DIFFUSIVITY * c0 / (DIFFUSIVITY + (1.0 - core) * RATE_CONSTANT * R) if fast
              else WALL_CONCENTRATION)
        est = axial_depletion(calcium, R, c0, c1, 10 * v_stat if fast else 0.1 * v_stat, 1e-3)
        r = core * R
        rho = np.union1d(np.linspace(0.0, r, 2001), np.linspace(r, R, 20001))
        slope = (c1 - c0) / (R - r) if r < R else 0.0
        profile = np.where(rho <= r, c0, c0 + slope * (rho - r))
        want = 2.0 * np.trapezoid(profile * rho, rho) / (R * R)
        assert est.average_concentration == pytest.approx(want, rel=1e-8)

    def test_fast_average_between_wall_and_core(self, calcium):
        c0 = ENTRANCE_CONCENTRATION
        R = 2.5e-5
        v0 = 1.0
        c1 = wall_concentration_profile(calcium, R, c0, v0)[0]
        est = axial_depletion(calcium, R, c0, c1, v0, 1e-3)
        assert c1 < est.average_concentration < c0

    def test_threshold_parameter(self, calcium):
        c0, c1 = ENTRANCE_CONCENTRATION, WALL_CONCENTRATION
        est = axial_depletion(calcium, 2.5e-5, c0, c1, 2.0, 1e-3, threshold=0.5)
        strict = axial_depletion(calcium, 2.5e-5, c0, c1, 2.0, 1e-3, threshold=1e-4)
        assert 1e-4 < est.delta_c0 / c0 < 0.5
        assert est.negligible and not strict.negligible


@settings(max_examples=60, deadline=None)
@given(
    growth_frac=st.floats(min_value=1e-4, max_value=0.99),
    mass_conc=st.floats(min_value=1e-5, max_value=10.0),
    radius=st.floats(min_value=1e-8, max_value=1e-4),
)
def test_calibration_growth_round_trip(growth_frac, mass_conc, radius):
    # any feasible measurement calibrates to constants that reproduce it
    limit = (DIFFUSIVITY * mass_conc * SEDIMENT_MOLAR_MASS
             / (SEDIMENT_DENSITY * SOLUTE_MOLAR_MASS * radius))
    growth = growth_frac * limit
    result = calibrate_rate_constant(
        growth, mass_conc,
        solute_molar_mass=SOLUTE_MOLAR_MASS, sediment_molar_mass=SEDIMENT_MOLAR_MASS,
        sediment_density=SEDIMENT_DENSITY, diffusivity=DIFFUSIVITY, radius=radius)
    chem = _chem(k=result.rate_constant)
    c1 = wall_concentration_slow(chem, radius, result.entrance_concentration)
    assert c1 == pytest.approx(result.wall_concentration, rel=1e-9)
    assert growth_rate(chem, c1) == pytest.approx(growth, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    k_mul=st.floats(min_value=1e-3, max_value=1e3),
    r=st.floats(min_value=1e-8, max_value=1e-4),
    v_mul=st.floats(min_value=1e-3, max_value=1e4),
)
def test_wall_concentration_bounded_and_monotone(k_mul, r, v_mul):
    chem = _chem(k=RATE_CONSTANT * k_mul)
    c0 = ENTRANCE_CONCENTRATION
    v0 = stationary_velocity(chem, r, c0) * v_mul
    sol = solve_slow_layer(chem, r, c0, v0)
    assert 0.0 < sol.wall_concentration <= c0
    # more flow never starves the wall
    faster = solve_slow_layer(chem, r, c0, v0 * 2)
    assert faster.wall_concentration >= sol.wall_concentration * (1 - 1e-12)


@settings(max_examples=500, deadline=None)
@given(
    a=st.floats(min_value=1e-8, max_value=1e3),
    # b/(1 + a), away from subnormals, where no root has full relative precision
    frac=st.one_of(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
                   st.floats(min_value=1e-300, max_value=1e-12),
                   st.floats(min_value=1e-16, max_value=1e-12).map(lambda t: 1.0 - t)),
)
def test_first_order_closed_form_matches_bracketed_root(a, frac):
    # every convective order-1 channel: b = k / v0 runs over (0, 1 + a)
    # between a stagnant channel and the stationary speed
    chem = _chem(k=1.0, D=1.0)               # a = k R / D = R and b = k / v0 = 1 / v0
    v0 = 1.0 / (frac * (1.0 + a))
    b = 1.0 / v0
    assume(0.0 < b < 1.0 + a)
    c0 = ENTRANCE_CONCENTRATION
    y, c1 = _convective_first_order(chem, np.array([a]), c0, np.array([v0]))
    y, c1 = float(y[0]), float(c1[0])
    assert 0.0 <= y <= 1.0
    terms = (a * y * y * y, (2.0 * a - 1.0) * y * y, 2.0 * y, b)
    residual = -terms[0] + terms[1] + terms[2] - terms[3]
    assert abs(residual) <= 1e-14 * sum(abs(t) for t in terms)
    y_ref = _bracketed_root(lambda t: t * (2.0 - t) * (a * t + 1.0) - b, 0.0, 1.0)
    assert c1 == pytest.approx(c0 / (a * float(y_ref) + 1.0), rel=1e-12, abs=0.0)
