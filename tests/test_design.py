from __future__ import annotations

import math

import numpy as np
import pytest

from clogsim.design import (catch_probability, equal_contamination_schedule,
                            lifetime_estimates, penetration_probability,
                            quantile_penetration_forms, quantile_schedule,
                            radius_for_catch, uniform_schedule)
from clogsim.cli import parse_config
from clogsim.engine import initialize, pass_probability
from clogsim.hydraulics import reference_cell_flow
from clogsim.model import FilterConfig, build_grid

from conftest import CONFIG_DIR

ROD = 2.5e-5
Q_SCENARIO = 0.6939019764846559
Q19_SCENARIO = 9.653045780678363e-4
DESIGN_RADIUS = 1.1905175925949354e-5   # radius for q^19 = 0.001, frozen

EQUAL_CATCHES_11 = (
    0.09, 0.0989010989010989, 0.1097560975609756, 0.1232876712328767,
    0.140625, 0.1636363636363636, 0.1956521739130435, 0.24324324324324323,
    0.3214285714285714, 0.47368421052631565, 0.8999999999999991)
EQUAL_RADII_11 = (
    1.2449272067072839e-05, 1.243871584908986e-05, 1.2424481874560363e-05,
    1.2404637175530708e-05, 1.2375786650344444e-05, 1.2331509060227761e-05,
    1.2258416922434741e-05, 1.2124566516842136e-05, 1.1836672842466835e-05,
    1.100868455965889e-05, 5.448623679425865e-06)

QUANTILE_PRODUCT_12 = 5.372321709247829e-5    # 11!/12^11
QUANTILE_SHORTCUT_12 = 1.5389654375500732e-3  # 11!/11^10


def scenario_config(**overrides) -> FilterConfig:
    base = dict(
        L_x=1e-3, L_y=1e-3, L_z=1e-3, n_x=20, n_y=20, n_z=20,
        p_grad=-1e4, mu=1e-3, l_particle=ROD, N_particles=1.389e7,
        r_filter=1.19e-5, r_side=2.5e-5)
    base.update(overrides)
    return FilterConfig(**base)


class TestCatchAndRadius:
    def test_complementarity(self):
        radii = np.linspace(0.0, 1.3e-5, 30)
        np.testing.assert_allclose(
            catch_probability(radii, ROD) + pass_probability(radii, ROD), 1.0,
            rtol=1e-12)

    def test_radius_closed_form(self):
        # catch 0.6 on a 25 um rod: r = 12.5 um * sqrt(1 - 0.36) = 10 um
        assert radius_for_catch(0.6, ROD) == pytest.approx(1e-5, rel=1e-12)
        assert radius_for_catch(1.0, ROD) == 0.0
        assert radius_for_catch(0.0, ROD) == pytest.approx(ROD / 2, rel=1e-12)

    def test_design_radius_for_target_penetration(self):
        catch = 1.0 - 0.001 ** (1.0 / 19.0)
        assert radius_for_catch(catch, ROD) == pytest.approx(DESIGN_RADIUS, rel=1e-12)
        # rounded to the quoted 11.9 um it reproduces the frozen pass value
        assert pass_probability(1.19e-5, ROD) == pytest.approx(Q_SCENARIO, rel=1e-12)

    def test_inverts_pass_probability(self):
        rng = np.random.default_rng(8)
        radii = rng.uniform(0.1 * ROD / 2, 0.999 * ROD / 2, size=1000)
        back = radius_for_catch(1.0 - pass_probability(radii, ROD), ROD)
        np.testing.assert_allclose(back, radii, rtol=1e-12)

    def test_round_trip_from_catch_side(self):
        rng = np.random.default_rng(9)
        catches = rng.uniform(1e-3, 1.0, size=1000)
        back = catch_probability(radius_for_catch(catches, ROD), ROD)
        np.testing.assert_allclose(back, catches, rtol=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="rod_length"):
            radius_for_catch(0.5, 0.0)
        with pytest.raises(ValueError, match="catch"):
            radius_for_catch(1.5, ROD)
        with pytest.raises(ValueError, match="catch"):
            radius_for_catch(-0.1, ROD)


class TestEqualContamination:
    def test_small_sequence_exact(self):
        sched = equal_contamination_schedule(0.1, 3)
        assert sched.kind == "equal-contamination"
        np.testing.assert_allclose(sched.catch_probabilities,
                                   [0.1, 1.0 / 9.0, 1.0 / 8.0], rtol=1e-15)
        assert sched.penetration() == pytest.approx(0.7, rel=1e-14)
        assert sched.radii is None

    def test_catch_rises_monotonically(self):
        sched = equal_contamination_schedule(0.05, 12, rod_length=ROD)
        c = np.asarray(sched.catch_probabilities)
        assert np.all(np.diff(c) > 0)
        r = np.asarray(sched.radii)
        assert np.all(np.diff(r) < 0)

    def test_telescoping_penetration(self):
        # prod (1 - c_k) collapses to 1 - membranes * c_1
        rng = np.random.default_rng(10)
        for _ in range(1000):
            m = int(rng.integers(1, 51))
            c1 = rng.uniform(0.0, 1.0 / m)
            if c1 == 0.0:
                continue
            sched = equal_contamination_schedule(c1, m)
            product = math.prod(1.0 - c for c in sched.catch_probabilities)
            assert abs(product - (1.0 - m * c1)) <= 1e-12
            assert abs(sched.penetration() - product) <= 1e-15

    def test_boundary_uses_up_the_feed(self):
        sched = equal_contamination_schedule(0.25, 4)
        assert sched.catch_probabilities[-1] == pytest.approx(1.0, abs=1e-12)
        assert sched.penetration() == pytest.approx(0.0, abs=1e-12)

    def test_eleven_membrane_design_frozen(self):
        sched = equal_contamination_schedule(0.09, 11, rod_length=ROD)
        np.testing.assert_allclose(sched.catch_probabilities, EQUAL_CATCHES_11,
                                   rtol=1e-12)
        np.testing.assert_allclose(sched.radii, EQUAL_RADII_11, rtol=1e-12)
        assert sched.penetration() == pytest.approx(0.01, rel=1e-10)
        assert sched.membranes == 11

    def test_feasibility_bounds(self):
        with pytest.raises(ValueError, match="first_catch"):
            equal_contamination_schedule(0.2, 6)
        with pytest.raises(ValueError, match="first_catch"):
            equal_contamination_schedule(0.0, 5)
        with pytest.raises(ValueError, match="membranes"):
            equal_contamination_schedule(0.1, 0)
        # the bound itself is feasible
        equal_contamination_schedule(1.0 / 6.0, 6)


class TestQuantile:
    def test_catches_are_fractions(self):
        sched = quantile_schedule(12)
        np.testing.assert_allclose(sched.catch_probabilities,
                                   np.arange(1, 12) / 12.0, rtol=1e-15)
        assert sched.kind == "quantile"
        assert sched.membranes == 11

    def test_frozen_forms(self):
        product, shortcut = quantile_penetration_forms(12)
        assert product == pytest.approx(QUANTILE_PRODUCT_12, rel=1e-12)
        assert shortcut == pytest.approx(QUANTILE_SHORTCUT_12, rel=1e-12)
        assert product < shortcut

    def test_schedule_realizes_the_product_form(self):
        for n in range(2, 30):
            sched = quantile_schedule(n)
            product, _ = quantile_penetration_forms(n)
            assert sched.penetration() == pytest.approx(product, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="layer_count"):
            quantile_schedule(1)
        with pytest.raises(ValueError, match="layer_count"):
            quantile_penetration_forms(1)


class TestUniform:
    def test_constant_catches(self):
        sched = uniform_schedule(0.3, 5, rod_length=ROD)
        assert sched.catch_probabilities == (0.3,) * 5
        assert sched.penetration() == pytest.approx(0.7 ** 5, rel=1e-12)
        assert sched.radii == (radius_for_catch(0.3, ROD),) * 5

    def test_scenario_penetration(self):
        sched = uniform_schedule(1.0 - Q_SCENARIO, 19)
        assert sched.penetration() == pytest.approx(Q19_SCENARIO, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="catch"):
            uniform_schedule(1.2, 3)
        with pytest.raises(ValueError, match="membranes"):
            uniform_schedule(0.5, 0)


class TestPenetrationProbability:
    def test_accepts_iterables(self):
        assert penetration_probability([0.5, 0.5]) == pytest.approx(0.25)
        sched = uniform_schedule(0.5, 2)
        assert penetration_probability(sched) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="catch"):
            penetration_probability([0.5, 1.5])

    @pytest.mark.parametrize("name", ["scenario1.cfg", "scenario2.cfg", "scenario3.cfg"])
    def test_engine_penetration_at_start(self, name):
        # the engine's capture law and the design formulas agree on a clean
        # filter, up to the order of the products
        config = parse_config(CONFIG_DIR / name)
        engine = initialize(config).layer_concentration[-1] / config.N_particles
        design = penetration_probability(
            catch_probability(config.filter_radii(), config.l_particle))
        assert engine == pytest.approx(design, rel=1e-12, abs=0)


class TestLifetimeEstimates:
    def test_frozen_scenario_numbers(self):
        config = scenario_config()
        est = lifetime_estimates(config)
        assert est.aperture_flow == pytest.approx(5.561011695935633e-13, rel=1e-12)
        # the pressure network's conduit law over the clean filter's depth
        want = reference_cell_flow(build_grid(config), 0.0, config.p_grad * config.L_z)
        assert est.aperture_flow == pytest.approx(want, rel=1e-14)
        assert est.total_flow == pytest.approx(0.5 * est.aperture_flow * 400, rel=1e-12)
        assert est.particle_exposure == pytest.approx(35964678899376.12, rel=1e-12)
        assert est.lifetime == pytest.approx(est.particle_exposure / 1.389e7,
                                             rel=1e-12)
        assert est.lifetime == pytest.approx(2.5893e6, rel=1e-4)
        # about a month of service
        assert 29.0 < est.lifetime / 86400.0 < 31.0

    def test_capacity_is_half_the_cells(self):
        est = lifetime_estimates(scenario_config())
        assert est.capacity == pytest.approx(0.5 * 20 * 20 * 20, rel=1e-12)
        small = lifetime_estimates(scenario_config(
            n_x=8, n_y=6, n_z=10, L_x=8 * 5e-5, L_y=6 * 5e-5, L_z=10 * 5e-5))
        assert small.capacity == pytest.approx(0.5 * 8 * 6 * 10, rel=1e-12)

    def test_capacity_against_interior_aperture_count(self):
        # rough sanity: comparable to half the interior facet count
        est = lifetime_estimates(scenario_config())
        interior = 19 * 19 * 19 / 2
        assert 1.0 < est.capacity / interior < 1.3

    def test_zero_load_gives_infinite_lifetime(self):
        est = lifetime_estimates(scenario_config(N_particles=0.0))
        assert est.lifetime == math.inf
        assert est.capacity == pytest.approx(4000.0, rel=1e-12)

    def test_non_cubic_cells_rejected(self):
        with pytest.raises(ValueError, match="cubic"):
            lifetime_estimates(scenario_config(L_z=2e-3))

    def test_mean_radius_used_for_mixed_designs(self):
        mixed = scenario_config(r_filter=(1e-5,) * 10 + (1.2e-5,) * 9)
        est = lifetime_estimates(mixed)
        r = float(np.mean((1e-5,) * 10 + (1.2e-5,) * 9))
        h = 5e-5
        want = math.pi * h * h * r * r * 1e4 / (20.0 * 1e-3)
        assert est.aperture_flow == pytest.approx(want, rel=1e-12)
