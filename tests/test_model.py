from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from clogsim.model import (ApertureState, Chemistry, FilterConfig, build_grid)


def make_config(**overrides) -> FilterConfig:
    base = dict(
        L_x=1e-3, L_y=1e-3, L_z=1e-3, n_x=4, n_y=4, n_z=4,
        p_grad=-1e4, mu=1e-3, l_particle=2.5e-5, N_particles=1e7,
        r_filter=1.19e-5, r_side=2.5e-5,
    )
    base.update(overrides)
    return FilterConfig(**base)


class TestCounts:
    def test_minimal_grid_aperture_counts(self):
        grid = build_grid(make_config(n_x=2, n_y=2, n_z=2, L_x=2e-4, L_y=2e-4, L_z=2e-4))
        # one membrane of 2x2 filtering apertures between the two layers
        assert grid.z_state.size == 4
        # 1*2*2 x-facets plus 2*1*2 y-facets
        assert grid.x_state.size + grid.y_state.size == 8
        assert grid.n_membranes == 1

    def test_scenario_grid_counts(self):
        cfg = make_config(n_x=20, n_y=20, n_z=20)
        grid = build_grid(cfg)
        assert grid.z_state.size == 20 * 20 * 19 == 7600
        assert grid.x_state.size + grid.y_state.size == 19 * 20 * 20 + 20 * 19 * 20

    def test_membrane_state_counts_track_mutations(self):
        grid = build_grid(make_config())
        grid.z_state[0, 0, 0] = ApertureState.PARTICLE_BLOCKED
        grid.z_state[1, 1, 2] = ApertureState.SEDIMENT_SEALED
        # membrane 2 holds all three states
        grid.z_state[2, 0, 1] = ApertureState.PARTICLE_BLOCKED
        grid.z_state[0, 3, 1] = ApertureState.PARTICLE_BLOCKED
        grid.z_state[3, 3, 1] = ApertureState.SEDIMENT_SEALED
        open_, blocked, sealed = grid.membrane_state_counts()
        assert open_.tolist() == [15, 13, 15]
        assert blocked.tolist() == [1, 2, 0]
        assert sealed.tolist() == [0, 1, 1]


class TestBuildGrid:
    def test_shapes_and_initial_state(self):
        cfg = make_config(n_x=5, n_y=4, n_z=3)
        grid = build_grid(cfg)
        assert grid.z_radius.shape == (5, 4, 2)
        assert grid.x_radius.shape == (4, 4, 3)
        assert grid.y_radius.shape == (5, 3, 3)
        assert np.all(grid.z_state == ApertureState.OPEN)
        assert np.all(grid.x_state == ApertureState.OPEN)
        assert np.all(grid.y_state == ApertureState.OPEN)
        assert np.all(grid.z_radius == cfg.filter_radii()[0])
        assert np.all(grid.x_radius == cfg.r_side)
        assert np.all(grid.z_open_count == 1)
        for fam in "zxy":
            assert getattr(grid, f"{fam}_radius0").dtype == np.float64
            assert getattr(grid, f"{fam}_radius").dtype == np.float64
            assert getattr(grid, f"{fam}_state").dtype == np.int8
        assert grid.z_open_count.dtype == np.int64

    def test_per_membrane_radii(self):
        radii = (1e-5, 1.1e-5, 1.2e-5)
        grid = build_grid(make_config(r_filter=radii))
        for k, r in enumerate(radii):
            assert np.all(grid.z_radius[:, :, k] == r)

    def test_multiplicity_fills_open_counts(self):
        grid = build_grid(make_config(aperture_multiplicity=(2, 3, 4)))
        assert grid.z_open_count[:, :, 0].max() == 2
        assert grid.z_open_count[:, :, 2].min() == 4
        assert [np.unique(grid.z_open_count[:, :, k]).tolist() for k in range(3)] \
            == [[2], [3], [4]]

    def test_default_window_covers_face(self):
        grid = build_grid(make_config())
        assert grid.inlet_mask.all()
        assert grid.outlet_mask.all()

    def test_window_mask_is_one_based_inclusive(self):
        cfg = make_config(n_x=20, n_y=20, n_z=4,
                          inlet_window=((6, 14), (6, 14)),
                          outlet_window=((1, 3), (20, 20)))
        grid = build_grid(cfg)
        assert grid.inlet_mask.sum() == 9 * 9
        assert grid.inlet_mask[5, 5] and grid.inlet_mask[13, 13]
        assert not grid.inlet_mask[4, 5] and not grid.inlet_mask[14, 13]
        assert grid.outlet_mask.sum() == 3
        assert grid.outlet_mask[0, 19] and grid.outlet_mask[2, 19]

    def test_cell_sizes(self):
        cfg = make_config(L_x=2e-3, L_y=1e-3, L_z=4e-3, n_x=4, n_y=4, n_z=8,
                          r_filter=6e-5, r_side=6e-5)
        assert cfg.h_x == pytest.approx(5e-4)
        assert cfg.h_y == pytest.approx(2.5e-4)
        assert cfg.h_z == pytest.approx(5e-4)


class TestValidation:
    def test_accepts_half_cell_radius_exactly(self):
        # 1e-3/20 halves to 2.5e-5 up to binary rounding; the bound must
        # not reject the nominal half-cell radius
        cfg = make_config(n_x=20, n_y=20, n_z=20, r_side=2.5e-5)
        cfg.validate()

    @pytest.mark.parametrize("field,value,fragment", [
        ("L_x", 0.0, "L_x"),
        ("L_z", -1e-3, "L_z"),
        ("n_x", 1, "n_x"),
        ("n_z", 2.0, "n_z"),
        ("mu", 0.0, "mu"),
        ("p_grad", 0.0, "p_grad"),
        ("l_particle", -1e-6, "l_particle"),
        ("N_particles", -1.0, "N_particles"),
        ("r_filter", 0.0, "r_filter"),
        ("r_filter", 1.0, "r_filter"),
        ("r_side", 2.6e-4, "r_side"),
        ("dt", 0.0, "dt"),
        ("dt", "sometimes", "dt"),
        ("blocking_law", "other", "blocking_law"),
        ("solver_tol", 0.0, "solver_tol"),
        ("solver_max_iter", 0, "solver_max_iter"),
        ("blocking_law", "Simple", "blocking_law"),
        ("time_limit", 0.0, "time_limit"),
        ("flow_stop_fraction", 1.5, "flow_stop_fraction"),
        ("seal_fraction", 0.0, "seal_fraction"),
        ("aperture_multiplicity", 0, "aperture_multiplicity"),
        ("L_x", math.inf, "L_x"),
        ("L_y", math.nan, "L_y"),
        ("L_z", math.inf, "L_z"),
        ("mu", math.inf, "mu"),
        ("mu", math.nan, "mu"),
        ("p_grad", math.nan, "p_grad"),
        ("p_grad", -math.inf, "p_grad"),
        ("p_grad", 1e4, "p_grad"),
        ("l_particle", math.nan, "l_particle"),
        ("l_particle", math.inf, "l_particle"),
        ("N_particles", math.nan, "N_particles"),
        ("N_particles", math.inf, "N_particles"),
        ("r_filter", math.nan, "r_filter"),
        ("depletion_threshold", 0.0, "depletion_threshold"),
        ("depletion_threshold", 1.0, "depletion_threshold"),
        ("depletion_threshold", -0.05, "depletion_threshold"),
        ("depletion_threshold", math.nan, "depletion_threshold"),
        ("dt", math.inf, "dt"),
        ("solver_tol", math.inf, "solver_tol"),
        ("time_limit", math.inf, "time_limit"),
        ("seed", -1, "seed"),
        ("seed", 1.5, "seed"),
        ("solver_max_iter", 2.5, "solver_max_iter"),
        ("c0_entrance", math.inf, "c0_entrance"),
        ("aperture_multiplicity", (1.5,), "aperture_multiplicity"),
    ])
    def test_rejects_bad_field(self, field, value, fragment):
        cfg = make_config(**{field: value})
        with pytest.raises(ValueError, match=fragment):
            cfg.validate()

    def test_rejects_wrong_radius_count(self):
        with pytest.raises(ValueError, match="n_z - 1"):
            make_config(r_filter=(1e-5, 1e-5)).validate()

    def test_rejects_window_outside_grid(self):
        cfg = make_config(inlet_window=((0, 2), (1, 4)))
        with pytest.raises(ValueError, match="inlet_window"):
            cfg.validate()
        cfg = make_config(outlet_window=((1, 2), (2, 5)))
        with pytest.raises(ValueError, match="outlet_window"):
            cfg.validate()

    def test_rejects_chemistry_without_concentration(self, calcium):
        cfg = make_config(chemistry=calcium)
        with pytest.raises(ValueError, match="c0_entrance"):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [
        ("rate_constant", 0.0),
        ("diffusivity", -1e-9),
        ("reaction_order", 0),
        ("sediment_stoichiometry", 0),
        ("sediment_density", 0.0),
        ("sediment_molar_mass", 0.0),
        ("solute_molar_mass", 0.0),
    ])
    def test_chemistry_rejects_bad_field(self, calcium, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(calcium, **{field: value})
