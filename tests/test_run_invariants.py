"""Invariants every run keeps, over small random filters (hypothesis).

Each drawn run must keep each membrane's facets accounted for, count one
catch per blocked facet at multiplicity 1, never let the total flow rise
(Rayleigh's monotonicity law: closing or narrowing an aperture cannot
raise the conductance of the network; Doyle & Snell, *Random Walks and
Electric Networks*, MAA 1984, section 1.4), and repeat itself bit for bit.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from clogsim.engine import initialize, run
from clogsim.model import Chemistry, FilterConfig

from conftest import (DIFFUSIVITY, ENTRANCE_CONCENTRATION, RATE_CONSTANT, SEDIMENT_DENSITY,
                      SEDIMENT_MOLAR_MASS, SOLUTE_MOLAR_MASS)

CELL = 5e-5          # m, cell edge along every axis
ROD = 2.5e-5         # m, rod length
CALCIUM = Chemistry(rate_constant=RATE_CONSTANT, reaction_order=1, diffusivity=DIFFUSIVITY,
                    sediment_molar_mass=SEDIMENT_MOLAR_MASS, sediment_stoichiometry=1,
                    sediment_density=SEDIMENT_DENSITY, solute_molar_mass=SOLUTE_MOLAR_MASS)


@st.composite
def windows(draw, n_x: int, n_y: int):
    if draw(st.booleans()):
        return None
    bounds = []
    for n in (n_x, n_y):
        lo = draw(st.integers(1, n))
        bounds.append((lo, draw(st.integers(lo, n))))
    return tuple(bounds)


@st.composite
def configs(draw) -> FilterConfig:
    n_x, n_y, n_z = (draw(st.integers(2, 5)) for _ in range(3))
    capture = draw(st.booleans())
    chemistry = CALCIUM if draw(st.booleans()) else None
    # the radii stay under half the rod length, where rods can be caught
    radii = draw(st.lists(st.floats(2e-6, 0.49 * ROD), min_size=1, max_size=1)
                 | st.lists(st.floats(2e-6, 0.49 * ROD), min_size=n_z - 1, max_size=n_z - 1))
    time_limit = draw(st.none() | st.floats(1e3, 3e5))
    dt = "adaptive"
    if draw(st.booleans()):
        time_limit = time_limit or 1e5
        dt = time_limit / draw(st.integers(1, 40))
    # with nothing to pace it, an adaptive step is unbounded: run() rejects it
    assume(capture or chemistry is not None or time_limit is not None)
    return FilterConfig(
        L_x=CELL * n_x, L_y=CELL * n_y, L_z=CELL * n_z, n_x=n_x, n_y=n_y, n_z=n_z,
        p_grad=-1e4, mu=1e-3, l_particle=ROD,
        N_particles=draw(st.floats(1e7, 1e9)) if capture else 0.0,
        r_filter=radii if len(radii) > 1 else radii[0],
        r_side=draw(st.floats(2e-6, CELL / 2)),
        inlet_window=draw(windows(n_x, n_y)), outlet_window=draw(windows(n_x, n_y)),
        chemistry=chemistry, c0_entrance=ENTRANCE_CONCENTRATION if chemistry else 0.0,
        dt=dt, seed=draw(st.integers(0, 2**16)),
        blocking_law=draw(st.sampled_from(["simple", "corrected"])),
        time_limit=time_limit, seal_fraction=draw(st.floats(0.01, 0.9)),
        aperture_multiplicity=draw(st.sampled_from([1, 3])),
    )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(configs())
def test_run_invariants(config):
    trace = run(config)
    facets = config.n_x * config.n_y
    single = config.aperture_multiplicity == 1
    for row in trace.snapshots:
        for open_, blocked, sealed, caught in zip(row.open, row.blocked, row.sealed,
                                                  row.catches):
            assert open_ + blocked + sealed == facets
            if single:
                assert caught == blocked
    slack = initialize(config).solver_tol * config.n_x * config.n_y * config.n_z
    flows = [row.total_flow for row in trace.snapshots]
    for before, after in zip(flows, flows[1:]):
        assert after <= before + slack
    assert run(config).to_csv() == trace.to_csv()
