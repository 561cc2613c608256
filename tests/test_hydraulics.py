from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from clogsim import hydraulics
from clogsim.hydraulics import (_BOTTOM_SIZE, _REUSE_LIMIT, _SIDES, ConvergenceError,
                                DegenerateNetworkError, FlowField, Hierarchy, PressureField,
                                _bottom_inverse, _coarse_levels, _cut, _degree,
                                _flux_apply, _Operator, _run, _spread_calls, _stencil,
                                check_connected, conductance_arrays, flows_from_pressures,
                                outlet_flow, reference_cell_flow, solve_pressures,
                                total_flow)
from clogsim.cli import parse_config
from clogsim.model import _FACET_FAMILIES, ApertureState, FilterConfig, build_grid

from conftest import CONFIG_DIR, DATA_DIR, cell_net_outflow

SAMPLE_APERTURE_FLOW = 5.561011695935633e-13   # scenario cell, frozen


def make_config(**overrides) -> FilterConfig:
    base = dict(
        L_x=2e-4, L_y=2e-4, L_z=2e-4, n_x=4, n_y=4, n_z=4,
        p_grad=-1e4, mu=1e-3, l_particle=2.5e-5, N_particles=0.0,
        r_filter=1e-5, r_side=2e-5,
    )
    base.update(overrides)
    return FilterConfig(**base)


def scenario_config() -> FilterConfig:
    """Scenario 1's lattice and apertures, without particles."""
    return FilterConfig(
        L_x=1e-3, L_y=1e-3, L_z=1e-3, n_x=20, n_y=20, n_z=20,
        p_grad=-1e4, mu=1e-3, l_particle=2.5e-5, N_particles=0.0,
        r_filter=1.19e-5, r_side=2.5e-5,
        inlet_window=((6, 14), (6, 14)), outlet_window=((6, 14), (6, 14)))


def scenario_grid():
    return build_grid(scenario_config())


# Dense oracle: assemble the full linear system from the grid arrays with
# the conduit law written out locally, solve with numpy.linalg.solve.

def dense_pressures(grid, p_in: float, p_out: float) -> np.ndarray:
    n_x, n_y, n_z = grid.n_x, grid.n_y, grid.n_z
    hx, hy, hz, mu = grid.h_x, grid.h_y, grid.h_z, grid.mu

    def g_coeff(sa: float, sb: float, dist: float, radius: float, count: int = 1) -> float:
        area = sa * sb
        perim = 2.0 * (sa + sb)
        return 0.8 * area ** 2 * math.pi * radius ** 2 * count / (perim ** 2 * mu * dist)

    size = n_x * n_y * n_z
    idx = np.arange(size).reshape(n_x, n_y, n_z)
    A = np.zeros((size, size))
    rhs = np.zeros(size)

    def couple(a: int, b: int, g: float) -> None:
        A[a, a] += g
        A[a, b] -= g
        A[b, b] += g
        A[b, a] -= g

    for i in range(n_x - 1):
        for j in range(n_y):
            for k in range(n_z):
                if grid.x_state[i, j, k] == ApertureState.OPEN:
                    couple(idx[i, j, k], idx[i + 1, j, k],
                           g_coeff(hy, hz, hx, grid.x_radius[i, j, k]))
    for i in range(n_x):
        for j in range(n_y - 1):
            for k in range(n_z):
                if grid.y_state[i, j, k] == ApertureState.OPEN:
                    couple(idx[i, j, k], idx[i, j + 1, k],
                           g_coeff(hx, hz, hy, grid.y_radius[i, j, k]))
    for i in range(n_x):
        for j in range(n_y):
            for k in range(n_z - 1):
                if grid.z_state[i, j, k] == ApertureState.OPEN \
                        and grid.z_open_count[i, j, k] > 0:
                    couple(idx[i, j, k], idx[i, j, k + 1],
                           g_coeff(hx, hy, hz, grid.z_radius[i, j, k],
                                   int(grid.z_open_count[i, j, k])))

    isolated = np.flatnonzero(np.diag(A) == 0.0)
    A[isolated, isolated] = 1.0
    for i in range(n_x):
        for j in range(n_y):
            if grid.inlet_mask[i, j]:
                row = idx[i, j, 0]
                A[row, :] = 0.0
                A[row, row] = 1.0
                rhs[row] = p_in
            if grid.outlet_mask[i, j]:
                row = idx[i, j, -1]
                A[row, :] = 0.0
                A[row, row] = 1.0
                rhs[row] = p_out
    return np.linalg.solve(A, rhs).reshape(n_x, n_y, n_z)


def random_connected_grid(rng, close_prob_z: float, close_prob_side: float,
                          config: FilterConfig | None = None):
    """Random closure pattern that keeps an inlet-outlet path."""
    for _ in range(200):
        grid = build_grid(config if config is not None else make_config())
        grid.z_state[rng.random(grid.z_state.shape) < close_prob_z] = \
            ApertureState.PARTICLE_BLOCKED
        grid.x_state[rng.random(grid.x_state.shape) < close_prob_side] = \
            ApertureState.SEDIMENT_SEALED
        grid.y_state[rng.random(grid.y_state.shape) < close_prob_side] = \
            ApertureState.SEDIMENT_SEALED
        grid.z_open_count[grid.z_state != ApertureState.OPEN] = 0
        try:
            check_connected(grid)
        except DegenerateNetworkError:
            continue
        return grid
    raise AssertionError("could not draw a connected pattern")


def layer_step_field(grid, drop: float) -> PressureField:
    """A field that falls by ``drop`` from each cell layer to the next, with
    the grid's conductances."""
    ramp = -drop * np.arange(grid.n_z)
    p = np.broadcast_to(ramp, (grid.n_x, grid.n_y, grid.n_z)).copy()
    return PressureField(p, 0.0, 0, conductance_arrays(grid))


class TestApertureFlow:
    """The conduit law F = 0.8 S^2 s (p_a - p_b) / (P^2 mu L), through the
    conductances and the flows built from them."""

    def test_frozen_sample_value(self):
        # one scenario cell: 5e-5 cube, 1.19e-5 aperture, 0.5 Pa step
        grid = scenario_grid()
        flows = flows_from_pressures(grid, layer_step_field(grid, 0.5))
        np.testing.assert_allclose(flows.flow_z, SAMPLE_APERTURE_FLOW, rtol=1e-12)

    def test_sign_follows_pressure_drop(self):
        grid = build_grid(make_config())
        assert np.all(flows_from_pressures(grid, layer_step_field(grid, 1.0)).flow_z > 0)
        assert np.all(flows_from_pressures(grid, layer_step_field(grid, -1.0)).flow_z < 0)
        assert not np.any(flows_from_pressures(grid, layer_step_field(grid, 0.0)).flow_z)

    def test_linear_in_drop_and_area(self):
        grid = build_grid(make_config())
        base = flows_from_pressures(grid, layer_step_field(grid, 1.0)).flow_z
        double = flows_from_pressures(grid, layer_step_field(grid, 2.0)).flow_z
        np.testing.assert_allclose(double, 2 * base, rtol=1e-12)
        wide = build_grid(make_config(r_filter=math.sqrt(3) * 1e-5))
        np.testing.assert_allclose(conductance_arrays(wide)[2],
                                   3 * conductance_arrays(grid)[2], rtol=1e-12)

    def test_reference_cell_flow_matches_sample(self):
        grid = scenario_grid()
        ref = reference_cell_flow(grid, 0.0, -1e4 * 1e-3)
        assert ref == pytest.approx(SAMPLE_APERTURE_FLOW, rel=1e-12)


class TestConductances:
    def test_single_facet_value(self):
        grid = build_grid(make_config())
        gx, gy, gz = conductance_arrays(grid)
        h = 5e-5
        area = h * h
        perim = 4.0 * h
        expected = 0.8 * area ** 2 * math.pi * 1e-5 ** 2 / (perim ** 2 * 1e-3 * h)
        assert gz[0, 0, 0] == pytest.approx(expected, rel=1e-12)
        assert gz[1, 2, 1] == gz[0, 0, 0]

    def test_closed_facets_conduct_nothing(self):
        grid = build_grid(make_config())
        grid.z_state[1, 1, 1] = ApertureState.PARTICLE_BLOCKED
        grid.x_state[0, 0, 0] = ApertureState.SEDIMENT_SEALED
        gx, _, gz = conductance_arrays(grid)
        assert gz[1, 1, 1] == 0.0
        assert gx[0, 0, 0] == 0.0

    def test_multiplicity_scales_conductance(self):
        single = build_grid(make_config())
        triple = build_grid(make_config(aperture_multiplicity=3))
        _, _, gz1 = conductance_arrays(single)
        _, _, gz3 = conductance_arrays(triple)
        np.testing.assert_allclose(gz3, 3 * gz1, rtol=1e-12)

    def test_partial_blocking_reduces_count(self):
        grid = build_grid(make_config(aperture_multiplicity=4))
        grid.z_open_count[2, 2, 1] = 1
        _, _, gz = conductance_arrays(grid)
        assert gz[2, 2, 1] == pytest.approx(gz[0, 0, 1] / 4, rel=1e-12)


class TestNeighborSums:
    @staticmethod
    def facet_sweep(p, g, window):
        """Reference: ``window * p``, then per-axis flux sweeps over the 3-D
        facet arrays, x then y then z."""
        out = window * p
        for axis, ga in enumerate(g):
            lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
            hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
            flux = ga * (p[lo] - p[hi])
            out[lo] += flux
            out[hi] -= flux
        return out

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 5, 4), (6, 2, 3), (20, 20, 20)])
    def test_flat_kernel_matches_facet_sweep_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        g = []
        for axis in range(3):
            facets = tuple(n - 1 if a == axis else n for a, n in enumerate(shape))
            g.append(np.where(rng.random(facets) < 0.3, 0.0, rng.random(facets)))
        stencil = _stencil(tuple(g))
        degree = np.zeros(shape)
        for ga, (lo, hi) in zip(g, _SIDES):
            degree[lo] += ga
            degree[hi] += ga
        assert _degree(stencil, np.empty(shape)).tobytes() == degree.tobytes()
        for _ in range(3):
            p = rng.standard_normal(shape)
            window = rng.random(shape)
            got = _flux_apply(p, stencil, window, np.empty_like(p))
            assert got.tobytes() == self.facet_sweep(p, g, window).tobytes()


class TestSolverAgainstDenseOracle:
    def test_hundred_random_patterns_all_sweeps(self):
        rng = np.random.default_rng(42)
        p_in, p_out = 0.0, -2.0
        grid0 = build_grid(make_config())
        tol = 1e-10 * reference_cell_flow(grid0, p_in, p_out)
        for trial in range(100):
            grid = random_connected_grid(rng, rng.uniform(0.0, 0.45),
                                         rng.uniform(0.0, 0.3))
            want = dense_pressures(grid, p_in, p_out)
            scale = max(abs(p_in), abs(p_out))
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
            for sweep in ("cg", "lexicographic"):
                field = solve_pressures(grid, p_in, p_out, tol=tol, sweep=sweep)
                err = np.max(np.abs(np.where(active, field.pressure - want, 0.0)))
                assert err <= 1e-8 * scale, f"trial {trial} sweep {sweep}: {err:.3e}"
                assert field.residual <= tol
                flows = flows_from_pressures(grid, field)
                net = cell_net_outflow(flows, 4, 4, 4)
                assert np.max(np.abs(np.where(active, net, 0.0))) <= tol

    def test_degenerate_whenever_membrane_fully_closed(self):
        rng = np.random.default_rng(43)
        for trial in range(100):
            grid = random_connected_grid(rng, rng.uniform(0.0, 0.3),
                                         rng.uniform(0.0, 0.2))
            k = int(rng.integers(grid.n_membranes))
            grid.z_state[:, :, k] = ApertureState.PARTICLE_BLOCKED
            grid.z_open_count[:, :, k] = 0
            with pytest.raises(DegenerateNetworkError):
                solve_pressures(grid, 0.0, -2.0)

    def test_no_window_overlap_required(self):
        # windows on opposite corners still solve
        grid = build_grid(make_config(inlet_window=((1, 2), (1, 2)),
                                      outlet_window=((3, 4), (3, 4))))
        tol = 1e-10 * reference_cell_flow(grid, 0.0, -2.0)
        field = solve_pressures(grid, 0.0, -2.0, tol=tol)
        want = dense_pressures(grid, 0.0, -2.0)
        assert np.max(np.abs(field.pressure - want)) <= 1e-8 * 2.0


class TestSolverBehaviour:
    def test_uniform_grid_pressure_depends_on_z_only(self):
        grid = build_grid(make_config(n_x=5, n_y=5, n_z=6, L_x=2.5e-4, L_y=2.5e-4,
                                      L_z=3e-4))
        field = solve_pressures(grid, 0.0, -3.0)
        p = field.pressure
        for k in range(6):
            layer = p[:, :, k]
            assert np.ptp(layer) <= 1e-9 * 3.0
        # equal conductances in series: equal drops between layers
        drops = np.diff(p[2, 2, :])
        assert np.allclose(drops, drops[0], rtol=1e-6)

    def test_total_equals_outlet_flow(self):
        grid = scenario_grid()
        field = solve_pressures(grid, 0.0, -10.0)
        flows = flows_from_pressures(grid, field)
        tot, out = total_flow(grid, flows), outlet_flow(grid, flows)
        assert tot > 0
        assert out == pytest.approx(tot, rel=1e-6)

    def test_closing_apertures_never_gains_flow(self):
        rng = np.random.default_rng(5)
        grid = build_grid(make_config(n_x=5, n_y=5, n_z=5, L_x=2.5e-4, L_y=2.5e-4,
                                      L_z=2.5e-4))
        p_out = -2.5
        tol = 1e-9 * reference_cell_flow(grid, 0.0, p_out)
        field = solve_pressures(grid, 0.0, p_out, tol=tol)
        prev = total_flow(grid, flows_from_pressures(grid, field))
        open_positions = list(np.ndindex(grid.z_state.shape))
        rng.shuffle(open_positions)
        for pos in open_positions[:40]:
            grid.z_state[pos] = ApertureState.SEDIMENT_SEALED
            grid.z_open_count[pos] = 0
            try:
                field = solve_pressures(grid, 0.0, p_out, tol=tol)
            except DegenerateNetworkError:
                break
            now = total_flow(grid, flows_from_pressures(grid, field))
            assert now <= prev + 10 * tol
            prev = now

    def test_clean_window_flow_same_order_as_half_cell_estimate(self):
        # order-of-magnitude estimate: half an aperture flow per cell column
        grid = scenario_grid()
        field = solve_pressures(grid, 0.0, -10.0)
        tot = total_flow(grid, flows_from_pressures(grid, field))
        estimate = 0.5 * SAMPLE_APERTURE_FLOW * 20 * 20
        assert estimate / 2.5 <= tot <= estimate * 2.5

    def test_warm_start_costs_nearly_nothing(self):
        grid = scenario_grid()
        field = solve_pressures(grid, 0.0, -10.0, sweep="cg")
        again = solve_pressures(grid, 0.0, -10.0, sweep="cg", initial=field.pressure)
        assert again.iterations <= 1
        np.testing.assert_allclose(again.pressure, field.pressure, rtol=1e-9)

    def test_isolated_region_keeps_no_flow(self):
        # wall off a corner cell entirely; the rest still solves
        grid = build_grid(make_config())
        grid.x_state[0, 0, 0] = ApertureState.SEDIMENT_SEALED
        grid.y_state[0, 0, 0] = ApertureState.SEDIMENT_SEALED
        grid.z_state[0, 0, 0] = ApertureState.SEDIMENT_SEALED
        grid.z_open_count[0, 0, 0] = 0
        field = solve_pressures(grid, 0.0, -2.0)
        flows = flows_from_pressures(grid, field)
        assert flows.flow_x[0, 0, 0] == 0.0
        assert flows.flow_y[0, 0, 0] == 0.0
        assert flows.flow_z[0, 0, 0] == 0.0


class TestSolverErrors:
    def test_unknown_sweep(self):
        grid = build_grid(make_config())
        for sweep in ("jacobi", "redblack"):
            with pytest.raises(ValueError, match="sweep"):
                solve_pressures(grid, 0.0, -2.0, sweep=sweep)

    def test_bad_tol(self):
        grid = build_grid(make_config())
        with pytest.raises(ValueError, match="tol"):
            solve_pressures(grid, 0.0, -2.0, tol=0.0)

    @pytest.mark.parametrize("p_in, p_out, shown", [
        (0.0, math.nan, "p_out=nan"),
        (0.0, math.inf, "p_out=inf"),
        (-2.0, -2.0, "p_in=-2.0, p_out=-2.0"),
    ])
    def test_bad_pressures_named(self, p_in, p_out, shown):
        # not blamed on the default tol, nor left to CG
        grid = build_grid(make_config())
        with pytest.raises(ValueError, match=f"^p_in and p_out must be finite.*{shown}$"):
            solve_pressures(grid, p_in, p_out)

    def test_equal_pressures_with_a_tol(self):
        grid = build_grid(make_config())
        field = solve_pressures(grid, -2.0, -2.0, tol=1e-20)
        assert field.iterations == 0 and np.all(field.pressure == -2.0)

    def test_bad_initial_shape(self):
        grid = build_grid(make_config())
        with pytest.raises(ValueError, match="initial"):
            solve_pressures(grid, 0.0, -2.0, initial=np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    @pytest.mark.parametrize("name", ["initial", "guess"])
    def test_non_finite_start_rejected(self, name, sweep):
        # even on a walled-off cell, which has no equation
        grid = guess_grid()
        grid.x_state[2:4, 3, 3] = ApertureState.SEDIMENT_SEALED
        grid.y_state[3, 2:4, 3] = ApertureState.SEDIMENT_SEALED
        grid.z_state[3, 3, 2:4] = ApertureState.SEDIMENT_SEALED
        grid.z_open_count[3, 3, 2:4] = 0
        start = solve_pressures(grid, 0.0, -2.0, sweep=sweep).pressure
        start[3, 3, 3] = np.nan
        with pytest.raises(ValueError, match=f"{name} pressure has non-finite"):
            solve_pressures(grid, 0.0, -2.0, sweep=sweep, **{name: start})

    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    def test_iteration_budget_enforced(self, sweep):
        grid = scenario_grid()
        for max_iter in (0, 1):
            with pytest.raises(ConvergenceError, match=f"after {max_iter} "):
                solve_pressures(grid, 0.0, -10.0, max_iter=max_iter, sweep=sweep,
                                tol=1e-12 * SAMPLE_APERTURE_FLOW)

    def test_degenerate_clean_cut(self):
        grid = build_grid(make_config())
        grid.z_state[:, :, 1] = ApertureState.SEDIMENT_SEALED
        grid.z_open_count[:, :, 1] = 0
        with pytest.raises(DegenerateNetworkError):
            check_connected(grid)


def bfs_reach(grid) -> set[tuple[int, int, int]]:
    """Reference for ``check_connected``'s flood: a breadth-first search over
    the cells from the inlet window, stepping through a facet when its state
    is open (and, for a z-facet, a sub-aperture is left)."""
    passes = (grid.x_state == ApertureState.OPEN, grid.y_state == ApertureState.OPEN,
              (grid.z_state == ApertureState.OPEN) & (grid.z_open_count > 0))
    shape = (grid.n_x, grid.n_y, grid.n_z)
    seen = {(int(i), int(j), 0) for i, j in zip(*np.nonzero(grid.inlet_mask))}
    queue = deque(seen)
    while queue:
        cell = queue.popleft()
        for axis in range(3):
            for step in (-1, 1):
                nb = list(cell)
                nb[axis] += step
                if not 0 <= nb[axis] < shape[axis]:
                    continue
                facet = list(cell)
                facet[axis] = min(cell[axis], nb[axis])
                if passes[axis][tuple(facet)] and tuple(nb) not in seen:
                    seen.add(tuple(nb))
                    queue.append(tuple(nb))
    return seen


def bfs_connected(grid) -> bool:
    """Reference for ``check_connected``: whether ``bfs_reach`` reaches an
    outlet window cell."""
    seen = bfs_reach(grid)
    return any((int(i), int(j), grid.n_z - 1) in seen
               for i, j in zip(*np.nonzero(grid.outlet_mask)))


def z_closure_grid(rng):
    """A 4^3 to 6^3 lattice (random windows) with random z-closures and every
    side facet open; one membrane in three is closed completely."""
    shape = tuple(int(n) for n in rng.integers(4, 7, size=3))
    windows = {}
    for which in ("inlet_window", "outlet_window"):
        lo = rng.integers(1, [shape[0] + 1, shape[1] + 1])
        hi = rng.integers(lo, [shape[0] + 1, shape[1] + 1])
        windows[which] = tuple((int(a), int(b)) for a, b in zip(lo, hi))
    grid = build_grid(make_config(
        L_x=5e-5 * shape[0], L_y=5e-5 * shape[1], L_z=5e-5 * shape[2],
        n_x=shape[0], n_y=shape[1], n_z=shape[2], **windows))
    closed = rng.random(grid.z_state.shape) < rng.uniform(0.3, 0.97)
    if rng.random() < 1 / 3:
        closed[:, :, rng.integers(grid.n_membranes)] = True
    grid.z_state[closed] = ApertureState.PARTICLE_BLOCKED
    grid.z_open_count[closed] = 0
    return grid


def verdict(grid) -> bool:
    try:
        check_connected(grid)
    except DegenerateNetworkError:
        return False
    return True


class CountingNumpy:
    """numpy, recording what its ``count_nonzero`` returns."""

    def __init__(self):
        self.counts = []

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, a):
        self.counts.append(int(np.count_nonzero(a)))
        return self.counts[-1]


class TestConnectivity:
    def test_all_sides_open_matches_search(self):
        rng = np.random.default_rng(71)
        seen = set()
        for trial in range(150):
            grid = z_closure_grid(rng)
            want = bfs_connected(grid)
            assert verdict(grid) == want, f"trial {trial}"
            seen.add(want)
        assert seen == {True, False}

    def test_one_side_facet_sealed_matches_search(self):
        rng = np.random.default_rng(72)
        seen = set()
        for trial in range(150):
            grid = z_closure_grid(rng)
            state = grid.x_state if rng.random() < 0.5 else grid.y_state
            state.flat[rng.integers(state.size)] = ApertureState.SEDIMENT_SEALED
            want = bfs_connected(grid)
            assert verdict(grid) == want, f"trial {trial}"
            seen.add(want)
        assert seen == {True, False}

    def test_sealed_sides_can_cut_a_membrane_off(self):
        # membrane 1's only opening sits under corner cell (0, 0, 0), which
        # its two side facets join to the rest of the inlet layer
        grid = build_grid(make_config(inlet_window=((4, 4), (4, 4))))
        grid.z_state[:, :, 0] = ApertureState.PARTICLE_BLOCKED
        grid.z_open_count[:, :, 0] = 0
        grid.z_state[0, 0, 0] = ApertureState.OPEN
        grid.z_open_count[0, 0, 0] = 1
        assert verdict(grid) and bfs_connected(grid)
        grid.x_state[0, 0, 0] = grid.y_state[0, 0, 0] = ApertureState.SEDIMENT_SEALED
        assert not bfs_connected(grid)
        with pytest.raises(DegenerateNetworkError):
            check_connected(grid)

    def test_flood_near_percolation_matches_search(self, monkeypatch):
        # closure sweeps up to two rounds past the disconnect: a connected
        # network stops the flood at the outlet, mostly before it has
        # reached every cell joined to the inlet; a split one stops at the
        # first pass that reaches no new cell
        counting = CountingNumpy()
        monkeypatch.setattr(hydraulics, "np", counting)
        early = fixpoints = 0
        for seed, n in [(1, 12), (2, 14), (3, 16)]:
            split = 0
            for grid in closures(seed, n):
                counting.counts.clear()
                want = bfs_connected(grid)
                assert verdict(grid) == want, (seed, n)
                reached = len(bfs_reach(grid))
                if want:
                    assert counting.counts[-1] <= reached
                    early += counting.counts[-1] < reached
                else:
                    assert counting.counts[-2:] == [reached, reached]
                    fixpoints += 1
                    split += 1
                    if split == 2:
                        break
        assert early >= 10 and fixpoints == 6

    @pytest.mark.parametrize("window", ["inlet_mask", "outlet_mask"])
    def test_empty_window_raises(self, window):
        grid = build_grid(make_config())
        getattr(grid, window)[:] = False
        with pytest.raises(DegenerateNetworkError):
            check_connected(grid)


# Pressure bytes and iteration counts of the solves below (arrays
# ``<name>_pressure`` and ``<name>_iterations``); a solve without a guess
# must reproduce them exactly.  The CG entries were captured with the
# float32 multigrid preconditioner (``Hierarchy``) whose bottom level, at
# most ``_BOTTOM_SIZE`` unknowns per layer, is inverted in float64 by block
# elimination over the layers.  All entries were captured again when the
# solver began to peel dead-end branches off the network before solving
# (``_peel``): the lexicographic ones too, as the reference sweep no longer
# visits the removed cells.  The patterns without a dead end (``n4_1_*``
# and ``n8_1_*``) kept their bytes.  The CG entries were captured again when
# CG moved to float32 with float64 reliable updates: every iteration count
# stayed, and no pressure moved by more than 1.51e-10 of the 2 Pa drop.
# All entries were captured again when every operator product took the flux
# form and the Gauss-Seidel sweep moved to the system restricted to the
# active cells: every iteration count stayed, and no pressure moved by more
# than 2.07e-11 of the 2 Pa drop (3.3e-16 for the lexicographic entries).
PINNED_SOLVES = DATA_DIR / "pinned_solves.npz"


def pinned_solves() -> dict[str, tuple[np.ndarray, int]]:
    """name -> (pressure, iterations) of solves on random closure patterns.

    Cubic lattices of 4 to 10 cells a side, windows narrower than the face
    from 6 cells on, with shrunken and partly blocked apertures.  Each
    pattern is solved by CG from the default ramp, then closed a little
    further and solved again from the first field, as an engine step does.
    The 4^3 and 5^3 patterns also run the lexicographic reference sweep.
    """
    rng = np.random.default_rng(20261018)
    out = {}
    for n in (4, 5, 6, 8, 10):
        window = ((2, n - 1), (2, n - 1)) if n >= 6 else None
        config = make_config(L_x=5e-5 * n, L_y=5e-5 * n, L_z=5e-5 * n,
                             n_x=n, n_y=n, n_z=n, r_filter=1e-5, r_side=2e-5,
                             inlet_window=window, outlet_window=window)
        for k in range(2):
            grid = random_connected_grid(rng, rng.uniform(0.05, 0.35),
                                         rng.uniform(0.0, 0.3), config)
            # z first: the order of the draws the pinned solves were made with
            for radius in (grid.z_radius, grid.x_radius, grid.y_radius):
                radius *= rng.uniform(0.5, 1.0, radius.shape)
            grid.z_open_count -= rng.integers(0, 2, grid.z_open_count.shape) \
                * (grid.z_open_count > 1)
            name = f"n{n}_{k}"
            cold = solve_pressures(grid, 0.0, -2.0, sweep="cg")
            out[f"{name}_cold"] = (cold.pressure, cold.iterations)
            closing = (rng.random(grid.z_state.shape) < 0.05) \
                & (grid.z_state == ApertureState.OPEN)
            grid.z_state[closing] = ApertureState.PARTICLE_BLOCKED
            grid.z_open_count[closing] = 0
            grid.x_radius *= 0.97
            try:
                check_connected(grid)
            except DegenerateNetworkError:
                grid.z_state[closing] = ApertureState.OPEN
                grid.z_open_count[closing] = 1
            warm = solve_pressures(grid, 0.0, -2.0, sweep="cg", initial=cold.pressure)
            out[f"{name}_warm"] = (warm.pressure, warm.iterations)
            if n <= 5:
                ref = solve_pressures(grid, 0.0, -2.0, sweep="lexicographic")
                out[f"{name}_lexicographic"] = (ref.pressure, ref.iterations)
    return out


def start_net_flow(grid, p_in: float, p_out: float, p):
    """Net flow into every cell of ``p`` with the windows pinned, zero on the
    cells without an equation; its max norm ranks the solver's starts (both
    sweeps sum the same net flow as their residual vector)."""
    g = conductance_arrays(grid)
    den = _degree(_stencil(g), np.empty(p.shape))
    pinned = p.copy()
    pinned[:, :, 0][grid.inlet_mask] = p_in
    pinned[:, :, -1][grid.outlet_mask] = p_out
    net = -cell_net_outflow(flows_from_pressures(grid, PressureField(pinned, 0.0, 0, g)),
                            *p.shape)
    active = ~window_cells(grid) & (den > 0)
    return np.where(active, net, 0.0), den, active


def guess_grid(n: int = 6, seed: int = 5):
    """A connected random closure pattern on an n^3 lattice with inner windows."""
    config = make_config(L_x=5e-5 * n, L_y=5e-5 * n, L_z=5e-5 * n,
                         n_x=n, n_y=n, n_z=n, inlet_window=((2, n - 1), (2, n - 1)),
                         outlet_window=((2, n - 1), (2, n - 1)))
    return random_connected_grid(np.random.default_rng(seed), 0.2, 0.15, config)


class TestStartGuess:
    def test_no_guess_matches_pinned_solves(self):
        stored = np.load(PINNED_SOLVES)
        got = pinned_solves()
        assert len(stored.files) == 2 * len(got)
        for name, (pressure, iterations) in got.items():
            assert pressure.tobytes() == stored[f"{name}_pressure"].tobytes(), name
            assert iterations == int(stored[f"{name}_iterations"]), name

    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    @pytest.mark.parametrize("kind", ["worse", "tie"])
    def test_guess_not_better_changes_nothing(self, sweep, kind):
        grid = guess_grid(n=5 if sweep == "lexicographic" else 6)
        initial = solve_pressures(grid, 0.0, -2.0, sweep="cg").pressure
        grid.z_radius *= 0.9    # the next system of a slowly changing sequence
        net, den, active = start_net_flow(grid, 0.0, -2.0, initial)
        worst = np.max(np.abs(net))
        if kind == "worse":
            guess = initial + np.random.default_rng(9).uniform(-0.2, 0.2, initial.shape)
            assert np.max(np.abs(start_net_flow(grid, 0.0, -2.0, guess)[0])) > worst
        else:
            # move one cell whose neighbourhood is far below the worst cell's
            # net flow: the max norm keeps its exact value
            near = np.abs(net)
            for axis in range(3):
                for shift in (1, -1):
                    near = np.maximum(near, np.roll(np.abs(net), shift, axis))
            cell = np.unravel_index(np.argmin(np.where(active, near, np.inf)), net.shape)
            assert near[cell] < 0.5 * worst
            guess = initial.copy()
            guess[cell] += 0.1 * worst / den[cell]
            assert np.max(np.abs(start_net_flow(grid, 0.0, -2.0, guess)[0])) == worst
        want = solve_pressures(grid, 0.0, -2.0, sweep=sweep, initial=initial)
        got = solve_pressures(grid, 0.0, -2.0, sweep=sweep, initial=initial, guess=guess)
        assert got.pressure.tobytes() == want.pressure.tobytes()
        assert got.iterations == want.iterations
        assert got.residual == want.residual

    def test_converged_guess_takes_no_iterations(self):
        grid = guess_grid()
        field = solve_pressures(grid, 0.0, -2.0, sweep="cg")
        again = solve_pressures(grid, 0.0, -2.0, sweep="cg", guess=field.pressure)
        assert again.iterations == 0
        assert again.pressure.tobytes() == field.pressure.tobytes()

    def test_better_guess_is_taken_on_active_cells_only(self):
        grid = guess_grid()
        # wall off one inner cell: it has no equation and keeps ``initial``
        grid.x_state[2:4, 3, 3] = ApertureState.SEDIMENT_SEALED
        grid.y_state[3, 2:4, 3] = ApertureState.SEDIMENT_SEALED
        grid.z_state[3, 3, 2:4] = ApertureState.SEDIMENT_SEALED
        grid.z_open_count[3, 3, 2:4] = 0
        field = solve_pressures(grid, 0.0, -2.0, sweep="cg")
        initial = np.full(field.pressure.shape, -1.0)
        guess = field.pressure.copy()
        guess[:, :, 0][grid.inlet_mask] = 7.0    # window cells are pinned
        guess[:, :, -1][grid.outlet_mask] = 7.0
        guess[3, 3, 3] = 7.0     # the isolated cell
        got = solve_pressures(grid, 0.0, -2.0, sweep="cg", initial=initial, guess=guess)
        assert got.iterations == 0
        assert np.all(got.pressure[:, :, 0][grid.inlet_mask] == 0.0)
        assert np.all(got.pressure[:, :, -1][grid.outlet_mask] == -2.0)
        assert got.pressure[3, 3, 3] == -1.0
        inner = np.ones(guess.shape, dtype=bool)
        inner[:, :, 0][grid.inlet_mask] = False
        inner[:, :, -1][grid.outlet_mask] = False
        inner[3, 3, 3] = False
        np.testing.assert_array_equal(got.pressure[inner], field.pressure[inner])

    def test_guess_of_wrong_shape(self):
        grid = build_grid(make_config())
        with pytest.raises(ValueError, match="guess"):
            solve_pressures(grid, 0.0, -2.0, guess=np.zeros((4, 4, 3)))


def wall_off(grid, lo, hi, inner_open: bool = True) -> None:
    """Close every facet across the surface of the cell box [lo, hi); open
    the facets inside it, or close them too, which isolates every cell."""
    state_inner = ApertureState.OPEN if inner_open else ApertureState.SEDIMENT_SEALED
    for fam in _FACET_FAMILIES:
        _, _, state, open_count = fam.arrays(grid)
        a = fam.axis
        box = tuple(slice(lo[b], hi[b]) for b in range(3))
        inner = tuple(slice(lo[b], hi[b] - 1) if b == a else box[b] for b in range(3))
        state[inner] = state_inner
        if open_count is not None:
            open_count[inner] = 1 if inner_open else 0
        for face in (lo[a] - 1, hi[a] - 1):
            if 0 <= face < state.shape[a]:
                cut = tuple(slice(face, face + 1) if b == a else box[b] for b in range(3))
                state[cut] = ApertureState.SEDIMENT_SEALED
                if open_count is not None:
                    open_count[cut] = 0


def lattice_config(shape, window=True) -> FilterConfig:
    n_x, n_y, n_z = shape
    windows = dict(inlet_window=((2, n_x - 1), (2, n_y - 1)),
                   outlet_window=((2, n_x - 1), (2, n_y - 1))) if window else {}
    return make_config(L_x=5e-5 * n_x, L_y=5e-5 * n_y, L_z=5e-5 * n_z,
                       n_x=n_x, n_y=n_y, n_z=n_z, **windows)


def holed_grid(rng, shape, floating=True):
    """A connected closure pattern with one walled-off cell and a walled-off
    2x2 in-layer block, whose facets are open inside (a floating cluster)
    or closed (four isolated cells).  The block is one level-1 aggregate."""
    for _ in range(50):
        grid = random_connected_grid(rng, 0.15, 0.1, lattice_config(shape))
        wall_off(grid, (0, 0, 1), (1, 1, 2))
        wall_off(grid, (2, 2, 2), (4, 4, 3), inner_open=floating)
        try:
            check_connected(grid)
        except DegenerateNetworkError:
            continue
        return grid
    raise AssertionError("could not draw a connected pattern")


def window_connected(grid) -> np.ndarray:
    """Cells joined to a window cell by open apertures."""
    masks = [fam.open_mask(grid) for fam in _FACET_FAMILIES]
    reached = np.zeros((grid.n_x, grid.n_y, grid.n_z), dtype=bool)
    reached[:, :, 0] = grid.inlet_mask
    reached[:, :, -1] |= grid.outlet_mask
    while True:
        nxt = reached.copy()
        for open_, (lo, hi) in zip(masks, _SIDES):
            nxt[hi] |= reached[lo] & open_
            nxt[lo] |= reached[hi] & open_
        if np.array_equal(nxt, reached):
            return reached
        reached = nxt


def active_system(grid, p_in: float, p_out: float):
    """The pressure system assembled densely over the active cells (inner
    cells with an open aperture): matrix, right-hand side, active mask."""
    shape = (grid.n_x, grid.n_y, grid.n_z)
    fixed = np.zeros(shape, dtype=bool)
    fixed[:, :, 0] = grid.inlet_mask
    fixed[:, :, -1] |= grid.outlet_mask
    known = np.zeros(shape)
    known[:, :, 0][grid.inlet_mask] = p_in
    known[:, :, -1][grid.outlet_mask] = p_out
    idx = np.arange(math.prod(shape)).reshape(shape)
    size = idx.size
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    for ga, (lo, hi) in zip(conductance_arrays(grid), _SIDES):
        for a, b, g in zip(idx[lo].ravel(), idx[hi].ravel(), ga.ravel()):
            for i, j in ((a, b), (b, a)):
                A[i, i] += g
                if fixed.flat[j]:
                    rhs[i] += g * known.flat[j]
                else:
                    A[i, j] -= g
    active = ~fixed.ravel() & (np.diag(A) > 0)
    keep = np.flatnonzero(active)
    return A[np.ix_(keep, keep)], rhs[keep], active.reshape(shape)


def restricted_system(grid):
    """``grid``'s finest operator restricted to the active cells, the way
    the solver builds it: stencil, diagonal, window conductances and the
    active mask."""
    stencil = _stencil(conductance_arrays(grid))
    fixed = window_cells(grid)
    den = _degree(stencil, np.empty(fixed.shape))
    active = ~fixed & (den > 0)
    window = np.where(active, _flux_apply(np.where(fixed, -1.0, 0.0), stencil, 0.0,
                                          np.empty(fixed.shape)), 0.0)
    _cut(stencil, active)
    den *= active
    return stencil, den, window, active


def preconditioner(grid, hierarchy=None):
    """The CG preconditioner of ``grid``'s pressure system (the float32
    V-cycle): ``hierarchy``, or a fresh ``Hierarchy``, refreshed the way
    the solver refreshes it, with the active mask."""
    stencil, den, window, active = restricted_system(grid)
    cycle = Hierarchy() if hierarchy is None else hierarchy
    cycle.refresh(stencil, den, window)
    return cycle, active


def cycle_levels(cycle) -> list:
    """The float32 levels of a refreshed V-cycle, finest first."""
    return [cycle.finest, *cycle.coarse]


def apply_cycle(cycle, r) -> np.ndarray:
    """The V-cycle ``cycle`` on the float64 vector ``r``: ``r`` times the
    cycle's scale into its finest ``rhs``, as CG's scaled residual, and
    the float32 result back as float64."""
    np.multiply(r, cycle.scale, out=cycle.finest.rhs)
    return cycle().astype(float)


def float64_build(grid):
    """The float64 build of ``grid``'s hierarchy, before its cast to
    float32: the operators of levels 0 and up and the bottom inverse."""
    stencil, den, window, _ = restricted_system(grid)
    finest = _Operator(stencil, den, window)
    levels = [finest, *_coarse_levels(finest)]
    return levels, _bottom_inverse(levels[-1])


def assert_symmetric_positive(precondition, active, rng):
    """u.Mv = v.Mu on random active vectors, to float32 rounding, and u.Mu > 0."""
    for _ in range(5):
        u, v = (np.where(active, rng.standard_normal(active.shape), 0.0)
                for _ in range(2))
        mu, mv = (apply_cycle(precondition, w) for w in (u, v))
        uMu, vMv = np.sum(u * mu), np.sum(v * mv)
        assert uMu > 0 and vMv > 0
        assert np.sum(u * mv) == pytest.approx(
            np.sum(v * mu), abs=16 * np.finfo(np.float32).eps * math.sqrt(uMu * vMv))


def level_matrix(level) -> np.ndarray:
    """A multigrid level's operator as a dense matrix."""
    size = level.diag.size
    out = np.empty((size, size))
    unit, column = np.zeros(level.diag.shape), np.empty(level.diag.shape)
    for c in range(size):
        unit.flat[c] = 1.0
        out[:, c] = _flux_apply(unit, level.stencil, level.window, column).ravel()
        unit.flat[c] = 0.0
    return out


def shrink_radii(grid, rng, low, high) -> None:
    """Shrink every aperture by a random factor in [low, high); the active
    cells stay the same.  The draws run z, x, y, as the pinned digests were
    made with."""
    for radius in (grid.z_radius, grid.x_radius, grid.y_radius):
        radius *= rng.uniform(low, high, radius.shape)


def hierarchy_buffers(hierarchy) -> dict[str, np.ndarray]:
    """The lattice-sized arrays a hierarchy keeps between solves, by name."""
    finest = hierarchy.finest
    return {"facets": hierarchy.facets, "scratch": hierarchy.stencil[0][2].base,
            "window": hierarchy.window, "inflow": hierarchy.inflow, "work": hierarchy.work,
            "finest.facets": finest.stencil[0][1].base, "finest.scratch": finest.stencil[0][2].base,
            **{f"finest.{name}": getattr(finest, name)
               for name in ("smooth", "window", "res", "rhs", "x", "half")},
            "d": hierarchy.d, "e": hierarchy.e}


def system_state(hierarchy) -> dict[str, bytes]:
    """The bytes of a hierarchy's last system: its float64 stencil, active
    cells, window coupling, inflow and peel, and its float32 finest level's
    conductances, window coupling and Jacobi weights without the scale (a
    power of two, so exactly)."""
    finest, scale = hierarchy.finest, hierarchy.scale
    peeled = hierarchy.peeled or ()
    return {"facets": hierarchy.facets.tobytes(), "active": hierarchy.active.tobytes(),
            "window": hierarchy.window.tobytes(), "inflow": hierarchy.inflow.tobytes(),
            "peeled": b"".join(a.tobytes() for a in peeled),
            "finest.facets": (finest.stencil[0][1].base / scale).tobytes(),
            "finest.window": (finest.window / scale).tobytes(),
            "finest.smooth": (finest.smooth * scale).tobytes()}


SHAPES = [(4, 4, 4), (5, 5, 5), (6, 6, 6), (7, 5, 6), (8, 8, 8)]

# captured while the operator products had a diagonal form beside the flux
# form; the move to the flux form alone left these bytes as they were
HIERARCHY_BUILDS_SHA256 = "5dd34157755aef7aa4615cd6f1ca8e521cdfbe42afb59078f3b4b6157be92c05"


def hierarchy_builds_digest(monkeypatch) -> str:
    """SHA-256 of what every V-cycle of the ``closure_solves_digest``
    sweeps is built from and builds: the finest level's diagonal and
    window coupling, every level's Jacobi weights, the scale and the
    bottom inverse."""
    digest = hashlib.sha256()

    refresh = Hierarchy.refresh

    def recording(self, stencil, den, window):
        refresh(self, stencil, den, window)
        for a in (den, window, *(level.smooth for level in cycle_levels(self)),
                  self.bottom_inverse):
            digest.update(a.tobytes())
        digest.update(repr(self.scale).encode())

    monkeypatch.setattr(Hierarchy, "refresh", recording)
    for seed, n in [(11, 12), (12, 16)]:
        for _ in closure_solves(seed, n):
            pass
    return digest.hexdigest()


class TestMultigrid:
    @pytest.mark.parametrize("floating", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_cg_matches_dense_solve_on_window_connected_cells(self, shape, floating):
        rng = np.random.default_rng(sum(shape) + floating)
        p_in, p_out = 0.0, -2.0
        for _ in range(3):
            grid = holed_grid(rng, shape, floating)
            A, rhs, active = active_system(grid, p_in, p_out)
            connected = window_connected(grid)
            assert not connected[0, 0, 1] and not connected[2, 2, 2]
            want = np.zeros(active.shape)
            if floating:
                assert active[2, 2, 2]     # the floating cluster has equations
                want[active] = np.linalg.lstsq(A, rhs, rcond=None)[0]
            else:
                assert not active[2, 2, 2]
                want[active] = np.linalg.solve(A, rhs)
            field = solve_pressures(grid, p_in, p_out, sweep="cg")
            err = np.max(np.abs(np.where(connected & active, field.pressure - want, 0.0)))
            assert err <= 1e-6 * abs(p_out - p_in)
            assert np.all(np.isfinite(field.pressure))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_preconditioner_is_symmetric_and_positive(self, shape):
        rng = np.random.default_rng(7 * sum(shape))
        precondition, active = preconditioner(holed_grid(rng, shape))
        assert_symmetric_positive(precondition, active, rng)

    @pytest.mark.parametrize("floating", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_preconditioned_vector_is_zero_off_the_active_cells(self, shape, floating):
        # the coarse corrections spread values onto the cells without an
        # equation; the cycle's output drops them, so CG's step needs no mask
        rng = np.random.default_rng(11 * sum(shape) + floating)
        precondition, active = preconditioner(holed_grid(rng, shape, floating))
        finest, coarse = cycle_levels(precondition)[:2]
        for _ in range(3):
            r = np.where(active, rng.standard_normal(shape), 0.0)
            finest.x.fill(np.nan)
            np.multiply(r, precondition.scale, out=finest.rhs)
            assert precondition() is finest.x
            spread = np.zeros(shape, np.float32)
            _run(_spread_calls(coarse.x, spread))
            assert np.any(spread[~active] != 0.0)
            assert np.all(finest.x[~active] == 0.0)
            assert np.all(np.isfinite(finest.x))

    @pytest.mark.parametrize("floating", [True, False])
    def test_isolated_or_floating_aggregate_has_zero_row(self, floating):
        grid = holed_grid(np.random.default_rng(3), (6, 6, 6), floating)
        level = float64_build(grid)[0][1]
        row = np.ravel_multi_index((1, 1, 2), level.diag.shape)
        matrix = level_matrix(level)
        assert level.diag[1, 1, 2] == 0.0
        assert np.all(matrix[row] == 0.0) and np.all(matrix[:, row] == 0.0)
        precondition, active = preconditioner(grid)
        r = np.where(active, np.random.default_rng(4).standard_normal(active.shape), 0.0)
        assert np.all(np.isfinite(apply_cycle(precondition, r)))

    @pytest.mark.parametrize("shape", SHAPES + [(9, 3, 5)])
    def test_levels_are_galerkin_products(self, shape):
        grid = holed_grid(np.random.default_rng(5 * sum(shape)), shape)
        levels = float64_build(grid)[0]
        for fine, coarse in zip(levels, levels[1:]):
            x, y, z = np.indices(fine.diag.shape)
            agg = np.ravel_multi_index((x // 2, y // 2, z), coarse.diag.shape).ravel()
            spread = np.zeros((fine.diag.size, coarse.diag.size))
            spread[np.arange(fine.diag.size), agg] = 1.0
            want = spread.T @ level_matrix(fine) @ spread
            np.testing.assert_allclose(level_matrix(coarse), want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))
            # and the diagonal that the Jacobi weights and the bottom inverse use
            np.testing.assert_allclose(coarse.diag.ravel(), np.diag(want), rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("shape", SHAPES + [(20, 20, 20), (9, 3, 5)])
    def test_coarsest_level_is_the_layer_system(self, shape):
        # the coarsest (bottom) level is a block system over the layers, the
        # first level with at most _BOTTOM_SIZE unknowns per layer, and its
        # inverse is exact on the active unknowns and zero off them
        grid = random_connected_grid(np.random.default_rng(sum(shape)), 0.2, 0.1,
                                     lattice_config(shape))
        levels, inverse = float64_build(grid)
        per_layer = [level.diag.shape[0] * level.diag.shape[1] for level in levels]
        assert per_layer[-1] <= _BOTTOM_SIZE < min(per_layer[:-1])
        bottom = levels[-1]
        assert bottom.diag.shape[2] == shape[2]
        matrix = level_matrix(bottom)
        active = bottom.diag.ravel() > 0
        on = np.ix_(active, active)
        np.testing.assert_allclose((inverse @ matrix)[on], np.eye(np.count_nonzero(active)),
                                   rtol=0.0, atol=1e-12)
        assert np.all(inverse[~active] == 0.0) and np.all(inverse[:, ~active] == 0.0)

    @pytest.mark.parametrize("floating", [True, False])
    def test_zero_row_stays_zero_in_the_bottom_inverse(self, floating):
        # on 6^3 level 1 (3x3 per layer) is the bottom; the walled-off 2x2
        # block is its aggregate (1, 1, 2)
        grid = holed_grid(np.random.default_rng(3), (6, 6, 6), floating)
        levels, inverse = float64_build(grid)
        assert len(levels) == 2 and levels[-1].diag[1, 1, 2] == 0.0
        row = np.ravel_multi_index((1, 1, 2), levels[-1].diag.shape)
        assert np.all(inverse[row] == 0.0) and np.all(inverse[:, row] == 0.0)
        # and so in the float32 cycle
        precondition, active = preconditioner(grid)
        bottom = cycle_levels(precondition)[-1]
        r = np.where(active, np.random.default_rng(4).standard_normal(active.shape), 0.0)
        apply_cycle(precondition, r)
        assert bottom.x[1, 1, 2] == 0.0

    def test_floating_cluster_across_layers_keeps_cg_accurate(self):
        # a walled-off 2x2x2 box with open facets inside is a floating
        # cluster of two bottom aggregates coupled in z only: its bottom
        # block is singular, up to rounding
        for seed in range(6):
            rng = np.random.default_rng(seed)
            grid = random_connected_grid(rng, 0.15, 0.1, lattice_config((6, 6, 6)))
            shrink_radii(grid, rng, 0.3, 1.0)
            wall_off(grid, (2, 2, 2), (4, 4, 4))
            check_connected(grid)
            A, rhs, active = active_system(grid, 0.0, -2.0)
            want = np.zeros(active.shape)
            want[active] = np.linalg.lstsq(A, rhs, rcond=None)[0]
            field = solve_pressures(grid, 0.0, -2.0, sweep="cg")
            connected = window_connected(grid)
            assert not connected[2, 2, 2] and active[2, 2, 2]
            err = np.max(np.abs(np.where(connected & active, field.pressure - want, 0.0)))
            assert err <= 1e-6 * 2.0
            assert np.all(np.isfinite(field.pressure))

    @pytest.mark.parametrize("shape", [(20, 20, 20), (32, 32, 32)])
    def test_no_linalg_call_exceeds_one_layer_block(self, shape, monkeypatch):
        # a LAPACK call on the whole bottom level woke a second BLAS thread;
        # block elimination keeps every call at one layer's block
        grid = random_connected_grid(np.random.default_rng(sum(shape)), 0.2, 0.1,
                                     lattice_config(shape))
        shapes = []
        for name in ("cholesky", "inv", "pinv", "eigh", "eigvalsh", "solve", "lstsq",
                     "svd", "qr", "det", "eig"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        bottom = float64_build(grid)[0][-1]
        matrix = level_matrix(bottom)
        keep = bottom.diag.ravel() > 0
        assert np.linalg.matrix_rank(matrix[np.ix_(keep, keep)]) == np.count_nonzero(keep)
        assert shapes and max(max(s) for s in shapes) <= _BOTTOM_SIZE

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 6), (2, 2, 5), (3, 2, 4)])
    def test_lattice_of_at_most_bottom_size_cells_per_layer(self, shape):
        # level 0 is the bottom, so the V-cycle is the exact inverse
        n_x, n_y, n_z = shape
        rng = np.random.default_rng(sum(shape))
        config = make_config(L_x=5e-5 * n_x, L_y=5e-5 * n_y, L_z=5e-5 * n_z,
                             n_x=n_x, n_y=n_y, n_z=n_z, inlet_window=((1, 1), (1, 1)),
                             outlet_window=((n_x, n_x), (n_y, n_y)))
        for _ in range(3):
            grid = build_grid(config)
            shrink_radii(grid, rng, 0.3, 1.0)
            assert not preconditioner(grid)[0].coarse
            A, rhs, active = active_system(grid, 0.0, -2.0)
            want = np.zeros(active.shape)
            want[active] = np.linalg.solve(A, rhs)
            field = solve_pressures(grid, 0.0, -2.0, sweep="cg")
            assert field.iterations <= 2
            err = np.max(np.abs(np.where(active, field.pressure - want, 0.0)))
            assert err <= 1e-6 * 2.0

    def test_pressures_do_not_depend_on_the_scale_of_mu(self):
        # mu times 2^k scales every conductance, residual and tol by 2^-k
        # exactly; the hierarchy's power-of-two scale undoes it before the
        # float32 cast, so the cycle neither underflows nor overflows
        grid = random_connected_grid(np.random.default_rng(30), 0.3, 0.3,
                                     scenario_config())
        want = solve_pressures(grid, 0.0, -2.0)
        assert want.iterations > 0
        mu = grid.mu
        for k in (-100, -60, 60, 100, 120):
            grid.mu = mu * 2.0 ** k
            got = solve_pressures(grid, 0.0, -2.0)
            assert got.pressure.tobytes() == want.pressure.tobytes(), k
            assert got.iterations == want.iterations, k

    def test_hierarchy_builds_are_pinned(self, monkeypatch):
        assert hierarchy_builds_digest(monkeypatch) == HIERARCHY_BUILDS_SHA256

    def test_non_positive_curvature_reports_where_it_stopped(self, monkeypatch):
        monkeypatch.setattr(Hierarchy, "__call__", lambda self: np.zeros_like(self.finest.x))
        with pytest.raises(ConvergenceError, match="broke down at iteration 1: curvature") \
                as err:
            solve_pressures(scenario_grid(), 0.0, -10.0, sweep="cg")
        assert "after" not in str(err.value)


class TestHierarchyReuse:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_reused_levels_stay_symmetric_positive(self, shape):
        rng = np.random.default_rng(11 * sum(shape))
        grid = holed_grid(rng, shape)
        hierarchy = Hierarchy()
        preconditioner(grid, hierarchy)
        kept = hierarchy.coarse
        shrink_radii(grid, rng, 0.80, 0.99)
        precondition, active = preconditioner(grid, hierarchy)
        assert precondition is hierarchy
        assert hierarchy.coarse is kept and hierarchy.reuses == 1
        # level 0 is the operator of the shrunken radii; a fresh build may
        # pick another scale, and dividing by it is exact
        fresh = preconditioner(grid)[0]

        def unscaled(cycle, k):
            level = cycle_levels(cycle)[k]
            return (level.window / cycle.scale).tobytes() \
                + (level.smooth * cycle.scale).tobytes()

        assert unscaled(precondition, 0) == unscaled(fresh, 0)
        assert unscaled(precondition, 1) != unscaled(fresh, 1)
        assert_symmetric_positive(precondition, active, rng)

    def test_rebuilt_after_the_reuse_limit_and_on_new_active_cells(self):
        rng = np.random.default_rng(23)
        grid = guess_grid(n=8)
        hierarchy = Hierarchy()
        solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        kept = hierarchy.coarse
        assert kept and hierarchy.reuses == 0
        for k in range(_REUSE_LIMIT):
            shrink_radii(grid, rng, 0.97, 0.99)
            field = solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
            assert field.iterations > 0
            assert hierarchy.coarse is kept and hierarchy.reuses == k + 1
        A, rhs, active = active_system(grid, 0.0, -2.0)
        want = np.zeros(active.shape)
        want[active] = np.linalg.lstsq(A, rhs, rcond=None)[0]
        connected = window_connected(grid)
        err = np.max(np.abs(np.where(connected & active, field.pressure - want, 0.0)))
        assert err <= 1e-6 * 2.0
        solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        assert hierarchy.coarse is not kept and hierarchy.reuses == 0
        kept = hierarchy.coarse
        solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        assert hierarchy.coarse is kept and hierarchy.reuses == 1
        # wall off an active cell: the active cells change
        cells = np.argwhere(active & connected)
        cell = tuple(int(i) for i in cells[len(cells) // 2])
        wall_off(grid, cell, tuple(i + 1 for i in cell), inner_open=False)
        check_connected(grid)
        solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        assert hierarchy.coarse is not kept and hierarchy.reuses == 0
        assert not np.array_equal(hierarchy.active, active)

    def test_held_hierarchy_keeps_one_set_of_buffers(self):
        # every solve rewrites the same lattice-sized arrays, converged or
        # not, and a solve without a held hierarchy keeps nothing
        rng = np.random.default_rng(29)
        grid = guess_grid(n=8)
        hierarchy = Hierarchy()
        field = solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        assert field.iterations > 1
        kept, coarse = hierarchy_buffers(hierarchy), hierarchy.coarse
        assert len({a.__array_interface__["data"][0] for a in kept.values()}) == len(kept)
        cells = grid.n_x * grid.n_y * grid.n_z
        assert sum(a.nbytes for a in kept.values()) == (7 * 8 + 11 * 4) * cells \
            + hierarchy.finest.half.nbytes
        assert all(level.window.size < cells for level in coarse)
        with pytest.raises(ConvergenceError, match="after 1 iterations"):
            solve_pressures(grid, 0.0, -2.0, max_iter=1, hierarchy=hierarchy)
        assert hierarchy.coarse is coarse and hierarchy.reuses == 1
        again = solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        assert again.pressure.tobytes() == field.pressure.tobytes()
        shrink_radii(grid, rng, 0.9, 0.99)
        solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        assert hierarchy.reuses == 3
        assert all(a is kept[name] for name, a in hierarchy_buffers(hierarchy).items())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            field = solve_pressures(grid, 0.0, -2.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        owned = field.pressure.nbytes + sum(g.nbytes for g in field.conductances)
        assert owned <= held <= owned + 4096

    @pytest.mark.parametrize("shape", [(8, 8, 6), (7, 7, 7)])
    def test_kept_system_equals_a_fresh_build(self, shape):
        # the system rewritten in place matches one built anew, bit for bit,
        # after each kind of change between solves; its coarse levels may
        # be older, and its finest level carries their scale
        rng = np.random.default_rng(sum(shape))
        held = Hierarchy()

        def check(grid):
            solve_pressures(grid, 0.0, -2.0, hierarchy=held)
            fresh = Hierarchy()
            solve_pressures(grid, 0.0, -2.0, hierarchy=fresh)
            assert system_state(held) == system_state(fresh)

        grid = random_connected_grid(rng, 0.1, 0.05, dataclasses.replace(
            lattice_config(shape), aperture_multiplicity=3))
        check(grid)
        shrink_radii(grid, rng, 0.9, 0.99)     # radii only
        check(grid)
        open_ = np.argwhere(grid.x_state == ApertureState.OPEN)
        grid.x_state[tuple(open_[len(open_) // 2])] = ApertureState.SEDIMENT_SEALED
        check(grid)
        open_ = np.argwhere(grid.z_open_count == 3)
        grid.z_open_count[tuple(open_[len(open_) // 2])] = 2    # a capture, still open
        check(grid)
        with pytest.raises(ConvergenceError):
            solve_pressures(grid, 0.0, -2.0, max_iter=1, hierarchy=held)
        shrink_radii(grid, rng, 0.9, 0.99)
        check(grid)
        # dead ends to peel, behind an irregular inlet window
        peeled = dead_end_grid(rng, shape[0] - 1)
        for _ in range(50):
            peeled.inlet_mask[...] = rng.random(peeled.inlet_mask.shape) < 0.5
            if bfs_connected(peeled):
                break
        else:
            raise AssertionError("could not draw a connected inlet mask")
        check(peeled)
        assert held.peeled is not None
        check(grid)

    def test_solve_without_hierarchy_builds_its_own(self, monkeypatch):
        builds = []
        build = hydraulics._coarse_levels

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(hydraulics, "_coarse_levels", counting)
        grid = guess_grid(n=8)
        first = solve_pressures(grid, 0.0, -2.0)
        second = solve_pressures(grid, 0.0, -2.0)
        assert len(builds) == 2
        assert second.pressure.tobytes() == first.pressure.tobytes()
        hierarchy = Hierarchy()
        for _ in range(2):
            held = solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
            assert held.pressure.tobytes() == first.pressure.tobytes()
        assert len(builds) == 3


def count_checks(monkeypatch) -> list:
    """Record every ``check_connected`` call that a solve makes."""
    calls = []
    check = hydraulics.check_connected

    def counting(grid):
        calls.append(grid)
        check(grid)

    monkeypatch.setattr(hydraulics, "check_connected", counting)
    return calls


class TestConnectivityCheckRule:
    def test_held_hierarchy_checks_only_after_a_topology_change(self, monkeypatch):
        rng = np.random.default_rng(31)
        grid = random_connected_grid(rng, 0.1, 0.05, dataclasses.replace(
            lattice_config((6, 6, 5)), aperture_multiplicity=3))
        calls = count_checks(monkeypatch)
        hierarchy = Hierarchy()

        def solve():
            solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
            return len(calls)

        assert solve() == 1    # the first solve
        assert solve() == 1    # nothing changed
        shrink_radii(grid, rng, 0.9, 0.99)
        assert solve() == 1    # radii only
        open_ = np.argwhere(grid.z_open_count == 3)
        grid.z_open_count[tuple(open_[len(open_) // 2])] = 2    # a capture, still open
        assert solve() == 1
        for facet in np.argwhere(grid.x_state == ApertureState.OPEN):
            grid.x_state[tuple(facet)] = ApertureState.SEDIMENT_SEALED    # a closure
            if bfs_connected(grid):
                break
            grid.x_state[tuple(facet)] = ApertureState.OPEN
        assert solve() == 2
        assert solve() == 2
        grid.z_state[:, :, 1] = ApertureState.PARTICLE_BLOCKED    # a membrane closes
        grid.z_open_count[:, :, 1] = 0
        kept = system_state(hierarchy)
        for checks in (3, 4):    # the check runs again after a failed one
            with pytest.raises(DegenerateNetworkError):
                solve()
            assert len(calls) == checks
            assert system_state(hierarchy) == kept    # it ran before any write

    def test_solve_without_hierarchy_always_checks(self, monkeypatch):
        grid = guess_grid()
        calls = count_checks(monkeypatch)
        for k in (1, 2):
            solve_pressures(grid, 0.0, -2.0)
            assert len(calls) == k


class TestConductancesOncePerSolve:
    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    def test_every_sweep_records_its_conductances(self, sweep):
        grid = guess_grid(n=5)
        field = solve_pressures(grid, 0.0, -2.0, sweep=sweep)
        for got, want in zip(field.conductances, conductance_arrays(grid)):
            assert got.tobytes() == want.tobytes()

    def test_flows_and_totals_match_the_whole_lattice_formulas(self):
        rng = np.random.default_rng(11)
        for shape in [(4, 4, 4), (6, 5, 7), (3, 8, 2), (20, 20, 20)]:
            grid = random_connected_grid(rng, 0.2, 0.2, lattice_config(shape, window=False))
            field = solve_pressures(grid, 0.0, -2.0)
            p = field.pressure
            old = FlowField(*(ga * (p[lo] - p[hi])
                              for ga, (lo, hi) in zip(conductance_arrays(grid), _SIDES)))
            fresh = flows_from_pressures(grid, field)
            for got, want in zip((fresh.flow_x, fresh.flow_y, fresh.flow_z),
                                 (old.flow_x, old.flow_y, old.flow_z)):
                assert got.tobytes() == want.tobytes()
            # random flows too: no conservation to hide a term
            flows = FlowField(*(rng.standard_normal(f.shape)
                                for f in (old.flow_x, old.flow_y, old.flow_z)))
            for f in (old, flows):
                net = np.zeros(shape)   # the whole-lattice formula
                for flow, (lo, hi) in zip((f.flow_x, f.flow_y, f.flow_z), _SIDES):
                    net[lo] += flow
                    net[hi] -= flow
                assert cell_net_outflow(f, *shape).tobytes() == net.tobytes()
                assert total_flow(grid, f) == float(np.sum(net[:, :, 0][grid.inlet_mask]))
                assert outlet_flow(grid, f) == \
                    float(-np.sum(net[:, :, -1][grid.outlet_mask]))

    def test_flows_stay_the_solves_after_a_grid_edit(self):
        # apertures closed after the solve still carry the flow the solve
        # gave them: the flows come from the conductances the solve used
        grid = guess_grid(n=5)
        field = solve_pressures(grid, 0.0, -2.0)
        before = flows_from_pressures(grid, field)
        grid.x_state[...] = ApertureState.SEDIMENT_SEALED
        grid.z_radius *= 0.5
        after = flows_from_pressures(grid, field)
        assert np.count_nonzero(after.flow_x) > 0
        for got, want in zip((after.flow_x, after.flow_y, after.flow_z),
                             (before.flow_x, before.flow_y, before.flow_z)):
            assert got.tobytes() == want.tobytes()

    def test_a_field_outlives_the_next_solve_of_its_hierarchy(self):
        # a field owns its pressures and conductances: the held hierarchy's
        # next solve, on a changed grid, rewrites none of them
        rng = np.random.default_rng(13)
        grid = guess_grid(n=6)
        hierarchy = Hierarchy()
        field = solve_pressures(grid, 0.0, -2.0, hierarchy=hierarchy)
        arrays = [field.pressure, *field.conductances]
        before = [a.tobytes() for a in arrays]
        flows = flows_from_pressures(grid, field)
        shrink_radii(grid, rng, 0.5, 0.9)
        open_ = np.argwhere(grid.y_state == ApertureState.OPEN)
        grid.y_state[tuple(open_[0])] = ApertureState.SEDIMENT_SEALED
        later = solve_pressures(grid, 0.0, -2.0, initial=field.pressure, hierarchy=hierarchy)
        assert later.iterations > 0
        assert [a.tobytes() for a in arrays] == before
        for kept in (*hierarchy_buffers(hierarchy).values(), *later.conductances,
                     later.pressure):
            assert not any(np.shares_memory(a, kept) for a in arrays)
        again = flows_from_pressures(grid, field)
        for got, want in zip((again.flow_x, again.flow_y, again.flow_z),
                             (flows.flow_x, flows.flow_y, flows.flow_z)):
            assert got.tobytes() == want.tobytes()


def reference_peel(grid) -> tuple[np.ndarray, dict[int, set[int]]]:
    """Rounds of plain repeated leaf removal over the facets of positive
    conductance: each round removes every linked non-window cell with at
    most one linked neighbour left (both cells of a pair linked only to each
    other go in the same round); 0 for a cell that stays or has no link.
    Also each flat cell index's linked neighbours."""
    shape = (grid.n_x, grid.n_y, grid.n_z)
    idx = np.arange(math.prod(shape)).reshape(shape)
    near = {c: set() for c in range(idx.size)}
    for ga, (lo, hi) in zip(conductance_arrays(grid), _SIDES):
        for a, b, g in zip(idx[lo].ravel(), idx[hi].ravel(), ga.ravel()):
            if g > 0:
                near[a].add(b)
                near[b].add(a)
    fixed = set(idx[:, :, 0][grid.inlet_mask]) | set(idx[:, :, -1][grid.outlet_mask])
    alive = {c for c in near if near[c]}
    rounds = np.zeros(idx.size, dtype=int)
    r = 0
    while True:
        leaves = {c for c in alive - fixed if len(near[c] & alive) <= 1}
        if not leaves:
            return rounds.reshape(shape), near
        r += 1
        rounds[list(leaves)] = r
        alive -= leaves


def dead_end_grid(rng, n):
    """A connected n^3 closure pattern with inner windows, many closed side
    facets and so many dead-end branches."""
    for _ in range(50):
        grid = random_connected_grid(rng, rng.uniform(0.2, 0.4), rng.uniform(0.3, 0.5),
                                     lattice_config((n, n, n)))
        if np.any(reference_peel(grid)[0]):
            return grid
    raise AssertionError("could not draw a pattern with a dead end")


# captured again when every operator product took the flux form: the first
# and the second-to-last solve took one iteration fewer
CLOSURE_SWEEP_ITERATIONS = [17, 16, 18, 20, 20, 20, 21, 23, 23, 26, 25, 28, 28, 30, 31, 35,
                            38, 42, 45, 59, 71, 66, 65, 88, 74, 65, 49]


def close_in_rounds(grid, seed: int):
    """Yield ``grid`` after each round of random closures, changed in place:
    each round seals 5% of the still open facets of every family."""
    rng = np.random.default_rng(seed)
    states = (grid.z_state, grid.x_state, grid.y_state)
    orders = [rng.permutation(state.size) for state in states]
    done = [0, 0, 0]
    while True:
        for f, (state, order) in enumerate(zip(states, orders)):
            k = math.ceil(0.05 * (order.size - done[f]))
            np.put(state, order[done[f]:done[f] + k], ApertureState.SEDIMENT_SEALED)
            done[f] += k
        yield grid


def closures(seed: int, n: int):
    """``close_in_rounds`` on an n^3 lattice with scenario 1's apertures and
    inner windows."""
    window = ((n // 3, n - n // 3), (n // 3, n - n // 3))
    grid = build_grid(make_config(L_x=5e-5 * n, L_y=5e-5 * n, L_z=5e-5 * n,
                                  n_x=n, n_y=n, n_z=n, r_filter=1.19e-5, r_side=2.5e-5,
                                  inlet_window=window, outlet_window=window))
    return close_in_rounds(grid, seed)


def closure_solves(seed: int, n: int = 16):
    """The grid and the field of each CG solve of ``closures(seed, n)``,
    each warm-started from the last, until the network disconnects."""
    pressure = None
    for grid in closures(seed, n):
        try:
            field = solve_pressures(grid, 0.0, -2.0, initial=pressure)
        except DegenerateNetworkError:
            return
        pressure = field.pressure
        yield grid, field


def closure_sweep(seed: int, n: int = 16) -> list[int]:
    """CG iterations of each solve of ``closure_solves``."""
    return [field.iterations for _, field in closure_solves(seed, n)]


# captured when every operator product took the flux form; before, when CG
# moved to float32 with float64 reliable updates, and until then, from the
# solver as it was before the dead-end peel existed
SLAB_SOLVES_SHA256 = "ac855ac490351ed6655e162fdbed7a2e8f25aa76c649b2beb83af97d99027002"


def slab_solves_digest() -> str:
    """SHA-256 of the pressures, iterations and residuals of CG solves (cold,
    then warm after a closure) and a lexicographic solve on lattices whose
    side facets are all open, with closed and partly blocked z facets and
    shrunken apertures."""
    rng = np.random.default_rng(20261019)
    digest = hashlib.sha256()
    for shape in [(8, 8, 8), (5, 6, 4)]:
        grid = build_grid(lattice_config(shape))
        closed = rng.random(grid.z_state.shape) < 0.3
        grid.z_state[closed] = ApertureState.PARTICLE_BLOCKED
        grid.z_open_count[closed] = 0
        grid.z_open_count -= rng.integers(0, 2, grid.z_open_count.shape) \
            * (grid.z_open_count > 1)
        shrink_radii(grid, rng, 0.5, 1.0)
        check_connected(grid)
        cold = solve_pressures(grid, 0.0, -2.0)
        grid.x_radius *= 0.97
        grid.z_state[2, 2, 1] = ApertureState.PARTICLE_BLOCKED
        warm = solve_pressures(grid, 0.0, -2.0, initial=cold.pressure)
        ref = solve_pressures(grid, 0.0, -2.0, sweep="lexicographic")
        for field in (cold, warm, ref):
            digest.update(field.pressure.tobytes())
            digest.update(repr((field.iterations, field.residual)).encode())
    return digest.hexdigest()


# captured when every operator product took the flux form; before, when CG
# moved to float32 with float64 reliable updates, and until then, from the
# solver as it was while CG's step was masked to the active cells
CLOSURE_SOLVES_SHA256 = "c6d17a67ff7161de6ea87fae1e989c0a95ff8c31d93fa231621bdbd5f00deb8c"


def window_cells(grid) -> np.ndarray:
    """The inlet and outlet window cells of ``grid``, as a lattice mask."""
    fixed = np.zeros((grid.n_x, grid.n_y, grid.n_z), dtype=bool)
    fixed[:, :, 0] = grid.inlet_mask
    fixed[:, :, -1] |= grid.outlet_mask
    return fixed


def network_kinds(grid) -> set[str]:
    """Which kinds of cells the solve of ``grid`` meets besides the window
    connected ones: "peeled" dead-end trees, "floating" clusters kept in
    the system with no path to a window, "walled-off" cells with no link."""
    g = conductance_arrays(grid)
    fixed = window_cells(grid)
    linked = _degree(_stencil(g), np.empty(fixed.shape)) > 0
    peeled = hydraulics._peel(g, fixed)
    kinds = set()
    kept = linked
    if peeled is not None:
        rounds, _ = peeled
        kept = linked & (rounds == 0)
        kinds.add("peeled")
    if np.any(kept & ~window_connected(grid)):
        kinds.add("floating")
    if np.any(~fixed & ~linked):
        kinds.add("walled-off")
    return kinds


def closure_solves_digest() -> tuple[str, set[str]]:
    """SHA-256 of the pressures, iterations and residuals of the CG closure
    sweeps of a 12^3 and a 16^3 lattice, and the ``network_kinds`` their
    solves met."""
    digest = hashlib.sha256()
    kinds = set()
    for seed, n in [(11, 12), (12, 16)]:
        for grid, field in closure_solves(seed, n):
            digest.update(field.pressure.tobytes())
            digest.update(repr((field.iterations, field.residual)).encode())
            kinds |= network_kinds(grid)
    return digest.hexdigest(), kinds


class TestDeadEndPeel:
    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10])
    def test_dense_solve_agrees_and_dead_ends_carry_no_flow(self, n, sweep):
        rng = np.random.default_rng(100 * n + len(sweep))
        p_in, p_out = 0.0, -2.0
        for _ in range(2):
            grid = dead_end_grid(rng, n)
            rounds, _ = reference_peel(grid)
            A, rhs, active = active_system(grid, p_in, p_out)
            want = np.zeros(active.shape)
            want[active] = np.linalg.lstsq(A, rhs, rcond=None)[0]
            field = solve_pressures(grid, p_in, p_out, sweep=sweep)
            p = field.pressure
            connected = window_connected(grid) & active
            assert np.max(np.abs(np.where(connected, p - want, 0.0))) <= 1e-6 * abs(p_out - p_in)
            # every facet into a dead end carries exactly no flow
            flows = flows_from_pressures(grid, field)
            dead_ends = 0
            for flow, ga, (lo, hi) in zip((flows.flow_x, flows.flow_y, flows.flow_z),
                                          conductance_arrays(grid), _SIDES):
                dead = (ga > 0) & ((rounds[lo] > 0) | (rounds[hi] > 0))
                assert np.all(flow[dead] == 0.0)
                dead_ends += np.count_nonzero(dead)
            assert dead_ends > 0

    @pytest.mark.parametrize("n", [5, 8, 10])
    def test_removed_cell_holds_its_attachment_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            grid = dead_end_grid(rng, n)
            rounds, near = reference_peel(grid)
            flat_r = rounds.reshape(-1)
            p = solve_pressures(grid, 0.0, -2.0).pressure.reshape(-1)
            attached = 0
            for c in np.flatnonzero(flat_r):
                held = [m for m in near[c] if flat_r[m] == 0 or flat_r[m] > flat_r[c]]
                pair = [m for m in near[c] if flat_r[m] == flat_r[c]]
                assert len(held) + len(pair) <= 1
                for m in held + pair:
                    assert p[c].tobytes() == p[m].tobytes(), (c, m)
                attached += len(held)
            assert attached > 0

    def test_removed_cell_keeps_one_bit_toward_a_later_cell(self):
        # ``_peel``'s final link masks hold, for each removed cell, one bit
        # at most: its link toward the one neighbour kept or removed in a
        # later round, which ``_back_fill`` copies from; no linked
        # neighbour goes in the same round (a pair's lower cell waits)
        def check(grid) -> int:
            """The number of removed cells that keep a bit."""
            peeled = hydraulics._peel(conductance_arrays(grid), window_cells(grid))
            if peeled is None:
                return 0
            flat_r, flat_l = (a.reshape(-1) for a in peeled)
            n_y, n_z = grid.n_y, grid.n_z
            steps = [n_y * n_z, -n_y * n_z, n_z, -n_z, 1, -1]
            near = reference_peel(grid)[1]
            held = 0
            for c in np.flatnonzero(flat_r):
                ends = [c + step for d, step in enumerate(steps) if flat_l[c] >> d & 1]
                later = [m for m in near[c] if flat_r[m] == 0 or flat_r[m] > flat_r[c]]
                assert len(ends) <= 1 and ends == later, (c, ends, later)
                assert all(flat_r[m] != flat_r[c] for m in near[c]), c
                held += len(ends)
            return held

        rng = np.random.default_rng(31)
        assert all(check(dead_end_grid(rng, n)) > 0 for n in [4, 5, 6, 8, 10] for _ in range(2))
        held = 0
        for grid in closures(5, 12):
            try:
                check_connected(grid)
            except DegenerateNetworkError:
                break
            held += check(grid)
        assert held > 0

    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    def test_walled_off_cell_and_floating_trees_keep_initial(self, sweep):
        # an isolated cell has no equation; a floating path of three cells
        # and a floating pair are trees that hang from no kept cell, and
        # take the start value of the cell peeled last (the path's middle
        # cell; of the pair, the cell of lower flat index)
        rng = np.random.default_rng(23)
        for _ in range(50):
            grid = random_connected_grid(rng, 0.15, 0.1, lattice_config((6, 6, 6)))
            wall_off(grid, (1, 1, 2), (2, 2, 3), inner_open=False)
            wall_off(grid, (4, 1, 1), (5, 2, 4))
            wall_off(grid, (1, 4, 2), (3, 5, 3))
            try:
                check_connected(grid)
            except DegenerateNetworkError:
                continue
            break
        initial = rng.uniform(-2.0, 0.0, (6, 6, 6))
        p = solve_pressures(grid, 0.0, -2.0, sweep=sweep, initial=initial).pressure
        assert p[1, 1, 2] == initial[1, 1, 2]
        assert np.all(p[4, 1, 1:4] == initial[4, 1, 2])
        assert np.all(p[1:3, 4, 2] == initial[1, 4, 2])

    def test_all_side_facets_open_skips_the_peel(self, monkeypatch):
        # the solves of the solver before the peel existed, byte for byte
        def no_peel(*args):
            raise AssertionError("peeled a lattice whose side facets are all open")

        monkeypatch.setattr(hydraulics, "_peel", no_peel)
        assert slab_solves_digest() == SLAB_SOLVES_SHA256

    def test_closure_sweep_iterations(self):
        # the full system took 1,781 iterations on this sweep, 135 on its
        # last solve, before the dead ends were peeled off: now 1,043 and 49
        assert closure_sweep(5) == CLOSURE_SWEEP_ITERATIONS


# tracemalloc peak of the solve in ``test_network_solve_peak_memory``
# while CG's step was masked to the active cells
NETWORK_SOLVE_PEAK_BYTES = 5_031_604


class TestUnmaskedStep:
    def test_closure_solves_bit_for_bit(self):
        # CG's search direction is zero off the active cells, so its step
        # is a plain add: no bit of a solve moved, and the sweeps meet every
        # kind of cell without an equation
        digest, kinds = closure_solves_digest()
        assert kinds == {"peeled", "floating", "walled-off"}
        assert digest == CLOSURE_SOLVES_SHA256

    def test_network_solve_peak_memory(self):
        # one solve of the network-degrade benchmark (32^3, closure seed 7,
        # round 24) holds at most 0.1 MB more than the masked step did
        n, length = 32, 32 * 5e-5
        config = dataclasses.replace(
            parse_config(CONFIG_DIR / "scenario1.cfg"), n_x=n, n_y=n, n_z=n,
            L_x=length, L_y=length, L_z=length,
            inlet_window=((11, 22), (11, 22)), outlet_window=((11, 22), (11, 22)))
        grid = build_grid(config)
        for _ in zip(range(24), close_in_rounds(grid, 7)):
            pass
        p_out = config.p_grad * config.L_z
        solve_pressures(grid, 0.0, p_out)    # first-use allocations out of the count
        tracemalloc.start()
        try:
            solve_pressures(grid, 0.0, p_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= NETWORK_SOLVE_PEAK_BYTES + 100_000


def diagonal_apply(v, stencil, diag, out):
    """The operator in diagonal form: ``diag * v`` minus the
    conductance-weighted neighbour sums of ``v``."""
    flat_v, flat_out = v.reshape(-1), out.reshape(-1)
    np.multiply(diag.reshape(-1), flat_v, out=flat_out)
    for s, up, t, _ in stencil:
        np.multiply(up, flat_v[s:], out=t)
        flat_out[:-s] -= t
        np.multiply(up, flat_v[:-s], out=t)
        flat_out[s:] -= t
    return out


class TestFloat32CG:
    def test_flux_form_product_keeps_float32_accuracy(self):
        # on a near-constant vector the net flows are tiny against each
        # cell's diagonal times its value: the flux form rounds each flux
        # on its own, a float32 diagonal loses the sum it should cancel
        grid = random_connected_grid(np.random.default_rng(40), 0.3, 0.3,
                                     scenario_config())
        stencil, den, window, active = restricted_system(grid)
        cycle = Hierarchy()
        cycle.refresh(stencil, den, window)
        finest, scale = cycle.finest, cycle.scale
        x, y, z = np.indices(active.shape) / 20.0
        v = np.where(active, -1.0 + 1e-4 * np.sin(3 * x + 2 * y) * np.cos(4 * z), 0.0)
        v32 = v.astype(np.float32)
        want = scale * diagonal_apply(v32.astype(float), stencil, den, np.empty(v.shape))
        # per cell: |w v| plus each facet's |g dv|, in the scaled units
        size = scale * window * np.abs(v32)
        flat_v, flat_size = v32.reshape(-1).astype(float), size.reshape(-1)
        for s, up, _, _ in stencil:
            flux = scale * up * np.abs(flat_v[:-s] - flat_v[s:])
            flat_size[:-s] += flux
            flat_size[s:] += flux
        # the float64 product's own rounding, about 2^-29 of the float32 one
        rounding = 16 * np.finfo(float).eps * scale * den * np.abs(v32)

        def within(got):
            return np.all(np.abs(got - want) <= 8 * 2.0 ** -24 * size + rounding)

        assert within(_flux_apply(v32, finest.stencil, finest.window,
                                  np.empty(v.shape, np.float32)))
        diag = (den * scale).astype(np.float32)
        assert not within(diagonal_apply(v32, finest.stencil, diag,
                                         np.empty(v.shape, np.float32)))

    def test_residual_is_the_net_flow_of_the_returned_field(self):
        # reliable updates: every solve returns the float64 net flow of the
        # pressures it returns, within tol; so does the Gauss-Seidel sweep
        def check(grid, p_in, p_out, field, tol):
            net, den, _ = start_net_flow(grid, p_in, p_out, field.pressure)
            rounding = 16 * np.finfo(float).eps * np.max(den * np.abs(field.pressure))
            assert field.residual == pytest.approx(np.max(np.abs(net)), rel=0.0, abs=rounding)
            assert field.residual <= tol

        solves = 0
        for seed, n in [(11, 12), (12, 16)]:
            for grid, field in closure_solves(seed, n):
                check(grid, 0.0, -2.0, field, 1e-6 * reference_cell_flow(grid, 0.0, -2.0))
                solves += 1
        grid = scenario_grid()
        rng = np.random.default_rng(41)
        tol = 1e-6 * reference_cell_flow(grid, 0.0, -10.0)
        hierarchy, pressure = Hierarchy(), None
        for _ in range(20):
            field = solve_pressures(grid, 0.0, -10.0, initial=pressure, hierarchy=hierarchy)
            assert field.iterations > 0
            check(grid, 0.0, -10.0, field, tol)
            pressure = field.pressure
            shrink_radii(grid, rng, 0.95, 1.0)
            solves += 1
        for grid in (guess_grid(n=5), dead_end_grid(rng, 5)):
            field = solve_pressures(grid, 0.0, -2.0, sweep="lexicographic")
            assert field.iterations > 0
            check(grid, 0.0, -2.0, field, 1e-6 * reference_cell_flow(grid, 0.0, -2.0))
            solves += 1
        assert solves > 40
