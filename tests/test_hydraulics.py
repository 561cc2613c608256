from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from clogsim import hydraulics
from clogsim.hydraulics import (_BOTTOM_SIZE, _REUSE_LIMIT, _SIDES, ConvergenceError,
                                DegenerateNetworkError, FlowField, Hierarchy, _apply,
                                _bottom_inverse, _coarse_levels, _flows, _neighbor_sums,
                                _Operator, _restrict_to_active, _stencil, _VCycle,
                                aperture_flow, check_connected, conductance_arrays,
                                flows_from_pressures, outlet_flow,
                                pressure_csv, reference_cell_flow, solve_pressures,
                                total_flow)
from clogsim.model import _FACET_FAMILIES, ApertureState, FilterConfig, build_grid

from conftest import DATA_DIR, cell_net_outflow

# the float32 multigrid cycle must neither overflow nor produce NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


class TestApertureFlow:
    def test_frozen_sample_value(self):
        # one scenario cell: 5e-5 cube, 1.19e-5 aperture, 0.5 Pa step
        flow = aperture_flow(0.0, -0.5, 5e-5, 2.5e-9, 2e-4, math.pi * 1.19e-5 ** 2, 1e-3)
        assert flow == pytest.approx(SAMPLE_APERTURE_FLOW, rel=1e-12)

    def test_sign_follows_pressure_drop(self):
        args = (5e-5, 2.5e-9, 2e-4, math.pi * 1e-10, 1e-3)
        assert aperture_flow(1.0, 0.0, *args) > 0
        assert aperture_flow(0.0, 1.0, *args) < 0
        assert aperture_flow(1.0, 1.0, *args) == 0.0

    def test_linear_in_drop_and_area(self):
        args = (5e-5, 2.5e-9, 2e-4)
        base = aperture_flow(1.0, 0.0, *args, 1e-10, 1e-3)
        assert aperture_flow(2.0, 0.0, *args, 1e-10, 1e-3) == pytest.approx(2 * base)
        assert aperture_flow(1.0, 0.0, *args, 3e-10, 1e-3) == pytest.approx(3 * base)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="center_dist"):
            aperture_flow(1.0, 0.0, 0.0, 1e-9, 1e-4, 1e-10, 1e-3)
        with pytest.raises(ValueError, match="mu"):
            aperture_flow(1.0, 0.0, 1e-5, 1e-9, 1e-4, 1e-10, 0.0)

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
        flow = aperture_flow(1.0, 0.0, h, area, perim, math.pi * 1e-5 ** 2, 1e-3)
        assert gz[1, 2, 1] == pytest.approx(flow, rel=1e-12)

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
    def facet_sweep(p, g):
        """Reference: per-axis sweep over the 3-D facet arrays, x then y then z."""
        out = np.zeros_like(p)
        for axis, ga in enumerate(g):
            lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
            hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
            out[lo] += ga * p[hi]
            out[hi] += ga * p[lo]
        return out

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 5, 4), (6, 2, 3), (20, 20, 20)])
    def test_flat_kernel_matches_facet_sweep_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        g = []
        for axis in range(3):
            facets = tuple(n - 1 if a == axis else n for a, n in enumerate(shape))
            g.append(np.where(rng.random(facets) < 0.3, 0.0, rng.random(facets)))
        stencil = _stencil(tuple(g))
        for _ in range(3):
            p = rng.standard_normal(shape)
            got = _neighbor_sums(p, stencil, np.empty_like(p))
            assert got.tobytes() == self.facet_sweep(p, g).tobytes()


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

    def test_bad_initial_shape(self):
        grid = build_grid(make_config())
        with pytest.raises(ValueError, match="initial"):
            solve_pressures(grid, 0.0, -2.0, initial=np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("sweep", ["cg", "lexicographic"])
    def test_iteration_budget_enforced(self, sweep):
        grid = scenario_grid()
        with pytest.raises(ConvergenceError):
            solve_pressures(grid, 0.0, -10.0, max_iter=1, sweep=sweep,
                            tol=1e-12 * SAMPLE_APERTURE_FLOW)

    def test_degenerate_clean_cut(self):
        grid = build_grid(make_config())
        grid.z_state[:, :, 1] = ApertureState.SEDIMENT_SEALED
        grid.z_open_count[:, :, 1] = 0
        with pytest.raises(DegenerateNetworkError):
            check_connected(grid)


def bfs_connected(grid) -> bool:
    """Reference for ``check_connected``: a breadth-first search over the
    cells, stepping through a facet when its state is open (and, for a
    z-facet, a sub-aperture is left)."""
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

    @pytest.mark.parametrize("window", ["inlet_mask", "outlet_mask"])
    def test_empty_window_raises(self, window):
        grid = build_grid(make_config())
        getattr(grid, window)[:] = False
        with pytest.raises(DegenerateNetworkError):
            check_connected(grid)


class TestCsv:
    def test_pressure_csv_layout(self):
        grid = build_grid(make_config(n_x=2, n_y=2, n_z=2, L_x=1e-4, L_y=1e-4,
                                      L_z=1e-4, r_filter=1e-5, r_side=2e-5))
        field = solve_pressures(grid, 0.0, -1.0)
        text = pressure_csv(grid, field)
        lines = text.strip().splitlines()
        assert lines[0] == "x,y,z,pressure_pa"
        assert len(lines) == 1 + 8
        first = lines[1].split(",")
        assert first[:3] == ["1", "1", "1"]
        assert float(first[3]) == pytest.approx(0.0, abs=1e-12)


# Pressure bytes and iteration counts of the solves below (arrays
# ``<name>_pressure`` and ``<name>_iterations``); a solve without a guess
# must reproduce them exactly.  The CG entries were captured with the
# float32 multigrid preconditioner (``_VCycle``) whose bottom level, at
# most ``_BOTTOM_SIZE`` unknowns per layer, is inverted in float64 by block
# elimination over the layers.  The lexicographic entries are
# byte for byte those of the first capture, made before the solver's start
# selection (``guess``) existed.
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
            for _, radius, _, _ in (fam.arrays(grid) for fam in _FACET_FAMILIES):
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
    """Net flow of every cell of ``p`` with the windows pinned, zero on the
    cells without an equation; its max norm ranks the solver's starts (CG
    sums the same net flow as its own residual vector)."""
    stencil = _stencil(conductance_arrays(grid))
    den = _neighbor_sums(np.ones(p.shape), stencil, np.empty(p.shape))
    fixed = np.zeros(p.shape, dtype=bool)
    fixed[:, :, 0] = grid.inlet_mask
    fixed[:, :, -1] = grid.outlet_mask
    pinned = p.copy()
    pinned[:, :, 0][grid.inlet_mask] = p_in
    pinned[:, :, -1][grid.outlet_mask] = p_out
    net = _neighbor_sums(pinned, stencil, np.empty(p.shape)) - den * pinned
    active = ~fixed & (den > 0)
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
    masks = [fam.open_mask(grid) for fam in sorted(_FACET_FAMILIES, key=lambda f: f.axis)]
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
    g = conductance_arrays(grid)
    stencil = _stencil(g)
    shape = (grid.n_x, grid.n_y, grid.n_z)
    den = _neighbor_sums(np.ones(shape), stencil, np.empty(shape))
    fixed = np.zeros(shape, dtype=bool)
    fixed[:, :, 0] = grid.inlet_mask
    fixed[:, :, -1] |= grid.outlet_mask
    active = ~fixed & (den > 0)
    window = _restrict_to_active(stencil, den, active, fixed, np.empty(shape))
    return stencil, den, window, active


def preconditioner(grid, hierarchy=None):
    """The CG preconditioner of ``grid``'s pressure system (the float32
    V-cycle), built the way the solver builds it, with the active mask."""
    stencil, den, window, active = restricted_system(grid)
    return _VCycle(stencil, den, window, hierarchy), active


def float64_build(grid):
    """The float64 build of ``grid``'s hierarchy, before its cast to
    float32: the operators of levels 0 and up and the bottom inverse."""
    stencil, den, window, _ = restricted_system(grid)
    finest = _Operator(stencil, den)
    levels = [finest, *_coarse_levels(finest, window)]
    return levels, _bottom_inverse(levels[-1])


def assert_symmetric_positive(precondition, active, rng):
    """u.Mv = v.Mu on random active vectors, to float32 rounding, and u.Mu > 0."""
    for _ in range(5):
        u, v = (np.where(active, rng.standard_normal(active.shape), 0.0)
                for _ in range(2))
        mu, mv = (precondition(w, np.empty(w.shape)) for w in (u, v))
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
        out[:, c] = _apply(unit, level.stencil, level.diag, column).ravel()
        unit.flat[c] = 0.0
    return out


def shrink_radii(grid, rng, low, high) -> None:
    """Shrink every aperture by a random factor in [low, high); the active
    cells stay the same."""
    for fam in _FACET_FAMILIES:
        radius = fam.arrays(grid)[1]
        radius *= rng.uniform(low, high, radius.shape)


SHAPES = [(4, 4, 4), (5, 5, 5), (6, 6, 6), (7, 5, 6), (8, 8, 8)]


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
    def test_isolated_or_floating_aggregate_has_zero_row(self, floating):
        grid = holed_grid(np.random.default_rng(3), (6, 6, 6), floating)
        level = float64_build(grid)[0][1]
        row = np.ravel_multi_index((1, 1, 2), level.diag.shape)
        matrix = level_matrix(level)
        assert level.diag[1, 1, 2] == 0.0
        assert np.all(matrix[row] == 0.0) and np.all(matrix[:, row] == 0.0)
        precondition, active = preconditioner(grid)
        r = np.where(active, np.random.default_rng(4).standard_normal(active.shape), 0.0)
        assert np.all(np.isfinite(precondition(r, np.empty(r.shape))))

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
        bottom = precondition.levels[-1]
        r = np.where(active, np.random.default_rng(4).standard_normal(active.shape), 0.0)
        precondition(r, np.empty(r.shape))
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
            assert len(preconditioner(grid)[0].levels) == 1
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

    def test_non_positive_curvature_reports_where_it_stopped(self, monkeypatch):
        class Zero:
            def __init__(self, *args):
                pass

            def __call__(self, r, out):
                out.fill(0.0)
                return out

        monkeypatch.setattr(hydraulics, "_VCycle", Zero)
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
        assert hierarchy.coarse is kept and hierarchy.reuses == 1
        assert precondition.levels[1:] == kept
        # level 0 is the operator of the shrunken radii; a fresh build may
        # pick another scale, and dividing by it is exact
        fresh = preconditioner(grid)[0]

        def unscaled(cycle, k):
            return (cycle.levels[k].diag / cycle.scale).tobytes()

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
            for fresh in (flows_from_pressures(grid, field), _flows(field.conductances, p)):
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

    def test_flows_follow_the_grid_passed_in(self):
        # apertures closed after the solve carry no flow, whatever the
        # field recorded
        grid = guess_grid(n=5)
        field = solve_pressures(grid, 0.0, -2.0)
        grid.x_state[...] = ApertureState.SEDIMENT_SEALED
        flows = flows_from_pressures(grid, field)
        assert np.count_nonzero(field.conductances[0]) > 0
        assert not np.any(flows.flow_x)
