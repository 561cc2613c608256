"""Pressure network of the cell lattice and its relaxation solver.

Each open aperture behaves as a conduit whose volumetric flow is

    F = -0.8 p' S^2 s / (P^2 mu),

with p' the pressure gradient between the two cell centres, S and P the
area and perimeter of the cell cross-section perpendicular to the aperture
axis, and s the aperture area.  Flow through a blocked or sealed aperture
is exactly zero.  Inlet and outlet window cells hold prescribed pressures;
every other cell balances its aperture flows to zero, which yields a linear
system.  Three interchangeable solvers honour the same residual bound:
preconditioned conjugate gradient (production), red-black successive
over-relaxation (omega = 1 is a plain Gauss-Seidel sweep), and a
lexicographic Gauss-Seidel reference loop.

Cells whose apertures are all closed have no equation; their pressure is
left untouched and carries no flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _FACET_FAMILIES, ApertureState, CellGrid

# facet families in axis order: every sum over axes runs x, y, z
_AXIS_FAMILIES = sorted(_FACET_FAMILIES, key=lambda fam: fam.axis)
# per axis, the slices selecting the lower and the upper cell of every facet
_SIDES = tuple(
    tuple(tuple(side if a == axis else slice(None) for a in range(3))
          for side in (slice(None, -1), slice(1, None)))
    for axis in range(3))


class DegenerateNetworkError(RuntimeError):
    """No open aperture path connects the inlet window to the outlet window."""


class ConvergenceError(RuntimeError):
    """Relaxation failed to reach the residual tolerance within max_iter sweeps."""


@dataclass
class PressureField:
    pressure: np.ndarray   # (n_x, n_y, n_z), Pa
    residual: float        # max |net cell flow| over inner cells, m^3/s
    iterations: int        # full sweeps performed


@dataclass
class FlowField:
    """Signed aperture flows, positive toward +axis."""
    flow_x: np.ndarray     # (n_x - 1, n_y, n_z), m^3/s
    flow_y: np.ndarray     # (n_x, n_y - 1, n_z), m^3/s
    flow_z: np.ndarray     # (n_x, n_y, n_z - 1), m^3/s


def aperture_flow(p_a: float, p_b: float, center_dist: float, section_area: float,
                  section_perimeter: float, aperture_area: float, mu: float) -> float:
    """Flow from cell a to cell b through one aperture, m^3/s (signed)."""
    if not center_dist > 0:
        raise ValueError(f"center_dist must be positive (m), got {center_dist!r}")
    if not mu > 0:
        raise ValueError(f"mu must be positive (Pa s), got {mu!r}")
    gradient = (p_b - p_a) / center_dist
    return -0.8 * gradient * section_area ** 2 * aperture_area / (section_perimeter ** 2 * mu)


def conductance_arrays(grid: CellGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-facet conductance g [m^3/(s Pa)] so that F = g (p_a - p_b).

    Closed facets get zero.  Filtering facets multiply the single-aperture
    area by the number of sub-apertures still open.
    """
    h = (grid.h_x, grid.h_y, grid.h_z)
    out = []
    for fam in _AXIS_FAMILIES:
        section_a, section_b = (h[a] for a in range(3) if a != fam.axis)
        area = section_a * section_b
        perim = 2.0 * (section_a + section_b)
        coeff = 0.8 * area ** 2 / (perim ** 2 * grid.mu * h[fam.axis])
        _, radius, state, open_count = fam.arrays(grid)
        g = np.where(state == ApertureState.OPEN, coeff * math.pi * radius ** 2, 0.0)
        if fam.filtering:
            g *= open_count
        out.append(g)
    return tuple(out)


def reference_cell_flow(grid: CellGrid, p_in: float, p_out: float) -> float:
    """Clean-filter flow through one cell column's aperture at the mean radius.

    Used to scale the default solver tolerance and the flow-stop threshold.
    """
    mean_r2 = float(np.mean(grid.z_radius0 ** 2))
    length = grid.h_z * grid.n_z
    gradient = abs(p_out - p_in) / length
    area = grid.h_x * grid.h_y
    perim = 2.0 * (grid.h_x + grid.h_y)
    return 0.8 * gradient * area ** 2 * math.pi * mean_r2 / (perim ** 2 * grid.mu)


def check_connected(grid: CellGrid) -> None:
    """Raise DegenerateNetworkError unless an open path joins inlet to outlet."""
    masks = [fam.open_mask(grid) for fam in _AXIS_FAMILIES]
    reached = np.zeros((grid.n_x, grid.n_y, grid.n_z), dtype=bool)
    reached[:, :, 0] = grid.inlet_mask
    while True:
        nxt = reached.copy()
        for open_, (lo, hi) in zip(masks, _SIDES):
            nxt[hi] |= reached[lo] & open_
            nxt[lo] |= reached[hi] & open_
        if np.array_equal(nxt, reached):
            break
        reached = nxt
    if not np.any(reached[:, :, -1] & grid.outlet_mask):
        raise DegenerateNetworkError(
            "no open aperture path connects the inlet window to the outlet window")


def _stencil(g):
    """Flat conductances for ``_neighbor_sums``: per axis (x, y, z) its
    stride in the flat cell array, the conductance from each flat index to
    the one a stride up (zero off the lattice) and a shared scratch view.
    """
    shape = (g[0].shape[0] + 1,) + g[0].shape[1:]
    strides = (shape[1] * shape[2], shape[2], 1)
    scratch = np.empty(math.prod(shape))
    terms = []
    for ga, s, (lo, _) in zip(g, strides, _SIDES):
        full = np.zeros(shape)
        full[lo] = ga
        up = full.reshape(-1)[:-s]
        terms.append((s, up, scratch[:up.size]))
    return tuple(terms)


def _neighbor_sums(p, stencil, out):
    """Sum of conductance-weighted neighbor pressures into ``out``.

    ``p`` and ``out`` are C-contiguous; on their flat views every operation
    is contiguous and allocation free.  Each cell adds its terms in the
    order x up, x down, y up, y down, z up, z down; the extra terms at
    lattice edges are exact zeros.
    """
    flat_p, flat_out = p.reshape(-1), out.reshape(-1)
    flat_out.fill(0.0)
    for s, up, t in stencil:
        np.multiply(up, flat_p[s:], out=t)
        flat_out[:-s] += t
        np.multiply(up, flat_p[:-s], out=t)
        flat_out[s:] += t
    return out


def _residual(p, stencil, den, active, work):
    """Max-norm net flow of field ``p`` over the active cells, m^3/s."""
    if not np.any(active):
        return 0.0
    s = _neighbor_sums(p, stencil, work)
    return float(np.max(np.abs(np.where(active, s - den * p, 0.0))))


def _start_field(values, name: str, shape) -> np.ndarray:
    p = np.array(values, dtype=float, copy=True)
    if p.shape != shape:
        raise ValueError(f"{name} pressure shape {p.shape} != {shape}")
    return p


def default_relaxation(grid: CellGrid) -> float:
    """Near-optimal over-relaxation factor for this lattice size.

    Most boundaries are no-flux (only the window cells hold pressures), so
    the slowest mode spans twice the lattice; hence 2n in the usual formula.
    """
    n = max(grid.n_x, grid.n_y, grid.n_z)
    return 2.0 / (1.0 + math.sin(math.pi / (2 * n)))


def solve_pressures(grid: CellGrid, p_in: float, p_out: float,
                    tol: float | None = None, max_iter: int = 100_000, *,
                    initial: np.ndarray | None = None,
                    guess: np.ndarray | None = None,
                    relaxation: float | None = None,
                    sweep: str = "cg",
                    check_connectivity: bool = True) -> PressureField:
    """Relax the cell pressures until every inner cell conserves flow.

    ``tol`` is an absolute bound on the per-cell net flow [m^3/s]; default is
    1e-6 times the clean-filter reference cell flow.  ``initial`` warm-starts
    the iteration (a linear ramp otherwise).  ``guess`` is a second candidate
    start, such as a field extrapolated from earlier solves: it replaces
    ``initial`` on the active cells only when its max-norm net-flow residual
    is strictly smaller, and never on window or isolated cells.  ``sweep``
    selects "cg" (conjugate gradient; fastest, the default and the
    FilterConfig default), "redblack" (over-relaxation with factor
    ``relaxation``, vectorised) or "lexicographic" (reference ordering, small
    grids).  All three converge to the same field and honour the same
    residual bound.
    """
    if check_connectivity:
        check_connected(grid)
    if tol is None:
        tol = 1e-6 * reference_cell_flow(grid, p_in, p_out)
    if not tol > 0:
        raise ValueError(f"tol must be positive (m^3/s), got {tol!r}")
    if relaxation is not None and not 0 < relaxation < 2:
        raise ValueError(f"relaxation must lie in (0, 2), got {relaxation!r}")

    n_x, n_y, n_z = grid.n_x, grid.n_y, grid.n_z
    g = conductance_arrays(grid)

    if initial is not None:
        p = _start_field(initial, "initial", (n_x, n_y, n_z))
    else:
        ramp = np.linspace(p_in, p_out, n_z)
        p = np.broadcast_to(ramp, (n_x, n_y, n_z)).copy()

    fixed = np.zeros((n_x, n_y, n_z), dtype=bool)
    fixed[:, :, 0] |= grid.inlet_mask
    fixed[:, :, -1] |= grid.outlet_mask
    p[:, :, 0][grid.inlet_mask] = p_in
    p[:, :, -1][grid.outlet_mask] = p_out

    stencil = _stencil(g)
    den = _neighbor_sums(np.ones_like(p), stencil, np.empty_like(p))
    active = ~fixed & (den > 0)
    safe_den = np.where(den > 0, den, 1.0)

    work = np.empty_like(p)
    if guess is not None:
        trial = np.where(active, _start_field(guess, "guess", p.shape), p)
        if _residual(trial, stencil, den, active, work) \
                < _residual(p, stencil, den, active, work):
            p = trial

    if sweep == "lexicographic":
        return _solve_lexicographic(p, stencil, den, active, tol, max_iter)
    if sweep == "cg":
        return _solve_cg(p, g, stencil, den, active, fixed, tol, max_iter)
    if sweep != "redblack":
        raise ValueError(
            f"sweep must be 'redblack', 'lexicographic' or 'cg', got {sweep!r}")

    omega = default_relaxation(grid) if relaxation is None else float(relaxation)
    parity = sum(np.indices((n_x, n_y, n_z), sparse=True)) % 2 == 0
    red = active & parity
    black = active & ~parity

    check_every = 4
    for it in range(1, max_iter + 1):
        for color in (red, black):
            s = _neighbor_sums(p, stencil, work)
            p = np.where(color, (1.0 - omega) * p + omega * s / safe_den, p)
        if it % check_every == 0 or it == max_iter:
            residual = _residual(p, stencil, den, active, work)
            if residual <= tol:
                return PressureField(p, residual, it)
    raise ConvergenceError(
        f"pressure relaxation stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} sweeps")


def _layer_coarse_matrix(g, den, active):
    """Project the pressure system onto per-layer constants.

    Returns (E, keep): the coarse operator over layers that hold active
    cells, used as the second level of the CG preconditioner.  Couplings to
    fixed or isolated cells stay on the diagonal and keep E positive
    definite.
    """
    act = active.astype(float)
    den_act = (den * act).sum(axis=(0, 1))
    gx_intra, gy_intra, gz_cross = ((ga * act[lo] * act[hi]).sum(axis=(0, 1))
                                    for ga, (lo, hi) in zip(g, _SIDES))
    diag = den_act - 2.0 * (gx_intra + gy_intra)
    keep = np.flatnonzero(den_act > 0)
    if keep.size == 0:
        return None, keep
    n_z = den_act.size
    full = np.zeros((n_z, n_z))
    full[np.arange(n_z), np.arange(n_z)] = diag
    k = np.arange(n_z - 1)
    full[k, k + 1] = -gz_cross
    full[k + 1, k] = -gz_cross
    return full[np.ix_(keep, keep)], keep


def _solve_cg(p, g, stencil, den, active, fixed, tol, max_iter):
    """Preconditioned conjugate gradient on the pressure system.

    The preconditioner combines the inverse diagonal with a coarse solve
    over per-layer constants, which removes the slowly converging smooth
    modes of the mostly no-flux network.  The residual vector CG carries is
    exactly the per-cell net flow, so the stopping rule is the same
    max-norm bound the relaxation sweeps use.  Floating regions (no path to
    a window) have balanced all-zero equations; a warm start from any
    converged field leaves them untouched.
    """
    work = np.empty_like(p)
    act_f = active.astype(float)
    idle = np.flatnonzero(~active)
    n_layers = den.shape[2]
    safe_den = np.where(den > 0, den, 1.0)
    x = np.where(active, p, 0.0)
    p_fixed = np.where(fixed, p, 0.0)
    b = np.where(active, _neighbor_sums(p_fixed, stencil, work), 0.0)

    def apply(v, out):
        _neighbor_sums(v, stencil, work)
        np.multiply(den, v, out=out)
        out -= work
        out *= act_f
        return out

    coarse, keep = _layer_coarse_matrix(g, den, active)
    coarse_inv = None
    if coarse is not None:
        try:
            np.linalg.cholesky(coarse)   # positive definiteness test
            coarse_inv = np.linalg.inv(coarse)
        except np.linalg.LinAlgError:
            coarse_inv = None            # odd topology; diagonal level only

    def precondition(r, out):
        # r is +0.0 off the active cells, so is r / safe_den; resetting them
        # after the coarse correction equals adding it masked
        np.divide(r, safe_den, out=out)
        if coarse_inv is not None:
            r_layer = r.sum(axis=(0, 1))[keep]
            c = np.zeros(n_layers)
            c[keep] = coarse_inv @ r_layer
            out += c
            out.reshape(-1)[idle] = 0.0
        return out

    def max_abs(v):
        return float(max(v.max(), -v.min()))

    q = np.empty_like(p)
    z = np.empty_like(p)
    tmp = np.empty_like(p)
    r = b - apply(x, tmp)
    residual = max_abs(r)
    if residual <= tol or not np.any(active):
        return PressureField(np.where(active, x, p), residual, 0)
    precondition(r, z)
    rho = float(np.dot(r.ravel(), z.ravel()))
    d = z.copy()
    for it in range(1, max_iter + 1):
        apply(d, q)
        dq = float(np.dot(d.ravel(), q.ravel()))
        if not dq > 0:
            break
        alpha = rho / dq
        np.multiply(d, alpha, out=tmp)
        x += tmp
        np.multiply(q, alpha, out=tmp)
        r -= tmp
        residual = max_abs(r)
        if residual <= tol:
            return PressureField(np.where(active, x, p), residual, it)
        precondition(r, z)
        rho_new = float(np.dot(r.ravel(), z.ravel()))
        d *= rho_new / rho
        d += z
        rho = rho_new
    raise ConvergenceError(
        f"pressure conjugate gradient stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} iterations")


def _solve_lexicographic(p, stencil, den, active, tol, max_iter):
    """Plain Gauss-Seidel in index order.  Reference path for small grids."""
    flat_p, flat_den = p.reshape(-1), den.reshape(-1)
    work = np.empty_like(p)
    for it in range(1, max_iter + 1):
        for c in np.flatnonzero(active):
            acc = 0.0
            for stride, up, _ in stencil:    # lower, then upper neighbour per axis
                if c >= stride:
                    acc += up[c - stride] * flat_p[c - stride]
                if c < up.size:
                    acc += up[c] * flat_p[c + stride]
            flat_p[c] = acc / flat_den[c]
        residual = _residual(p, stencil, den, active, work)
        if residual <= tol:
            return PressureField(p, residual, it)
    raise ConvergenceError(
        f"pressure relaxation stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} sweeps")


def flows_from_pressures(grid: CellGrid, field: PressureField) -> FlowField:
    """Signed per-aperture flows from a converged pressure field."""
    p = field.pressure
    return FlowField(*(ga * (p[lo] - p[hi])
                       for ga, (lo, hi) in zip(conductance_arrays(grid), _SIDES)))


def cell_net_outflow(flows: FlowField, n_x: int, n_y: int, n_z: int) -> np.ndarray:
    """Net signed outflow of every cell, m^3/s (zero for converged inner cells)."""
    net = np.zeros((n_x, n_y, n_z))
    for flow, (lo, hi) in zip((flows.flow_x, flows.flow_y, flows.flow_z), _SIDES):
        net[lo] += flow
        net[hi] -= flow
    return net


def total_flow(grid: CellGrid, flows: FlowField) -> float:
    """Total flow entering the filter through the inlet window, m^3/s."""
    net = cell_net_outflow(flows, grid.n_x, grid.n_y, grid.n_z)
    return float(np.sum(net[:, :, 0][grid.inlet_mask]))


def outlet_flow(grid: CellGrid, flows: FlowField) -> float:
    """Total flow leaving through the outlet window, m^3/s."""
    net = cell_net_outflow(flows, grid.n_x, grid.n_y, grid.n_z)
    return float(-np.sum(net[:, :, -1][grid.outlet_mask]))


def pressure_csv(grid: CellGrid, field: PressureField) -> str:
    """Cell pressures as CSV text with 1-based indices."""
    lines = ["x,y,z,pressure_pa"]
    p = field.pressure
    for i, j, k in np.ndindex(p.shape):
        lines.append(f"{i + 1},{j + 1},{k + 1},{float(p[i, j, k])!r}")
    return "\n".join(lines) + "\n"
