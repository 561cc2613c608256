"""Pressure network of the cell lattice and its iterative solver.

Each open aperture behaves as a conduit whose volumetric flow is

    F = -0.8 p' S^2 s / (P^2 mu),

with p' the pressure gradient between the two cell centres, S and P the
area and perimeter of the cell cross-section perpendicular to the aperture
axis, and s the aperture area.  Flow through a blocked or sealed aperture
is exactly zero.  Inlet and outlet window cells hold prescribed pressures;
every other cell balances its aperture flows to zero, which yields a linear
system.  Two solvers honour the same residual bound: conjugate gradient
preconditioned by a multigrid V-cycle over in-layer aggregates
(production), and a lexicographic Gauss-Seidel loop, the scalar reference
for small grids.

CG and its V-cycle run in float32, on the system scaled by a power of two;
CG folds its correction into the float64 pressures, and recomputes their
float64 residual, each time its own residual has fallen a hundredfold
(reliable updates), and stops on that float64 residual.  The multigrid
levels and the bottom level's inverse are built in float64 and cast once
per build.

Cells whose apertures are all closed have no equation; their pressure is
left untouched and carries no flow.

A dead-end branch carries no flow: a cell with one open facet must hold
the pressure of the neighbour across it.  Before the solve, the dead-end
trees are peeled off in rounds over the whole lattice, each round taking
every leaf at once, and their facets dropped from the system.  Each
removed cell keeps one bit of its link mask, the one toward the cell it
hung from; after the solve, it copies that cell's pressure, in reverse
order of removal.  The kept cells solve the same equations as in the full
system, so the residual bound holds on every cell, and each dead-end facet
carries exactly zero flow.  Near the point where closures disconnect the
network, most open cells lie on such branches.  With every side facet
open, no cell can be a leaf, and the peel is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """The pressure solve failed to reach the residual tolerance: it ran out
    of its max_iter iterations or sweeps, or conjugate gradient stalled or
    broke down (a direction of non-positive curvature)."""


@dataclass
class PressureField:
    pressure: np.ndarray   # (n_x, n_y, n_z), Pa
    residual: float        # max |net cell flow| over inner cells, m^3/s
    iterations: int        # CG iterations or Gauss-Seidel sweeps performed
    # the per-facet conductances the solve used (``conductance_arrays``);
    # the engine builds its step's flows from them
    conductances: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass
class FlowField:
    """Signed aperture flows, positive toward +axis."""
    flow_x: np.ndarray     # (n_x - 1, n_y, n_z), m^3/s
    flow_y: np.ndarray     # (n_x, n_y - 1, n_z), m^3/s
    flow_z: np.ndarray     # (n_x, n_y, n_z - 1), m^3/s


def _conduit_coefficient(section_area, section_perimeter, mu, length):
    """0.8 S^2 / (P^2 mu L): a conduit's flow per unit aperture area and
    unit pressure drop over the length L between two cell centres."""
    return 0.8 * section_area ** 2 / (section_perimeter ** 2 * mu * length)


def aperture_flow(p_a: float, p_b: float, center_dist: float, section_area: float,
                  section_perimeter: float, aperture_area: float, mu: float) -> float:
    """Flow from cell a to cell b through one aperture, m^3/s (signed)."""
    if not center_dist > 0:
        raise ValueError(f"center_dist must be positive (m), got {center_dist!r}")
    if not mu > 0:
        raise ValueError(f"mu must be positive (Pa s), got {mu!r}")
    coeff = _conduit_coefficient(section_area, section_perimeter, mu, center_dist)
    return coeff * aperture_area * (p_a - p_b)


def conductance_arrays(grid: CellGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-facet conductance g [m^3/(s Pa)] so that F = g (p_a - p_b).

    Closed facets get zero.  Filtering facets multiply the single-aperture
    area by the number of sub-apertures still open.
    """
    h = (grid.h_x, grid.h_y, grid.h_z)
    out = []
    for fam in _AXIS_FAMILIES:
        section_a, section_b = (h[a] for a in range(3) if a != fam.axis)
        coeff = _conduit_coefficient(section_a * section_b, 2.0 * (section_a + section_b),
                                     grid.mu, h[fam.axis])
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
    coeff = _conduit_coefficient(grid.h_x * grid.h_y, 2.0 * (grid.h_x + grid.h_y), grid.mu,
                                 grid.h_z * grid.n_z)
    return coeff * math.pi * mean_r2 * abs(p_out - p_in)


def check_connected(grid: CellGrid) -> None:
    """Raise DegenerateNetworkError unless an open path joins inlet to outlet.

    While every side facet is open, each layer is one connected slab, so
    with both windows non-empty the network splits only at a membrane with
    no open facet left; that is tested directly.  Otherwise a flood fill
    from the inlet window decides.  It grows the reached cells in place,
    each axis in turn seeing what the ones before it reached, and stops as
    soon as it reaches an outlet window cell, or, with the network split,
    at the first pass that reaches no new cell.
    """
    masks = [fam.open_mask(grid) for fam in _AXIS_FAMILIES]
    *sides, z_open = masks
    if all(m.all() for m in sides) and grid.inlet_mask.any() and grid.outlet_mask.any():
        connected = z_open.any(axis=(0, 1)).all()
    else:
        reached = np.zeros((grid.n_x, grid.n_y, grid.n_z), dtype=bool)
        reached[:, :, 0] = grid.inlet_mask
        steps = [np.empty(m.shape, dtype=bool) for m in masks]
        count = -1
        while True:
            connected = np.any(reached[:, :, -1] & grid.outlet_mask)
            before, count = count, np.count_nonzero(reached)
            if connected or count == before:
                break
            for open_, (lo, hi), step in zip(masks, _SIDES, steps):
                reached[hi] |= np.logical_and(reached[lo], open_, out=step)
                reached[lo] |= np.logical_and(reached[hi], open_, out=step)
    if not connected:
        raise DegenerateNetworkError(
            "no open aperture path connects the inlet window to the outlet window")


# bit d of a cell's link mask: the facet toward its neighbour at flat offset
# ``_steps(shape)[d]`` (x up, x down, y up, y down, z up, z down) conducts;
# each down bit is its axis's up bit shifted left by one
_BITS = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint8)


def _steps(shape) -> np.ndarray:
    """Flat-index offsets to a cell's neighbours, in ``_BITS`` order."""
    n_y, n_z = shape[1:]
    return np.array([n_y * n_z, -n_y * n_z, n_z, -n_z, 1, -1])


def _links(g) -> np.ndarray:
    """Per cell of the flat lattice, the ``_BITS`` of its facets whose
    conductance in the facet arrays ``g`` is positive."""
    shape = (g[0].shape[0] + 1,) + g[0].shape[1:]
    links = np.zeros(shape, dtype=np.uint8)
    for ga, (lo, hi), (up, down) in zip(g, _SIDES, _BITS.reshape(3, 2)):
        conducts = ga > 0
        links[lo] |= conducts * up
        links[hi] |= conducts * down
    return links.reshape(-1)


def _peel(g, fixed):
    """The dead-end trees of the network with facet conductances ``g``: per
    cell, the round in which peeling removed it (0 for a cell that stays),
    and the link masks left at the end; None if nothing is removed.

    Each round removes every linked cell outside the ``fixed`` window cells
    that has at most one link bit left, as in burning off the dangling ends
    of a percolation cluster, and clears the bits that point back at the
    removed cells from their neighbours.  Two leaves linked only to each
    other (the last pair of a tree that hangs from no kept cell) would each
    be the other's attachment, so the one of lower flat index waits a round
    and goes with no bit left.  So each removed cell keeps exactly the bit
    of its attachment, a cell kept or removed in a later round, or none.
    Cells that start with no link have no equation and are left out.  The
    rounds take the smallest unsigned dtype that holds their count.
    """
    links = _links(g)
    alive = (links != 0) & ~fixed.reshape(-1)
    rounds = np.zeros(links.size, dtype=np.uint8)
    axes = list(zip(_steps(fixed.shape)[::2], _BITS[::2]))
    r = 0
    while True:
        leaf = alive & (links & (links - 1) == 0)
        bits = links * leaf
        for s, up in axes:
            # the lower cell of a pair linked only to each other waits
            held = bits[:-s] & (bits[s:] >> 1) & up
            bits[:-s] ^= held
            leaf[:-s] &= held == 0
        if not leaf.any():
            break
        r += 1
        if r > np.iinfo(rounds.dtype).max:
            rounds = rounds.astype(np.min_scalar_type(r))
        np.copyto(rounds, r, where=leaf)
        alive &= ~leaf
        for s, up in axes:
            links[s:] &= ~((bits[:-s] & up) << 1)
            links[:-s] &= ~((bits[s:] >> 1) & up)
    return (rounds.reshape(fixed.shape), links.reshape(fixed.shape)) if r else None


def _cut(stencil, rounds) -> None:
    """Zero, in place, every facet of ``stencil`` that touches a removed cell."""
    stays = rounds.reshape(-1) == 0
    for s, up, _, _ in stencil:
        up *= stays[:-s]
        up *= stays[s:]


def _back_fill(p, rounds, links) -> None:
    """Give every removed cell of ``p`` the pressure of its attachment, in
    place: the cell across the one bit that ``_peel`` left in its link mask.

    Rounds run in reverse, so an attachment removed later already holds its
    value.  A cell removed with no bit left keeps its own value.
    """
    flat_p, flat_r = p.reshape(-1), rounds.reshape(-1)
    step_of = np.zeros(2 * _BITS[-1], dtype=np.intp)
    step_of[_BITS] = _steps(p.shape)
    source = step_of[links.reshape(-1)] + np.arange(flat_r.size)
    for r in range(int(flat_r.max()), 0, -1):
        cells = np.flatnonzero(flat_r == r)
        flat_p[cells] = flat_p[source[cells]]


def _stencil(g, dtype=np.float64):
    """Flat conductances for ``_neighbor_sums``: per axis (x, y, z) its
    stride in the flat cell array, the conductance from each flat index to
    the one a stride up (zero off the lattice), a shared scratch view, and
    the facet conductances as a 3-D view of the same memory, all of
    ``dtype``.
    """
    shape = (g[0].shape[0] + 1,) + g[0].shape[1:]
    strides = (shape[1] * shape[2], shape[2], 1)
    scratch = np.empty(math.prod(shape), dtype)
    terms = []
    for ga, s, (lo, _) in zip(g, strides, _SIDES):
        full = np.zeros(shape, dtype)
        full[lo] = ga
        up = full.reshape(-1)[:-s]
        terms.append((s, up, scratch[:up.size], full[lo]))
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
    for s, up, t, _ in stencil:
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
    if not np.isfinite(p).all():
        raise ValueError(f"{name} pressure has non-finite values")
    return p


def solve_pressures(grid: CellGrid, p_in: float, p_out: float,
                    tol: float | None = None, max_iter: int = 100_000, *,
                    initial: np.ndarray | None = None,
                    guess: np.ndarray | None = None,
                    sweep: str = "cg",
                    check_connectivity: bool = True,
                    hierarchy: Hierarchy | None = None) -> PressureField:
    """Solve for the cell pressures at which every inner cell conserves flow.

    ``tol`` is an absolute bound on the per-cell net flow [m^3/s]; default is
    1e-6 times the clean-filter reference cell flow.  ``initial`` warm-starts
    the iteration (a linear ramp otherwise).  ``guess`` is a second candidate
    start, such as a field extrapolated from earlier solves: it replaces
    ``initial`` on the active cells only when its max-norm net-flow residual
    is strictly smaller, and never on window or isolated cells.  Both
    starts must be finite everywhere (ValueError otherwise).  CG ranks the
    two starts by the residual vector it iterates on: the inflow from
    the window cells, computed once since both starts pin the same window
    values, minus the operator applied to each start; the chosen start's
    vector is CG's first residual, so no solve recomputes it.  The
    Gauss-Seidel reference ranks them by its own residual.  ``sweep``
    selects "cg" (preconditioned conjugate gradient; the default and the
    FilterConfig default) or "lexicographic" (scalar Gauss-Seidel in index
    order, the reference for small grids).  Both converge to the same field
    and honour the same residual bound.  ``check_connectivity=False`` skips
    ``check_connected`` for a caller that knows the topology is unchanged.

    CG's multigrid preconditioner solves its bottom level (at most
    ``_BOTTOM_SIZE`` unknowns per layer) exactly, by block elimination over
    the layers.  ``hierarchy`` (a ``Hierarchy``, held by the caller across
    a sequence of solves on one lattice) lets the solve reuse coarse levels
    that an earlier solve built; without it, every solve builds its own.
    Reuse changes the iterations CG needs, never the residual bound.  CG
    and the preconditioner run in float32, scaled by a power of two so that
    the result does not depend on the units of ``grid.mu``; the reliable
    updates and the stopping rule run in float64.  The float32 copy of the
    finest level and its buffers add nine and a half lattice-sized float32
    arrays to a solve, CG's search direction and correction two more, and
    the mask of its active cells a bool one.

    Unless the lattice is at least two cells wide both ways with every side
    facet of positive conductance (then each layer is one slab, as in
    ``check_connected``'s shortcut), the solve first peels the dead-end
    trees off the network (``_peel``) and zeroes their facets on its own
    stencil, so both sweeps solve the kept cells alone; after the solve,
    each removed cell copies the pressure of its attachment, the neighbour
    still in the system when it was removed (``_back_fill``).  Every
    dead-end facet then carries exactly zero flow, and the reported
    residual is the full system's.  A tree that hangs from no kept cell
    takes the value its last removed cell had in the start, as an isolated
    cell keeps its own.  On a 32^3 lattice closed towards percolation (the
    ``network-degrade`` benchmark, seed 7) the peel cuts CG's mean
    iterations per solve from 92.2 to 58.9.
    ``PressureField.conductances`` stays the full ``conductance_arrays``.
    """
    if check_connectivity:
        check_connected(grid)
    if tol is None:
        tol = 1e-6 * reference_cell_flow(grid, p_in, p_out)
    if not tol > 0:
        raise ValueError(f"tol must be positive (m^3/s), got {tol!r}")
    if sweep not in ("cg", "lexicographic"):
        raise ValueError(f"sweep must be 'cg' or 'lexicographic', got {sweep!r}")

    n_x, n_y, n_z = grid.n_x, grid.n_y, grid.n_z
    g = conductance_arrays(grid)
    # with two or more cells a side and every side facet conducting, every
    # cell has two linked in-layer neighbours: no dead end can exist
    slab = n_x >= 2 and n_y >= 2 and g[0].all() and g[1].all()

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
    peeled = None if slab else _peel(g, fixed)
    if peeled is not None:
        _cut(stencil, peeled[0])
    den = _neighbor_sums(np.ones_like(p), stencil, np.empty_like(p))
    active = ~fixed & (den > 0)

    work = np.empty_like(p)
    trial = None
    if guess is not None:
        trial = np.where(active, _start_field(guess, "guess", p.shape), p)

    if sweep == "lexicographic":
        if trial is not None and _residual(trial, stencil, den, active, work) \
                < _residual(p, stencil, den, active, work):
            p = trial
        field = _solve_lexicographic(p, g, stencil, den, active, tol, max_iter)
    else:
        field = _solve_cg(p, trial, g, stencil, den, active, fixed, work, tol, max_iter,
                          hierarchy)
    if peeled is not None:
        _back_fill(field.pressure, *peeled)
    return field


# damped Jacobi weight of the multigrid smoother
_SMOOTHING = 2.0 / 3.0
# coarsening stops at the first level with at most this many unknowns per
# layer, which is solved exactly
_BOTTOM_SIZE = 9
# solves a Hierarchy's coarse levels serve after the one that built them
_REUSE_LIMIT = 20
# CG's float32 residual is folded into the float64 solution and residual
# each time its max norm has fallen by this factor
_RELIABLE = 1e-2
# a bottom block eigenvalue under this, relative to the block's diagonal,
# counts as zero: rounding reaches about 1e-15, the contrasts between this
# model's conductances put a real one above 1e-8
_SINGULAR = 1e-12


def _pair_sums(a, axis, out=None):
    """Sums over the index pairs (0, 1), (2, 3), ... along ``axis``; an odd
    last index stays alone."""
    n = a.shape[axis]
    pre = (slice(None),) * axis
    if out is None:
        out = np.empty(a.shape[:axis] + ((n + 1) // 2,) + a.shape[axis + 1:])
    np.add(a[pre + (slice(0, n - 1, 2),)], a[pre + (slice(1, n, 2),)],
           out=out[pre + (slice(0, n // 2),)])
    if n % 2:
        out[pre + (-1,)] = a[pre + (-1,)]
    return out


def _aggregate(a):
    """Sums over the 2x2 in-layer aggregates of a cell array."""
    return _pair_sums(_pair_sums(a, 0), 1)


def _spread_add(coarse, fine):
    """Add to every cell of ``fine`` the value of its in-layer aggregate in
    ``coarse`` (the transpose of summing ``_pair_sums`` over x, then y)."""
    ex, ey = fine.shape[0] // 2, fine.shape[1] // 2
    n_z = fine.shape[2]
    # splitting an axis of a basic slice gives a view, so the adds land in fine
    parts = [(fine[:2 * ex, :2 * ey].reshape((ex, 2, ey, 2, n_z)),
              coarse[:ex, None, :ey, None])]
    if fine.shape[0] % 2:
        parts.append((fine[-1, :2 * ey].reshape((ey, 2, n_z)),
                      coarse[-1, :ey, None]))
    if fine.shape[1] % 2:
        parts.append((fine[:2 * ex, -1].reshape((ex, 2, n_z)),
                      coarse[:ex, None, -1]))
        if fine.shape[0] % 2:
            parts.append((fine[-1, -1], coarse[-1, -1]))
    for view, value in parts:
        np.add(view, value, out=view)


def _apply(v, stencil, diag, out):
    """``out = diag * v`` minus the conductance-weighted neighbour sums of ``v``."""
    flat_v, flat_out = v.reshape(-1), out.reshape(-1)
    np.multiply(diag.reshape(-1), flat_v, out=flat_out)
    for s, up, t, _ in stencil:
        np.multiply(up, flat_v[s:], out=t)
        flat_out[:-s] -= t
        np.multiply(up, flat_v[:-s], out=t)
        flat_out[s:] -= t
    return out


def _flux_apply(v, stencil, window, out):
    """``_apply``'s operator in flux form: ``out = window * v`` plus, per
    facet, its conductance times the drop of ``v`` across it, added to the
    lower cell and taken from the upper one.  ``window`` is each cell's
    conductance to the window cells.  Each row sums to it exactly whatever
    the rounding of the conductances; a separately rounded diagonal does
    not, which on a near-constant ``v`` swamps the net flow."""
    flat_v, flat_out = v.reshape(-1), out.reshape(-1)
    np.multiply(window.reshape(-1), flat_v, out=flat_out)
    for s, up, t, _ in stencil:
        np.subtract(flat_v[:-s], flat_v[s:], out=t)
        t *= up
        flat_out[:-s] += t
        flat_out[s:] -= t
    return out


class _Operator(NamedTuple):
    """One level's operator in float64, as the hierarchy is built: the
    operator applies as ``_apply(v, stencil, diag, out)``."""
    stencil: tuple
    diag: np.ndarray


class _Level:
    """One level of the V-cycle in float32: the float64 ``operator`` times
    ``scale`` (a power of two), its damped Jacobi weights and its own work
    buffers.  Given ``window`` (the finest level's coupling to the window
    cells), it applies its operator in flux form (``_flux_apply``) and
    keeps the scaled coupling as ``diag`` once the Jacobi weights are
    built."""

    def __init__(self, operator, scale, window=None):
        # scaled before the cast, so that no conductance leaves float32's range
        self.stencil = _stencil([facets * scale for *_, facets in operator.stencil],
                                np.float32)
        self.diag = (operator.diag * scale).astype(np.float32)
        with np.errstate(divide="ignore"):
            self.smooth = np.where(self.diag > 0, _SMOOTHING / self.diag, 0.0)
        self.apply = _apply
        if window is not None:
            self.apply, self.diag = _flux_apply, (window * scale).astype(np.float32)
        self.half = np.empty(((self.diag.shape[0] + 1) // 2,) + self.diag.shape[1:],
                             np.float32)
        self.res, self.rhs, self.x = (np.empty_like(self.diag) for _ in range(3))


def _coarsen(g):
    """Conductances between the in-layer aggregates of a level with facet
    conductances ``g``: the sums over the facets that join two aggregates."""
    gx, gy, gz = g
    return _pair_sums(gx[1::2], 1), _pair_sums(gy[:, 1::2], 0), _aggregate(gz)


def _coarse_levels(finest, window):
    """The float64 operators of levels 1 and up under the ``_Operator``
    ``finest``, coarsened until a level has at most ``_BOTTOM_SIZE``
    unknowns per layer; empty if ``finest`` already has.  ``window`` is each
    active cell's conductance to the window cells."""
    levels, level = [], finest
    while level.diag.shape[0] * level.diag.shape[1] > _BOTTOM_SIZE:
        stencil = _stencil(_coarsen([facets for *_, facets in level.stencil]))
        window = _aggregate(window)
        diag = _neighbor_sums(np.ones(window.shape), stencil, np.empty(window.shape))
        diag += window
        level = _Operator(stencil, diag)
        levels.append(level)
    return levels


def _block_inverse(block, diag):
    """Inverse of one layer's Schur complement ``block`` (symmetric positive
    semidefinite) on its rows with a positive diagonal, zero on the others.

    The block is first scaled by ``diag``, the diagonal of the layer's own
    operator block.  A Cholesky pivot under ``_SINGULAR`` there marks the
    block singular, as the rounding left of a floating cluster's null mode
    does; it then gets ``pinv``'s inverse, over its scaled eigenvalues
    above ``_SINGULAR``.
    """
    rows = np.flatnonzero(np.diag(block) > 0)
    s = 1.0 / np.sqrt(diag[rows])
    scaled = block[np.ix_(rows, rows)] * s[:, None] * s
    try:
        regular = np.all(np.diag(np.linalg.cholesky(scaled)) ** 2 > _SINGULAR)
    except np.linalg.LinAlgError:
        regular = False
    inverse = np.linalg.inv(scaled) if regular \
        else np.linalg.pinv(scaled, _SINGULAR, hermitian=True)
    out = np.zeros_like(block)
    out[np.ix_(rows, rows)] = inverse * s[:, None] * s
    return out


def _bottom_inverse(level):
    """Dense inverse of the float64 operator of the bottom ``level``, zero on its
    rows and columns without an equation, by block elimination over the
    layers.

    The operator is block tridiagonal: one block of at most ``_BOTTOM_SIZE``
    unknowns per layer, coupled to the next layer through a diagonal of z
    conductances ``c``.  Forward elimination inverts each layer's Schur
    complement, D_k = A_k - c D_{k-1}^-1 c (``_block_inverse``, whose
    ``pinv`` fallback keeps a floating cluster's null mode out), and
    substitution on the identity then gives the inverse.  No LAPACK call
    sees more than one layer's block.  Returns the inverse over the level's
    flat cell order.
    """
    n_a, n_b, n_z = level.diag.shape
    m = n_a * n_b
    cells = np.arange(m).reshape(n_a, n_b)
    blocks = np.zeros((n_z, m, m))
    diag = level.diag.reshape(m, n_z).T
    blocks[:, cells.ravel(), cells.ravel()] = diag
    for (*_, facets), (lo, hi) in zip(level.stencil[:2], _SIDES):
        a, b = cells[lo[:2]].ravel(), cells[hi[:2]].ravel()
        blocks[:, a, b] = blocks[:, b, a] = -facets.reshape(-1, n_z).T
    c = level.stencil[2][3].reshape(m, n_z - 1).T
    inverse = np.empty_like(blocks)    # of each layer's Schur complement
    for k in range(n_z):
        if k:
            blocks[k] -= c[k - 1][:, None] * inverse[k - 1] * c[k - 1]
        inverse[k] = _block_inverse(blocks[k], diag[k])
    # the columns of the identity through L y = e, then D L^T x = y, where
    # L has the blocks -c D_k^-1 below its diagonal
    x = np.eye(n_z * m).reshape(n_z, m, n_z * m)
    for k in range(1, n_z):
        x[k] += (c[k - 1][:, None] * inverse[k - 1]) @ x[k - 1]
    x[-1] = inverse[-1] @ x[-1]
    for k in range(n_z - 2, -1, -1):
        x[k] = inverse[k] @ (x[k] + c[k][:, None] * x[k + 1])
    # rows and columns from layer-major to the level's (x, y, z) order
    return x.reshape(n_z, m, n_z, m).transpose(1, 0, 3, 2).reshape(n_z * m, n_z * m)


class Hierarchy:
    """The coarse multigrid levels of a sequence of pressure solves, held by
    the caller and passed to each solve (``solve_pressures(...,
    hierarchy=)``).

    A solve's finest level is always its own operator.  The levels under it
    and the bottom level's inverse are built by one solve and reused by the
    next ones while the active cells stay the same, at most
    ``_REUSE_LIMIT`` times; then, or when the active cells change, they are
    built again.  Reuse suits a slowly changing sequence of systems, as the
    deposit shrinking every aperture a little per step: a stale coarse
    level costs CG iterations only, because the V(1,1) cycle with damped
    Jacobi smoothing stays symmetric positive definite whatever its coarse
    correction is.  Only the coarse levels are kept between solves, never
    the lattice-sized finest one.

    A build runs in float64: the coarse operators (``_coarse_levels``) and
    the bottom inverse (``_bottom_inverse``, whose ``_SINGULAR`` pivot test
    float32 rounding would break).  Both are then cast to float32 once,
    scaled by ``scale``, the exact power of two that brings the finest
    level's largest diagonal into [0.5, 1).  The conductances (about 1e-12
    m^3/(s Pa) in scenario 1) would leave float32's range under a viscosity
    2^100 times smaller or larger; scaled, they and the inverse sit in its
    middle whatever the units, and since scaling by a power of two commutes
    exactly with rounding, the pressures do not depend on them.  Every
    solve scales its own float32 finest level by the same ``scale``, so
    that it stays consistent with the kept coarse levels.
    """

    def __init__(self):
        self.active = None            # the finest level's active cells at the build
        self.scale = None             # the power of two the float32 levels carry
        self.coarse = []              # float32 levels 1 and up
        self.bottom_inverse = None    # float32, of the scaled bottom operator
        self.reuses = 0               # solves served since the build

    def levels_under(self, finest, window):
        """Float32 levels 1 and up under the ``_Operator`` ``finest``, the
        bottom level's scaled inverse and the scale: the kept ones if they
        may serve ``finest``, new ones otherwise."""
        active = finest.diag > 0
        if self.coarse and self.reuses < _REUSE_LIMIT \
                and np.array_equal(active, self.active):
            self.reuses += 1
        else:
            coarse = _coarse_levels(finest, window)
            # with no coarse level, finest is the bottom and nothing is kept
            inverse = _bottom_inverse((coarse or [finest])[-1])
            self.scale = 2.0 ** -math.frexp(float(finest.diag.max()))[1]
            self.coarse = [_Level(level, self.scale) for level in coarse]
            # the inverse of the scaled operator
            self.bottom_inverse = (inverse / self.scale).astype(np.float32)
            self.active, self.reuses = active, 0
        return self.coarse, self.bottom_inverse, self.scale


class _VCycle:
    """Symmetric V(1,1) multigrid preconditioner over in-layer aggregates.

    Level 0 is the pressure system.  Each coarser level joins 2x2 cells (or
    aggregates) of one layer, never two layers; an odd last row or column
    stays alone.  Coarsening stops at the first level with at most
    ``_BOTTOM_SIZE`` aggregates per layer (3x3 on a 20x20 layer, 2x2 on a
    32x32 one), which may be level 0 itself.  That bottom level is solved
    exactly, through its dense inverse from block elimination over the
    layers (``_bottom_inverse``); every other level is smoothed by one
    damped Jacobi sweep before and one after its coarse correction, which
    keeps the preconditioner symmetric positive (semi)definite.

    Every level's operator has all-zero rows and columns on the cells or
    aggregates without an equation.  Prolongation and restriction therefore
    need no masks: values there never reach an active one, and the coarse
    operators are the Galerkin products of the plain aggregate sums.  They
    are built from sums of non-negative terms only: a conductance is the
    summed fine conductance between two aggregates, over facets whose two
    cells are both active, and a diagonal is the sum of its row's
    conductances plus the aggregate's coupling to the window cells.  A row
    of an aggregate of isolated or floating cells is therefore exactly zero,
    and so are its row and column of the bottom inverse.

    The cycle runs in float32, as CG does: smoothing, restriction,
    prolongation and the bottom product (an ``sgemv``).  Its operators are
    the hierarchy's float64 ones times the hierarchy's ``scale`` (a power
    of two).  It reads CG's scaled residual ``scale * r`` in place, as the
    finest level's ``rhs``; the scaled cycle B' = B / scale then gives
    B' (scale r) = B r, in the units of the pressure.  The finest level's
    float32 copy (three stencil arrays and their scratch, the window
    coupling in place of the diagonal, the Jacobi weights, three work
    buffers and a half-lattice one) is made for each solve, and applies its
    operator in flux form.  The cycle is symmetric up to float32 rounding
    only, which CG tolerates.

    The coarse corrections spread values onto the cells without an
    equation, which no active cell sees.  The finest ``x`` is multiplied in
    place by the bool mask of the active cells (``den > 0``) on its way
    out, so it is exactly zero there, and so is every CG search direction.

    ``stencil`` and ``den`` give the finest operator in float64 and must
    already be zero off the active cells; ``window`` is each active cell's
    conductance to the window cells.  The levels under the finest come from
    ``hierarchy`` (kept or rebuilt there), or are built for this cycle alone
    without one.
    """

    def __init__(self, stencil, den, window, hierarchy=None):
        finest = _Operator(stencil, den)
        coarse, self.bottom_inverse, self.scale = (
            hierarchy if hierarchy is not None else Hierarchy()).levels_under(finest, window)
        self.levels = [_Level(finest, self.scale, window), *coarse]
        self.active = den > 0

    def __call__(self):
        """The preconditioned finest ``rhs``, written into the finest ``x``
        and returned; ``rhs`` must vanish off the active cells, and ``x``
        is zero there."""
        levels = self.levels
        for fine, coarse in zip(levels, levels[1:]):
            # pre-smoothing from zero, then restrict the residual
            np.multiply(fine.smooth, fine.rhs, out=fine.x)
            fine.apply(fine.x, fine.stencil, fine.diag, fine.res)
            np.subtract(fine.rhs, fine.res, out=fine.res)
            _pair_sums(_pair_sums(fine.res, 0, out=fine.half), 1, out=coarse.rhs)
        bottom = levels[-1]
        np.dot(self.bottom_inverse, bottom.rhs.reshape(-1), out=bottom.x.reshape(-1))
        for fine, coarse in zip(levels[-2::-1], levels[:0:-1]):
            # coarse correction, then post-smoothing
            _spread_add(coarse.x, fine.x)
            fine.apply(fine.x, fine.stencil, fine.diag, fine.res)
            np.subtract(fine.rhs, fine.res, out=fine.res)
            fine.res *= fine.smooth
            fine.x += fine.res
        # zero where the coarse corrections spread onto cells without an equation
        return np.multiply(levels[0].x, self.active, out=levels[0].x)


def _restrict_to_active(stencil, den, active, fixed, work):
    """Give the operator all-zero rows and columns off the active cells, in
    place: the stencil then couples active cells only, and ``den`` is zero
    off them.  Returns each active cell's conductance to the window cells.
    """
    window = np.where(active, _neighbor_sums(fixed.astype(float), stencil, work), 0.0)
    act = active.astype(float)
    flat_act = act.reshape(-1)
    for s, up, _, _ in stencil:
        up *= flat_act[:-s]
        up *= flat_act[s:]
    den *= act
    return window


def _solve_cg(p, trial, g, stencil, den, active, fixed, work, tol, max_iter, hierarchy):
    """Conjugate gradient on the pressure system, preconditioned by a
    multigrid V-cycle over in-layer aggregates (``_VCycle``), whose coarse
    levels come from ``hierarchy`` if one is given.

    Starts from ``trial`` instead of ``p`` when ``trial`` is not None and
    its residual is strictly smaller; the two agree off the active cells.
    CG runs in float32 on the system times the V-cycle's ``scale``, with
    the finest level's flux-form operator and its ``rhs`` as the residual.
    Reliable updates keep float64 accuracy: once the float32 residual's max
    norm falls under ``_RELIABLE`` times its value at the last update, or
    under the scaled ``tol``, the float32 correction is added to the start
    in place and the residual recomputed from it in float64, keeping the
    search direction.  The solve returns when that residual, the per-cell
    net flow the Gauss-Seidel reference bounds too, is within ``tol``.  The
    correction is zero off the active cells, so those keep their values,
    which must be finite (a -0.0 may come back as +0.0).  Overwrites
    ``stencil``, ``den`` and ``work``.  Floating regions (no path to a
    window) have balanced all-zero equations; a warm start from any
    converged field leaves them untouched.
    """
    # the net flow from the window cells, shared by both starts: their
    # window cells hold the same pinned values
    inflow = np.where(active, _neighbor_sums(np.where(fixed, p, 0.0), stencil, work), 0.0)
    window = _restrict_to_active(stencil, den, active, fixed, work)

    def max_abs(v):
        return float(max(v.max(), -v.min()))

    def residual_of(x, out):
        """The float64 residual vector of ``x`` and its norm; the operator's
        zero rows and columns off the active cells cancel ``x`` there."""
        r = np.subtract(inflow, _apply(x, stencil, den, out), out=out)
        return r, max_abs(r)

    r, residual = residual_of(p, work)
    if trial is not None:
        r_trial, trial_residual = residual_of(trial, np.empty_like(p))
        if trial_residual < residual:
            p, r, residual = trial, r_trial, trial_residual
        del r_trial

    if residual <= tol or not np.any(active):
        return PressureField(p, residual, 0, g)
    precondition = _VCycle(stencil, den, window, hierarchy)
    del window
    finest, scale = precondition.levels[0], precondition.scale
    # the V-cycle reads the residual from its rhs; its res holds A d, spent
    # once the residual is updated
    r, q = np.multiply(r, scale, out=finest.rhs), finest.res
    bound = residual * scale    # the residual norm at the last update
    e = np.zeros_like(r)        # the correction since the last update
    d = precondition().copy()
    rho = float(np.dot(r.ravel(), d.ravel()))
    for it in range(1, max_iter + 1):
        finest.apply(d, finest.stencil, finest.diag, q)
        dq = float(np.dot(d.ravel(), q.ravel()))
        if not dq > 0:
            raise ConvergenceError(
                f"pressure conjugate gradient broke down at iteration {it}: curvature "
                f"{dq:.3e} is not positive, residual {residual:.3e} > tol {tol:.3e}")
        alpha = rho / dq
        q *= alpha
        r -= q
        e += np.multiply(d, alpha, out=q)
        norm = max_abs(r)
        residual = norm / scale
        if norm < _RELIABLE * bound or norm <= tol * scale:
            p += e
            e.fill(0.0)
            exact, residual = residual_of(p, work)
            if residual <= tol:
                return PressureField(p, residual, it, g)
            np.multiply(exact, scale, out=r)
            bound = residual * scale
        z = precondition()
        rho_new = float(np.dot(r.ravel(), z.ravel()))
        d *= rho_new / rho
        d += z
        rho = rho_new
    raise ConvergenceError(
        f"pressure conjugate gradient stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} iterations")


def _solve_lexicographic(p, g, stencil, den, active, tol, max_iter):
    """Plain Gauss-Seidel in index order.  Reference path for small grids."""
    flat_p, flat_den = p.reshape(-1), den.reshape(-1)
    work = np.empty_like(p)
    for it in range(1, max_iter + 1):
        for c in np.flatnonzero(active):
            acc = 0.0
            for stride, up, _, _ in stencil:    # lower, then upper neighbour per axis
                if c >= stride:
                    acc += up[c - stride] * flat_p[c - stride]
                if c < up.size:
                    acc += up[c] * flat_p[c + stride]
            flat_p[c] = acc / flat_den[c]
        residual = _residual(p, stencil, den, active, work)
        if residual <= tol:
            return PressureField(p, residual, it, g)
    raise ConvergenceError(
        f"pressure relaxation stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} sweeps")


def flows_from_pressures(grid: CellGrid, field: PressureField) -> FlowField:
    """Signed per-aperture flows from a converged pressure field."""
    return _flows(conductance_arrays(grid), field.pressure)


def _flows(g, p) -> FlowField:
    """Signed per-aperture flows from facet conductances ``g`` and pressures
    ``p``; the engine passes the conductances its solve recorded."""
    return FlowField(*(ga * (p[lo] - p[hi]) for ga, (lo, hi) in zip(g, _SIDES)))


def _layer_net_outflow(flows: FlowField, k: int) -> np.ndarray:
    """Net signed outflow of the cells of layer ``k``."""
    n_z = flows.flow_x.shape[2]
    net = np.zeros(flows.flow_z.shape[:2])
    for flow, (lo, hi) in zip((flows.flow_x, flows.flow_y), _SIDES):
        net[lo[:2]] += flow[:, :, k]
        net[hi[:2]] -= flow[:, :, k]
    if k < n_z - 1:
        net += flows.flow_z[:, :, k]
    if k > 0:
        net -= flows.flow_z[:, :, k - 1]
    return net


def total_flow(grid: CellGrid, flows: FlowField) -> float:
    """Total flow entering the filter through the inlet window, m^3/s."""
    return float(np.sum(_layer_net_outflow(flows, 0)[grid.inlet_mask]))


def outlet_flow(grid: CellGrid, flows: FlowField) -> float:
    """Total flow leaving through the outlet window, m^3/s."""
    return float(-np.sum(_layer_net_outflow(flows, grid.n_z - 1)[grid.outlet_mask]))


def pressure_csv(grid: CellGrid, field: PressureField) -> str:
    """Cell pressures as CSV text with 1-based indices."""
    lines = ["x,y,z,pressure_pa"]
    p = field.pressure
    for i, j, k in np.ndindex(p.shape):
        lines.append(f"{i + 1},{j + 1},{k + 1},{float(p[i, j, k])!r}")
    return "\n".join(lines) + "\n"
