"""Pressure network of the cell lattice and its iterative solver.

Each open aperture behaves as a conduit whose volumetric flow is

    F = -0.8 p' S^2 s / (P^2 mu),

with p' the pressure gradient between the two cell centres, S and P the
area and perimeter of the cell cross-section perpendicular to the aperture
axis, and s the aperture area.  Flow through a blocked or sealed aperture
is exactly zero.  Inlet and outlet window cells hold prescribed pressures;
every other cell balances its aperture flows to zero, which yields a linear
system.  Two solvers honour the same residual bound: conjugate gradient
(production; float32 with float64 reliable updates, ``_solve_cg``)
preconditioned by a multigrid V-cycle over in-layer aggregates
(``Hierarchy``), and a lexicographic Gauss-Seidel loop, the scalar
reference for small grids.  A ``Hierarchy`` also holds the system: a
caller that solves a sequence of systems on one lattice keeps one, and
each solve rewrites it in place; its docstring states when a solve runs
the connectivity check (``check_connected``).

Every product with the system, on every multigrid level and in float32
or float64, takes the network's own flux form (``_flux_apply``): each
facet carries its conductance times the pressure drop across it.

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
    # the per-facet conductances the solve used (``conductance_arrays``)
    conductances: tuple[np.ndarray, np.ndarray, np.ndarray]


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


def conductance_arrays(grid: CellGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-facet conductance g [m^3/(s Pa)] so that F = g (p_a - p_b).

    Closed facets get zero.  Filtering facets multiply the single-aperture
    area by the number of sub-apertures still open.
    """
    h = (grid.h_x, grid.h_y, grid.h_z)
    out = []
    for fam in _FACET_FAMILIES:
        section_a, section_b = (h[a] for a in range(3) if a != fam.axis)
        coeff = _conduit_coefficient(section_a * section_b, 2.0 * (section_a + section_b),
                                     grid.mu, h[fam.axis])
        _, radius, state, open_count = fam.arrays(grid)
        g = np.square(radius)
        g *= coeff * math.pi
        if fam.filtering:
            g *= open_count
        g *= state == ApertureState.OPEN.value    # as selecting, for a finite radius
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
    masks = [fam.open_mask(grid) for fam in _FACET_FAMILIES]
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


def _cut(stencil, keep) -> None:
    """Zero, in place, every facet of ``stencil`` that touches a cell off
    the bool lattice mask ``keep``."""
    flat_keep = keep.reshape(-1)
    for s, up, _, _ in stencil:
        up *= flat_keep[:-s]
        up *= flat_keep[s:]


def _back_fill(p, rounds, links) -> None:
    """Give every removed cell of ``p`` the pressure of its attachment, in
    place: the cell across the one bit that ``_peel`` left in its link mask.

    Rounds run in reverse, so an attachment removed later already holds its
    value.  A cell removed with no bit left keeps its own value.
    """
    flat_p, flat_r, flat_links = p.reshape(-1), rounds.reshape(-1), links.reshape(-1)
    step_of = np.zeros(2 * _BITS[-1], dtype=np.intp)
    step_of[_BITS] = _steps(p.shape)
    for r in range(int(flat_r.max()), 0, -1):
        cells = np.flatnonzero(flat_r == r)
        flat_p[cells] = flat_p[cells + step_of[flat_links[cells]]]


def _views(block):
    """Flat conductances for ``_flux_apply`` on the zeroed array ``block``
    of shape (3, n_x, n_y, n_z), the ``base`` of each view: per axis (x, y,
    z) its stride in the flat cell array, the conductance from each flat
    index to the one a stride up (zero off the lattice), a shared scratch
    view, and the facet conductances as a 3-D view of the same memory."""
    shape = block.shape[1:]
    strides = (shape[1] * shape[2], shape[2], 1)
    scratch = np.empty(math.prod(shape), block.dtype)
    return tuple((s, full.reshape(-1)[:-s], scratch[:full.size - s], full[lo])
                 for full, s, (lo, _) in zip(block, strides, _SIDES))


def _stencil(g):
    """``_views`` of a new float64 block holding the facet conductances ``g``."""
    shape = (g[0].shape[0] + 1,) + g[0].shape[1:]
    stencil = _views(np.zeros((3,) + shape))
    for (*_, facets), ga in zip(stencil, g):
        facets[...] = ga
    return stencil


def _run(calls) -> None:
    """Make the numpy calls of a list of (function, arguments) pairs."""
    for call, args in calls:
        call(*args)


def _flux_calls(v, stencil, window, out) -> list:
    """``_flux_apply(v, stencil, window, out)`` as calls on views of its
    operands, made once, for ``_run``."""
    flat_v, flat_out = v.reshape(-1), out.reshape(-1)
    calls = [(np.multiply, (window, v, out))]
    for s, up, t, _ in stencil:
        lo, hi = flat_out[:-s], flat_out[s:]
        calls += [(np.subtract, (flat_v[:-s], flat_v[s:], t)), (np.multiply, (t, up, t)),
                  (np.add, (lo, t, lo)), (np.subtract, (hi, t, hi))]
    return calls


def _flux_apply(v, stencil, window, out):
    """``out = window * v`` plus, per facet, its conductance times the drop
    of ``v`` across it, added to the lower cell and taken from the upper
    one, in the order x up, x down, y up, y down, z up, z down (zero terms
    at lattice edges).  ``window``, each cell's conductance to the window
    cells, may be the scalar 0.0: the product is then the net outflow.
    Each row sums to ``window`` whatever the rounding of the conductances,
    so a float32 product keeps the tiny net flows of a near-constant ``v``.
    On the flat views of the C-contiguous ``v`` and ``out`` every operation
    is contiguous and allocation free."""
    _run(_flux_calls(v, stencil, window, out))
    return out


def _degree(stencil, out):
    """Each cell's summed facet conductance, into ``out``; every facet adds
    its own to both of its cells, in ``_flux_apply``'s order."""
    flat_out = out.reshape(-1)
    flat_out.fill(0.0)
    for s, up, _, _ in stencil:
        flat_out[:-s] += up
        flat_out[s:] += up
    return out


def _max_abs(v) -> float:
    return float(max(v.max(), -v.min()))


def _default_tol(grid: CellGrid, p_in: float, p_out: float) -> float:
    """A solve's default ``tol`` [m^3/s]: 1e-6 of ``reference_cell_flow``."""
    return 1e-6 * reference_cell_flow(grid, p_in, p_out)


def _start_field(values, name: str, shape) -> np.ndarray:
    p = np.asarray(values, dtype=float)
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
                    hierarchy: Hierarchy | None = None) -> PressureField:
    """Solve for the cell pressures at which every inner cell conserves flow.

    ``tol`` is an absolute bound on the per-cell net flow [m^3/s]; default is
    1e-6 times the clean-filter reference cell flow.  ``initial`` warm-starts
    the iteration (a linear ramp otherwise).  ``guess`` is a second candidate
    start, such as a field extrapolated from earlier solves: it replaces
    ``initial`` on the active cells only when its max-norm net-flow residual
    is strictly smaller, and never on window or isolated cells.  Both
    starts must be finite everywhere (ValueError otherwise).  The two
    starts are ranked once, for both sweeps, by the residual vector that
    both iterate on: the inflow from the window cells, computed once since
    both starts pin the same window values, minus the operator applied to
    each start.  A start already within ``tol`` is returned as it is; else
    the chosen start's vector is CG's first residual.  ``sweep`` selects
    "cg" (preconditioned conjugate gradient; the default, and the engine's
    sweep) or "lexicographic" (scalar Gauss-Seidel in index order, the
    reference for small grids).  Both converge to the same field
    and honour the same residual bound.  ``p_in`` and ``p_out`` must be
    finite, and must differ unless ``tol`` is given (ValueError otherwise).

    ``hierarchy``, a ``Hierarchy`` held by the caller across a sequence of
    solves on one lattice, keeps the system and CG's preconditioner: the
    solve rewrites it in place for its own system, keeping the coarse
    levels that an earlier solve built while its reuse rule allows.
    Without it, every solve builds its own.  Reuse changes the iterations
    CG needs, never the residual bound.  The returned field's arrays are
    its own: no later solve writes them.

    Unless the lattice is at least two cells wide both ways with every side
    facet of positive conductance (``check_connected``'s shortcut: each
    layer is one slab), the solve peels the dead-end trees off the network
    (``_peel``), zeroing their facets on the system's stencil, so both sweeps
    solve the kept cells alone, and back-fills them after (``_back_fill``);
    the reported residual is the full system's.  A tree that hangs from no
    kept cell takes the value its last removed cell had in the start, as an
    isolated cell keeps its own.  ``PressureField.conductances`` stays the
    full ``conductance_arrays``.
    """
    if not (math.isfinite(p_in) and math.isfinite(p_out)) or (tol is None and p_in == p_out):
        raise ValueError(f"p_in and p_out must be finite, and differ unless tol is given; "
                         f"got p_in={p_in!r}, p_out={p_out!r}")
    if tol is None:
        tol = _default_tol(grid, p_in, p_out)
    if not tol > 0:
        raise ValueError(f"tol must be positive (m^3/s), got {tol!r}")
    if sweep not in ("cg", "lexicographic"):
        raise ValueError(f"sweep must be 'cg' or 'lexicographic', got {sweep!r}")

    shape = (grid.n_x, grid.n_y, grid.n_z)
    g = conductance_arrays(grid)

    if initial is not None:
        p = _start_field(initial, "initial", shape).copy()
    else:
        p = np.broadcast_to(np.linspace(p_in, p_out, shape[2]), shape).copy()

    p[:, :, 0][grid.inlet_mask] = p_in
    p[:, :, -1][grid.outlet_mask] = p_out

    system = Hierarchy() if hierarchy is None else hierarchy
    den = system.rewrite(grid, g, p)
    r, residual = system.residual_of(p, system.work)
    if guess is not None:
        trial = np.where(system.active, _start_field(guess, "guess", p.shape), p)
        r_trial, trial_residual = system.residual_of(trial, np.empty_like(p))
        if trial_residual < residual:
            p, r, residual = trial, r_trial, trial_residual
        del trial, r_trial
    if residual <= tol:
        field = PressureField(p, residual, 0, g)
    elif sweep == "lexicographic":
        field = _solve_lexicographic(p, residual, g, system, den, tol, max_iter)
    else:
        system.refresh(system.stencil, den, system.window)
        del den    # for the peak memory: none during CG
        field = _solve_cg(p, r, residual, g, system, tol, max_iter)
    peeled = system.peeled
    del system    # for the peak memory: a solve's own one goes before the back-fill
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


def _pair_sum_calls(a, axis, out) -> list:
    """``_pair_sums(a, axis)`` into ``out``, as calls on views for ``_run``."""
    n = a.shape[axis]
    pre = (slice(None),) * axis
    calls = [(np.add, (a[pre + (slice(0, n - 1, 2),)], a[pre + (slice(1, n, 2),)],
                       out[pre + (slice(0, n // 2),)]))]
    if n % 2:
        calls.append((np.copyto, (out[pre + (-1,)], a[pre + (-1,)])))
    return calls


def _pair_sums(a, axis):
    """Sums over the index pairs (0, 1), (2, 3), ... along ``axis``; an odd
    last index stays alone."""
    out = np.empty(a.shape[:axis] + ((a.shape[axis] + 1) // 2,) + a.shape[axis + 1:])
    _run(_pair_sum_calls(a, axis, out))
    return out


def _aggregate(a):
    """Sums over the 2x2 in-layer aggregates of a cell array."""
    return _pair_sums(_pair_sums(a, 0), 1)


def _spread_calls(coarse, fine) -> list:
    """Calls for ``_run`` that add to every cell of ``fine`` the value of its
    in-layer aggregate in ``coarse`` (the transpose of summing
    ``_pair_sums`` over x, then y)."""
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
    return [(np.add, (view, value, view)) for view, value in parts]


class _Operator(NamedTuple):
    """One level's operator in float64, as the hierarchy is built: it
    applies as ``_flux_apply(v, stencil, window, out)``, and ``diag`` is
    its diagonal, each cell's summed conductances plus its ``window``."""
    stencil: tuple
    diag: np.ndarray
    window: np.ndarray


class _Level:
    """One level of the V-cycle in float32 on a lattice of ``shape``: a
    float64 operator's conductances and window coupling times a power of
    two, applied by ``_flux_apply``, the damped Jacobi weights of its
    diagonal and its own work buffers."""

    def __init__(self, shape):
        self.stencil = _views(np.zeros((3,) + shape, np.float32))
        self.smooth, self.window, self.res, self.rhs, self.x = (
            np.empty(shape, np.float32) for _ in range(5))
        self.half = np.empty(((shape[0] + 1) // 2,) + shape[1:], np.float32)

    def load(self, operator, scale):
        """Write the float64 ``operator`` times ``scale`` into the level, in
        place; scaled before the cast, so no conductance leaves float32's
        range.  ``res`` holds the diagonal meanwhile."""
        # the blocks under the views, with their zeros off the lattice
        np.multiply(operator.stencil[0][1].base, scale, out=self.stencil[0][1].base)
        diag = np.multiply(operator.diag, scale, out=self.res)
        with np.errstate(divide="ignore"):
            np.divide(_SMOOTHING, diag, out=self.smooth)
        np.copyto(self.smooth, 0.0, where=diag <= 0)
        np.multiply(operator.window, scale, out=self.window)
        return self


def _coarsen(g):
    """Conductances between the in-layer aggregates of a level with facet
    conductances ``g``: the sums over the facets that join two aggregates."""
    gx, gy, gz = g
    return _pair_sums(gx[1::2], 1), _pair_sums(gy[:, 1::2], 0), _aggregate(gz)


def _coarse_levels(finest):
    """The float64 operators of levels 1 and up under the ``_Operator``
    ``finest``, coarsened until a level has at most ``_BOTTOM_SIZE``
    unknowns per layer; empty if ``finest`` already has."""
    levels, level = [], finest
    while level.diag.shape[0] * level.diag.shape[1] > _BOTTOM_SIZE:
        stencil = _stencil(_coarsen([facets for *_, facets in level.stencil]))
        window = _aggregate(level.window)
        diag = _degree(stencil, np.empty(window.shape))
        diag += window
        level = _Operator(stencil, diag, window)
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
    every = rows.size == len(block)    # then no gather and no scatter
    s = 1.0 / np.sqrt(diag if every else diag[rows])
    scaled = (block if every else block[np.ix_(rows, rows)]) * s[:, None] * s
    try:
        regular = np.all(np.diag(np.linalg.cholesky(scaled)) ** 2 > _SINGULAR)
    except np.linalg.LinAlgError:
        regular = False
    inverse = np.linalg.inv(scaled) if regular \
        else np.linalg.pinv(scaled, _SINGULAR, hermitian=True)
    inverse = inverse * s[:, None] * s
    if every:
        return inverse
    out = np.zeros_like(block)
    out[np.ix_(rows, rows)] = inverse
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
    """The pressure system of a sequence of solves on one lattice and CG's
    preconditioner for it, a symmetric V(1,1) multigrid cycle over in-layer
    aggregates.  The caller holds it and passes it to each solve
    (``solve_pressures(..., hierarchy=)``), which rewrites it for its own
    system and calls it; a solve without one makes its own the same way.

    Level 0 is the pressure system.  Each coarser level joins 2x2 cells (or
    aggregates) of one layer, never two layers; an odd last row or column
    stays alone.  Coarsening stops at the first level with at most
    ``_BOTTOM_SIZE`` aggregates per layer (3x3 on a 20x20 layer, 2x2 on a
    32x32 one), which may be level 0 itself.  That bottom level is solved
    exactly, through its dense inverse from block elimination over the
    layers (``_bottom_inverse``); every other level is smoothed by one
    damped Jacobi sweep before and one after its coarse correction, which
    keeps the cycle symmetric positive (semi)definite whatever its coarse
    correction is.

    Every level's operator has all-zero rows and columns on the cells or
    aggregates without an equation, so prolongation and restriction need no
    masks, and the coarse operators are the Galerkin products of the plain
    aggregate sums.  They are sums of non-negative terms only, so every
    level keeps the flux form, and an aggregate of isolated or floating
    cells has an exactly zero row, and a zero row and column in the bottom
    inverse.  The finest ``x`` is multiplied in place by the active mask on
    its way out, so it, and every CG search direction, is exactly zero
    where the coarse corrections spread values onto cells without an
    equation.

    Reuse: every solve rewrites, in place and from its own conductances and
    start, the float64 stencil, window coupling and inflow (``rewrite``)
    and the float32 finest level (``refresh``).  The topology's parts are
    built again only when the conducting facets change (the peel, the
    active cells), or the window cells or the lattice (the float64 arrays,
    the facets cut from the stencil and the cells with a window term).  A
    rebuild first runs ``check_connected``, before it writes anything kept:
    so every solve without a held hierarchy checks, and one with it checks
    on its first solve, after a closure and after a
    ``DegenerateNetworkError``.  The coarse levels and the bottom inverse
    are reused while the active cells stay the same, at most
    ``_REUSE_LIMIT`` times: a stale level costs CG iterations only, as the
    cycle stays symmetric positive, and the deposit changes every aperture
    a little per step.  The cycle and CG's product are lists of
    numpy calls on views made once per build (``_run``).

    Precision: a build runs in float64, as the bottom inverse's
    ``_SINGULAR`` pivot test needs, and casts the coarse levels and the
    inverse to float32 once, scaled by ``scale``, the exact power of two
    that brings the finest level's largest diagonal into [0.5, 1); each
    solve scales its finest level by the same ``scale``.  The conductances
    (about 1e-12 m^3/(s Pa) in scenario 1) would leave float32's range under
    a viscosity 2^100 times smaller or larger; scaled, they sit in its
    middle whatever the units, and since scaling by a power of two commutes
    exactly with rounding, the pressures do not depend on them.  The cycle
    runs in float32, as CG does, down to the bottom product (an ``sgemv``),
    and is symmetric up to float32 rounding only, which CG tolerates.  It
    reads CG's scaled residual ``scale * r`` in place as the finest
    ``rhs``; the scaled cycle B' = B / scale then gives B' (scale r) = B r,
    in the units of the pressure.

    Memory: one set of lattice-sized arrays: seven in float64 (the stencil,
    its scratch, window coupling, inflow and residual), eleven and a half in
    float32 (the finest level's stencil, scratch, window coupling, Jacobi
    weights and work buffers, and CG's search direction and correction) and
    two bool masks of the active cells; the coarse levels add about a third
    of the finest.  A solve's pressures and conductances are its own.
    """

    def __init__(self):
        # the system (``rewrite``): lattice shape and window masks, packed
        # conducting facets, stencil block and views, window terms and cut
        # facets, dead ends, active cells, and float64 lattices
        self.layout = self.conducting = self.facets = self.stencil = self.work = None
        self.coupling = self.cut = self.peeled = self.active = self.window = self.inflow = None
        # the cycle (``refresh``): scale, levels and the active cells the
        # coarse ones were built on, solves served since, the cycle's calls;
        # and CG's vectors and product A d, made by CG with each finest level
        self.scale, self.finest, self.coarse, self.bottom_inverse = None, None, [], None
        self.levels_active, self.reuses, self.calls = None, 0, None
        self.d = self.e = self.product = None

    def rewrite(self, grid, g, p):
        """Write the float64 system of ``grid``, of facet conductances ``g``
        and window cells at their values in ``p``: the stencil, cut off the
        cells without an equation (window cells, dead ends and isolated
        cells), and each cell's window coupling and inflow; return the
        diagonal, zero off the active cells."""
        shape = p.shape
        layout = (shape, grid.inlet_mask.tobytes(), grid.outlet_mask.tobytes())
        conducting = tuple(np.packbits(ga > 0).tobytes() for ga in g)
        rebuild = (layout, conducting) != (self.layout, self.conducting)
        if rebuild:
            check_connected(grid)
            fixed = np.zeros(shape, dtype=bool)
            fixed[:, :, 0] |= grid.inlet_mask
            fixed[:, :, -1] |= grid.outlet_mask
            if layout != self.layout:
                self.facets, self.work = np.zeros((3,) + shape), np.empty(shape)
                self.stencil = _views(self.facets)
                # zero on every cell that no term writes
                self.window, self.inflow = np.zeros(shape), np.zeros(shape)
                self._couple(fixed)
            # with two or more cells a side and every side facet conducting,
            # every cell has two linked in-layer neighbours: no dead end
            slab = shape[0] >= 2 and shape[1] >= 2 and g[0].all() and g[1].all()
            self.peeled = None if slab else _peel(g, fixed)
        for (*_, facets), ga in zip(self.stencil, g):
            facets[...] = ga
        if self.peeled is not None:
            _cut(self.stencil, self.peeled[0] == 0)
        den = _degree(self.stencil, np.empty(shape))
        if rebuild:
            self.active, self.layout, self.conducting = ~fixed & (den > 0), layout, conducting
        # each active cell's flow in from the window cells, at their pinned
        # pressures and at unit pressure: the net outflow of minus those
        # values, summed from +0.0 in order (``np.add.at`` is unbuffered),
        # which any term that is a zero leaves as it is; a term g (0.0 - -p)
        # or -(-p - 0.0) g adds p g
        at, facet, pin = self.coupling
        flat_window, flat_inflow = self.window.reshape(-1), self.inflow.reshape(-1)
        flat_window[at] = flat_inflow[at] = 0.0
        g_at = self.facets.reshape(-1)[facet]
        np.add.at(flat_window, at, g_at)
        np.add.at(flat_inflow, at, p.reshape(-1)[pin] * g_at)
        self.facets.reshape(-1)[self.cut] = 0.0
        den *= self.active
        return den

    def _couple(self, fixed):
        """The facets that touch a window cell (``cut``), and the terms of
        the other cells' flows from the window cells, sorted by cell and,
        within a cell, in ``_flux_apply``'s order: their cells, facets (flat
        indices into ``facets``) and window cells.  A facet that does not
        conduct, or that a step around the flat lattice's edge lands on, is
        zero, and so is its term."""
        windows, size = np.flatnonzero(fixed)[:, None], fixed.size
        cells, kind = windows - _steps(fixed.shape), np.arange(6)    # in _BITS order
        # a term's facet by its lower cell, in the block of its axis
        facets = np.where(kind % 2, windows, cells) + kind // 2 * size
        on = (cells >= 0) & (cells < size)
        self.cut = np.unique(facets[on])
        on[on] = ~fixed.reshape(-1)[cells[on]]
        order = np.argsort((cells * 6 + kind)[on])
        self.coupling = tuple(a[on][order] for a in np.broadcast_arrays(cells, facets, windows))

    def residual_of(self, x, out):
        """The float64 residual vector of ``x`` into ``out``, and its norm;
        the zero rows and columns off the active cells cancel ``x`` there."""
        r = np.subtract(self.inflow, _flux_apply(x, self.stencil, self.window, out), out=out)
        return r, _max_abs(r)

    def refresh(self, stencil, den, window):
        """Make the cycle for a solve's finest operator: ``stencil`` and
        ``den`` in float64, zero off the active cells (``den > 0``), and
        ``window``; the coarse levels are kept if they may serve it, the
        finest level's arrays if its lattice is the same."""
        finest = _Operator(stencil, den, window)
        active = den > 0
        if self.coarse and self.reuses < _REUSE_LIMIT \
                and np.array_equal(active, self.levels_active):
            self.reuses += 1
        else:
            coarse = _coarse_levels(finest)
            # with no coarse level, finest is the bottom and nothing is kept
            inverse = _bottom_inverse((coarse or [finest])[-1])
            self.scale = 2.0 ** -math.frexp(float(den.max()))[1]
            self.coarse = [_Level(level.diag.shape).load(level, self.scale) for level in coarse]
            # the inverse of the scaled operator
            self.bottom_inverse = (inverse / self.scale).astype(np.float32)
            self.levels_active, self.reuses, self.calls = active, 0, None
            del coarse, inverse    # the float64 build: freed before the finest level
        if self.finest is None or self.finest.x.shape != den.shape:
            self.finest, self.calls, self.d = _Level(den.shape), None, None
        self.finest.load(finest, self.scale)
        if self.calls is None:
            self.calls = self._cycle_calls()

    def _cycle_calls(self) -> list:
        """The V-cycle as calls on views of the levels, for ``_run``."""
        levels, calls = [self.finest, *self.coarse], []
        for fine, coarse in zip(levels, levels[1:]):
            # pre-smoothing from zero, then restrict the residual
            calls += [(np.multiply, (fine.smooth, fine.rhs, fine.x)),
                      *_flux_calls(fine.x, fine.stencil, fine.window, fine.res),
                      (np.subtract, (fine.rhs, fine.res, fine.res)),
                      *_pair_sum_calls(fine.res, 0, fine.half),
                      *_pair_sum_calls(fine.half, 1, coarse.rhs)]
        bottom = levels[-1]
        calls.append((np.dot, (self.bottom_inverse, bottom.rhs.reshape(-1),
                               bottom.x.reshape(-1))))
        for fine, coarse in zip(levels[-2::-1], levels[:0:-1]):
            # coarse correction, then post-smoothing
            calls += [*_spread_calls(coarse.x, fine.x),
                      *_flux_calls(fine.x, fine.stencil, fine.window, fine.res),
                      (np.subtract, (fine.rhs, fine.res, fine.res)),
                      (np.multiply, (fine.res, fine.smooth, fine.res)),
                      (np.add, (fine.x, fine.res, fine.x))]
        # zero where the coarse corrections spread onto cells without an equation
        return calls + [(np.multiply, (self.finest.x, self.levels_active, self.finest.x))]

    def __call__(self):
        """The preconditioned finest ``rhs``, written into the finest ``x``
        and returned; ``rhs`` must vanish off the active cells, and ``x``
        is zero there."""
        _run(self.calls)
        return self.finest.x


def _solve_cg(p, r, residual, g, cycle, tol, max_iter):
    """Conjugate gradient on the pressure system from ``p``, whose float64
    residual vector is ``r`` and its norm ``residual``, preconditioned by
    the refreshed multigrid V-cycle ``cycle`` (a ``Hierarchy``), in its
    buffers.

    CG runs in float32 on the system times the cycle's ``scale``, with
    the finest level's operator and its ``rhs`` as the residual.  Reliable
    updates keep float64 accuracy: once the float32 residual's max norm
    falls under ``_RELIABLE`` times its value at the last update, or under
    the scaled ``tol``, the float32 correction is added to ``p`` in place
    and the residual recomputed from it in float64 (``cycle.residual_of``,
    into ``r``), keeping the search direction.  The solve returns when that
    residual, the per-cell net flow the Gauss-Seidel reference bounds too,
    is within ``tol``.  The correction is zero off the active cells, so
    those keep their values, which must be finite (a -0.0 may come back as
    +0.0).  Floating regions (no path to a window) have balanced all-zero
    equations; a warm start from any converged field leaves them untouched.
    """
    finest, scale = cycle.finest, cycle.scale
    # the V-cycle reads the residual from its rhs; its res holds A d, spent
    # once the residual is updated; the float64 r takes the reliable updates
    exact, r, q = r, np.multiply(r, scale, out=finest.rhs), finest.res
    bound = residual * scale    # the residual norm at the last update
    if cycle.d is None:    # with a new finest level; made once den is freed, for the peak
        cycle.d, cycle.e = np.empty_like(r), np.empty_like(r)
        cycle.product = _flux_calls(cycle.d, finest.stencil, finest.window, q)
    d, e = cycle.d, cycle.e     # e: the correction since the last update
    e.fill(0.0)
    np.copyto(d, cycle())
    flat_d, flat_q, flat_r = d.reshape(-1), q.reshape(-1), r.reshape(-1)
    rho = float(np.dot(flat_r, flat_d))
    for it in range(1, max_iter + 1):
        _run(cycle.product)    # q = A d
        dq = float(np.dot(flat_d, flat_q))
        if not dq > 0:
            raise ConvergenceError(
                f"pressure conjugate gradient broke down at iteration {it}: curvature "
                f"{dq:.3e} is not positive, residual {residual:.3e} > tol {tol:.3e}")
        alpha = rho / dq
        q *= alpha
        r -= q
        e += np.multiply(d, alpha, out=q)
        norm = _max_abs(r)
        residual = norm / scale
        if norm < _RELIABLE * bound or norm <= tol * scale:
            p += e
            e.fill(0.0)
            exact, residual = cycle.residual_of(p, exact)
            if residual <= tol:
                return PressureField(p, residual, it, g)
            np.multiply(exact, scale, out=r)
            bound = residual * scale
        z = cycle()
        rho_new = float(np.dot(flat_r, z.reshape(-1)))
        d *= rho_new / rho
        d += z
        rho = rho_new
    raise ConvergenceError(
        f"pressure conjugate gradient stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} iterations")


def _solve_lexicographic(p, residual, g, system, den, tol, max_iter):
    """Gauss-Seidel in index order from ``p``, of residual ``residual``, on the
    restricted system of the rewritten ``system`` (a ``Hierarchy``): each
    active cell takes its inflow plus its conductance-weighted neighbour
    pressures, over ``den``; small grids."""
    flat_p, flat_den, flat_in = p.reshape(-1), den.reshape(-1), system.inflow.reshape(-1)
    work = np.empty_like(p)
    for it in range(1, max_iter + 1):
        for c in np.flatnonzero(system.active):
            acc = flat_in[c]
            for stride, up, _, _ in system.stencil:    # lower, then upper neighbour per axis
                if c >= stride:
                    acc += up[c - stride] * flat_p[c - stride]
                if c < up.size:
                    acc += up[c] * flat_p[c + stride]
            flat_p[c] = acc / flat_den[c]
        _, residual = system.residual_of(p, work)
        if residual <= tol:
            return PressureField(p, residual, it, g)
    raise ConvergenceError(
        f"pressure relaxation stalled: residual {residual:.3e} > tol {tol:.3e} "
        f"after {max_iter} sweeps")


def flows_from_pressures(grid: CellGrid, field: PressureField) -> FlowField:
    """Signed per-aperture flows of a converged pressure field on ``grid``,
    from the conductances its solve used: an edit to the grid after the
    solve does not change them."""
    p = field.pressure
    return FlowField(*(g * (p[lo] - p[hi]) for g, (lo, hi) in zip(field.conductances, _SIDES)))


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
