"""Domain types for the layered-filter cell lattice.

A filter is an n_x x n_y x n_z block of rectangular cells.  Every interior
facet between two adjacent cells carries a circular aperture: apertures in
z-facets are the narrow filtering holes that catch rod-shaped particles,
apertures in x/y-facets are wide side holes that only redistribute liquid
between neighbouring cavities.  Liquid enters through an inlet window on the
first cell layer and leaves through an outlet window on the last one; the
rest of the outer surface is impermeable.

An aperture is open, blocked by a caught particle, or sealed by mineral
deposit.  Deposit growth shrinks the radius of any open aperture; the
current radius never exceeds the initial one and never goes negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

# Avogadro constant, mol^-1 (exact by SI definition)
AVOGADRO = 6.02214076e23

Window = tuple[tuple[int, int], tuple[int, int]]


class ApertureState(IntEnum):
    OPEN = 0
    PARTICLE_BLOCKED = 1
    SEDIMENT_SEALED = 2


# per-facet arrays of a family, in the order of _FacetFamily.arrays
_FACET_FIELDS = ("radius0", "radius", "state", "open_count")


@dataclass(frozen=True)
class _FacetFamily:
    """One family of parallel facets; CellGrid holds its arrays as ``<name>_<field>``."""

    name: str         # "z", "x" or "y": attribute prefix
    axis: int         # lattice axis along which a facet joins its two cells
    filtering: bool   # filtering facets alone carry open_count (sub-apertures not yet hit)

    @property
    def fields(self) -> tuple[str, ...]:
        """CellGrid attributes of the family; open_count only if filtering."""
        return tuple(f"{self.name}_{key}" for key in _FACET_FIELDS[:4 if self.filtering else 3])

    def arrays(self, grid: "CellGrid") -> tuple:
        """(radius0, radius, state, open_count) of ``grid``; open_count None if not filtering."""
        found = tuple(getattr(grid, attr) for attr in self.fields)
        return found if self.filtering else (*found, None)

    def open_mask(self, grid: "CellGrid") -> np.ndarray:
        """Facets that pass liquid: open, and with a sub-aperture left if filtering."""
        _, _, state, open_count = self.arrays(grid)
        mask = state == ApertureState.OPEN.value    # an IntEnum is several times slower
        return mask & (open_count > 0) if self.filtering else mask


# in axis order: every loop over the families runs x, y, z, filtering last
_FACET_FAMILIES = (_FacetFamily("x", 0, False), _FacetFamily("y", 1, False),
                   _FacetFamily("z", 2, True))


@dataclass(frozen=True)
class Chemistry:
    """Constants of the wall deposition reaction.  SI units."""

    rate_constant: float        # m^(3n-2)/s; m/s for a first-order reaction
    reaction_order: int         # dissolved entities consumed per reaction event
    diffusivity: float          # m^2/s, of the dissolved mineral in the liquid
    sediment_molar_mass: float  # kg/mol
    sediment_stoichiometry: int  # deposit molecules produced per reaction event
    sediment_density: float     # kg/m^3
    solute_molar_mass: float    # kg/mol

    def __post_init__(self):
        for name in ("rate_constant", "diffusivity", "sediment_molar_mass",
                     "sediment_density", "solute_molar_mass"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"chemistry.{name} must be positive and finite, got {value!r}")
        for name in ("reaction_order", "sediment_stoichiometry"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"chemistry.{name} must be >= 1, got {value}")


@dataclass
class FilterConfig:
    """Complete description of one filter and its operating conditions.

    Lengths in m, pressures in Pa, concentrations in m^-3, times in s.
    ``r_filter`` is a single radius for every membrane or one radius per
    membrane (n_z - 1 values).  Windows are 1-based inclusive index ranges
    ((x_lo, x_hi), (y_lo, y_hi)); None means the whole face is open.
    """

    L_x: float                  # filter extent along x [m]
    L_y: float                  # filter extent along y [m]
    L_z: float                  # filter extent along z (flow axis) [m]
    n_x: int                    # cells along x
    n_y: int                    # cells along y
    n_z: int                    # cell layers along z (n_z - 1 membranes)
    p_grad: float               # applied pressure gradient along z [Pa/m], < 0 drives +z flow
    mu: float                   # dynamic viscosity of the liquid [Pa s]
    l_particle: float           # rod particle length [m]
    N_particles: float          # particle number concentration at the inlet [m^-3]
    r_filter: float | Sequence[float]   # filtering aperture radius [m]
    r_side: float               # side aperture radius [m]
    inlet_window: Window | None = None
    outlet_window: Window | None = None
    chemistry: Chemistry | None = None
    c0_entrance: float = 0.0    # dissolved mineral concentration at the inlet [m^-3]
    dt: float | str = "adaptive"   # fixed step [s] or "adaptive"
    seed: int = 0
    blocking_law: str = "corrected"   # "simple" | "corrected"
    solver_tol: float | None = None   # pressure-solver residual [m^3/s]; None = auto
    solver_max_iter: int = 100_000
    time_limit: float | None = None   # stop the run at this model time [s]
    flow_stop_fraction: float = 1e-6  # stop when total flow drops below this times clean flow
    seal_fraction: float = 1e-2       # aperture seals when radius <= fraction of initial
    depletion_threshold: float = 0.05  # axial depletion warning level, delta_c0/c0
    aperture_multiplicity: Sequence[int] | None = None  # apertures per facet, per membrane

    @property
    def h_x(self) -> float:
        return self.L_x / self.n_x

    @property
    def h_y(self) -> float:
        return self.L_y / self.n_y

    @property
    def h_z(self) -> float:
        return self.L_z / self.n_z

    def _per_membrane(self, value, dtype) -> np.ndarray:
        values = np.atleast_1d(np.asarray(value, dtype=dtype))
        return np.full(self.n_z - 1, values[0], dtype=dtype) if values.size == 1 else values

    def filter_radii(self) -> np.ndarray:
        """Per-membrane filtering radius, shape (n_z - 1,)."""
        return self._per_membrane(self.r_filter, float)

    def multiplicities(self) -> np.ndarray:
        """Per-membrane aperture count per facet, shape (n_z - 1,)."""
        mult = self.aperture_multiplicity
        return self._per_membrane(1 if mult is None else mult, np.int64)

    def resolved_window(self, which: str) -> Window:
        win = self.inlet_window if which == "inlet" else self.outlet_window
        if win is None:
            return ((1, self.n_x), (1, self.n_y))
        return tuple((int(lo), int(hi)) for lo, hi in win)

    def validate(self) -> None:
        for name in ("L_x", "L_y", "L_z", "mu", "p_grad", "l_particle", "N_particles",
                     "c0_entrance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name, unit in (("L_x", "m"), ("L_y", "m"), ("L_z", "m"), ("mu", "Pa s")):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive ({unit}), got {value!r}")
        for name, least in (("n_x", 2), ("n_y", 2), ("n_z", 2), ("seed", 0),
                            ("solver_max_iter", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.p_grad < 0:
            raise ValueError(
                f"p_grad must be negative (Pa/m), so that liquid flows along +z, "
                f"got {self.p_grad!r}")
        for name, unit in (("l_particle", "m"), ("N_particles", "m^-3")):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0 ({unit}), got {value!r}")

        half_cell = min(self.h_x, self.h_y, self.h_z) / 2
        # tiny headroom so a radius set to exactly half a cell edge survives
        # the binary rounding of L/n
        bound = half_cell * (1 + 1e-12)
        radii = self.filter_radii()
        if radii.shape != (self.n_z - 1,):
            raise ValueError(
                f"r_filter must be one radius or n_z - 1 = {self.n_z - 1} values, "
                f"got {radii.size}")
        if not np.all((radii > 0) & (radii <= bound)):
            raise ValueError(
                f"r_filter values must lie in (0, {half_cell!r}] m "
                f"(half the smallest cell edge)")
        if not (0 < self.r_side <= bound):
            raise ValueError(
                f"r_side must lie in (0, {half_cell!r}] m, got {self.r_side!r}")

        for which in ("inlet", "outlet"):
            for axis, (lo, hi), n in zip("xy", self.resolved_window(which), (self.n_x, self.n_y)):
                if not 1 <= lo <= hi <= n:
                    raise ValueError(f"{which}_window {axis} range {lo}..{hi} outside 1..{n}")

        if self.chemistry is not None and not self.c0_entrance > 0:
            raise ValueError(
                f"c0_entrance must be positive (m^-3) when chemistry is set, "
                f"got {self.c0_entrance!r}")
        if not (self.dt == "adaptive" if isinstance(self.dt, str) else 0 < self.dt < math.inf):
            raise ValueError(
                f"dt must be a positive finite time in s or 'adaptive', got {self.dt!r}")
        if self.blocking_law not in ("simple", "corrected"):
            raise ValueError(
                f"blocking_law must be one of simple, corrected; got {self.blocking_law!r}")
        for name, unit in (("solver_tol", "m^3/s"), ("time_limit", "s")):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite ({unit}), got {value!r}")
        for name in ("flow_stop_fraction", "seal_fraction", "depletion_threshold"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
        given = np.asarray(1 if self.aperture_multiplicity is None
                           else self.aperture_multiplicity)
        # a Python int beyond int64 arrives as uint64 or object
        fits = np.issubdtype(given.dtype, np.integer) and np.all(given <= np.iinfo(np.int64).max)
        mult = self.multiplicities() if fits else np.empty(0)
        if mult.shape != (self.n_z - 1,) or np.any(mult < 1):
            raise ValueError(
                f"aperture_multiplicity must be one integer >= 1 or n_z - 1 of them")


@dataclass(eq=False)
class CellGrid:
    """Mutable state of the filter lattice.

    The aperture data are dense arrays indexed by the facet position: the
    z-facet between cells (i, j, k) and (i, j, k+1) is entry [i, j, k] of the
    z arrays, and likewise along x and y.  State codes follow ApertureState.
    """

    n_x: int
    n_y: int
    n_z: int
    h_x: float
    h_y: float
    h_z: float
    mu: float                     # Pa s; kept with the grid so flows are computable
    inlet_mask: np.ndarray        # (n_x, n_y) bool, first layer
    outlet_mask: np.ndarray       # (n_x, n_y) bool, last layer
    z_radius0: np.ndarray         # (n_x, n_y, n_z - 1) float
    z_radius: np.ndarray
    z_state: np.ndarray           # int8
    z_open_count: np.ndarray      # int64, sub-apertures still open per facet
    x_radius0: np.ndarray         # (n_x - 1, n_y, n_z) float
    x_radius: np.ndarray
    x_state: np.ndarray
    y_radius0: np.ndarray         # (n_x, n_y - 1, n_z) float
    y_radius: np.ndarray
    y_state: np.ndarray

    @property
    def n_membranes(self) -> int:
        return self.n_z - 1

    def membrane_state_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(open, particle_blocked, sediment_sealed) facet counts per membrane."""
        m = self.n_membranes
        # one bin per (state, membrane) pair; widen the int8 states before scaling
        codes = m * self.z_state.astype(np.intp) + np.arange(m)
        counts = np.bincount(codes.reshape(-1), minlength=len(ApertureState) * m)
        return tuple(counts.reshape(len(ApertureState), m))


def _window_mask(n_x: int, n_y: int, window: Window) -> np.ndarray:
    (x_lo, x_hi), (y_lo, y_hi) = window
    mask = np.zeros((n_x, n_y), dtype=bool)
    mask[x_lo - 1:x_hi, y_lo - 1:y_hi] = True
    return mask


def build_grid(config: FilterConfig) -> CellGrid:
    """Construct the clean (fully open) lattice described by ``config``."""
    config.validate()
    n_x, n_y, n_z = config.n_x, config.n_y, config.n_z
    mult = config.multiplicities()
    arrays = {}
    for fam in _FACET_FAMILIES:
        shape = [n_x, n_y, n_z]
        shape[fam.axis] -= 1
        radius0 = np.full(shape, config.filter_radii() if fam.filtering else config.r_side,
                          dtype=float)
        values = [radius0, radius0.copy(), np.zeros(shape, dtype=np.int8)]
        if fam.filtering:
            values.append(np.full(shape, mult, dtype=np.int64))
        arrays.update(zip(fam.fields, values))   # radius0, radius, state, open_count

    return CellGrid(
        n_x=n_x, n_y=n_y, n_z=n_z,
        h_x=config.h_x, h_y=config.h_y, h_z=config.h_z,
        mu=config.mu,
        inlet_mask=_window_mask(n_x, n_y, config.resolved_window("inlet")),
        outlet_mask=_window_mask(n_x, n_y, config.resolved_window("outlet")),
        **arrays,
    )
