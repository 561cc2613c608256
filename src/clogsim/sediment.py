"""Near-wall deposition kinetics in a narrow channel.

Laminar liquid moves through a channel of radius R with the parabolic
profile v(r) = v0 (1 - r^2/R^2) and carries a dissolved mineral at number
concentration c0.  The wall consumes the mineral at rate k c1^n (c1 is the
concentration at the wall) and the consumed material accretes as a deposit
layer, while diffusion resupplies the wall across a slow annulus next to it.

Matching the convective supply through the annulus against the wall sink
fixes the annulus thickness and the wall concentration.  Writing
y = 1 - r/R for the dimensionless annulus thickness, a = kR/D and b = k/v0,
a first-order reaction obeys the cubic

    y (2 - y) (a y + 1) = b,

with c1 = c0 / (a y + 1).  For a general order the unknown is c1 itself:

    k c1^n = c0 v0 f (2 - f),   f = D (c0 - c1) / (k c1^n R),

where f plays the role of y and must land in (0, 1).

Below the stationary centreline speed v_stat the matching has no solution
with y < 1: the annulus fills the whole channel, the wall runs in the
diffusion-limited regime, and c1 solves D (c0 - c1) = k c1^n R instead.
Deposit thickness then grows at k c1^n mu2 n2 / (n rho2 N_A) regardless of
regime, so a stagnant channel still silts up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AVOGADRO, Chemistry

CONVECTIVE = "convective"
DIFFUSION_LIMITED = "diffusion-limited"

# Root-finder depth: 2^-48 of the bracket lies well below the 1e-12
# relative target, secant polish pushes it to machine precision.
_BISECT_ITERS = 48
_SECANT_ITERS = 4


class CalibrationInfeasibleError(ValueError):
    """Measured growth is too fast for diffusion to supply at these constants."""


@dataclass(frozen=True)
class SlowLayerSolution:
    """Stationary state of the slow annulus at one channel."""

    thickness: float        # dimensionless, 1 - boundary_radius / R
    boundary_radius: float  # m, radius where the slow annulus begins
    wall_concentration: float  # m^-3
    regime: str             # CONVECTIVE or DIFFUSION_LIMITED


@dataclass(frozen=True)
class CalibrationResult:
    rate_constant: float          # m^(3n-2)/s
    entrance_concentration: float  # m^-3
    wall_concentration: float      # m^-3


@dataclass(frozen=True)
class DepletionEstimate:
    delta_c0: float         # m^-3, concentration drop along the path
    average_concentration: float  # m^-3, cross-section average at the entrance
    negligible: bool


def _bracketed_root(func, lo, hi):
    """Root of ``func`` inside [lo, hi], elementwise on arrays.

    Bisection narrows the bracket, then a few secant steps (clamped back into
    the bracket, so a wild step cannot escape) polish the estimate.  The
    bracket must change sign; monotone residuals guarantee that here.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    f_lo = np.asarray(func(lo), dtype=float)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f_mid = np.asarray(func(mid), dtype=float)
        low_side = (f_mid > 0) == (f_lo > 0)
        lo = np.where(low_side, mid, lo)
        f_lo = np.where(low_side, f_mid, f_lo)
        hi = np.where(low_side, hi, mid)
    x0, x1 = lo, hi
    f0 = f_lo
    f1 = np.asarray(func(hi), dtype=float)
    x = 0.5 * (lo + hi)
    for _ in range(_SECANT_ITERS):
        denom = f1 - f0
        safe = np.where(denom == 0.0, 1.0, denom)
        x = np.where(denom == 0.0, 0.5 * (x0 + x1), x1 - f1 * (x1 - x0) / safe)
        x = np.clip(x, lo, hi)
        fx = np.asarray(func(x), dtype=float)
        x0, f0 = x1, f1
        x1, f1 = x, fx
    return x


def velocity_profile(v0: float, radial_pos, radius: float):
    """Parabolic axial speed v0 (1 - r^2/R^2) at radial position(s) r."""
    if not radius > 0:
        raise ValueError(f"radius must be positive (m), got {radius!r}")
    r = np.asarray(radial_pos, dtype=float)
    if np.any(r < 0) or np.any(r > radius):
        raise ValueError("radial position must lie in [0, radius]")
    out = v0 * (1.0 - (r / radius) ** 2)
    return float(out) if np.isscalar(radial_pos) else out


def wall_concentration_slow(chem: Chemistry, radius, c0: float):
    """Wall concentration in the diffusion-limited regime.

    Solves D (c0 - c1) = k c1^n R; closed forms for orders 1 and 2,
    bracketed root otherwise.  Accepts scalar or array radius.
    """
    k, n, D = chem.rate_constant, chem.reaction_order, chem.diffusivity
    r = np.asarray(radius, dtype=float)
    if n == 1:
        c1 = D * c0 / (k * r + D)
    elif n == 2:
        disc = D * D + 4.0 * k * r * D * c0
        c1 = np.where(r > 0, (np.sqrt(disc) - D) / np.maximum(2.0 * k * r, 1e-300), c0)
    else:
        def residual(c):
            return D * (c0 - c) - k * c ** n * r
        c1 = _bracketed_root(residual, np.zeros_like(r), np.full_like(r, c0))
    return float(c1) if np.isscalar(radius) else c1


def stationary_velocity(chem: Chemistry, radius, c0: float):
    """Centreline speed below which the slow annulus spans the whole channel."""
    if not c0 > 0:
        raise ValueError(f"c0 must be positive (m^-3), got {c0!r}")
    c1 = wall_concentration_slow(chem, radius, c0)
    v = chem.rate_constant * np.asarray(c1, dtype=float) ** chem.reaction_order / c0
    return float(v) if np.isscalar(radius) else v


def _convective_first_order(chem: Chemistry, radius, c0: float, v0):
    """Thickness and wall concentration for order 1: cubic in the thickness y.

    Above the stationary speed (0 < b < 1 + a) the monic form
    y^3 + B y^2 + C y + E, with B = (1 - 2a)/a, C = -2/a and E = b/a, has
    one root below 0, one in (0, 1) and one above 1.  Vieta's trigonometric
    form gives the outer root that its shift -B/3 adds to without
    cancellation (the one below 0 when B > 0, else the one above 1);
    dividing it out leaves a quadratic whose root in [0, 1] comes without
    cancellation either.  The middle root taken straight from the
    trigonometric form loses all accuracy as a -> 0.
    """
    k, D = chem.rate_constant, chem.diffusivity
    a = k * np.asarray(radius, dtype=float) / D
    b = k / np.asarray(v0, dtype=float)
    B, C, E = (1.0 - 2.0 * a) / a, -2.0 / a, b / a
    Q = (B * B - 3.0 * C) / 9.0
    R = (2.0 * B * B * B - 9.0 * B * C + 27.0 * E) / 54.0
    # the sign of B picks the outer root, and keeps the angle in [0, pi/3]
    sqrt_q = np.copysign(np.sqrt(Q), B)
    theta = np.arccos(np.clip(R / (Q * sqrt_q), -1.0, 1.0))
    big = -2.0 * sqrt_q * np.cos(theta / 3.0) - B / 3.0
    # the quadratic y^2 + e y + f left after dividing out ``big``; q is its
    # root of larger magnitude, f / q the other
    f = -E / big
    e = (f - C) / big
    q = -0.5 * (e + np.copysign(np.sqrt(np.maximum(e * e - 4.0 * f, 0.0)), e))
    y = np.clip(np.where((big > 0) & (q > 0), q, f / q), 0.0, 1.0)
    c1 = c0 / (a * y + 1.0)
    return y, c1


def _convective_general(chem: Chemistry, radius, c0: float, v0, c_slow):
    """General order: root in the wall concentration, annulus fraction f < 1."""
    k, n, D = chem.rate_constant, chem.reaction_order, chem.diffusivity
    r = np.asarray(radius, dtype=float)
    v = np.asarray(v0, dtype=float)

    def residual(c):
        sink = k * c ** n
        f = D * (c0 - c) / (sink * r)
        return sink - c0 * v * f * (2.0 - f)

    c1 = _bracketed_root(residual, np.asarray(c_slow, dtype=float), np.full_like(r, c0))
    y = D * (c0 - c1) / (k * c1 ** n * r)
    return np.clip(y, 0.0, 1.0), c1


def _slow_layer(chem: Chemistry, r, c0: float, v):
    """Per element of the equal-shape arrays ``r`` and ``v``: the wall
    concentration and whether the regime is convective; then the annulus
    thickness of the convective elements alone, in their order (None if
    there is none), as every other element's is 1.

    Diffusion-limited at or below the stationary speed, convective matching
    above it, in closed form for order 1.
    """
    c_slow = wall_concentration_slow(chem, r, c0)
    v_stat = chem.rate_constant * c_slow ** chem.reaction_order / c0
    c1, y = c_slow, None
    conv = v > v_stat
    if np.any(conv):
        if chem.reaction_order == 1:
            y, c1[conv] = _convective_first_order(chem, r[conv], c0, v[conv])
        else:
            y, c1[conv] = _convective_general(chem, r[conv], c0, v[conv], c_slow[conv])
    return c1, conv, y


def wall_concentration_profile(chem: Chemistry, radius, c0: float, v0):
    """Wall concentration for many channels at once (array radius and v0),
    each in its own regime, as ``solve_slow_layer`` gives it for one."""
    r = np.atleast_1d(np.asarray(radius, dtype=float))
    v = np.atleast_1d(np.asarray(v0, dtype=float))
    return _slow_layer(chem, r, c0, v)[0]


def solve_slow_layer(chem: Chemistry, radius: float, c0: float, v0: float) -> SlowLayerSolution:
    """Stationary annulus thickness and wall concentration for one channel:
    the one-element case of ``wall_concentration_profile``, bit for bit."""
    if not radius > 0:
        raise ValueError(f"radius must be positive (m), got {radius!r}")
    if not c0 > 0:
        raise ValueError(f"c0 must be positive (m^-3), got {c0!r}")
    if v0 < 0:
        raise ValueError(f"v0 must be >= 0 (m/s), got {v0!r}")
    c1, conv, y = _slow_layer(chem, np.array([radius], dtype=float), c0,
                              np.array([v0], dtype=float))
    y = float(y[0]) if conv[0] else 1.0
    return SlowLayerSolution(y, (1.0 - y) * radius, float(c1[0]),
                             CONVECTIVE if conv[0] else DIFFUSION_LIMITED)


def growth_rate(chem: Chemistry, wall_concentration):
    """Deposit thickness growth ds/dt [m/s] at wall concentration c1."""
    c1 = np.asarray(wall_concentration, dtype=float)
    rate = (chem.rate_constant * c1 ** chem.reaction_order
            * chem.sediment_molar_mass * chem.sediment_stoichiometry
            / (chem.reaction_order * chem.sediment_density * AVOGADRO))
    return float(rate) if np.isscalar(wall_concentration) else rate


def calibrate_rate_constant(growth: float, mass_concentration: float, *,
                            solute_molar_mass: float, sediment_molar_mass: float,
                            sediment_density: float, diffusivity: float, radius: float,
                            reaction_order: int = 1,
                            sediment_stoichiometry: int = 1) -> CalibrationResult:
    """Rate constant from an observed deposit growth rate.

    ``growth`` is the measured thickness rate [m/s] in a channel of the given
    radius fed at mass concentration [kg/m^3].  Inverts the diffusion-limited
    stationary state: the wall sink that sustains ``growth`` must be matched
    by diffusion across the channel, which bounds the feasible growth.
    """
    if not growth > 0:
        raise ValueError(f"growth must be positive (m/s), got {growth!r}")
    if not mass_concentration > 0:
        raise ValueError(
            f"mass_concentration must be positive (kg/m^3), got {mass_concentration!r}")

    c0 = mass_concentration * AVOGADRO / solute_molar_mass
    supply = diffusivity * mass_concentration * sediment_molar_mass * sediment_stoichiometry
    demand = growth * reaction_order * sediment_density * solute_molar_mass * radius
    if not supply > demand:
        raise CalibrationInfeasibleError(
            f"infeasible calibration: need D*mass_concentration*sediment_molar_mass"
            f"*sediment_stoichiometry > growth*reaction_order*sediment_density"
            f"*solute_molar_mass*radius, got {supply:.6g} <= {demand:.6g}")

    sink = growth * reaction_order * sediment_density * AVOGADRO / (
        sediment_molar_mass * sediment_stoichiometry)          # k c1^n, m^-2 s^-1
    c1 = c0 - sink * radius / diffusivity
    k = sink / c1 ** reaction_order
    return CalibrationResult(float(k), float(c0), float(c1))


def axial_depletion(chem: Chemistry, cavity_radius: float, c0: float, c1: float,
                    v0: float, length: float, threshold: float = 0.05) -> DepletionEstimate:
    """Concentration drop along a cavity path of the given length.

    Balances the wall sink 2 pi R k c1^n L against the volumetric transport
    pi R^2 v0 / 2 through a cavity of radius R, giving
    delta_c0 = 4 k c1^n L / (v0 R).  Also reports the cross-section average
    concentration: piecewise profile c0 in the fast core, linear down to c1
    across the slow annulus (which collapses to c0/3 + 2 c1/3 when the
    annulus fills the cavity).
    """
    if not cavity_radius > 0:
        raise ValueError(f"cavity_radius must be positive (m), got {cavity_radius!r}")
    if not length > 0:
        raise ValueError(f"length must be positive (m), got {length!r}")
    k, n, D = chem.rate_constant, chem.reaction_order, chem.diffusivity
    sink = k * c1 ** n
    if v0 > 0:
        delta = 4.0 * sink * length / (v0 * cavity_radius)
    else:
        delta = math.inf

    v_stat = stationary_velocity(chem, cavity_radius, c0)
    if v0 > v_stat:
        y = min(max(D * (c0 - c1) / (sink * cavity_radius), 0.0), 1.0)
        r = (1.0 - y) * cavity_radius
        R = cavity_radius
        quad = (R * R + R * r + r * r) / (R * R)   # (R^3 - r^3)/(R - r), scaled
        avg = (c0 * (r * r + R * (R + r)) / (R * R) - c0 * (2.0 / 3.0) * quad
               + c1 * (-r * (R + r)) / (R * R) + c1 * (2.0 / 3.0) * quad)
    else:
        avg = c0 / 3.0 + 2.0 * c1 / 3.0

    return DepletionEstimate(float(delta), float(avg), bool(delta / c0 < threshold))
