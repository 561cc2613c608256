"""Schedules that size the filtering apertures, and closed-form lifetime estimates.

A schedule assigns each membrane a target catch probability, then sizes
the aperture radius that realizes it for a given rod length.  The
equal-contamination schedule makes every membrane catch the same share
of the incoming particles; the quantile schedule spreads catch
probabilities evenly over (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .engine import pass_probability
from .hydraulics import _conduit_coefficient
from .model import FilterConfig


def catch_probability(radius, rod_length: float):
    """Probability that a rod is caught on an aperture (1 - pass)."""
    q = pass_probability(radius, rod_length)
    return 1.0 - q


def radius_for_catch(catch, rod_length: float):
    """Radius of the aperture that gives the target catch probability.

    Inverts catch = sqrt(1 - (2r/l)^2): r = (l/2) sqrt(1 - catch^2).
    catch = 1 closes the aperture (radius 0); catch = 0 gives the widest
    hole a rod cannot fall through, r = l/2.
    """
    if not rod_length > 0:
        raise ValueError(f"rod_length must be positive (m), got {rod_length!r}")
    c = np.asarray(catch, dtype=float)
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError("catch probability must lie in [0, 1]")
    r = 0.5 * rod_length * np.sqrt(np.maximum(1.0 - c * c, 0.0))
    return float(r) if np.isscalar(catch) else r


@dataclass(frozen=True)
class LayerSchedule:
    """Per-membrane catch probabilities and, when sized, aperture radii."""
    kind: str
    catch_probabilities: tuple[float, ...]
    radii: tuple[float, ...] | None = None

    @property
    def membranes(self) -> int:
        return len(self.catch_probabilities)

    def penetration(self) -> float:
        return penetration_probability(self.catch_probabilities)


def _sized(kind: str, catches: np.ndarray, rod_length: float | None) -> LayerSchedule:
    radii = None
    if rod_length is not None:
        radii = tuple(float(r) for r in radius_for_catch(catches, rod_length))
    return LayerSchedule(kind=kind, catch_probabilities=tuple(float(c) for c in catches),
                         radii=radii)


def equal_contamination_schedule(first_catch: float, membranes: int,
                                 rod_length: float | None = None) -> LayerSchedule:
    """Schedule where every membrane catches the same number of particles.

    If membrane 1 catches fraction c1 of the feed, membrane k must catch
    c1/(1 - (k-1) c1) of what reaches it so all absolute catches match.
    Feasible only for c1 <= 1/membranes (the last membrane's probability
    reaches 1 at the bound).  Penetration telescopes to 1 - membranes*c1.
    """
    if membranes < 1:
        raise ValueError(f"membranes must be >= 1, got {membranes!r}")
    if not 0.0 < first_catch <= 1.0 / membranes:
        raise ValueError(
            f"first_catch must lie in (0, 1/membranes] = (0, {1.0 / membranes!r}]; "
            f"got {first_catch!r}")
    k = np.arange(membranes)
    catches = first_catch / (1.0 - k * first_catch)
    return _sized("equal-contamination", np.minimum(catches, 1.0), rod_length)


def quantile_schedule(layer_count: int, rod_length: float | None = None) -> LayerSchedule:
    """Catch probabilities k/layer_count for membranes k = 1..layer_count-1."""
    if layer_count < 2:
        raise ValueError(f"layer_count must be >= 2, got {layer_count!r}")
    catches = np.arange(1, layer_count) / layer_count
    return _sized("quantile", catches, rod_length)


def uniform_schedule(catch: float, membranes: int,
                     rod_length: float | None = None) -> LayerSchedule:
    """The same catch probability on every membrane."""
    if membranes < 1:
        raise ValueError(f"membranes must be >= 1, got {membranes!r}")
    if not 0.0 <= catch <= 1.0:
        raise ValueError(f"catch must lie in [0, 1], got {catch!r}")
    return _sized("uniform", np.full(membranes, float(catch)), rod_length)


def penetration_probability(schedule: LayerSchedule | Iterable[float]) -> float:
    """Probability a particle passes every membrane, prod(1 - catch_k)."""
    if isinstance(schedule, LayerSchedule):
        probs: Sequence[float] = schedule.catch_probabilities
    else:
        probs = tuple(schedule)
    c = np.asarray(probs, dtype=float)
    if np.any(c < 0) or np.any(c > 1):
        raise ValueError("catch probabilities must lie in [0, 1]")
    return float(np.prod(1.0 - c))


def quantile_penetration_forms(layer_count: int) -> tuple[float, float]:
    """Penetration of the quantile schedule, two ways.

    Returns (product, shortcut): the direct product
    prod_{k=1}^{n-1} (1 - k/n) = (n-1)!/n^(n-1), and the commonly quoted
    shortcut (n-1)!/(n-1)^(n-2).  The two differ (e.g. 5.37e-5 vs 1.54e-3
    at n = 12); the product is the one the schedule actually realizes.
    """
    if layer_count < 2:
        raise ValueError(f"layer_count must be >= 2, got {layer_count!r}")
    n = layer_count
    m = n - 1
    product = math.factorial(m) / n ** m
    shortcut = math.factorial(m) / m ** (m - 1)
    return product, shortcut


@dataclass(frozen=True)
class LifetimeEstimate:
    """Clean-filter flow and blocking-time estimates for a uniform design."""
    aperture_flow: float     # m^3/s through one open filtering aperture
    total_flow: float        # m^3/s through the whole clean filter
    particle_exposure: float  # N*T product to full blocking, s/m^3
    lifetime: float          # s, at the configured particle concentration
    capacity: float          # particles caught over the lifetime


def lifetime_estimates(config: FilterConfig) -> LifetimeEstimate:
    """Order-of-magnitude blocking estimates from the clean geometry.

    Treats every cell column as carrying half an aperture's worth of flow
    and every membrane as needing its apertures hit once.  The per-aperture
    flow is the pressure network's conduit law, pi h^2 r^2 |dp/dz| / (20 mu)
    for cubic cells of side h; the exposure to block the filter is
    layer_count / aperture_flow, and the caught-particle capacity works out
    to n_x n_y n_z / 2 independent of geometry.  Assumes cubic cells and
    uses the mean membrane radius.
    """
    h = config.h_z
    if not (math.isclose(config.h_x, h, rel_tol=1e-9)
            and math.isclose(config.h_y, h, rel_tol=1e-9)):
        raise ValueError("lifetime estimate assumes cubic cells (h_x = h_y = h_z)")
    r = float(np.mean(config.filter_radii()))
    if not r > 0:
        raise ValueError("mean filtering radius must be positive")
    # the conduit law under the gradient p_grad, over a unit length
    coeff = _conduit_coefficient(config.h_x * config.h_y, 2.0 * (config.h_x + config.h_y),
                                 config.mu, 1.0)
    aperture_flow = coeff * math.pi * r * r * abs(config.p_grad)
    total = 0.5 * aperture_flow * config.n_x * config.n_y
    exposure = config.n_z / aperture_flow
    if config.N_particles > 0:
        lifetime = exposure / config.N_particles
        capacity = total * config.N_particles * lifetime
    else:
        lifetime = math.inf
        capacity = 0.5 * config.n_x * config.n_y * config.n_z
    return LifetimeEstimate(aperture_flow=aperture_flow, total_flow=total,
                            particle_exposure=exposure, lifetime=lifetime,
                            capacity=capacity)
