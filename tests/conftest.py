from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from clogsim.hydraulics import FlowField, _layer_net_outflow
from clogsim.model import Chemistry

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
# exact expected texts of the JSON grid and config echo formats
DATA_DIR = REPO_ROOT / "tests" / "data"

# Calibration benchmark: 0.1 mm of deposit per 30-day month in a 1e-6 m
# channel fed at 1e-3 kg/m^3.  Frozen full-precision outputs below are the
# oracle for the calibration round trip.
GROWTH = 1e-4 / (30 * 86400)            # m/s
MASS_CONCENTRATION = 1e-3               # kg/m^3
SOLUTE_MOLAR_MASS = 0.136               # kg/mol
SEDIMENT_MOLAR_MASS = 0.100             # kg/mol
SEDIMENT_DENSITY = 2710.0               # kg/m^3
DIFFUSIVITY = 1e-9                      # m^2/s
CHANNEL_RADIUS = 1e-6                   # m

RATE_CONSTANT = 1.6576116288274028e-4
ENTRANCE_CONCENTRATION = 4.428044676470588e21
WALL_CONCENTRATION = 3.79841499052923e21


@pytest.fixture(scope="session")
def calcium() -> Chemistry:
    return Chemistry(
        rate_constant=RATE_CONSTANT,
        reaction_order=1,
        diffusivity=DIFFUSIVITY,
        sediment_molar_mass=SEDIMENT_MOLAR_MASS,
        sediment_stoichiometry=1,
        sediment_density=SEDIMENT_DENSITY,
        solute_molar_mass=SOLUTE_MOLAR_MASS,
    )


def cell_net_outflow(flows: FlowField, n_x: int, n_y: int, n_z: int) -> np.ndarray:
    """Net signed outflow of every cell, m^3/s (zero for converged inner cells),
    layer by layer as ``total_flow`` and ``outlet_flow`` sum their windows."""
    net = np.empty((n_x, n_y, n_z))
    for k in range(n_z):
        net[:, :, k] = _layer_net_outflow(flows, k)
    return net
