import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

import vortex_uca as v

# Property tests draw the same examples on every run and save no failing
# examples between runs, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# The default experiment parameter set used throughout the suite:
# N = M = 10 elements, r = R = wavelength = 0.1 m, d = 1 m, beta = 4*pi,
# no offsets, coaxial unless overridden.
REF_KWARGS = dict(
    n_tx=10,
    n_rx=10,
    radius_tx=0.1,
    radius_rx=0.1,
    center_distance=1.0,
    wavelength=0.1,
    beta=4.0 * math.pi,
)


def reference_geometry(**overrides) -> v.LinkGeometry:
    geometry = v.LinkGeometry(**REF_KWARGS)
    return dataclasses.replace(geometry, **overrides) if overrides else geometry


def random_geometry(rng: np.random.Generator) -> v.LinkGeometry:
    return v.LinkGeometry(
        n_tx=int(rng.integers(1, 17)),
        n_rx=int(rng.integers(1, 17)),
        radius_tx=float(rng.uniform(0.02, 2.0)),
        radius_rx=float(rng.uniform(0.02, 2.0)),
        center_distance=float(rng.uniform(0.5, 60.0)),
        bearing_theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        tilt_phi=float(rng.uniform(0.0, 0.5 * math.pi)),
        offset_alpha_tx=float(rng.uniform(0.0, 2.0 * math.pi)),
        offset_alpha_rx=float(rng.uniform(0.0, 2.0 * math.pi)),
        wavelength=float(rng.uniform(0.01, 1.0)),
        beta=float(rng.uniform(0.5, 20.0)),
    )


def coordinate_distances(g: v.LinkGeometry, m: int, n: int) -> tuple[float, float]:
    """(projected, exact) distances computed straight from element coordinates."""
    tx, rx = v.element_positions(g)
    delta = rx[m - 1] - tx[n - 1]
    return float(np.hypot(delta[0], delta[1])), float(np.linalg.norm(delta))


@pytest.fixture
def ref_geometry() -> v.LinkGeometry:
    return reference_geometry()
