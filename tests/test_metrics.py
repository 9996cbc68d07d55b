import dataclasses
import math

import numpy as np
import pytest
from scipy.special import jv as scipy_jv

import vortex_uca as v
from vortex_uca.channel import INVERSION_TOL
from vortex_uca.geometry import DEGENERACY_TOL
from conftest import reference_geometry


def uniform_budget(geometry, power=1.0, variance=0.01, seed=1):
    return v.LinkBudget.uniform(geometry, power, variance, seed)


def test_aggregate_coaxial_closed_form():
    g = reference_geometry()
    noise = v.NoiseModel.uniform(0.01, 10, seed=1)
    b = float(v.mode_gain_factors(g).b_factor[0])
    for mode in (-4, 0, 1, 5):
        expected = 10 * 0.01 / v.bessel_j(mode, b) ** 2
        assert v.aggregate_noise_variance(mode, g, noise) == pytest.approx(expected, rel=1e-12)


def test_aggregate_zero_noise():
    g = reference_geometry()
    noise = v.NoiseModel.uniform(0.0, 10, seed=1)
    assert v.aggregate_noise_variance(0, g, noise) == 0.0
    # Noiseless modes add infinite SE when they carry power, none when silent.
    assert v.spectrum_efficiency(g, uniform_budget(g, variance=0.0)) == math.inf
    assert v.spectrum_efficiency(g, uniform_budget(g, power=0.0, variance=0.0)) == 0.0


def test_aggregate_regression_anchor():
    # frozen on first run and cross-checked against an independent evaluation
    g = reference_geometry(tilt_phi=math.pi / 3)
    noise = v.NoiseModel.uniform(0.01, 10, seed=1)
    assert v.aggregate_noise_variance(1, g, noise) == pytest.approx(
        1.0308335299625626, rel=1e-12
    )


def test_aggregate_unobservable_mode():
    g = reference_geometry(radius_tx=1e-300)
    noise = v.NoiseModel.uniform(0.01, 10, seed=1)
    with pytest.raises(v.ModeUnobservable):
        v.aggregate_noise_variance(3, g, noise)


def test_spectrum_efficiency_coaxial_reduction():
    g = reference_geometry()
    budget = uniform_budget(g)
    h_abs = abs(v.mode_gain_factors(g).h_scalar)
    b = float(v.mode_gain_factors(g).b_factor[0])
    expected = sum(
        math.log2(1.0 + 10 * h_abs**2 * v.bessel_j(mode, b) ** 2 / 0.01)
        for mode in v.mode_index_set(g)
    )
    assert v.spectrum_efficiency(g, budget) == pytest.approx(expected, rel=1e-12)


def test_spectrum_efficiency_mode_zero_term():
    g = reference_geometry()
    h_abs = abs(v.mode_gain_factors(g).h_scalar)
    b = float(v.mode_gain_factors(g).b_factor[0])
    snr = 10 * h_abs**2 * v.bessel_j(0, b) ** 2 / 0.01
    assert snr == pytest.approx(80.395, abs=0.01)
    assert math.log2(1 + snr) == pytest.approx(6.347, abs=0.001)


def test_spectrum_efficiency_monotone_in_power():
    g = reference_geometry(tilt_phi=0.5)
    low = uniform_budget(g, power=1.0)
    high = uniform_budget(g, power=2.0)
    assert v.spectrum_efficiency(g, high) > v.spectrum_efficiency(g, low)


def test_spectrum_efficiency_decreasing_in_each_variance():
    g = reference_geometry(tilt_phi=0.5)
    base = np.full(10, 0.01)
    budget = v.LinkBudget(mode_powers=np.ones(10), noise=v.NoiseModel(base, seed=1))
    se_base = v.spectrum_efficiency(g, budget)
    for element in (0, 4, 9):
        bumped = base.copy()
        bumped[element] *= 10.0
        worse = v.LinkBudget(mode_powers=np.ones(10), noise=v.NoiseModel(bumped, seed=1))
        assert v.spectrum_efficiency(g, worse) < se_base


def test_spectrum_efficiency_vanishes_without_signal_or_snr():
    g = reference_geometry()
    silent = uniform_budget(g, power=0.0)
    assert v.spectrum_efficiency(g, silent) == 0.0
    drowned = uniform_budget(g, variance=1e12)
    assert v.spectrum_efficiency(g, drowned) < 1e-9
    assert v.spectrum_efficiency(g, uniform_budget(g)) > 0.0


def test_se_sweep_single_point_matches_direct_call():
    g = reference_geometry()
    budget = uniform_budget(g)
    points = v.se_sweep(g, "phi", [0.3], budget)
    expected = v.spectrum_efficiency(dataclasses.replace(g, tilt_phi=0.3), budget)
    assert len(points) == 1
    assert points[0].value == 0.3
    assert points[0].spectrum_efficiency == pytest.approx(expected, rel=1e-15)


def test_se_sweep_deterministic():
    g = reference_geometry()
    budget = uniform_budget(g)
    grid = np.linspace(0.0, 1.5, 31)
    first = v.se_sweep(g, "phi", grid, budget)
    second = v.se_sweep(g, "phi", grid, budget)
    assert first == second


def test_se_sweep_reports_gaps():
    g = reference_geometry(radius_tx=1e-300)
    budget = uniform_budget(g)
    points = v.se_sweep(g, "phi", [0.0, 0.2], budget)
    assert [p.spectrum_efficiency for p in points] == [None, None]


def test_se_sweep_distance_variable():
    g = reference_geometry()
    budget = uniform_budget(g)
    points = v.se_sweep(g, "distance", [1.0, 2.0, 5.0], budget)
    values = [p.spectrum_efficiency for p in points]
    assert all(se is not None for se in values)
    assert values[0] > values[-1]  # path loss grows with distance


def test_se_sweep_rejects_unknown_variable():
    g = reference_geometry()
    with pytest.raises(ValueError):
        v.se_sweep(g, "radius", [0.1], uniform_budget(g))
    with pytest.raises(ValueError):
        v.se_sweep(g, "phi", [], uniform_budget(g))


def test_budget_validation():
    g = reference_geometry()
    with pytest.raises(ValueError):
        v.LinkBudget(mode_powers=np.array([-1.0] * 10), noise=v.NoiseModel.uniform(0.01, 10, 1))
    with pytest.raises(v.LengthMismatch):
        v.LinkBudget(mode_powers=np.ones((2, 5)), noise=v.NoiseModel.uniform(0.01, 10, 1))
    with pytest.raises(v.LengthMismatch):
        v.spectrum_efficiency(
            g,
            v.LinkBudget(mode_powers=np.ones(3), noise=v.NoiseModel.uniform(0.01, 10, 1)),
        )
    with pytest.raises(v.LengthMismatch):
        v.spectrum_efficiency(g, uniform_budget(dataclasses.replace(g, n_rx=7)))


def _far_field_se(g, tilt, variance):
    """SE of the far-field model written out with scipy's jv, None at a gap.

    Per rx element b_m = 2*pi*r*spread_m / (lambda*range), spread_m being the
    element's distance from the projected tx center; per mode the aggregated
    noise sum_m sigma^2 / |J_l(b_m)|^2; SE = sum_l log2(1 + M^2 |h|^2 p / var_l)
    with p = 1 and |h| = sqrt(N) beta*lambda / (4*pi*range).
    """
    srange = math.sqrt(g.center_distance**2 + g.radius_tx**2 + g.radius_rx**2)
    h_power = g.n_tx * (g.beta * g.wavelength / (4.0 * math.pi * srange)) ** 2
    gap = 2.0 * math.pi * np.arange(g.n_rx) / g.n_rx + g.offset_alpha_rx - g.bearing_theta
    inplane = g.center_distance * math.sin(tilt)
    spread = np.hypot(g.radius_rx - inplane * np.cos(gap), inplane * np.sin(gap))
    if np.min(spread) <= DEGENERACY_TOL:
        return None
    b = 2.0 * math.pi * g.radius_tx * spread / (g.wavelength * srange)
    modes = np.array(v.mode_index_set(g))
    j_abs = np.abs(scipy_jv(modes[:, None], b))
    if np.min(j_abs) < INVERSION_TOL:
        return None
    var = np.sum(variance / j_abs**2, axis=1)
    return float(np.sum(np.log2(1.0 + g.n_rx**2 * h_power / var)))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_se_sweep_matches_scipy_far_field_se(n):
    # Tilts put the in-plane offset at 0..2 rx radii; rx element 1 faces the
    # projected tx center at 1, where high modes vanish and points are gaps.
    r, big_r, d, bearing, variance = 0.12, 0.15, 4.0, 1.1, 1e-6
    b0 = 0.8 * (0.5 * n + 2.0)
    g = v.LinkGeometry(
        n_tx=n, n_rx=n, radius_tx=r, radius_rx=big_r, center_distance=d,
        bearing_theta=bearing, offset_alpha_tx=0.4, offset_alpha_rx=bearing,
        wavelength=2.0 * math.pi * r * big_r / (d * b0),
    )
    tilts = np.arcsin(np.linspace(0.0, 2.0, 41) * big_r / d)
    points = v.se_sweep(g, "phi", tilts, uniform_budget(g, 1.0, variance))
    expected = [_far_field_se(g, tilt, variance) for tilt in tilts]
    gaps = [i for i, se in enumerate(expected) if se is None]
    assert [i for i, p in enumerate(points) if p.spectrum_efficiency is None] == gaps
    assert 0 < len(gaps) < len(tilts)
    for point, se in zip(points, expected):
        if se is not None:
            assert point.spectrum_efficiency == pytest.approx(se, rel=1e-12, abs=0.0)
