import cmath
import dataclasses
import math

import numpy as np
import pytest

import vortex_uca as v
from conftest import random_geometry, reference_geometry
from vortex_uca.channel import _sweep_gains

# Frozen values for the default parameter set (independently recomputed
# from the raw formulas with scipy Bessel functions before freezing).
B_COAXIAL = 0.6221280493971008
H_ABS = 0.31311214554257477
GAIN_MODE0 = 0.2835402137274107
GAIN_MODE1 = 0.09276115446000588


def cross_terms(g, m, n):
    """Raw cosine cross-terms, recomputed here independently of the package."""
    psi = 2 * math.pi * (m - 1) / g.n_rx + g.offset_alpha_rx
    phi = 2 * math.pi * (n - 1) / g.n_tx + g.offset_alpha_tx
    sin_tilt = math.sin(g.tilt_phi)
    return (
        g.radius_tx * g.radius_rx * math.cos(psi - phi),
        g.radius_rx * g.center_distance * sin_tilt * math.cos(psi - g.bearing_theta),
        g.radius_tx * g.center_distance * sin_tilt * math.cos(phi - g.bearing_theta),
    )


def test_exact_gain_aligned_element():
    g = reference_geometry()
    gain = v.exact_channel_gain(1, 1, g)
    # distance 1 m = ten wavelengths: unit cycles, magnitude beta*lambda/(4*pi*d)
    assert gain == pytest.approx(0.1 + 0.0j, abs=1e-12)


def test_exact_gain_inverse_distance_scaling():
    g1 = reference_geometry()
    g2 = reference_geometry(radius_tx=0.2, radius_rx=0.2, center_distance=2.0)
    for m, n in [(1, 1), (4, 7)]:
        assert abs(v.exact_channel_gain(m, n, g2)) == pytest.approx(
            0.5 * abs(v.exact_channel_gain(m, n, g1)), rel=1e-12
        )


def test_exact_gain_coordinate_oracle():
    g = reference_geometry(tilt_phi=math.pi / 3)
    tx, rx = v.element_positions(g)
    dist = float(np.linalg.norm(rx[2] - tx[1]))
    expected = (
        g.beta * g.wavelength * cmath.exp(-2j * math.pi * dist / g.wavelength)
        / (4.0 * math.pi * dist)
    )
    assert v.exact_channel_gain(3, 2, g) == pytest.approx(expected, rel=1e-12)


def test_farfield_gain_constant_magnitude():
    g = reference_geometry(tilt_phi=math.pi / 5, bearing_theta=0.4)
    expected = g.beta * g.wavelength / (4.0 * math.pi * g.farfield_range)
    for m in range(1, 11):
        for n in range(1, 11, 3):
            assert abs(v.farfield_channel_gain(m, n, g)) == pytest.approx(expected, rel=1e-14)


def test_farfield_gain_phase_identity():
    # The far-field gain equals the constant amplitude with the phase of the
    # expanded distance whose element-gap and tx-bearing cross-terms enter
    # with flipped sign (the sine-form absorbs them through the offset angle).
    g = reference_geometry(tilt_phi=math.pi / 6, bearing_theta=1.1, offset_alpha_rx=0.3)
    amp = g.beta * g.wavelength / (4.0 * math.pi * g.farfield_range)
    for m, n in [(1, 1), (2, 7), (9, 4)]:
        term_rr, term_rx, term_tx = cross_terms(g, m, n)
        phase_dist = g.farfield_range - (term_rx - term_rr + term_tx) / g.farfield_range
        expected = amp * cmath.exp(-2j * math.pi * phase_dist / g.wavelength)
        assert v.farfield_channel_gain(m, n, g) == pytest.approx(expected, rel=1e-12)


def test_farfield_b_factor_coaxial():
    g = reference_geometry()
    f = v.mode_gain_factors(g)
    np.testing.assert_allclose(f.b_factor, B_COAXIAL, rtol=1e-12)


def test_farfield_vanishing_tx_radius():
    g = reference_geometry(radius_tx=1e-9)
    f = v.mode_gain_factors(g)
    assert np.all(f.b_factor < 1e-7)
    for m in (1, 5):
        assert v.farfield_channel_gain(m, 3, g) == pytest.approx(
            complex(f.a_factor[m - 1]), abs=1e-7
        )


def test_mode_gain_direct_single_element():
    g = v.LinkGeometry(n_tx=1, n_rx=3, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    for m in range(1, 4):
        assert v.mode_gain_direct(m, 0, g) == pytest.approx(
            v.farfield_channel_gain(m, 1, g), rel=1e-14
        )


def test_mode_gain_direct_linear_in_beta():
    g1 = reference_geometry(tilt_phi=0.4)
    g2 = dataclasses.replace(g1, beta=2.0 * g1.beta)
    assert v.mode_gain_direct(3, 2, g2) == pytest.approx(
        2.0 * v.mode_gain_direct(3, 2, g1), rel=1e-12
    )


def test_mode_gain_direct_magnitude_element_independent_coaxial():
    g = reference_geometry()
    for mode in (0, 1, 3, 5):
        mags = [abs(v.mode_gain_direct(m, mode, g)) for m in range(1, 11)]
        assert np.var(mags) < 1e-20


def test_mode_gain_closed_reference_magnitudes():
    g = reference_geometry()
    assert abs(v.mode_gain_factors(g).h_scalar) == pytest.approx(H_ABS, rel=1e-12)
    assert abs(v.mode_gain_closed(1, 0, g)) == pytest.approx(GAIN_MODE0, rel=1e-12)


def test_mode_gain_closed_magnitude_variance_coaxial():
    matrix = v.mode_channel_matrix(reference_geometry(), method="closed")
    for column in np.abs(matrix).T:
        assert np.var(column) < 1e-20


def test_aligned_equals_closed_at_zero_tilt():
    g = reference_geometry()
    h_abs = abs(v.mode_gain_factors(g).h_scalar)
    for m in range(1, 11):
        for mode in v.mode_index_set(g):
            diff = abs(v.mode_gain_closed(m, mode, g) - v.mode_gain_aligned(m, mode, g))
            assert diff / h_abs < 1e-12


def test_aligned_mode_magnitudes():
    g = reference_geometry(offset_alpha_rx=1.2)
    values = [v.mode_gain_aligned(m, 0, g) for m in (1, 4, 9)]
    for value in values[1:]:
        assert value == pytest.approx(values[0], rel=1e-14)
    assert abs(v.mode_gain_aligned(2, 1, g)) == pytest.approx(GAIN_MODE1, rel=1e-12)


def test_aligned_requires_zero_tilt():
    with pytest.raises(v.CaseMismatch):
        v.mode_gain_aligned(1, 0, reference_geometry(tilt_phi=0.1))


def test_coplanar_factors_specialization():
    g = reference_geometry(tilt_phi=math.pi / 2, bearing_theta=0.7, offset_alpha_rx=0.7)
    f = v.mode_gain_factors(g)
    srange = g.farfield_range
    # innermost element: the square root collapses to d - R
    b1, _ = v.coplanar_factors(1, 0, g)
    assert b1 == pytest.approx(
        2 * math.pi * g.radius_tx * (g.center_distance - g.radius_rx)
        / (g.wavelength * srange),
        rel=1e-12,
    )
    for m in (1, 3, 6, 10):
        for mode in (-2, 0, 3):
            b, c = v.coplanar_factors(m, mode, g)
            assert b == pytest.approx(float(f.b_factor[m - 1]), rel=1e-12)
            assert c == pytest.approx(f.c_factor(m, mode), rel=1e-12, abs=1e-15)


def test_coplanar_magnitude_varies_across_elements():
    g = reference_geometry(tilt_phi=math.pi / 2)
    mags = [abs(v.coplanar_factors(m, 1, g)[1]) for m in range(1, 11)]
    assert max(mags) > 2.0 * min(mags)


def test_coplanar_requires_matching_case():
    with pytest.raises(v.CaseMismatch):
        v.coplanar_factors(1, 0, reference_geometry())
    with pytest.raises(v.CaseMismatch):
        v.coplanar_factors(1, 0, reference_geometry(tilt_phi=math.pi / 2, bearing_theta=0.4))


def test_factor_structure_unimodular_prefactor():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_geometry(rng)
        try:
            f = v.mode_gain_factors(g)
        except v.DegenerateGeometry:
            continue
        m = int(rng.integers(1, g.n_rx + 1))
        mode = int(rng.integers(-5, 6))
        expected = abs(v.bessel_j(mode, float(f.b_factor[m - 1])))
        assert abs(f.c_factor(m, mode)) == pytest.approx(expected, rel=5e-16, abs=1e-300)


def test_c_matrix_matches_c_factor():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_geometry(rng)
        try:
            f = v.mode_gain_factors(g)
        except v.DegenerateGeometry:
            continue
        modes = v.mode_index_set(g)
        c = f.c_matrix(modes)
        assert c.shape == (g.n_rx, len(modes))
        for m in range(1, g.n_rx + 1):
            for i, mode in enumerate(modes):
                assert c[m - 1, i] == pytest.approx(f.c_factor(m, mode), rel=1e-12, abs=1e-14)


def test_approximation_error_small_for_default_size():
    # relative to the gain scale |h| ~ 0.31, every mode's error is < 1e-3
    g = reference_geometry()
    assert v.approximation_error(1, 0, g) < -11.0
    for mode in (0, 1, 2, 3, 4, 5):
        assert v.approximation_error(1, mode, g) < -5.0


def test_approximation_error_single_element_is_large():
    g = v.LinkGeometry(n_tx=1, n_rx=1, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    assert v.approximation_error(1, 0, g) == pytest.approx(-1.2333550624, abs=1e-6)


def test_worst_approximation_error_is_max_over_elements():
    g = reference_geometry(tilt_phi=0.3)
    modes = (-2, 0, 3)
    worst = v.worst_approximation_error(g, modes)
    for mode, err in zip(modes, worst):
        expected = max(v.approximation_error(m, mode, g) for m in range(1, g.n_rx + 1))
        assert err == pytest.approx(expected, abs=1e-3)


def test_approximation_error_with_tx_offset():
    # the direct sum runs over the index ramp; the metric rotates it by
    # exp(j*l*alpha_tx) onto the closed form's physical ramp
    for tilt in (0.0, 0.3):
        g = reference_geometry(n_tx=32, n_rx=32, offset_alpha_tx=0.3, tilt_phi=tilt)
        assert all(err < -12.0 for err in v.worst_approximation_error(g, range(-3, 4)))
        for m in (1, 9, 20):
            for mode in (-2, 1, 3):
                assert v.approximation_error(m, mode, g) < -12.0


def test_mode_gain_closed_beyond_max_bessel_order():
    # 130 elements carry mode 65, past the Bessel table's order limit: the
    # whole matrix is out of reach, single gains of lower modes are not.
    g = reference_geometry(n_tx=130, n_rx=130, tilt_phi=0.3)
    with pytest.raises(v.OrderOutOfRange):
        v.mode_channel_matrix(g, method="closed")
    for m, mode in ((1, 0), (1, 1), (77, -64)):
        closed = v.mode_gain_closed(m, mode, g)
        assert closed == pytest.approx(v.mode_gain_direct(m, mode, g), rel=1e-9, abs=1e-14)
    assert v.approximation_error(1, 0, g) < -11.0


def test_approximation_error_shrinks_with_array_size():
    small = reference_geometry(n_tx=8, n_rx=8)
    large = reference_geometry(n_tx=32, n_rx=32)
    for mode in v.mode_index_set(small):
        err_small = max(
            abs(v.mode_gain_closed(m, mode, small) - v.mode_gain_direct(m, mode, small))
            for m in range(1, 9)
        )
        err_large = max(
            abs(v.mode_gain_closed(m, mode, large) - v.mode_gain_direct(m, mode, large))
            for m in range(1, 33)
        )
        assert err_large < err_small


def test_channel_matrix_variants():
    g = reference_geometry(tilt_phi=0.5)
    far = v.channel_matrix(g, variant="farfield")
    magnitude = g.beta * g.wavelength / (4.0 * math.pi * g.farfield_range)
    np.testing.assert_allclose(np.abs(far), magnitude, rtol=1e-13)
    exact = v.channel_matrix(g, variant="exact")
    for m in (1, 6):
        for n in (2, 9):
            expected = g.beta * g.wavelength / (4.0 * math.pi * v.exact_distance(m, n, g))
            assert abs(exact[m - 1, n - 1]) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        v.channel_matrix(g, variant="bogus")
    with pytest.raises(ValueError):
        v.mode_channel_matrix(g, method="bogus")


def test_mode_channel_matrix_matches_scalar_ops():
    g = reference_geometry(tilt_phi=0.3)
    modes = v.mode_index_set(g)
    closed = v.mode_channel_matrix(g, method="closed")
    direct = v.mode_channel_matrix(g, method="direct")
    for m in (1, 5):
        for mode in (-4, 0, 5):
            i = modes.index(mode)
            assert closed[m - 1, i] == v.mode_gain_closed(m, mode, g)
            # One matrix product sums in another order than the scalar call.
            assert direct[m - 1, i] == pytest.approx(
                v.mode_gain_direct(m, mode, g), rel=1e-12, abs=1e-13 * np.abs(direct).max()
            )


def test_direct_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(40):
        g = random_geometry(rng)
        try:
            direct = v.mode_channel_matrix(g, method="direct")
        except v.DegenerateGeometry:
            continue
        checked += 1
        scalar = np.array([
            [v.mode_gain_direct(m, mode, g) for mode in v.mode_index_set(g)]
            for m in range(1, g.n_rx + 1)
        ])
        np.testing.assert_allclose(direct, scalar, rtol=1e-12, atol=1e-13 * np.abs(scalar).max())
    assert checked > 30


def test_exact_channel_carries_mode_l_with_sign_parity():
    # On a coaxial far-field link the exact channel delivers mode l as
    # (-1)^l times its closed-form gain (README, "Model conventions").
    g = reference_geometry(center_distance=1000.0)
    l = np.array(v.mode_index_set(g))
    ramps = np.exp(1j * np.outer(g.tx_angles(), l)) / math.sqrt(g.n_tx)
    exact = v.channel_matrix(g, "exact") @ ramps
    closed = v.mode_channel_matrix(g, method="closed")
    scale = np.abs(closed).max()
    assert np.abs(exact - (-1.0) ** l * closed).max() / scale < 1e-8
    assert np.abs(exact - closed).max() / scale > 1e-4


def _per_point_gains(g, fieldname, grid, panels):
    """Panel rows of |closed-form matrix| per grid point, and the degenerate points."""
    gains, gaps = [], []
    for k, angle in enumerate(grid):
        try:
            matrix = v.mode_channel_matrix(dataclasses.replace(g, **{fieldname: float(angle)}))
        except v.DegenerateGeometry:
            gaps.append(k)
            gains.append(None)
            continue
        gains.append(np.abs(matrix)[panels - 1])
    return gains, gaps


def _check_sweep_matches_per_point(g, fieldname, grid):
    panels = np.arange(1, min(4, g.n_rx) + 1)
    batch, degenerate = _sweep_gains(g, fieldname, grid, panels)
    expected, gaps = _per_point_gains(g, fieldname, grid, panels)
    assert list(np.flatnonzero(degenerate)) == gaps
    for k, point in enumerate(expected):
        if point is None:
            assert np.all(np.isnan(batch[k]))
        else:
            np.testing.assert_allclose(batch[k], point, rtol=1e-12, atol=1e-12 * point.max())


@pytest.mark.parametrize("fieldname", ["tilt_phi", "bearing_theta"])
def test_gain_sweep_batch_matches_per_point(fieldname):
    grids = {"tilt_phi": np.linspace(0.0, 0.5 * math.pi, 7),
             "bearing_theta": np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)}
    rng = np.random.default_rng(13)
    for _ in range(40):
        _check_sweep_matches_per_point(random_geometry(rng), fieldname, grids[fieldname])


def test_gain_sweep_batch_gaps_match_per_point():
    # At tilt pi/6 the in-plane offset d*sin(tilt) rounds to R within 1e-16
    # on element 1's bearing, so only that point is degenerate.
    g = v.LinkGeometry(n_tx=10, n_rx=10, radius_tx=0.1, radius_rx=0.5, center_distance=1.0)
    grid = np.array([0.0, 0.3, math.pi / 6, 1.2])
    _check_sweep_matches_per_point(g, "tilt_phi", grid)
    assert np.isnan(_sweep_gains(g, "tilt_phi", grid, np.arange(1, 5))[0][2]).all()


def test_degenerate_geometry_propagates():
    g = v.LinkGeometry(
        n_tx=4, n_rx=4, radius_tx=0.1, radius_rx=0.5, center_distance=1.0,
        tilt_phi=math.pi / 6,
    )
    with pytest.raises(v.DegenerateGeometry):
        v.farfield_channel_gain(1, 1, g)
    with pytest.raises(v.DegenerateGeometry):
        v.mode_gain_closed(1, 0, g)


def test_channel_matrix_exact_matches_coordinates():
    rng = np.random.default_rng(8)
    for _ in range(12):
        g = random_geometry(rng)
        tx, rx = v.element_positions(g)
        dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=2)
        expected = (
            g.beta * g.wavelength * np.exp(-2j * math.pi * dist / g.wavelength)
            / (4.0 * math.pi * dist)
        )
        entries = v.channel_matrix(g, variant="exact")
        assert entries.shape == (g.n_rx, g.n_tx)
        np.testing.assert_allclose(entries, expected, rtol=1e-9)


def test_channel_matrix_farfield_matches_scalar_gains():
    # Array and scalar complex products may round differently (FMA), so the
    # whole matrix is held to a few ulps of the scalar calls.
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(12):
        g = random_geometry(rng)
        try:
            entries = v.channel_matrix(g, variant="farfield")
        except v.DegenerateGeometry:
            continue
        checked += 1
        scalar = np.array([
            [v.farfield_channel_gain(m, n, g) for n in range(1, g.n_tx + 1)]
            for m in range(1, g.n_rx + 1)
        ])
        np.testing.assert_allclose(entries, scalar, rtol=4 * np.finfo(float).eps, atol=0)
        rows = v.farfield_channel_gain(np.arange(1, g.n_rx + 1)[:, None], 1, g)
        np.testing.assert_array_equal(rows, entries[:, :1])
    assert checked > 8
