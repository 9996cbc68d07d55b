import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

import vortex_uca as v
from conftest import coordinate_distances, random_geometry, reference_geometry

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize(
    "n,expected",
    [
        (10, tuple(range(-4, 6))),
        (2, (0, 1)),
        (9, tuple(range(-3, 5))),  # odd sizes yield n-1 modes under the bound rule
        (1, (0,)),
        (4, (-1, 0, 1, 2)),
    ],
)
def test_mode_index_set_bounds(n, expected):
    assert v.mode_index_set(reference_geometry(n_tx=n)) == expected


def test_mode_index_set_even_counts():
    for n in range(2, 33, 2):
        modes = v.mode_index_set(reference_geometry(n_tx=n))
        assert len(modes) == n
        assert all(b - a == 1 for a, b in zip(modes, modes[1:]))


def test_mode_index_set_from_geometry(ref_geometry):
    modes = v.mode_index_set(ref_geometry)
    assert modes == tuple(range(-4, 6))
    assert 5 in modes and -5 not in modes
    assert modes.index(-4) == 0 and modes.index(5) == 9
    with pytest.raises(ValueError):
        modes.index(7)


def test_tx_element_positions_quarter_circle():
    g = v.LinkGeometry(n_tx=4, n_rx=4, radius_tx=1.0, radius_rx=1.0, center_distance=10.0)
    tx, _ = v.element_positions(g)
    np.testing.assert_allclose(tx[1], [0.0, 1.0, 0.0], atol=1e-15)


def test_rx_element_positions_aligned():
    g = v.LinkGeometry(n_tx=4, n_rx=4, radius_tx=1.0, radius_rx=1.0, center_distance=10.0)
    _, rx = v.element_positions(g)
    np.testing.assert_allclose(rx[0], [1.0, 0.0, 10.0], atol=1e-15)


def test_rx_element_offset_opposes_bearing():
    g = reference_geometry(tilt_phi=math.pi / 3)
    _, rx = v.element_positions(g)
    assert rx[0][0] == pytest.approx(0.1 - math.sin(math.pi / 3), abs=1e-15)
    assert rx[0][0] == pytest.approx(-0.7660254037844386, abs=1e-12)


def test_projected_distance_degenerate_pairs():
    g = reference_geometry()
    assert v.projected_distance(1, 1, g) == pytest.approx(0.0, abs=1e-12)
    # diametrically opposite elements on equal circles: R + r
    assert v.projected_distance(6, 1, g) == pytest.approx(0.2, rel=1e-12)


def test_exact_distance_aligned_values():
    g = reference_geometry()
    assert v.exact_distance(1, 1, g) == pytest.approx(1.0, rel=1e-15)
    assert v.exact_distance(6, 1, g) == pytest.approx(math.sqrt(1.04), rel=1e-14)


def test_distances_match_coordinates_tilted():
    g = reference_geometry(tilt_phi=math.pi / 3)
    for m, n in [(1, 1), (3, 2), (7, 9)]:
        proj, exact = coordinate_distances(g, m, n)
        assert v.projected_distance(m, n, g) == pytest.approx(proj, rel=1e-12)
        assert v.exact_distance(m, n, g) == pytest.approx(exact, rel=1e-12)


def test_distance_coordinate_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(60):
        g = random_geometry(rng)
        m = int(rng.integers(1, g.n_rx + 1))
        n = int(rng.integers(1, g.n_tx + 1))
        proj, exact = coordinate_distances(g, m, n)
        assert v.projected_distance(m, n, g) == pytest.approx(proj, rel=1e-12, abs=1e-12)
        assert v.exact_distance(m, n, g) == pytest.approx(exact, rel=1e-12)
        # plane separation closes the right triangle
        assert v.exact_distance(m, n, g) ** 2 == pytest.approx(
            v.projected_distance(m, n, g) ** 2 + g.plane_separation**2, rel=1e-12
        )


def test_approx_distance_example():
    g = reference_geometry()
    approx = v.approx_distance(6, 1, g)
    assert approx == pytest.approx(math.sqrt(1.02) + 0.01 / math.sqrt(1.02), rel=1e-14)
    assert approx == pytest.approx(1.0198519692659745, rel=1e-12)
    assert abs(approx - v.exact_distance(6, 1, g)) == pytest.approx(4.8066547e-5, abs=1e-9)


def test_approx_distance_zero_cross_term():
    # tilt zero and quarter-turn element gap cancel every cosine cross-term
    g = v.LinkGeometry(n_tx=4, n_rx=4, radius_tx=0.3, radius_rx=0.4, center_distance=7.0)
    assert v.approx_distance(2, 1, g) == pytest.approx(g.farfield_range, rel=1e-15)


def test_far_field_expansion_accuracy():
    g = reference_geometry()
    worst = max(
        abs(v.approx_distance(m, n, g) - v.exact_distance(m, n, g)) / v.exact_distance(m, n, g)
        for m in range(1, 11)
        for n in range(1, 11)
    )
    assert worst < 1e-3


def test_rotation_covariance_coaxial():
    base = reference_geometry(offset_alpha_tx=0.3, offset_alpha_rx=1.1)
    shifted = dataclasses.replace(
        base,
        offset_alpha_tx=base.offset_alpha_tx + 0.77,
        offset_alpha_rx=base.offset_alpha_rx + 0.77,
        bearing_theta=base.bearing_theta + 0.77,
    )
    for m, n in [(1, 1), (4, 9), (10, 5)]:
        assert v.exact_distance(m, n, shifted) == pytest.approx(
            v.exact_distance(m, n, base), rel=1e-12
        )
        assert v.projected_distance(m, n, shifted) == pytest.approx(
            v.projected_distance(m, n, base), rel=1e-12, abs=1e-12
        )


def test_zeta_coaxial_is_quarter_turn():
    g = reference_geometry()
    for m in range(1, 11):
        assert v.zeta(m, g) == pytest.approx(math.pi / 2, abs=1e-15)


def test_zeta_zero_when_sine_numerator_cancels():
    # bearing gap pi/4 with radius matching the projected offset component
    phi = 0.2
    gap = math.pi / 4
    radius_rx = (1.0 * math.sin(phi)) * math.cos(gap)
    g = v.LinkGeometry(
        n_tx=4,
        n_rx=4,
        radius_tx=0.1,
        radius_rx=radius_rx,
        center_distance=1.0,
        tilt_phi=phi,
        bearing_theta=TWO_PI - gap,
    )
    assert abs(v.zeta(1, g)) < 1e-12


def test_zeta_identities_randomized():
    rng = np.random.default_rng(7)
    count = 0
    for _ in range(200):
        g = random_geometry(rng)
        m = int(rng.integers(1, g.n_rx + 1))
        try:
            angle = v.zeta(m, g)
        except v.DegenerateGeometry:
            continue
        count += 1
        gap = TWO_PI * (m - 1) / g.n_rx + g.offset_alpha_rx - g.bearing_theta
        inplane = g.center_distance * math.sin(g.tilt_phi)
        denom = math.sqrt(
            g.radius_rx**2 + inplane**2 - 2.0 * g.radius_rx * inplane * math.cos(gap)
        )
        assert math.sin(angle) == pytest.approx(
            (g.radius_rx - inplane * math.cos(gap)) / denom, abs=1e-12
        )
        assert math.cos(angle) == pytest.approx(inplane * math.sin(gap) / denom, abs=1e-12)
        assert math.sin(angle) ** 2 + math.cos(angle) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert count > 150


def test_zeta_degenerate_raises():
    g = v.LinkGeometry(
        n_tx=4,
        n_rx=4,
        radius_tx=0.1,
        radius_rx=0.5,
        center_distance=1.0,
        tilt_phi=math.pi / 6,
    )
    with pytest.raises(v.DegenerateGeometry):
        v.zeta(1, g)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_tx", 0),
        ("n_rx", -3),
        ("radius_tx", 0.0),
        ("radius_rx", -1.0),
        ("center_distance", 0.0),
        ("wavelength", 0.0),
        ("beta", 0.0),
        ("tilt_phi", 2.0),
        ("tilt_phi", -0.1),  # wraps to ~6.18, outside [0, pi/2]
    ]
    + [
        (field, value)
        for field in ("radius_tx", "radius_rx", "center_distance", "wavelength", "beta")
        for value in (math.inf, math.nan)
    ],
)
def test_construction_rejects_invalid(field, value):
    kwargs = dict(n_tx=10, n_rx=10, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    kwargs[field] = value
    with pytest.raises(v.ValidationError) as excinfo:
        v.LinkGeometry(**kwargs)
    assert excinfo.value.field == field


@pytest.mark.parametrize("field", ["n_tx", "n_rx"])
def test_element_counts_are_integers_but_not_bools(field):
    kwargs = dict(n_tx=10, n_rx=10, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    for value in (True, np.bool_(True), 4.0):
        with pytest.raises(v.ValidationError) as excinfo:
            v.LinkGeometry(**{**kwargs, field: value})
        assert excinfo.value.field == field
    g = v.LinkGeometry(**{**kwargs, field: np.int32(4)})
    assert getattr(g, field) == 4 and type(getattr(g, field)) is int


@pytest.mark.parametrize(
    "overrides",
    [
        dict(beta=1e200, wavelength=1e200),  # beta*lambda overflows to inf
        dict(beta=1e-200, wavelength=1e-200),  # beta*lambda underflows to 0
        dict(beta=1e160),  # finite amplitude whose square, |h|^2 / n_tx, overflows
    ],
)
def test_construction_rejects_overflowing_or_vanishing_amplitude(overrides):
    kwargs = dict(n_tx=4, n_rx=4, radius_tx=1.0, radius_rx=1.0, center_distance=10.0)
    kwargs.update(overrides)
    with pytest.raises(v.ValidationError, match="far-field amplitude") as excinfo:
        v.LinkGeometry(**kwargs)
    assert excinfo.value.field == "beta"


@pytest.mark.parametrize("field", ["center_distance", "radius_tx", "radius_rx"])
def test_construction_names_a_length_whose_square_would_overflow(field):
    kwargs = dict(n_tx=4, n_rx=4, radius_tx=1.0, radius_rx=1.0, center_distance=10.0)
    kwargs[field] = 1e200
    with pytest.raises(v.ValidationError, match="1e150") as excinfo:
        v.LinkGeometry(**kwargs)
    assert excinfo.value.field == field


# Lengths whose carrier phase 2*pi*range/lambda overflows (the first four) or
# whose lambda*range underflows to 0 (the last), as each would reach
# mode_gain_factors; the CLI tests read the same configs.
OVERFLOWING_WAVELENGTHS = [
    dict(wavelength=5e-324),
    dict(wavelength=1e-310),
    dict(wavelength=1e-308),
    dict(radius_tx=1e149, radius_rx=1e149, center_distance=9e149, wavelength=1e-158),
    dict(radius_tx=1e-160, radius_rx=1e-160, center_distance=1e-159, wavelength=1e-300,
         beta=1e140),
]


@pytest.mark.parametrize("overrides", OVERFLOWING_WAVELENGTHS)
def test_construction_rejects_a_wavelength_with_a_non_finite_phase(overrides):
    kwargs = dict(n_tx=10, n_rx=10, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    with pytest.raises(v.ValidationError, match="carrier phase") as excinfo:
        v.LinkGeometry(**{**kwargs, **overrides})
    assert excinfo.value.field == "wavelength"
    # Just inside the bound: the factors are finite; b is then beyond the Bessel cap.
    factors = v.mode_gain_factors(v.LinkGeometry(**{**kwargs, "wavelength": 1e-300}))
    assert np.isfinite(factors.h_scalar) and np.all(np.isfinite(factors.b_factor))


def test_angle_normalization():
    g = reference_geometry(
        bearing_theta=TWO_PI + 0.3, offset_alpha_tx=-0.5, offset_alpha_rx=5 * TWO_PI
    )
    assert g.bearing_theta == pytest.approx(0.3, abs=1e-12)
    assert g.offset_alpha_tx == pytest.approx(TWO_PI - 0.5, abs=1e-12)
    assert g.offset_alpha_rx == pytest.approx(0.0, abs=1e-12)


def test_tiny_negative_angle_wraps_to_zero():
    # -1e-20 + 2*pi rounds to 2*pi, which lies outside [0, 2*pi)
    g = reference_geometry(bearing_theta=-1e-20, offset_alpha_tx=-1e-300, tilt_phi=-1e-20)
    assert g.bearing_theta == 0.0 and g.offset_alpha_tx == 0.0 and g.tilt_phi == 0.0
    assert 0.0 <= reference_geometry(offset_alpha_rx=-1e-15).offset_alpha_rx < TWO_PI


def test_far_field_advisory_flag():
    with pytest.warns(v.FarFieldWarning):
        close = v.LinkGeometry(
            n_tx=4, n_rx=4, radius_tx=0.1, radius_rx=0.1, center_distance=0.4
        )
    assert close.far_field_warning
    assert not reference_geometry().far_field_warning


def test_far_field_warning_names_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        v.LinkGeometry(n_tx=4, n_rx=4, radius_tx=0.1, radius_rx=0.1, center_distance=0.2)
    [warning] = caught
    assert warning.category is v.FarFieldWarning
    assert (warning.filename, warning.lineno) == (__file__, line)


def test_element_index_bounds(ref_geometry):
    with pytest.raises(ValueError):
        v.exact_distance(0, 1, ref_geometry)
    with pytest.raises(ValueError):
        v.exact_distance(1, 11, ref_geometry)
    with pytest.raises(ValueError):
        v.zeta(11, ref_geometry)


def test_element_functions_accept_index_arrays():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        g = random_geometry(rng)
        m = np.arange(1, g.n_rx + 1)
        n = np.arange(1, g.n_tx + 1)
        for fn in (v.exact_distance, v.projected_distance, v.approx_distance):
            table = fn(m[:, None], n, g)
            assert table.shape == (g.n_rx, g.n_tx)
            for i in range(g.n_rx):
                for j in range(g.n_tx):
                    assert table[i, j] == fn(i + 1, j + 1, g)
        np.testing.assert_array_equal(g.tx_angles(n), g.tx_angles())
        np.testing.assert_array_equal(g.rx_angles(m), g.rx_angles())
        try:
            angles = v.zeta(m, g)
        except v.DegenerateGeometry:
            continue
        checked += 1
        np.testing.assert_array_equal(angles, v.zeta(None, g))
        assert list(angles) == [v.zeta(k, g) for k in range(1, g.n_rx + 1)]
    assert checked > 15


def test_index_arrays_are_bounds_checked(ref_geometry):
    with pytest.raises(ValueError):
        v.exact_distance(np.array([1, 11]), 1, ref_geometry)
    with pytest.raises(ValueError):
        v.exact_distance(1, np.arange(0, 3), ref_geometry)
    with pytest.raises(ValueError):
        v.zeta(np.array([[2], [0]]), ref_geometry)


def test_zeta_degenerate_array_names_the_element():
    g = v.LinkGeometry(
        n_tx=4, n_rx=4, radius_tx=0.1, radius_rx=0.5, center_distance=1.0,
        tilt_phi=math.pi / 6,
    )
    for m in (None, np.arange(1, 5), 1):
        with pytest.raises(v.DegenerateGeometry, match="rx element 1:"):
            v.zeta(m, g)


@pytest.mark.parametrize(
    "call, side",
    [
        (lambda g: v.zeta(1.5, g), "rx"),
        (lambda g: v.exact_distance(1.5, 2, g), "rx"),
        (lambda g: v.exact_distance(True, 1, g), "rx"),
        (lambda g: v.exact_distance(1, np.bool_(True), g), "tx"),
        (lambda g: v.exact_distance(np.array([1.0, 2.0]), 1, g), "rx"),
        (lambda g: v.farfield_channel_gain(1, 2.5, g), "tx"),
        (lambda g: v.mode_gain_direct(1.5, 1, g), "rx"),
        (lambda g: v.mode_gain_closed(1.5, 1, g), "rx"),
        (lambda g: v.approximation_error(1.5, 1, g), "rx"),
        (lambda g: g.tx_angles([1, 2.0]), "tx"),
    ],
    ids=["zeta", "exact_distance", "bool", "numpy_bool", "float_array", "farfield_channel_gain",
         "mode_gain_direct", "mode_gain_closed", "approximation_error", "tx_angles"],
)
def test_element_indices_are_integers_but_not_bools(ref_geometry, call, side):
    with pytest.raises(ValueError, match=f"{side} element index .* is not an integer"):
        call(ref_geometry)


def test_integer_numpy_indices_are_accepted(ref_geometry):
    g = ref_geometry
    assert v.exact_distance(np.int8(2), np.uint16(3), g) == v.exact_distance(2, 3, g)
    np.testing.assert_array_equal(v.zeta(np.arange(1, 4, dtype=np.uint32), g),
                                  [v.zeta(m, g) for m in (1, 2, 3)])
