"""Whole-stack properties over drawn inputs (hypothesis, derandomized in conftest)."""

import dataclasses
import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.special import jn_zeros
from scipy.special import jv as scipy_jv

import vortex_uca as v
from conftest import random_geometry, reference_geometry
from vortex_uca.cli import MAX_SWEEP_STEPS, RunConfig, SweepSpec, parse_config, render_config
from vortex_uca.specfun import MAX_ORDER

TWO_PI = 2.0 * math.pi

angles = st.floats(min_value=-1e3, max_value=1e3)
tilts = st.floats(min_value=0.0, max_value=0.5 * math.pi)


@st.composite
def run_configs(draw):
    lengths = st.floats(min_value=1e-12, max_value=1e12)
    geometry = v.LinkGeometry(
        n_tx=draw(st.integers(1, 128)),
        n_rx=draw(st.integers(1, 128)),
        radius_tx=draw(lengths),
        radius_rx=draw(lengths),
        center_distance=draw(lengths),
        bearing_theta=draw(angles),
        tilt_phi=draw(tilts),
        offset_alpha_tx=draw(angles),
        offset_alpha_rx=draw(angles),
        wavelength=draw(lengths),
        beta=draw(lengths),
    )
    sweep = None
    if draw(st.booleans()):
        bounds = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2)))
        sweep = SweepSpec(
            variable=draw(st.sampled_from(("phi", "theta", "n_elements"))),
            start=bounds[0],
            stop=bounds[1],
            steps=draw(st.integers(1, MAX_SWEEP_STEPS)),
        )
    return RunConfig(
        geometry=geometry,
        mode_power=draw(st.floats(min_value=0.0, max_value=1e12)),
        noise_variance=draw(st.floats(min_value=0.0, max_value=1e12)),
        seed=draw(st.integers(0, 2**64 - 1)),
        sweep=sweep,
    )


@given(run_configs())
@example(RunConfig(
    geometry=v.LinkGeometry(n_tx=10, n_rx=10, radius_tx=0.1, radius_rx=0.1,
                            center_distance=1.0, bearing_theta=-1e-20),
    mode_power=1.0, noise_variance=0.01, seed=1,
))
def test_render_then_parse_is_identity(config):
    assert parse_config(render_config(config)) == config


# The first zero of J_0..J_4, and the float one ulp above J_0's, where the
# ratio recurrence meets a denominator of exactly 0.
ZEROS = [float(jn_zeros(n, 1)[0]) for n in range(5)]


@given(
    st.integers(0, MAX_ORDER),
    st.lists(st.floats(min_value=-120.0, max_value=120.0), min_size=1, max_size=8),
)
@example(4, [2.404825557695773])
@example(4, ZEROS)
def test_table_matches_scipy(max_order, xs):
    xs = np.array(xs)
    np.testing.assert_allclose(
        v.bessel_table(max_order, xs),
        scipy_jv(np.arange(max_order + 1)[:, None], xs),
        rtol=0,
        atol=1e-13,
    )


@st.composite
def geometries(draw):
    # Distances stay within about 100 wavelengths, so the exact gains'
    # phases 2*pi*distance/lambda keep rounding errors well below 1e-12.
    return v.LinkGeometry(
        n_tx=draw(st.integers(1, 16)),
        n_rx=draw(st.integers(1, 16)),
        radius_tx=draw(st.floats(0.05, 1.0)),
        radius_rx=draw(st.floats(0.05, 1.0)),
        center_distance=draw(st.floats(1.0, 10.0)),
        bearing_theta=draw(st.floats(0.0, TWO_PI)),
        tilt_phi=draw(tilts),
        offset_alpha_tx=draw(st.floats(0.0, TWO_PI)),
        offset_alpha_rx=draw(st.floats(0.0, TWO_PI)),
        wavelength=draw(st.floats(0.1, 1.0)),
        beta=draw(st.floats(0.5, 20.0)),
    )


def _se(geometry):
    """Spectrum efficiency, or None where the link cannot be evaluated."""
    try:
        return v.spectrum_efficiency(geometry, v.LinkBudget.uniform(geometry, 1.0, 0.01, 1))
    except (v.ModeUnobservable, v.DegenerateGeometry):
        return None


@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3), st.floats(1e-6, 1.0))
def test_se_is_the_sum_of_per_mode_log_terms(seed, power, variance):
    g = random_geometry(np.random.default_rng(seed))
    budget = v.LinkBudget.uniform(g, power, variance, 1)
    try:
        se = v.spectrum_efficiency(g, budget)
    except (v.ModeUnobservable, v.DegenerateGeometry):
        return
    # log1p keeps the per-mode terms exact where the SNR is far below 1.
    snr_scale = g.n_rx**2 * abs(v.mode_gain_factors(g).h_scalar) ** 2 * power
    expected = sum(
        math.log1p(snr_scale / v.aggregate_noise_variance(mode, g, budget.noise)) / math.log(2.0)
        for mode in v.mode_index_set(g)
    )
    assert math.isclose(se, expected, rel_tol=1e-12)


@given(geometries(), st.floats(-TWO_PI, TWO_PI))
def test_rotating_the_whole_link_changes_nothing(g, delta):
    rotated = dataclasses.replace(
        g, bearing_theta=g.bearing_theta + delta, offset_alpha_tx=g.offset_alpha_tx + delta,
        offset_alpha_rx=g.offset_alpha_rx + delta,
    )
    np.testing.assert_allclose(
        v.channel_matrix(rotated, "exact"), v.channel_matrix(g, "exact"),
        rtol=1e-12,
    )
    se, se_rotated = _se(g), _se(rotated)
    assume(se is not None and se_rotated is not None)
    assert math.isclose(se_rotated, se, rel_tol=1e-12)


@given(geometries(), st.floats(1e-3, 1e3))
def test_scaling_every_length_keeps_se(g, s):
    scaled = dataclasses.replace(
        g, radius_tx=s * g.radius_tx, radius_rx=s * g.radius_rx,
        center_distance=s * g.center_distance, wavelength=s * g.wavelength,
    )
    se, se_scaled = _se(g), _se(scaled)
    assume(se is not None and se_scaled is not None)
    assert math.isclose(se_scaled, se, rel_tol=1e-12)


def _matrices(g):
    """Exact, far-field and closed-form matrices, or None where the link degenerates."""
    try:
        return (v.channel_matrix(g, "exact"), v.channel_matrix(g, "farfield"),
                v.mode_channel_matrix(g, "closed"))
    except v.DegenerateGeometry:
        return None


@given(geometries())
def test_shifting_rx_offset_by_one_element_rolls_rows(g):
    # Element m of the shifted array sits where element m + 1 sat.
    shifted = dataclasses.replace(g, offset_alpha_rx=g.offset_alpha_rx + TWO_PI / g.n_rx)
    before, after = _matrices(g), _matrices(shifted)
    assume(before is not None and after is not None)
    for old, new in zip(before, after):
        np.testing.assert_allclose(new, np.roll(old, -1, axis=0), rtol=1e-12,
                                   atol=1e-12 * np.abs(old).max())
    se, se_shifted = _se(g), _se(shifted)
    assume(se is not None and se_shifted is not None)
    assert math.isclose(se_shifted, se, rel_tol=1e-12)


@given(geometries(), st.integers(0, 2**32 - 1))
def test_synthesis_preserves_power(g, seed):
    modes = v.mode_index_set(g)
    draws = np.random.default_rng(seed).standard_normal((2, len(modes)))
    symbols = v.ModeSymbolVector(symbols=draws[0] + 1j * draws[1], modes=modes)
    samples = v.synthesize_transmit(symbols, g)
    power = np.sum(np.abs(symbols.symbols) ** 2)
    assert math.isclose(np.sum(np.abs(samples) ** 2), power, rel_tol=1e-12)


# The benchmark's screen for demux links: below this min |c| the noiseless
# round trip loses more than 1e-9 to cancellation between modes.
DEMUX_MIN_GAIN = 1e-5


@given(geometries(), st.integers(0, 2**32 - 1))
def test_demultiplex_undoes_the_mode_model(g, seed):
    # A coaxial link with as many rx as tx elements: no leakage between modes.
    g = dataclasses.replace(g, tilt_phi=0.0, n_rx=g.n_tx)
    modes = v.mode_index_set(g)
    assume(np.abs(v.mode_gain_factors(g).c_matrix(modes)).min() >= DEMUX_MIN_GAIN)
    matrix = v.mode_channel_matrix(g)
    draws = np.random.default_rng(seed).standard_normal((2, len(modes)))
    symbols = v.ModeSymbolVector(symbols=draws[0] + 1j * draws[1], modes=modes)
    rx = v.propagate_mode_model(symbols, matrix)
    out = v.demultiplex(rx, g)
    assert np.all(np.abs(out.estimated_symbols - symbols.symbols) <= 1e-9)


@given(run_configs(), st.floats(min_value=0.0, max_value=1e12, exclude_min=True))
# Bessel arguments near 6e298, where an uncapped recurrence never ends.
@example(RunConfig(reference_geometry(wavelength=1e-300), 1.0, 0.01, 1), 0.01)
# A subnormal noise variance, where the SNR quotient overflows.
@example(RunConfig(reference_geometry(), 1.0, 0.01, 1), 5e-324)
def test_gains_and_se_are_finite_or_refused(config, noise_variance):
    # Anywhere in the config ranges a link gives finite gains and SE, or
    # raises the library's own error; it neither hangs nor returns inf/nan.
    g = config.geometry
    budget = v.LinkBudget.uniform(g, config.mode_power, noise_variance, config.seed)
    for evaluate in (lambda: v.mode_channel_matrix(g), lambda: v.spectrum_efficiency(g, budget)):
        try:
            value = evaluate()
        except v.VortexUcaError:
            continue
        assert np.all(np.isfinite(value))
