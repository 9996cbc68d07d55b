import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import vortex_uca as v
from conftest import random_geometry, reference_geometry
from vortex_uca.transceiver import _block_seeds, _phase_ramps


def unit_symbols(geometry, seed=11):
    modes = v.mode_index_set(geometry)
    rng = np.random.default_rng(seed)
    return v.ModeSymbolVector(
        symbols=np.exp(2j * np.pi * rng.random(len(modes))), modes=modes
    )


def single_mode_symbols(geometry, mode):
    modes = v.mode_index_set(geometry)
    symbols = np.zeros(len(modes), dtype=complex)
    symbols[modes.index(mode)] = 1.0
    return v.ModeSymbolVector(symbols=symbols, modes=modes)


def test_synthesize_constant_mode():
    g = v.LinkGeometry(n_tx=4, n_rx=4, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    tx = v.synthesize_transmit(single_mode_symbols(g, 0), g)
    np.testing.assert_allclose(tx, 0.5, atol=1e-15)


def test_synthesize_single_spatial_frequency():
    g = v.LinkGeometry(n_tx=4, n_rx=4, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    tx = v.synthesize_transmit(single_mode_symbols(g, 1), g)
    expected = 0.5 * np.exp(1j * np.pi * np.arange(4) / 2)
    np.testing.assert_allclose(tx, expected, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4, 9, 10, 16])
def test_synthesize_preserves_power(n):
    g = v.LinkGeometry(
        n_tx=n, n_rx=4, radius_tx=0.1, radius_rx=0.1, center_distance=1.0,
        offset_alpha_tx=0.37,
    )
    symbols = unit_symbols(g, seed=n)
    tx = v.synthesize_transmit(symbols, g)
    assert np.sum(np.abs(tx) ** 2) == pytest.approx(
        np.sum(np.abs(symbols.symbols) ** 2), rel=1e-12
    )


def test_synthesize_matches_outer_product_formula():
    # The per-geometry matrix the ramp table replaced, kept as the reference.
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_geometry(rng)
        symbols = unit_symbols(g, seed=int(rng.integers(1000)))
        matrix = np.exp(1j * np.outer(g.tx_angles(), symbols.modes)) / np.sqrt(g.n_tx)
        reference = matrix @ symbols.symbols
        np.testing.assert_allclose(
            v.synthesize_transmit(symbols, g), reference, rtol=1e-12, atol=1e-15
        )


def test_synthesize_is_the_ramp_table_times_the_rotated_symbols():
    # The cached tx rotation is the expression it replaced, bit for bit.
    rng = np.random.default_rng(45)
    for _ in range(10):
        g = random_geometry(rng)
        symbols = unit_symbols(g, seed=int(rng.integers(1000)))
        _, l, table = _phase_ramps(g.n_tx)
        expected = table @ (symbols.symbols * np.exp(1j * g.offset_alpha_tx * l))
        for _ in range(2):  # cache miss, then hit
            assert v.synthesize_transmit(symbols, g).tobytes() == expected.tobytes()


def test_ramp_cache_holds_one_entry_per_element_count():
    _phase_ramps.cache_clear()
    rng = np.random.default_rng(43)
    counts = set()
    for n in (4, 9, 4, 16, 9, 4):
        for _ in range(5):  # distinct geometries sharing one element count
            g = dataclasses.replace(random_geometry(rng), n_tx=n)
            v.synthesize_transmit(unit_symbols(g), g)
            counts.add(n)
            assert _phase_ramps.cache_info().currsize <= len(counts)


def test_synthesize_rejects_foreign_modes():
    g = reference_geometry()
    other = v.LinkGeometry(n_tx=8, n_rx=8, radius_tx=0.1, radius_rx=0.1, center_distance=1.0)
    with pytest.raises(v.LengthMismatch):
        v.synthesize_transmit(unit_symbols(other), g)


def test_propagate_zero_input():
    g = reference_geometry()
    channel = v.channel_matrix(g, variant="farfield")
    rx = v.propagate(np.zeros(10, dtype=complex), channel)
    assert rx.shape == (10,) and np.all(rx == 0)


@pytest.mark.parametrize("mode", [-4, 0, 2, 5])
def test_propagate_single_mode_matches_direct_gains(mode):
    g = reference_geometry(tilt_phi=0.3)
    channel = v.channel_matrix(g, variant="farfield")
    tx = v.synthesize_transmit(single_mode_symbols(g, mode), g)
    rx = v.propagate(tx, channel)
    direct = v.mode_channel_matrix(g, method="direct")
    col = direct[:, v.mode_index_set(g).index(mode)]
    np.testing.assert_allclose(rx, col, rtol=1e-12, atol=1e-15)


def test_propagate_single_mode_with_tx_offset():
    # a transmit-side rotation multiplies the received mode by a pure phase
    mode = 2
    g = reference_geometry(offset_alpha_tx=0.7)
    channel = v.channel_matrix(g, variant="farfield")
    tx = v.synthesize_transmit(single_mode_symbols(g, mode), g)
    rx = v.propagate(tx, channel)
    col = v.mode_channel_matrix(g, method="direct")[:, 6]
    ramp = np.exp(1j * g.offset_alpha_tx * mode)
    np.testing.assert_allclose(rx, ramp * col, rtol=1e-12, atol=1e-15)


def test_propagate_dimension_checks():
    g = reference_geometry()
    channel = v.channel_matrix(g, variant="farfield")
    tx = np.zeros(10, dtype=complex)
    for bad_tx in (np.zeros(3, dtype=complex), tx[:, None], tx[None, :]):
        with pytest.raises(v.LengthMismatch):
            v.propagate(bad_tx, channel)
    for bad_channel in (channel[0], channel[:, :4], channel[None]):
        with pytest.raises(v.LengthMismatch):
            v.propagate(tx, bad_channel)
    with pytest.raises(v.LengthMismatch):
        v.propagate(tx, channel, v.NoiseModel.uniform(0.01, 4, seed=1))


def test_propagate_mode_model_dimension_checks():
    g = reference_geometry()
    symbols = unit_symbols(g)
    matrix = v.mode_channel_matrix(g)
    for bad_matrix in (matrix[0], matrix[:, :9], matrix[None]):
        with pytest.raises(v.LengthMismatch):
            v.propagate_mode_model(symbols, bad_matrix)
    with pytest.raises(v.LengthMismatch):
        v.propagate_mode_model(symbols, matrix, v.NoiseModel.uniform(0.01, 4, seed=1))
    with pytest.raises(v.LengthMismatch):
        v.ModeSymbolVector(symbols.symbols[:9], symbols.modes)


def test_mode_symbol_vector_accepts_a_list():
    symbols = v.ModeSymbolVector([1, 2j], (0, 1))
    assert isinstance(symbols.symbols, np.ndarray)
    np.testing.assert_array_equal(symbols.symbols, [1, 2j])
    with pytest.raises(v.LengthMismatch):
        v.ModeSymbolVector([1, 2, 3], (0, 1))
    with pytest.raises(v.LengthMismatch):
        v.ModeSymbolVector([[1, 2]], (0, 1))


def test_noise_model_reproducible_streams():
    noise = v.NoiseModel.uniform(0.5, 8, seed=99)
    a = noise.sample(trial=3)
    b = noise.sample(trial=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(noise.sample(trial=4), a)
    other_seed = v.NoiseModel.uniform(0.5, 8, seed=100)
    assert not np.array_equal(other_seed.sample(trial=3), a)


# Trials in draw order.  Trial j of a 256-trial block is seeded by numpy's
# SeedSequence when j = 0 and from the block's seed table otherwise: 255 is
# served at the top of block 0, 257 builds block 1's table after 256 did
# not, then trials on both sides of 2**32 and past 2**64, and block 0 again
# after later blocks.
NOISE_TRIALS = (
    0, 1, 17, 255, 257, 256, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3,
    2**40 + 2, 2**64 - 1, 2**64 - 2, 2**64, 2**64 + 1, 2**80 + 7, 2**80 + 6, 5, 3,
)


def test_noise_sample_is_the_scaled_seeded_draw():
    # Seeds and trials on both sides of each 32-bit entropy-word boundary.
    variances = np.array([0.5, 2.0, 0.0, 1e-4, 3.0])
    for seed in (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1):
        noise = v.NoiseModel(variances=variances, seed=seed)
        for trial in NOISE_TRIALS:
            a, b = np.random.default_rng([seed, trial]).standard_normal((2, len(variances)))
            expected = np.sqrt(variances / 2) * (a + 1j * b)
            assert noise.sample(trial).tobytes() == expected.tobytes()


def _seed_table_misses() -> int:
    return _block_seeds.cache_info().misses


def test_noise_first_draw_of_a_block_builds_no_seed_table():
    # A block's first trial is the first draw of a new link, so it stays cheap.
    noise = v.NoiseModel.uniform(1.0, 3, seed=8)
    before = _seed_table_misses()
    for block in (0, 1, 7, 2**24, 2**60):
        noise.sample(256 * block)
    assert _seed_table_misses() == before


def test_noise_seed_table_is_built_once_per_block_and_shared():
    first, second = (v.NoiseModel.uniform(1.0, 3, seed=8) for _ in range(2))
    before = _seed_table_misses()
    first.sample(256 * 3 + 1)
    assert _seed_table_misses() == before + 1
    first.sample(256 * 3 + 255)
    second.sample(256 * 3 + 1)
    second.sample(256 * 3 + 2)
    assert _seed_table_misses() == before + 1


def test_noise_seed_tables_stay_within_their_bound():
    noise = v.NoiseModel.uniform(1.0, 3, seed=8)
    for block in range(40):
        noise.sample(256 * block + 1)
        info = _block_seeds.cache_info()
        assert info.currsize <= info.maxsize <= 4


def test_noise_draws_leave_the_model_unchanged():
    noise = v.NoiseModel.uniform(1.0, 3, seed=8)
    before = dict(vars(noise))
    for trial in (0, 1, 300, 301, 256, 2, 2**40):
        noise.sample(trial)
    assert vars(noise).keys() == before.keys()
    assert all(vars(noise)[name] is value for name, value in before.items())
    assert set(before) == {"variances", "seed", "_scale"}


def test_noise_trial_is_an_integer_but_not_a_bool():
    noise = v.NoiseModel.uniform(1.0, 3, seed=8)
    for trial in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match="trial"):
            noise.sample(trial)


def test_noise_seed_is_an_integer_but_not_a_bool():
    for seed in (True, False, np.bool_(True), 8.0):
        with pytest.raises(ValueError, match="seed"):
            v.NoiseModel.uniform(1.0, 3, seed=seed)
    assert v.NoiseModel.uniform(1.0, 3, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_noise_trial_must_be_a_non_negative_integer():
    noise = v.NoiseModel.uniform(1.0, 3, seed=8)
    for trial in (2.7, 2.0, "2", None, -1, np.int64(-1)):
        with pytest.raises(ValueError, match="trial"):
            noise.sample(trial)
    assert noise.sample(np.uint8(2)).tobytes() == noise.sample(2).tobytes()
    with pytest.raises(ValueError, match="trial"):
        v.propagate(np.ones(3), np.eye(3), noise, trial=1.5)


def _assert_two_threads_draw_as_seeded(models):
    """models[w] draws every other trial in thread w; each draw must be the seeded one."""
    trials = [(300 + 7 * t) % 700 for t in range(600)]  # blocks 0-2, revisited
    results: dict[int, list] = {0: [], 1: []}
    barrier = threading.Barrier(2)

    def draw(worker):
        barrier.wait(timeout=60)
        for trial in trials[worker::2]:
            results[worker].append((trial, models[worker].sample(trial)))

    threads = [threading.Thread(target=draw, args=(w,), daemon=True) for w in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    drawn = results[0] + results[1]
    assert len(drawn) == len(trials)
    for trial, sample in drawn:
        a, b = np.random.default_rng([models[0].seed, trial]).standard_normal((2, 6))
        assert sample.tobytes() == (np.sqrt(0.3 / 2) * (a + 1j * b)).tobytes()


# Both threads build and evict the shared seed tables as they cross blocks; a
# short switch interval makes them interleave within single draws.
def test_noise_draws_from_two_threads_match_the_seeded_draw():
    noise = v.NoiseModel.uniform(0.3, 6, seed=2**40 + 9)
    _assert_two_threads_draw_as_seeded((noise, noise))


def test_two_models_with_one_seed_draw_from_two_threads_as_seeded():
    _assert_two_threads_draw_as_seeded(
        [v.NoiseModel.uniform(0.3, 6, seed=2**40 + 9) for _ in range(2)]
    )


def test_noise_model_validation():
    with pytest.raises(ValueError):
        v.NoiseModel.uniform(-1.0, 4, seed=1)
    with pytest.raises(v.LengthMismatch):
        v.NoiseModel(np.ones((2, 2)), seed=1)
    with pytest.raises(ValueError):
        v.NoiseModel.uniform(1.0, 4, seed=-1)
    with pytest.raises(ValueError):
        v.NoiseModel.uniform(1.0, 4, seed=1).sample(trial=-1)


def test_noise_per_element_variance_monte_carlo():
    # noise-only propagation: zero input, unit variance per element
    g = reference_geometry()
    channel = v.channel_matrix(g, variant="farfield")
    silent = np.zeros(10, dtype=complex)
    trials = 10_000
    noise = v.NoiseModel.uniform(1.0, 10, seed=2024)
    draws = np.stack(
        [v.propagate(silent, channel, noise, trial=t) for t in range(trials)]
    )
    variances = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.all(np.abs(variances - 1.0) < 0.05)
    assert np.abs(np.mean(draws)) < 0.05


def test_demultiplex_roundtrip_coaxial():
    g = reference_geometry()
    symbols = unit_symbols(g)
    rx = v.propagate_mode_model(symbols, v.mode_channel_matrix(g))
    out = v.demultiplex(rx, g)
    assert np.max(np.abs(out.estimated_symbols - symbols.symbols)) < 1e-10


def test_demultiplex_terms_sum_to_modes():
    # per_mode sums, over the elements, each sample times h / its closed gain.
    g = reference_geometry(tilt_phi=0.4)
    symbols = unit_symbols(g)
    gains = v.mode_channel_matrix(g)
    rx = v.propagate_mode_model(symbols, gains)
    out = v.demultiplex(rx, g)
    terms = rx[:, None] * v.mode_gain_factors(g).h_scalar / gains
    np.testing.assert_allclose(terms.sum(axis=0), out.per_mode, rtol=1e-12, atol=1e-12)
    assert out.modes == v.mode_index_set(g)


def test_demultiplex_residual_equals_crosstalk_prediction():
    g = reference_geometry(tilt_phi=math.pi / 6)
    symbols = unit_symbols(g)
    rx = v.propagate_mode_model(symbols, v.mode_channel_matrix(g))
    out = v.demultiplex(rx, g)
    leak = v.crosstalk_matrix(g)
    predicted = (leak - np.eye(len(symbols.modes))) @ symbols.symbols
    residual = out.estimated_symbols - symbols.symbols
    assert np.max(np.abs(residual - predicted)) < 1e-10


def test_demultiplexed_noise_variance_matches_aggregate():
    g = reference_geometry(tilt_phi=math.pi / 6)
    noise = v.NoiseModel.uniform(0.01, 10, seed=5)
    trials = 10_000
    modes = v.mode_index_set(g)
    collected = np.empty((trials, len(modes)), dtype=complex)
    for t in range(trials):
        collected[t] = v.demultiplex(noise.sample(trial=t), g).per_mode
    measured = np.mean(np.abs(collected) ** 2, axis=0)
    for i, mode in enumerate(modes):
        expected = v.aggregate_noise_variance(mode, g, noise)
        assert abs(measured[i] - expected) / expected < 0.05


def test_mode_orthogonality_kernel():
    m_count = 10
    psi = 2.0 * np.pi * np.arange(m_count) / m_count
    for gap in range(-9, 10):
        kernel = np.mean(np.exp(1j * psi * gap))
        assert abs(kernel - (1.0 if gap == 0 else 0.0)) < 1e-14


def test_crosstalk_identity_coaxial():
    g = reference_geometry()
    leak = v.crosstalk_matrix(g)
    assert np.max(np.abs(leak - np.eye(len(v.mode_index_set(g))))) < 1e-10


def test_crosstalk_diagonal_always_unity():
    for tilt in (0.0, 0.3, math.pi / 6, 1.2):
        leak = v.crosstalk_matrix(reference_geometry(tilt_phi=tilt))
        assert np.max(np.abs(np.diag(leak) - 1.0)) < 1e-12


def test_crosstalk_matches_two_pass_formula():
    # Reference: weights against a freshly built closed-form mode matrix.
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 12:
        g = random_geometry(rng)
        try:
            leak = v.crosstalk_matrix(g)
        except (v.ModeUnobservable, v.DegenerateGeometry):
            continue
        gains = v.mode_channel_matrix(g, method="closed")
        h = v.mode_gain_factors(g).h_scalar
        weights = h / gains
        reference = weights.T @ gains / (g.n_rx * h)
        # Rounding of each dot product scales with the sum of its terms' magnitudes.
        magnitude = np.abs(weights).T @ np.abs(gains) / (g.n_rx * abs(h))
        assert np.all(np.abs(leak - reference) <= 1e-14 * magnitude)
        checked += 1


def test_crosstalk_shrinks_with_distance():
    near = reference_geometry(tilt_phi=math.pi / 6)
    far = reference_geometry(tilt_phi=math.pi / 6, center_distance=10.0)
    eye = np.eye(10)
    leak_near = np.max(np.abs(v.crosstalk_matrix(near) - eye))
    leak_far = np.max(np.abs(v.crosstalk_matrix(far) - eye))
    assert leak_far <= leak_near


def test_unobservable_mode_raises():
    # a vanishing transmit radius zeroes every nonzero-mode gain factor
    g = reference_geometry(radius_tx=1e-300)
    with pytest.raises(v.ModeUnobservable) as excinfo:
        v.demultiplex(np.ones(10, dtype=complex), g)
    assert excinfo.value.mode != 0


def test_demultiplex_dimension_checks():
    g = reference_geometry()
    rx = np.ones(10, dtype=complex)
    for bad in (rx[:9], np.ones(11, dtype=complex), rx[:, None], rx[None, :]):
        with pytest.raises(v.LengthMismatch):
            v.demultiplex(bad, g)


def test_demultiplex_outputs_are_read_only_and_own_their_data():
    g = reference_geometry()
    symbols = unit_symbols(g)
    rx = v.propagate_mode_model(symbols, v.mode_channel_matrix(g))
    out = v.demultiplex(rx, g)
    before = out.estimated_symbols.copy()
    rx[:] = 0.0
    np.testing.assert_array_equal(out.estimated_symbols, before)
    assert not out.per_mode.flags.writeable and not out.estimated_symbols.flags.writeable
