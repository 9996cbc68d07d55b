"""Mode synthesis, propagation with additive noise, and mode decomposition.

The transmit side feeds every element the same symbols behind per-element
phase ramps (one ramp per mode).  The receive side undoes, per element and
per mode, the closed-form gain factor and offset phase, then sums across
elements; the phase ramps of distinct modes cancel in that sum.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import _check_invertible, _closed_gains, mode_gain_factors
from .errors import LengthMismatch, _is_integer
from .geometry import TWO_PI, LinkGeometry, _mode_numbers, mode_index_set


@dataclass(frozen=True, eq=False)
class ModeSymbolVector:
    """One complex symbol per mode, ordered like its mode numbers."""

    symbols: np.ndarray
    modes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "symbols", np.asarray(self.symbols))
        if self.symbols.ndim != 1 or len(self.symbols) != len(self.modes):
            raise LengthMismatch(
                f"{len(self.symbols)} symbols for {len(self.modes)} modes"
            )


def _frozen_vector(values, name: str) -> np.ndarray:
    """A read-only 1-D float copy of ``values``, checked finite and >= 0."""
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise LengthMismatch(f"{name} must form a 1-D vector")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite and >= 0")
    v.setflags(write=False)
    return v


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, [0] for zero:
    the split ``SeedSequence`` applies to each integer of a seed list."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


# SeedSequence's hash constants (initial value, multiplier) and PCG64's LCG multiplier, with
# which one array pass seeds a block of trials as Generator(PCG64(SeedSequence(words))) does.
_BLOCK = 256  # divides 2**32, so a block's trials share all but the low word
_TABLES = 2  # seed tables kept: a loop over consecutive trials draws from one block at a time
_POOL_HASH, _OUTPUT_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = (2549297995355413924 << 64) + 4865540595714422341, (1 << 128) - 1
_generators = threading.local()  # one reused Generator per thread


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """Column of the n + 1 hash constants init * mult**k mod 2**32."""
    return np.cumprod(np.array([init] + [mult] * n, dtype=np.uint32), dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 rows, with constants k and k + 1 for row k."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


@lru_cache(maxsize=_TABLES)
def _block_seeds(seed: int, block: int) -> list[list[int]]:
    """Shared, read-only rows of PCG64 seed words (state high, low, increment high, low), row
    j for trial block*_BLOCK + j: SeedSequence's pool of the words of [seed, trial], hashed."""
    seed_words = _uint32_words(seed)
    words = seed_words + _uint32_words(block * _BLOCK)
    entropy = np.repeat(np.array(words + [0] * (4 - len(words)), np.uint32)[:, None], _BLOCK, 1)
    entropy[len(seed_words)] += np.arange(_BLOCK, dtype=np.uint32)
    consts = _hash_constants(*_POOL_HASH, 4 * len(entropy))
    pool = _hash(entropy[:4], consts[:5])
    k = 4
    for src in range(len(entropy)):  # pool words mix into the others, then extra words into all
        dst = [d for d in range(4) if d != src]
        hashed = _hash((pool if src < 4 else entropy)[src], consts[k:k + len(dst) + 1])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ mixed >> 16
        k += len(dst)
    out = _hash(np.concatenate((pool, pool)), _hash_constants(*_OUTPUT_HASH, 8))
    return (out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << 32).T.tolist()


def _seeded_generator(words: list[int]):
    """This thread's Generator in the state PCG64 seeds from four seed words."""
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _MASK128
    rng = getattr(_generators, "rng", None)
    if rng is None:
        rng = _generators.rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Per-receive-element circular complex Gaussian noise, seeded.

    ``sample(trial)`` is a pure function of (seed, trial): the same pair
    always reproduces the same draw, and distinct trials are independent
    streams, so Monte Carlo loops parallelize without coordination.  The
    stream is the one ``numpy.random.default_rng([seed, trial])`` gives.
    Every draw sets one reused generator per thread, seeded for trial j of a
    256-trial block by numpy's ``SeedSequence`` when j = 0 and from the block's
    cached seed table otherwise.  The model never changes after construction.
    """

    variances: np.ndarray
    seed: int

    def __post_init__(self):
        v = _frozen_vector(self.variances, "variances")
        object.__setattr__(self, "variances", v)
        if not _is_integer(self.seed) or not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        scale = np.sqrt(v / 2.0)  # per-element draw scale, fixed here rather than per sample
        scale.setflags(write=False)
        object.__setattr__(self, "_scale", scale)

    @classmethod
    def uniform(cls, variance: float, n_rx: int, seed: int) -> "NoiseModel":
        return cls(variances=np.full(n_rx, float(variance)), seed=seed)

    def sample(self, trial: int = 0) -> np.ndarray:
        if not _is_integer(trial) or trial < 0:
            raise ValueError(f"trial must be an integer >= 0, got {trial!r}")
        block, j = divmod(int(trial), _BLOCK)
        if j:
            words = _block_seeds(self.seed, block)[j]
        else:  # numpy.random is looked up here: importing it with the package costs 6 MB
            entropy = np.array(_uint32_words(self.seed) + _uint32_words(int(trial)), np.uint32)
            words = np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
        n = len(self._scale)
        pairs = _seeded_generator(words).standard_normal((2, n))
        draw = np.empty(n, dtype=complex)
        draw.real = pairs[0]
        draw.imag = pairs[1]
        draw *= self._scale
        return draw


@dataclass(frozen=True, eq=False)
class DemuxOutput:
    """Decomposition products: per-mode sums over the elements and symbol estimates."""

    per_mode: np.ndarray  # (n_modes,) summed over elements
    estimated_symbols: np.ndarray  # (n_modes,)
    modes: tuple[int, ...]


@lru_cache(maxsize=64)
def _phase_ramps(n_tx: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(modes, mode numbers, ramp table) of an n_tx-element transmit array.

    The table holds exp(j*2*pi*k*l/N)/sqrt(N), tx element k = 0..N-1 by mode
    l: the feed of a zero-offset array, which depends on N alone.  The phase
    index k*l is reduced mod N first, so no entry's exponent exceeds 2*pi.
    """
    modes = _mode_numbers(n_tx)
    l = np.array(modes)
    table = np.exp(1j * TWO_PI * (np.outer(np.arange(n_tx), l) % n_tx) / n_tx) / math.sqrt(n_tx)
    for arr in (l, table):
        arr.setflags(write=False)
    return modes, l, table


@lru_cache(maxsize=16)
def _tx_rotation(n_tx: int, alpha_tx: float) -> np.ndarray:
    """exp(j*alpha_tx*l) per mode l: the tx offset's rotation of each mode."""
    rotation = np.exp(1j * alpha_tx * _phase_ramps(n_tx)[1])
    rotation.setflags(write=False)
    return rotation


def synthesize_transmit(symbols: ModeSymbolVector, geometry: LinkGeometry) -> np.ndarray:
    """Feed samples of the n_tx elements for a symbol vector (an isometry:
    power is preserved).

    The tx offset rotates mode l by exp(j*alpha_tx*l); both that rotation
    and the ramp table of the element count are cached.
    """
    g = geometry
    modes, _, table = _phase_ramps(g.n_tx)
    if symbols.modes != modes:
        raise LengthMismatch(
            f"symbol modes {symbols.modes} do not match geometry modes {modes}"
        )
    return table @ (symbols.symbols * _tx_rotation(g.n_tx, g.offset_alpha_tx))


def _received(matrix: np.ndarray, vector: np.ndarray, noise: NoiseModel | None,
              trial: int) -> np.ndarray:
    """Receive samples ``matrix @ vector`` plus the trial's noise draw, if any."""
    if matrix.ndim != 2 or vector.ndim != 1 or matrix.shape[1] != len(vector):
        raise LengthMismatch(f"{vector.shape} input into a {matrix.shape} matrix")
    samples = matrix @ vector
    if noise is not None:
        if len(noise.variances) != len(samples):
            raise LengthMismatch(
                f"{len(noise.variances)} noise variances for {len(samples)} rx elements"
            )
        samples = samples + noise.sample(trial)
    return samples


def propagate(
    tx: np.ndarray,
    channel: np.ndarray,
    noise: NoiseModel | None = None,
    trial: int = 0,
) -> np.ndarray:
    """Receive samples y = H x (+ z) of tx feed samples through an
    element-gain matrix (rx elements by tx elements)."""
    return _received(channel, tx, noise, trial)


def propagate_mode_model(
    symbols: ModeSymbolVector,
    mode_matrix: np.ndarray,
    noise: NoiseModel | None = None,
    trial: int = 0,
) -> np.ndarray:
    """Receive samples under the per-mode gain model: y = H~ s (+ z)."""
    return _received(mode_matrix, symbols.symbols, noise, trial)


@lru_cache(maxsize=16)
def _demux_weights(geometry: LinkGeometry) -> tuple[np.ndarray, tuple[int, ...], complex]:
    """(weights h / gain per (element, mode), modes, estimate normalizer M*h).

    Raises when a mode is uninvertible.  The factor magnitude |c| is
    |gain / h|, since the offset phase is unimodular.
    """
    g = geometry
    h = mode_gain_factors(g).h_scalar
    modes = mode_index_set(g)
    gains = _closed_gains(g, modes)
    _check_invertible(np.abs(gains) / abs(h), modes)
    weights = h / gains
    weights.setflags(write=False)
    return weights, modes, g.n_rx * h


def demultiplex(rx: np.ndarray, geometry: LinkGeometry) -> DemuxOutput:
    """Split the n_rx receive samples into per-mode components and symbol estimates.

    Each element sample is multiplied by the inverse closed-form gain factor
    and the conjugate offset phase for the probed mode, then summed across
    elements; estimates divide by M times the common gain scale.
    """
    g = geometry
    if rx.ndim != 1 or len(rx) != g.n_rx:
        raise LengthMismatch(f"{rx.shape} rx samples for {g.n_rx} elements")
    weights, modes, norm = _demux_weights(g)
    per_mode = rx @ weights
    estimates = per_mode / norm
    for arr in (per_mode, estimates):
        arr.setflags(write=False)
    return DemuxOutput(per_mode, estimates, modes)


def crosstalk_matrix(geometry: LinkGeometry) -> np.ndarray:
    """Mode-to-mode leakage of the decomposition under the closed-form model.

    Entry (row i0, column i) is the response of the mode-i0 output to a unit
    symbol on mode i.  Diagonal entries are 1 up to rounding; off-diagonal
    magnitudes quantify inter-mode interference (zero for coaxial arrays).
    """
    weights, _, _ = _demux_weights(geometry)
    # The closed gains are h / weights; h cancels against the estimate's
    # 1 / (M*h), so the gains need no second Bessel pass.
    return weights.T @ (1.0 / weights) / geometry.n_rx
