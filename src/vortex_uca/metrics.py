"""Spectrum efficiency and the noise aggregation feeding it."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel import _bessel_columns, _check_invertible, mode_gain_factors
from .errors import DegenerateGeometry, LengthMismatch, ModeUnobservable
from .geometry import LinkGeometry, mode_index_set
from .transceiver import NoiseModel, _frozen_vector

_SWEEP_FIELDS = {
    "phi": "tilt_phi",
    "theta": "bearing_theta",
    "distance": "center_distance",
}


@dataclass(frozen=True, eq=False)
class LinkBudget:
    """Per-mode transmit powers plus the receive-side noise model."""

    mode_powers: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        object.__setattr__(self, "mode_powers", _frozen_vector(self.mode_powers, "mode_powers"))

    @classmethod
    def uniform(
        cls, geometry: LinkGeometry, mode_power: float, noise_variance: float, seed: int
    ) -> "LinkBudget":
        n_modes = len(mode_index_set(geometry))
        return cls(
            mode_powers=np.full(n_modes, float(mode_power)),
            noise=NoiseModel.uniform(noise_variance, geometry.n_rx, seed),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample; ``spectrum_efficiency`` is None at unevaluable points."""

    value: float
    spectrum_efficiency: float | None


def _aggregate_variances(geometry: LinkGeometry, noise: NoiseModel, modes) -> np.ndarray:
    """Per-mode noise variance of the summed outputs: sum_m sigma_m^2 / |c_{m,l}|^2.

    Raises :class:`ModeUnobservable` at the first (mode, element) pair, in
    mode order, whose factor falls below the inversion threshold.
    """
    g = geometry
    if len(noise.variances) != g.n_rx:
        raise LengthMismatch(
            f"{len(noise.variances)} noise variances for {g.n_rx} rx elements"
        )
    # The prefactor of c is unimodular, so |c| is |J_|l|(b)|, read off the table.
    c_abs = np.abs(_bessel_columns(modes, mode_gain_factors(g).b_factor))
    _check_invertible(c_abs, modes)
    return np.sum(noise.variances[:, None] / c_abs**2, axis=0)


def aggregate_noise_variance(mode: int, geometry: LinkGeometry, noise: NoiseModel) -> float:
    """Noise variance of the summed per-mode output: sum of sigma_m^2 / |c_{m,mode}|^2."""
    return float(_aggregate_variances(geometry, noise, (mode,))[0])


def spectrum_efficiency(geometry: LinkGeometry, budget: LinkBudget) -> float:
    """Sum over modes of log2(1 + per-mode SNR), in bits/s/Hz.

    The per-mode SNR is M^2 |h|^2 p_mode over the aggregated noise variance
    of that mode's decomposition output.  Each term is taken from the sum of
    the SNR factors' logs, so no product overflows or underflows: a mode
    without power adds 0, a powered mode without noise adds inf.
    """
    g = geometry
    modes = mode_index_set(g)
    if len(budget.mode_powers) != len(modes):
        raise LengthMismatch(
            f"{len(budget.mode_powers)} mode powers for {len(modes)} modes"
        )
    variances = _aggregate_variances(g, budget.noise, modes)
    powered = budget.mode_powers > 0
    log_gain = 2.0 * (math.log2(g.n_rx) + math.log2(abs(mode_gain_factors(g).h_scalar)))
    with np.errstate(divide="ignore"):  # log2(0) = -inf is a noiseless mode's term
        log_snr = log_gain + np.log2(budget.mode_powers[powered]) - np.log2(variances[powered])
    return float(np.sum(np.logaddexp2(0.0, log_snr)))


def se_sweep(
    geometry: LinkGeometry,
    variable: str,
    grid,
    budget: LinkBudget,
) -> list[SweepPoint]:
    """Spectrum efficiency across a parameter grid.

    ``variable`` is one of 'phi', 'theta', 'distance'.  Points where some
    mode cannot be inverted (or the geometry degenerates) are carried as
    gaps with ``spectrum_efficiency=None`` rather than dropped.
    """
    if variable not in _SWEEP_FIELDS:
        raise ValueError(f"unknown sweep variable {variable!r}")
    field = _SWEEP_FIELDS[variable]
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("sweep grid must not be empty")
    points = []
    for value in grid:
        candidate = dataclasses.replace(geometry, **{field: value})
        try:
            se = spectrum_efficiency(candidate, budget)
        except (ModeUnobservable, DegenerateGeometry):
            se = None
        points.append(SweepPoint(value=value, spectrum_efficiency=se))
    return points
