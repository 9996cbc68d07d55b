"""Element-to-element and per-mode channel gains.

Two gain models coexist:

* the exact spherical-wave gain, whose phase carries the exact distance;
* the far-field model, where each receive element sees a constant-magnitude
  gain whose phase is sinusoidal in the transmit azimuth.  Summing that
  model against the transmit phase ramp collapses (for large arrays) into a
  closed form built from a Bessel factor per (element, mode) pair.

:meth:`ModeGainFactors.c_matrix` tabulates that factor for every element
and mode from one Bessel table for the closed-form gains and demux weights;
the gain sweeps and the aggregated noise read only its magnitude |J_|l|(b)|.
The direct finite sum over transmit elements (:func:`mode_gain_direct`; its
matrix is one far-field matrix product), :meth:`ModeGainFactors.c_factor`,
the aligned and the coplanar special cases stay scalar, as the references
the closed form is measured against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CaseMismatch, ModeUnobservable
from .geometry import (
    DEGENERACY_TOL,
    TWO_PI,
    LinkGeometry,
    exact_distance,
    _offset_triangle,
    _zeta_of,
    mode_index_set,
)
from .specfun import MAX_ORDER, bessel_j, bessel_table

# Magnitudes below this floor only matter to the error metric's log.
_LOG_FLOOR = 1e-300

# Per-mode inversion refuses gain factors smaller than this.
INVERSION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ModeGainFactors:
    """Per-receive-element factors of the far-field gain model.

    ``a_factor[m-1]`` is the constant-magnitude element prefactor,
    ``b_factor[m-1]`` the phase-spread amplitude feeding the Bessel factor,
    ``c_prefactor[m-1]`` the unimodular part of the per-mode factor, and
    ``zeta[m-1]`` the receive-element offset angle.  ``h_scalar`` collects
    the mode-independent scale sqrt(N) * beta * lambda / (4*pi*range).
    """

    h_scalar: complex
    a_factor: np.ndarray
    b_factor: np.ndarray
    c_prefactor: np.ndarray
    zeta: np.ndarray

    def c_factor(self, m: int, mode: int) -> complex:
        """Per-(element, mode) factor: unimodular prefactor times J_mode(b)."""
        return complex(self.c_prefactor[m - 1] * bessel_j(mode, float(self.b_factor[m - 1])))

    def c_matrix(self, modes) -> np.ndarray:
        """c_factor for every rx element (rows) and each of ``modes`` (columns).

        All entries come from one Bessel table over every element's b; the
        negative orders fold through J_{-l} = (-1)^l J_l.
        """
        l = np.array(tuple(modes))
        sign = np.where((l < 0) & (l % 2 == 1), -1.0, 1.0)
        return self.c_prefactor[:, None] * (_bessel_columns(l, self.b_factor) * sign)


def _bessel_columns(modes, b) -> np.ndarray:
    """J_|l|(b) for each b (leading axes) and each mode l of ``modes`` (last
    axis), from one Bessel table."""
    orders = np.abs(np.asarray(modes))
    return bessel_table(int(orders.max()), b)[orders].transpose(*range(1, np.ndim(b) + 1), 0)


def _bessel_argument(g: LinkGeometry, spread) -> np.ndarray:
    """b = 2*pi*r*spread / (lambda*range), the spread being an rx element's
    distance from the projected tx center (zeta's denominator)."""
    return TWO_PI * g.radius_tx * spread / (g.wavelength * g.farfield_range)


@lru_cache(maxsize=16)
def mode_gain_factors(geometry: LinkGeometry) -> ModeGainFactors:
    """All far-field gain factors of a geometry, cached per geometry."""
    g = geometry
    srange = g.farfield_range
    carrier = cmath.exp(-2j * math.pi * srange / g.wavelength)

    triangle = _offset_triangle(None, g, g.tilt_phi, g.bearing_theta)
    zetas = _zeta_of(None, g, triangle)
    b = _bessel_argument(g, triangle[3])
    prefactor = np.exp(1j * TWO_PI * g.radius_rx * triangle[0] / (g.wavelength * srange))
    a = g.farfield_amplitude * carrier * prefactor
    h = math.sqrt(g.n_tx) * g.farfield_amplitude * carrier
    for arr in (zetas, b, prefactor, a):
        arr.setflags(write=False)
    return ModeGainFactors(h_scalar=h, a_factor=a, b_factor=b, c_prefactor=prefactor, zeta=zetas)


def exact_channel_gain(m, n, geometry: LinkGeometry) -> np.ndarray:
    """Spherical-wave gain from tx element n to rx element m."""
    g = geometry
    dist = exact_distance(m, n, g)
    return (
        g.beta
        * g.wavelength
        * np.exp(-2j * math.pi * dist / g.wavelength)
        / (4.0 * math.pi * dist)
    )


def farfield_channel_gain(m, n, geometry: LinkGeometry) -> np.ndarray:
    """Far-field model gain from tx element n to rx element m.

    Constant magnitude beta*lambda/(4*pi*range) with a phase sinusoidal in
    the transmit azimuth; the sinusoid is centered on the receive element's
    offset angle.
    """
    g = geometry
    f = mode_gain_factors(g)
    i = np.asarray(m) - 1
    # rx_angles checks m before f.zeta[i] is read.
    gap = g.tx_angles(n) - g.rx_angles(m) + f.zeta[i]
    return f.a_factor[i] * np.exp(-1j * f.b_factor[i] * np.sin(gap))


def mode_gain_direct(m: int, mode: int, geometry: LinkGeometry) -> complex:
    """Finite-sum per-mode gain: the oracle for the closed form.

    Sums the far-field element gains against the transmit-side phase ramp
    of ``mode`` and normalizes by sqrt(N).
    """
    g = geometry
    row = farfield_channel_gain(m, np.arange(1, g.n_tx + 1), g)
    ramp = np.exp(1j * TWO_PI * np.arange(g.n_tx) * mode / g.n_tx)
    return complex(np.sum(row * ramp) / math.sqrt(g.n_tx))


def _closed_gains(geometry: LinkGeometry, modes) -> np.ndarray:
    """Closed-form gains h * exp(j*offset*l) * c_{m,l}, rx elements by ``modes``."""
    g = geometry
    f = mode_gain_factors(g)
    l = np.array(tuple(modes))
    phase = (g.rx_angles()[:, None] - f.zeta[:, None]) * l
    return f.h_scalar * np.exp(1j * phase) * f.c_matrix(l)


def _check_invertible(c_abs: np.ndarray, modes) -> None:
    """Refuse factor magnitudes ``c_abs`` (rx elements by ``modes``) below INVERSION_TOL.

    Raises :class:`ModeUnobservable` at the first (mode, element) pair, in
    mode order, that falls below the threshold.
    """
    small = c_abs < INVERSION_TOL
    if small.any():
        l_idx, m_idx = np.argwhere(small.T)[0]
        raise ModeUnobservable(int(m_idx) + 1, int(modes[l_idx]))


def _sweep_gains(geometry: LinkGeometry, fieldname: str, grid, rows) -> tuple[np.ndarray, ...]:
    """|closed-form gains| = |h| |J_l(b)| of rx elements ``rows`` along a tilt
    or bearing grid, from one Bessel table: shape (points, rows, modes), NaN at
    the points masked degenerate (some zeta denominator <= DEGENERACY_TOL)."""
    g = geometry
    angles = {"tilt_phi": g.tilt_phi, "bearing_theta": g.bearing_theta}
    angles[fieldname] = np.asarray(grid, dtype=float)[:, None]
    spread = _offset_triangle(None, g, angles["tilt_phi"], angles["bearing_theta"])[3]
    degenerate = np.any(spread <= DEGENERACY_TOL, axis=1)
    b = _bessel_argument(g, spread[:, np.asarray(rows) - 1])
    j = _bessel_columns(mode_index_set(g), b)
    gains = math.sqrt(g.n_tx) * g.farfield_amplitude * np.abs(j)
    gains[degenerate] = np.nan
    return gains, degenerate


def mode_gain_closed(m: int, mode: int, geometry: LinkGeometry) -> complex:
    """Closed-form per-mode gain at rx element m.

    The Bessel recurrence starts above the highest order it tabulates, so
    the column is evaluated next to the link's top order: a mode of the mode
    set then equals its entry of :func:`mode_channel_matrix` bit for bit.
    """
    g = geometry
    g.rx_angles(m)  # the index check
    top = max(abs(l) for l in mode_index_set(g))
    columns = (mode, top) if top <= MAX_ORDER else (mode,)
    return complex(_closed_gains(g, columns)[m - 1, 0])


def mode_gain_aligned(m: int, mode: int, geometry: LinkGeometry) -> complex:
    """Per-mode gain for coaxial arrays (zero tilt).

    The Bessel argument collapses to a constant, so the gain magnitude is
    identical at every receive element.
    """
    g = geometry
    if g.tilt_phi != 0.0:
        raise CaseMismatch(f"aligned-case gain requires tilt_phi = 0, got {g.tilt_phi}")
    srange = g.farfield_range
    b = TWO_PI * g.radius_tx * g.radius_rx / (g.wavelength * srange)
    f = mode_gain_factors(g)
    phase = (g.rx_angles(m) - 0.5 * math.pi) * mode
    return complex(f.h_scalar * bessel_j(mode, b) * cmath.exp(1j * phase))


def coplanar_factors(m: int, mode: int, geometry: LinkGeometry) -> tuple[float, complex]:
    """(b_factor, c_factor) for arrays lying in one plane (tilt = pi/2).

    Requires the bearing to coincide with the receive-array offset; both
    returned factors specialize the general per-element factors exactly.
    """
    g = geometry
    if g.tilt_phi != 0.5 * math.pi:
        raise CaseMismatch(f"coplanar case requires tilt_phi = pi/2, got {g.tilt_phi}")
    if g.bearing_theta != g.offset_alpha_rx:
        raise CaseMismatch(
            "coplanar case requires bearing_theta == offset_alpha_rx "
            f"(got {g.bearing_theta} vs {g.offset_alpha_rx})"
        )
    srange = g.farfield_range
    # With the bearing on the rx offset, the bearing gap is the base angle.
    psi = g.rx_angles(m) - g.bearing_theta
    spread = math.sqrt(
        g.radius_rx**2
        + g.center_distance**2
        - 2.0 * g.radius_rx * g.center_distance * math.cos(psi)
    )
    b = TWO_PI * g.radius_tx * spread / (g.wavelength * srange)
    c = cmath.exp(
        1j * TWO_PI * g.radius_rx * g.center_distance * math.cos(psi) / (g.wavelength * srange)
    ) * bessel_j(mode, b)
    return b, complex(c)


def _log_error(diff: float) -> float:
    return math.log10(max(diff, _LOG_FLOOR))


def approximation_error(m: int, mode: int, geometry: LinkGeometry) -> float:
    """log10 magnitude of (closed-form - direct-sum) per-mode gain.

    The direct sum runs over the index ramp, so it is rotated by
    exp(j*mode*offset_alpha_tx) onto the closed form's physical ramp.  The
    magnitude is floored at 1e-300 so exact agreement maps to a finite
    value instead of -inf.
    """
    g = geometry
    direct = mode_gain_direct(m, mode, g) * cmath.exp(1j * mode * g.offset_alpha_tx)
    return _log_error(abs(mode_gain_closed(m, mode, g) - direct))


def worst_approximation_error(geometry: LinkGeometry, modes) -> list[float]:
    """Largest :func:`approximation_error` over the rx elements, per mode.

    The closed-form gains of all ``modes`` come from one Bessel table, the
    direct sums from one far-field matrix times the transmit index ramps,
    rotated by exp(j*l*offset_alpha_tx) as in :func:`approximation_error`.
    """
    g = geometry
    l = np.array(tuple(modes))
    direct = _direct_gains(g, l) * np.exp(1j * l * g.offset_alpha_tx)
    worst = np.max(np.abs(_closed_gains(g, l) - direct), axis=0)
    return [_log_error(diff) for diff in worst]


def _direct_gains(geometry: LinkGeometry, l: np.ndarray) -> np.ndarray:
    """Direct sums of modes ``l`` at every rx element: the far-field matrix
    times the transmit index ramps exp(j*2*pi*(n-1)*l/N), over sqrt(N)."""
    g = geometry
    ramps = np.exp(1j * TWO_PI * np.arange(g.n_tx)[:, None] * l / g.n_tx)
    return channel_matrix(g, "farfield") @ ramps / math.sqrt(g.n_tx)


def channel_matrix(geometry: LinkGeometry, variant: str = "exact") -> np.ndarray:
    """Read-only element-to-element gains, rx elements (rows) by tx elements,
    from one call on index grids; ``variant`` is "exact" or "farfield"."""
    g = geometry
    if variant == "exact":
        gain = exact_channel_gain
    elif variant == "farfield":
        gain = farfield_channel_gain
    else:
        raise ValueError(f"unknown channel variant {variant!r}")
    entries = gain(np.arange(1, g.n_rx + 1)[:, None], np.arange(1, g.n_tx + 1), g)
    entries.setflags(write=False)
    return entries


def mode_channel_matrix(geometry: LinkGeometry, method: str = "closed") -> np.ndarray:
    """Read-only per-mode gains, rx elements (rows) by the modes of
    :func:`mode_index_set` (columns).

    ``method="closed"`` uses the closed form; ``method="direct"`` the
    finite sums of :func:`mode_gain_direct`, as one far-field matrix product.
    """
    g = geometry
    modes = mode_index_set(g)
    if method == "closed":
        entries = _closed_gains(g, modes)
    elif method == "direct":
        entries = _direct_gains(g, np.array(modes))
    else:
        raise ValueError(f"unknown mode-gain method {method!r}")
    entries.setflags(write=False)
    return entries
