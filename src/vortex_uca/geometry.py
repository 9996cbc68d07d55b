"""Link geometry for a pair of parallel, non-coaxial uniform circular arrays.

The transmit UCA lies in the z=0 plane, centered on the origin.  The receive
UCA lies in a parallel plane; its center sits at distance ``center_distance``
from the transmit center, tilted by ``tilt_phi`` away from the common axis
with in-plane bearing ``bearing_theta``.  Both arrays may carry a rotational
offset of their first element (``offset_alpha_tx`` / ``offset_alpha_rx``).

Element indices are 1-based throughout, matching the usual antenna-array
numbering: transmit elements n = 1..n_tx, receive elements m = 1..n_rx.
The per-element functions accept an index or an index array for each of
m and n; the arrays broadcast against each other, so ``m[:, None]`` with
``n`` gives the whole rx-by-tx table in one call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, ValidationError, _is_integer

TWO_PI = 2.0 * math.pi

# Below this, the offset-angle denominator is treated as zero.
DEGENERACY_TOL = 1e-15

# The closed-form gain model assumes the arrays are far apart relative to
# their radii; constructions closer than this multiple only get a warning.
FAR_FIELD_MARGIN = 5.0


class FarFieldWarning(UserWarning):
    """Arrays are close enough that the far-field gain model degrades."""


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValidationError(field, message)


def _wrap_angle(value: float) -> float:
    """Map an arbitrary real angle into [0, 2*pi)."""
    wrapped = math.fmod(value, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    # A negative angle within half an ulp of 0 rounds up to 2*pi itself.
    return wrapped if wrapped < TWO_PI else 0.0


@dataclass(frozen=True)
class LinkGeometry:
    """Immutable description of one transmit/receive UCA pair.

    Distances are meters, angles radians.  ``beta`` is the dimensionless
    antenna/propagation scale factor multiplying every element gain.
    """

    n_tx: int
    n_rx: int
    radius_tx: float
    radius_rx: float
    center_distance: float
    bearing_theta: float = 0.0
    tilt_phi: float = 0.0
    offset_alpha_tx: float = 0.0
    offset_alpha_rx: float = 0.0
    wavelength: float = 0.1
    beta: float = 4.0 * math.pi

    def __post_init__(self):
        for name in ("n_tx", "n_rx"):
            value = getattr(self, name)
            _require(_is_integer(value), name, "must be an integer")
            object.__setattr__(self, name, int(value))
            _require(getattr(self, name) >= 1, name, "must be >= 1")
        for name in ("radius_tx", "radius_rx", "center_distance", "wavelength", "beta"):
            value = getattr(self, name)
            _require(math.isfinite(value), name, "must be finite")
            _require(value > 0.0, name, "must be > 0")
        for name in ("bearing_theta", "tilt_phi", "offset_alpha_tx", "offset_alpha_rx"):
            value = getattr(self, name)
            _require(math.isfinite(value), name, "must be finite")
            object.__setattr__(self, name, _wrap_angle(value))
        _require(
            self.tilt_phi <= 0.5 * math.pi,
            "tilt_phi",
            "must lie in [0, pi/2] after wrapping to [0, 2*pi)",
        )
        longest = max(("center_distance", "radius_tx", "radius_rx"), key=lambda f: getattr(self, f))
        _require(getattr(self, longest) < 1e150, longest,
                 "must be < 1e150 so that the range sqrt(d^2 + r^2 + R^2) is finite")
        amplitude = self.farfield_amplitude  # gains scale with it, SE with n_tx * its square
        _require(0.0 < amplitude and self.n_tx * amplitude * amplitude < math.inf, "beta",
                 f"far-field amplitude {amplitude:g} must be > 0 with n_tx times its square finite")
        srange = self.farfield_range
        scale = self.wavelength * srange  # every Bessel argument's denominator
        widest = self.radius_rx + self.center_distance  # bounds every rx element's spread
        _require(math.isfinite(TWO_PI * srange / self.wavelength) and scale > 0.0
                 and math.isfinite(TWO_PI * self.radius_tx * widest / scale), "wavelength",
                 "must keep the carrier phase 2*pi*range/wavelength and the Bessel argument bound "
                 "2*pi*r_tx*(r_rx + d)/(wavelength*range) finite")
        if self.far_field_warning:
            warnings.warn(
                f"center distance {self.center_distance} is below "
                f"{FAR_FIELD_MARGIN} x max array radius; far-field gain "
                f"formulas lose accuracy",
                FarFieldWarning,
                stacklevel=3,  # past __post_init__ and the dataclass __init__
            )

    @property
    def far_field_warning(self) -> bool:
        """True when the arrays are too close for the far-field model."""
        return self.center_distance < FAR_FIELD_MARGIN * max(self.radius_tx, self.radius_rx)

    @property
    def plane_separation(self) -> float:
        """Perpendicular distance between the two array planes."""
        return self.center_distance * math.cos(self.tilt_phi)

    @property
    def farfield_range(self) -> float:
        """Effective range sqrt(d^2 + r^2 + R^2) of the far-field amplitude."""
        return math.sqrt(
            self.center_distance**2 + self.radius_tx**2 + self.radius_rx**2
        )

    @property
    def farfield_amplitude(self) -> float:
        """Magnitude beta*lambda/(4*pi*range) of every far-field element gain."""
        return self.beta * self.wavelength / (4.0 * math.pi * self.farfield_range)

    def tx_angles(self, n=None) -> np.ndarray:
        """Azimuths 2*pi*(n-1)/N + alpha_tx of tx elements ``n`` (1-based
        index or index array); every element's when ``n`` is None."""
        return _azimuths(self.n_tx, self.offset_alpha_tx, n, "tx")

    def rx_angles(self, m=None) -> np.ndarray:
        """Azimuths 2*pi*(m-1)/M + alpha_rx of rx elements ``m``, like :meth:`tx_angles`."""
        return _azimuths(self.n_rx, self.offset_alpha_rx, m, "rx")


def _azimuths(count: int, offset: float, index, side: str) -> np.ndarray:
    if index is None:
        k = np.arange(count)
    else:
        k = np.asarray(index)
        if k.dtype.kind not in "iu":
            raise ValueError(f"{side} element index {index!r} is not an integer")
        k = k - 1
        if np.any((k < 0) | (k >= count)):
            raise ValueError(f"{side} element index {index} outside 1..{count}")
    return TWO_PI * k / count + offset


def _mode_numbers(n: int) -> tuple[int, ...]:
    """Mode numbers an n-element array carries: (2-n)/2 .. n/2, both bounds
    truncated toward zero, so n consecutive integers for even n, n-1 for odd."""
    return tuple(range(math.trunc((2 - n) / 2), n // 2 + 1))


def mode_index_set(geometry: LinkGeometry) -> tuple[int, ...]:
    """Mode numbers supported by the transmit array size, in increasing order."""
    return _mode_numbers(geometry.n_tx)


def element_positions(geometry: LinkGeometry) -> tuple[np.ndarray, np.ndarray]:
    """3-D coordinates of all array elements.

    Returns ``(tx, rx)`` arrays of shape (n_tx, 3) and (n_rx, 3); row i holds
    element i+1.  Transmit elements sit on the z=0 circle; receive elements
    sit in the plane z = plane_separation, displaced opposite the bearing
    direction (the sign convention every distance formula below relies on).
    """
    g = geometry
    phi_n = TWO_PI * np.arange(g.n_tx) / g.n_tx + g.offset_alpha_tx
    tx = np.stack(
        [g.radius_tx * np.cos(phi_n), g.radius_tx * np.sin(phi_n), np.zeros(g.n_tx)],
        axis=1,
    )
    psi_m = TWO_PI * np.arange(g.n_rx) / g.n_rx + g.offset_alpha_rx
    off = g.center_distance * math.sin(g.tilt_phi)
    rx = np.stack(
        [
            g.radius_rx * np.cos(psi_m) - off * math.cos(g.bearing_theta),
            g.radius_rx * np.sin(psi_m) - off * math.sin(g.bearing_theta),
            np.full(g.n_rx, g.plane_separation),
        ],
        axis=1,
    )
    return tx, rx


def _cross_terms(m, n, g: LinkGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three cosine cross-terms shared by all distance formulas.

    Returns (rR*cos(gap), Rd*sin(tilt)*cos(rx bearing gap),
    rd*sin(tilt)*cos(tx bearing gap)) for the element pairs (m, n).
    """
    psi = g.rx_angles(m)
    phi = g.tx_angles(n)
    sin_tilt = math.sin(g.tilt_phi)
    term_rr = g.radius_tx * g.radius_rx * np.cos(psi - phi)
    term_rx = g.radius_rx * g.center_distance * sin_tilt * np.cos(psi - g.bearing_theta)
    term_tx = g.radius_tx * g.center_distance * sin_tilt * np.cos(phi - g.bearing_theta)
    return term_rr, term_rx, term_tx


def _distance(m, n, g: LinkGeometry, centers: float) -> np.ndarray:
    """sqrt(R^2 + r^2 + centers^2 - 2*(cross terms)) for the element pairs (m, n),
    ``centers`` being the distance between the two circles' centers: in 3-D,
    or in the rx plane once the tx circle is projected onto it."""
    term_rr, term_rx, term_tx = _cross_terms(m, n, g)
    sq = (g.radius_rx**2 + g.radius_tx**2 + centers**2
          - 2.0 * term_rr - 2.0 * term_rx + 2.0 * term_tx)
    return np.sqrt(np.maximum(sq, 0.0))


def projected_distance(m, n, geometry: LinkGeometry) -> np.ndarray:
    """In-plane distance between rx element m and the projection of tx element n."""
    return _distance(m, n, geometry, geometry.center_distance * math.sin(geometry.tilt_phi))


def exact_distance(m, n, geometry: LinkGeometry) -> np.ndarray:
    """Euclidean distance between tx element n and rx element m."""
    return _distance(m, n, geometry, geometry.center_distance)


def approx_distance(m, n, geometry: LinkGeometry) -> np.ndarray:
    """First-order far-field expansion of :func:`exact_distance`.

    Expands sqrt(1 - 2x) ~ 1 - x around the effective range; accurate when
    the cross-terms are small against d^2 + r^2 + R^2.
    """
    g = geometry
    term_rr, term_rx, term_tx = _cross_terms(m, n, g)
    srange = g.farfield_range
    return srange - (term_rr + term_rx - term_tx) / srange


def _offset_triangle(m, g: LinkGeometry, tilt, bearing) -> tuple[np.ndarray, ...]:
    """(s*cos(gap), R - s*cos(gap), s*sin(gap), hypotenuse) of rx element(s) m and
    the projected tx center, s = d*sin(tilt), gap = azimuth - bearing; ``tilt``
    and ``bearing`` broadcast against the elements (a (P, 1) grid gives P rows)."""
    gap = g.rx_angles(m) - bearing
    inplane = g.center_distance * np.sin(tilt)
    radial = inplane * np.cos(gap)
    sin_leg, cos_leg = g.radius_rx - radial, inplane * np.sin(gap)
    return radial, sin_leg, cos_leg, np.sqrt(sin_leg**2 + cos_leg**2)


def zeta(m, geometry: LinkGeometry) -> np.ndarray:
    """Offset angle of rx element(s) m relative to the projected tx center.

    ``m`` is a 1-based index or index array, or None for every element.
    Resolved with the two-argument arctangent into (-pi, pi], so the sine
    and cosine of the returned angle reproduce both defining ratios.
    Raises :class:`DegenerateGeometry` when the defining triangle collapses
    (rx element radius and in-plane offset cancel simultaneously).
    """
    g = geometry
    return _zeta_of(m, g, _offset_triangle(m, g, g.tilt_phi, g.bearing_theta))


def _zeta_of(m, g: LinkGeometry, triangle) -> np.ndarray:
    """:func:`zeta` from the :func:`_offset_triangle` of rx element(s) m."""
    _, sin_num, cos_num, denom = triangle
    degenerate = np.asarray(denom <= DEGENERACY_TOL)
    if degenerate.any():
        element = (np.arange(1, g.n_rx + 1) if m is None else np.asarray(m))[degenerate][0]
        raise DegenerateGeometry(
            f"offset angle undefined at rx element {element}: "
            f"denominator {np.asarray(denom)[degenerate][0]:.3e}"
        )
    return np.arctan2(sin_num, cos_num)
