"""Integer-order Bessel functions of the first kind.

Production evaluation is one normalized backward recurrence (Miller's
algorithm, DLMF 3.6(iii)) that visits every order from its start index
down to 0 and keeps each row, so a whole table J_0..J_L costs one pass.
The direct trapezoidal quadrature of the defining integral stays available
as a fully independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrderOutOfRange

MAX_ORDER = 64

# A lane is rescaled to about 1 before a recurrence step could push it
# past this magnitude.
_RESCALE_LIMIT = 1e250

# Smaller arguments are evaluated here, which keeps 2k/x finite; every row
# but J_0 = 1 is below 1e-300 in magnitude on both sides.
_TINY_ARG = 1e-300

_MIN_QUADRATURE_NODES = 1024


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)):
        raise OrderOutOfRange(f"order must be an integer, got {order!r}")
    if abs(int(order)) > MAX_ORDER:
        raise OrderOutOfRange(f"|order| = {abs(int(order))} exceeds {MAX_ORDER}")
    return int(order)


def _finite(argument) -> np.ndarray:
    x = np.asarray(argument, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    return x


def _rows(max_order: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_max_order at every x >= 0 of a 1-D array, shape (max_order+1, len(x)).

    Recurses J_{k-1} = (2k/x) J_k - J_{k+1} downward from a start index far
    enough above max(max_order, x) that the seed error is negligible, keeps
    every row at or below max_order, then normalizes with
    J_0 + 2*sum(J_even) = 1.  x = 0 is exact: J_0 = 1 and every other row 0.
    """
    zero = x == 0.0
    x = np.maximum(x, _TINY_ARG)
    top = float(np.max(x, initial=_TINY_ARG))
    start = int(max(max_order, math.ceil(top))) + 20 + int(4.0 * math.sqrt(max(max_order, top)))
    rows = np.zeros((max_order + 1, len(x)))
    above = np.zeros_like(x)
    current = np.ones_like(x)
    norm = 2.0 * current if start % 2 == 0 else np.zeros_like(x)
    for k in range(start, 0, -1):
        step = (2.0 * k) / x
        # Every accumulator is linear in the seed, so a power-of-two
        # rescale of one lane is exact (tiny stored rows may underflow to 0,
        # where they belong).
        risky = np.abs(current) > _RESCALE_LIMIT / step
        if risky.any():
            scale = np.where(risky, np.ldexp(1.0, -np.frexp(current)[1]), 1.0)
            current *= scale
            above *= scale
            norm *= scale
            rows[k:] *= scale
        above, current = current, step * current - above
        if k - 1 <= max_order:
            rows[k - 1] = current
        if (k - 1) % 2 == 0:
            norm += current if k == 1 else 2.0 * current
    rows /= norm
    rows[:, zero] = 0.0
    rows[0, zero] = 1.0
    return rows


def bessel_table(max_order: int, argument) -> np.ndarray:
    """J_0..J_max_order at ``argument`` from one recurrence pass.

    Row l of the result holds J_l evaluated at ``argument`` (scalar or
    ndarray of reals), so the result has shape (max_order+1,) + shape.
    Negative arguments fold through J_l(-x) = (-1)^l J_l(x).
    """
    max_order = _check_order(max_order)
    if max_order < 0:
        raise OrderOutOfRange(f"max_order must be >= 0, got {max_order}")
    x = _finite(argument)
    flat = x.ravel()
    table = _rows(max_order, np.abs(flat))
    table[1::2, flat < 0] *= -1.0
    return table.reshape((max_order + 1,) + x.shape)


def bessel_j(order: int, argument):
    """J_order evaluated at ``argument`` (scalar or ndarray of reals).

    Negative orders and negative arguments fold onto positive ones through
    the parity relation J_{-l}(x) = (-1)^l J_l(x) = J_l(-x).
    """
    order = _check_order(order)
    x = _finite(argument)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)

    sign = 1.0
    if order < 0:
        order = -order
        sign = -1.0 if order % 2 else 1.0
    flip = np.where((x < 0) & (order % 2 == 1), -1.0, 1.0)
    out = _rows(order, np.abs(x).ravel())[order].reshape(x.shape)
    out *= sign * flip

    return float(out[0]) if scalar else out.reshape(np.shape(argument))


def bessel_j_quadrature(order: int, argument, nodes: int = 100_000):
    """Trapezoidal evaluation of the defining integral of J_order.

    Integrates the real part of exp(j*order*t - j*argument*sin(t)) / (2*pi)
    over one full period with ``nodes`` uniform panels.  The integrand is
    smooth and periodic, so the rule converges spectrally; it serves as the
    independent oracle for :func:`bessel_j`.
    """
    order = _check_order(order)
    if not isinstance(nodes, (int, np.integer)) or nodes < _MIN_QUADRATURE_NODES:
        raise ValueError(f"nodes must be an integer >= {_MIN_QUADRATURE_NODES}")
    x = np.asarray(argument, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    scalar = x.ndim == 0
    x = np.atleast_1d(x).ravel()

    tau = np.linspace(0.0, 2.0 * math.pi, nodes + 1)
    sin_tau = np.sin(tau)
    out = np.empty(x.shape)
    # Chunk so the (len(chunk), nodes+1) integrand stays cache-friendly.
    chunk = max(1, int(2e7) // (nodes + 1))
    for lo in range(0, len(x), chunk):
        xs = x[lo : lo + chunk, None]
        integrand = np.cos(order * tau[None, :] - xs * sin_tau[None, :])
        out[lo : lo + chunk] = np.trapezoid(integrand, dx=2.0 * math.pi / nodes, axis=1)
    out /= 2.0 * math.pi

    return float(out[0]) if scalar else out.reshape(np.shape(argument))
