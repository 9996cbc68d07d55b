"""Integer-order Bessel functions of the first kind.

Production evaluation is one downward recurrence on the ratios
J_k / J_{k-1} (Miller's algorithm in ratio form, DLMF 3.6(iii)), which
cannot overflow, so a whole table J_0..J_L costs one pass and no rescaling.
The direct trapezoidal quadrature of the defining integral stays available
as a fully independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrderOutOfRange, _is_integer

MAX_ORDER = 64

# Largest |argument| evaluated: the recurrence starts above max(order, x),
# so its cost grows with x: tens of milliseconds for one table at this bound.
MAX_ARGUMENT = 1e4

# Smaller arguments are evaluated here, which keeps 2k/x finite; every row
# but J_0 = 1 is below 1e-300 in magnitude on both sides.
_TINY_ARG = 1e-300

# Stands in for a recurrence denominator J_{k-1}/J_k of exactly 0 (Lentz's
# device); the huge ratio it gives cancels in the products J_0 q_1 ... q_k.
_TINY_DENOM = 1e-30

# Most doubles in one block of rows of the recurrence buffer, so that memory
# does not grow with |x|; a block has at least max_order + 1 rows.
_BLOCK_SIZE = 1 << 17

_MIN_QUADRATURE_NODES = 1024


def _check_order(order: int) -> int:
    if not _is_integer(order):
        raise OrderOutOfRange(f"order must be an integer, got {order!r}")
    if abs(int(order)) > MAX_ORDER:
        raise OrderOutOfRange(f"|order| = {abs(int(order))} exceeds {MAX_ORDER}")
    return int(order)


def _finite(argument) -> np.ndarray:
    x = np.asarray(argument, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("argument must be finite")
    return x


def _rows(max_order: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_max_order at every x of a 1-D array, shape (max_order+1, len(x)).

    Rows lo..hi of a block hold 2k/x, computed at once; the loop turns them in
    place into q_k = 1 / (2k/x - q_{k+1}), downward from q = 0 at a start index
    far enough above max(max_order, x) that the seed error is negligible, at
    two array calls per step.  An exact-0 denominator leaves a +-inf row; only a
    block holding one runs again from the same q_{hi+1}, with each step's zeros
    set to _TINY_DENOM, so every table equals that of a guard at every step.
    The block's cumulative product is J_k/J_{lo-1}, so S_lo = (its even rows)
    + J_hi/J_{lo-1} S_{hi+1} carries the sum of even rows down.  Row 0 of the
    last block holds 1, so J_0 = 1 / (2 S_0 - 1) from J_0 + 2 (J_2 + ...) = 1.
    x = 0 is exact: J_0 = 1 and every other row 0.  Negative x fold through
    J_l(-x) = (-1)^l J_l(x); these masks run only if some x is below _TINY_ARG.
    |x| above MAX_ARGUMENT raises :class:`OrderOutOfRange`.
    """
    folded = x.min(initial=_TINY_ARG) < _TINY_ARG
    if folded:
        negative, zero = x < 0.0, x == 0.0
        x = np.maximum(np.abs(x), _TINY_ARG)
    top = float(x.max(initial=_TINY_ARG))
    if top > MAX_ARGUMENT:
        raise OrderOutOfRange(f"Bessel argument |x| = {top:.6g} exceeds {MAX_ARGUMENT:g}")
    start = int(max(max_order, math.ceil(top))) + 20 + int(4.0 * math.sqrt(max(max_order, top)))
    n = len(x)
    two_over_x = 2.0 / x
    height = max(max_order + 1, _BLOCK_SIZE // (n + 1))
    above = s = 0.0
    for lo in range(start // height * height, -1, -height):
        ks, seed = np.arange(lo, min(lo + height, start + 1), dtype=float), above
        for guard in (False, True):
            q, above = np.multiply.outer(ks, two_over_x), seed
            with np.errstate(divide="ignore"):
                for d in q[:0:-1] if lo == 0 else q[::-1]:
                    np.subtract(d, above, out=d)
                    if guard:
                        d[d == 0.0] = _TINY_DENOM
                    above = np.reciprocal(d, out=d)
            if guard or not np.isinf(q).any():
                break
        if lo == 0:
            q[0] = 1.0
        np.cumprod(q, axis=0, out=q)
        s = q[lo % 2 :: 2].sum(axis=0) + q[-1] * s
    rows = q[: max_order + 1] * (1.0 / (2.0 * s - 1.0))
    if folded:
        rows[:, zero] = 0.0
        rows[0, zero] = 1.0
        rows[1::2, negative] *= -1.0
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
    return _rows(max_order, x.ravel()).reshape((max_order + 1,) + x.shape)


def bessel_j(order: int, argument):
    """J_order evaluated at ``argument`` (scalar or ndarray of reals).

    Row |order| of :func:`bessel_table`'s kernel, called directly so that a
    wrapper on the public names records one call; J_{-l} = (-1)^l J_l.
    """
    order = _check_order(order)
    x = _finite(argument)
    out = _rows(abs(order), x.ravel())[abs(order)].reshape(x.shape)
    if order < 0 and order % 2:
        out = -out
    return float(out) if out.ndim == 0 else out


def bessel_j_quadrature(order: int, argument, nodes: int = 100_000):
    """Trapezoidal evaluation of the defining integral of J_order.

    Integrates the real part of exp(j*order*t - j*argument*sin(t)) / (2*pi)
    over one full period with ``nodes`` uniform panels.  The integrand is
    smooth and periodic, so the rule converges spectrally; it serves as the
    independent oracle for :func:`bessel_j`.
    """
    order = _check_order(order)
    if not _is_integer(nodes) or nodes < _MIN_QUADRATURE_NODES:
        raise ValueError(f"nodes must be an integer >= {_MIN_QUADRATURE_NODES}")
    x = _finite(argument)
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
