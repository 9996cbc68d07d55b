import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import jn_zeros
from scipy.special import jv as scipy_jv

import vortex_uca as v
from vortex_uca import specfun


def test_order_zero_at_origin():
    assert v.bessel_j(0, 0.0) == 1.0


def test_higher_orders_vanish_at_origin():
    for order in (1, 2, 5, 64):
        assert v.bessel_j(order, 0.0) == 0.0


def test_negative_order_parity():
    assert v.bessel_j(-3, 1.5) == -v.bessel_j(3, 1.5)
    assert v.bessel_j(-4, 1.5) == v.bessel_j(4, 1.5)


def test_negative_argument_parity():
    assert v.bessel_j(1, -3.0) == -v.bessel_j(1, 3.0)
    assert v.bessel_j(2, -3.0) == v.bessel_j(2, 3.0)


def test_order_one_at_two():
    assert v.bessel_j(1, 2.0) == pytest.approx(0.576724808, abs=1e-9)


def test_scalar_and_array_interfaces():
    xs = np.linspace(0.0, 15.0, 31)
    values = v.bessel_j(2, xs)
    assert isinstance(values, np.ndarray) and values.shape == xs.shape
    assert values[0] == v.bessel_j(2, 0.0)
    assert isinstance(v.bessel_j(2, 1.0), float)


def test_matches_scipy_broadly():
    xs = np.linspace(0.0, 120.0, 241)
    for order in (0, 1, 2, 5, 8, 16, 33, 64):
        np.testing.assert_allclose(
            v.bessel_j(order, xs), scipy_jv(order, xs), rtol=1e-10, atol=1e-13
        )


def test_continuity_across_evaluation_regimes():
    # the series / recurrence handoff sits at argument 9
    xs = np.linspace(8.5, 9.5, 101)
    for order in (0, 3, 9):
        np.testing.assert_allclose(
            v.bessel_j(order, xs), scipy_jv(order, xs), rtol=1e-11, atol=1e-13
        )


def test_parity_property_grid():
    xs = np.linspace(0.0, 20.0, 81)
    for order in range(0, 9):
        expected = (-1.0) ** order * v.bessel_j(order, xs)
        np.testing.assert_array_equal(v.bessel_j(-order, xs), expected)


def test_three_term_recurrence():
    xs = np.linspace(0.5, 20.0, 79)
    for order in range(1, 8):
        lhs = v.bessel_j(order - 1, xs) + v.bessel_j(order + 1, xs)
        rhs = 2.0 * order / xs * v.bessel_j(order, xs)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_bounded_by_one():
    xs = np.linspace(0.0, 20.0, 201)
    for order in range(-8, 9):
        assert np.all(np.abs(v.bessel_j(order, xs)) <= 1.0 + 1e-15)


def test_quadrature_basic_values():
    assert v.bessel_j_quadrature(0, 0.0, 4096) == pytest.approx(1.0, abs=1e-12)
    assert v.bessel_j_quadrature(4, 0.0, 4096) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_agrees_with_production():
    assert abs(v.bessel_j_quadrature(2, 5.0, 100_000) - v.bessel_j(2, 5.0)) <= 1e-9


def test_quadrature_array_argument():
    xs = np.linspace(0.0, 8.0, 17)
    np.testing.assert_allclose(
        v.bessel_j_quadrature(3, xs, 8192), v.bessel_j(3, xs), atol=1e-10
    )


def test_order_cap_enforced():
    with pytest.raises(v.OrderOutOfRange):
        v.bessel_j(65, 1.0)
    with pytest.raises(v.OrderOutOfRange):
        v.bessel_j(-65, 1.0)
    with pytest.raises(v.OrderOutOfRange):
        v.bessel_j_quadrature(65, 1.0, 4096)


def test_argument_cap_enforced():
    from vortex_uca.specfun import MAX_ARGUMENT

    # The bound itself is evaluated, on either sign.
    np.testing.assert_allclose(
        v.bessel_table(2, [-MAX_ARGUMENT, MAX_ARGUMENT]),
        scipy_jv(np.arange(3)[:, None], [-MAX_ARGUMENT, MAX_ARGUMENT]), rtol=0, atol=1e-12,
    )
    for x in (np.nextafter(MAX_ARGUMENT, np.inf), -2 * MAX_ARGUMENT, 6e298):
        with pytest.raises(v.OrderOutOfRange, match="argument"):
            v.bessel_table(4, [1.0, x])
        with pytest.raises(v.OrderOutOfRange, match="argument"):
            v.bessel_j(0, x)


def test_invalid_inputs_rejected():
    with pytest.raises(v.OrderOutOfRange):
        v.bessel_j(1.5, 1.0)
    with pytest.raises(ValueError):
        v.bessel_j(1, float("nan"))
    with pytest.raises(ValueError):
        v.bessel_j(1, float("inf"))
    with pytest.raises(ValueError):
        v.bessel_j_quadrature(1, 1.0, 512)
    for nodes in (4096.0, True, np.bool_(True)):
        with pytest.raises(ValueError, match="nodes"):
            v.bessel_j_quadrature(1, 1.0, nodes)


def test_order_is_an_integer_but_not_a_bool():
    for order in (True, np.bool_(True)):
        with pytest.raises(v.OrderOutOfRange, match="integer"):
            v.bessel_j(order, 1.0)
        with pytest.raises(v.OrderOutOfRange, match="integer"):
            v.bessel_table(order, 1.0)
    assert v.bessel_j(np.int8(1), 1.0) == v.bessel_j(1, 1.0)


def test_table_at_zero():
    table = v.bessel_table(8, 0.0)
    assert table.shape == (9,)
    assert table[0] == 1.0 and np.all(table[1:] == 0.0)


def test_table_at_tiny_argument():
    table = v.bessel_table(4, 1e-300)
    assert table[0] == 1.0
    assert table[1] == pytest.approx(5e-301, rel=1e-15)
    assert np.all(table[2:] == 0.0)
    # Subnormal arguments stay finite, within 1e-300 of the true rows.
    expected = np.zeros((5, 2))
    expected[0] = 1.0
    np.testing.assert_allclose(v.bessel_table(4, [1e-310, 5e-324]), expected, rtol=0, atol=1e-300)


def test_table_negative_argument_parity():
    xs = np.linspace(0.0, 30.0, 61)
    positive, negative = v.bessel_table(9, xs), v.bessel_table(9, -xs)
    signs = (-1.0) ** np.arange(10)
    np.testing.assert_array_equal(negative, signs[:, None] * positive)


def test_table_rows_match_scipy():
    xs = np.concatenate([[0.0, 1e-300, 1e-12, 1e-3], np.linspace(0.01, 120.0, 1201)])
    table = v.bessel_table(64, xs)
    assert table.shape == (65, len(xs))
    np.testing.assert_allclose(table, scipy_jv(np.arange(65)[:, None], xs), rtol=0, atol=1e-13)


def test_table_rows_match_quadrature():
    xs = np.linspace(0.0, 20.0, 21)
    table = v.bessel_table(12, xs)
    for order in (0, 1, 4, 12):
        np.testing.assert_allclose(
            table[order], v.bessel_j_quadrature(order, xs, 8192), rtol=0, atol=1e-12
        )


def test_table_order_checks():
    assert v.bessel_table(0, [1.0, 2.0]).shape == (1, 2)
    with pytest.raises(v.OrderOutOfRange):
        v.bessel_table(65, 1.0)
    with pytest.raises(v.OrderOutOfRange):
        v.bessel_table(-1, 1.0)
    with pytest.raises(ValueError):
        v.bessel_table(3, [1.0, float("nan")])


def test_table_finite_at_bessel_zeros():
    # Scipy's first 20 zeros of J_0..J_4, each with its two float neighbours
    # on either side: without a guard, the ratio recurrence divides by an
    # exact 0 at 2.404825557695773, one ulp above scipy's first zero of J_0.
    zeros = np.concatenate([jn_zeros(n, 20) for n in range(5)])
    orders = np.arange(5)[:, None]
    for zero in zeros:
        xs = zero + np.spacing(zero) * np.arange(-2, 3)
        table = v.bessel_table(4, xs)
        assert np.all(np.isfinite(table))
        np.testing.assert_allclose(table, scipy_jv(orders, xs), rtol=0, atol=1e-13)


def test_no_floating_point_exception_raised():
    # No caller's errstate may see the recurrence's division by an exact-0
    # denominator, which it meets at the zeros of J_0..J_4 (and their float
    # neighbours); tiny and subnormal arguments push 2k/x towards overflow.
    zeros = np.concatenate([jn_zeros(n, 20) for n in range(5)])
    xs = np.concatenate([
        (zeros[:, None] + np.spacing(zeros)[:, None] * np.arange(-2, 3)).ravel(),
        [0.0, 1e-300, 5e-324, -3.0, 120.0],
    ])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for max_order in (0, 4, 64):
            assert np.all(np.isfinite(v.bessel_table(max_order, xs)))
        for x in xs:
            assert np.isfinite(v.bessel_j(3, x))
        assert np.all(np.isfinite(v.bessel_j(-5, xs)))


@pytest.mark.parametrize("block_size", [1, 300, 5000])
def test_blocked_recurrence_matches_scipy(monkeypatch, block_size):
    # Small blocks force the multi-block path (at least max_order + 1 rows
    # a block), which wide tables at large |x| take.
    monkeypatch.setattr(specfun, "_BLOCK_SIZE", block_size)
    xs = np.concatenate([np.linspace(-120.0, 120.0, 241), jn_zeros(0, 20), [0.0, 1e-300, 5e-324]])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for max_order in (0, 1, 4, 64):
            table = v.bessel_table(max_order, xs)
            np.testing.assert_allclose(
                table, scipy_jv(np.arange(max_order + 1)[:, None], xs), rtol=0, atol=1e-13
            )


def test_wide_table_memory_does_not_grow_with_argument():
    # One (start+1) x n buffer would hold 10421 x 2000 doubles here (167 MB);
    # blocks of _BLOCK_SIZE doubles (1 MiB) keep the peak to a few MB.
    xs = np.linspace(0.0, specfun.MAX_ARGUMENT, 2000)
    tracemalloc.start()
    try:
        table = v.bessel_table(4, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
    np.testing.assert_allclose(table, scipy_jv(np.arange(5)[:, None], xs), rtol=0, atol=1e-13)


def _guarded_rows(max_order, x, guard=True):
    # The oracle of specfun._rows: the same recurrence, with every step
    # testing its denominators for an exact 0 and replacing it with
    # _TINY_DENOM before it divides.  Without that guard, a 0 denominator
    # gives an infinite ratio, then inf * 0 = NaN in the products.
    negative = x < 0.0
    zero = x == 0.0
    x = np.maximum(np.abs(x), specfun._TINY_ARG)
    top = float(np.max(x, initial=specfun._TINY_ARG))
    start = int(max(max_order, math.ceil(top))) + 20 + int(4.0 * math.sqrt(max(max_order, top)))
    n = len(x)
    two_over_x = 2.0 / x
    height = max(max_order + 1, specfun._BLOCK_SIZE // (n + 1))
    above = s = 0.0
    for lo in range(start // height * height, -1, -height):
        q = np.multiply.outer(np.arange(lo, min(lo + height, start + 1), dtype=float), two_over_x)
        steps = list(q)
        for d in reversed(steps[1:] if lo == 0 else steps):
            np.subtract(d, above, out=d)
            if guard and np.count_nonzero(d) != n:
                d[d == 0.0] = specfun._TINY_DENOM
            above = np.reciprocal(d, out=d)
        if lo == 0:
            q[0] = 1.0
        if n <= specfun._CUMPROD_WIDTH:
            np.cumprod(q, axis=0, out=q)
        else:
            for below, row in zip(steps, steps[1:]):
                np.multiply(below, row, out=row)
        s = q[lo % 2 :: 2].sum(axis=0) + q[-1] * s
    rows = q[: max_order + 1] * (1.0 / (2.0 * s - 1.0))
    rows[:, zero] = 0.0
    rows[0, zero] = 1.0
    rows[1::2, negative] *= -1.0
    return rows


# Found by scanning floats around Bessel zeros: at each, the recurrence of
# bessel_table(order, [x]) divides by a denominator of exactly 0.
EXACT_ZERO_DENOMINATORS = ((2, 2.404825557695773), (8, 11.086370019245084))


@pytest.mark.parametrize("max_order, x", EXACT_ZERO_DENOMINATORS)
def test_exact_zero_denominator_values(max_order, x):
    xs = np.array([x])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isnan(_guarded_rows(max_order, xs, guard=False)).any()
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        table = v.bessel_table(max_order, xs)
    assert np.all(np.isfinite(table))
    assert table.tobytes() == _guarded_rows(max_order, xs).tobytes()
    np.testing.assert_allclose(
        table, scipy_jv(np.arange(max_order + 1)[:, None], xs), rtol=0, atol=1e-13
    )


EDGE_ARGUMENTS = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-300, -1e-300, -1.0, -25.0]
                          + [x for _, x in EXACT_ZERO_DENOMINATORS])


def test_tables_bit_identical_to_the_guarded_recurrence(monkeypatch):
    # Seeded draws: orders 0-64, widths 0-400 (both sides of _CUMPROD_WIDTH),
    # |x| log-uniform from 1e-5 up to a per-draw top, half of them with random
    # signs and edge values.  A quarter each run with blocks of at most 1 and
    # 300 doubles, which forces many blocks.  The recurrence's length grows
    # with the top, so only 1 draw in 20 has a top above 100 (up to 1e4).
    rng = np.random.default_rng(7)
    default_block = specfun._BLOCK_SIZE
    for draw in range(2000):
        monkeypatch.setattr(specfun, "_BLOCK_SIZE", (default_block, default_block, 1, 300)[draw % 4])
        max_order, width = int(rng.integers(0, 65)), int(rng.integers(0, 401))
        top = rng.uniform(-5.0, 4.0 if draw % 40 < 2 else 2.0)
        x = 10.0 ** rng.uniform(-5.0, top, width)
        if draw % 2:
            x *= rng.choice([-1.0, 1.0], width)
            picks = rng.integers(0, width, min(width, 4))
            x[picks] = rng.choice(EDGE_ARGUMENTS, len(picks))
        expected = _guarded_rows(max_order, x)
        assert v.bessel_table(max_order, x).tobytes() == expected.tobytes(), (draw, max_order, width)
