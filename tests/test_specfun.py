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
    # The zero-denominator guard must act before the division: at the zeros
    # of J_0..J_4 (and their float neighbours) the recurrence meets exact-0
    # denominators, tiny and subnormal arguments push 2k/x towards overflow.
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
