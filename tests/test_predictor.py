"""Slope prediction, residual streams, and error statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecgz import predictor
from ecgz.errors import CorruptStreamError
from oracle import advance, check_sample, predict, prediction_error, reconstruct

samples_st = st.integers(min_value=predictor.SAMPLE_MIN, max_value=predictor.SAMPLE_MAX)
orders_st = st.integers(min_value=1, max_value=4)


def test_coefficient_table():
    assert predictor.coefficients(1) == (1,)
    assert predictor.coefficients(2) == (2, -1)
    assert predictor.coefficients(3) == (3, -3, 1)
    assert predictor.coefficients(4) == (4, -6, 4, -1)
    with pytest.raises(ValueError):
        predictor.coefficients(5)
    with pytest.raises(ValueError):
        predictor.coefficients(0)


def test_second_order_prediction_extrapolates_the_slope():
    # history is most recent first: x(n-1)=12, x(n-2)=10
    assert predict([12, 10], 2) == 14
    assert prediction_error(13, [12, 10], 2) == -1


def test_fresh_history_makes_the_first_sample_its_own_error():
    assert prediction_error(100, predictor.zero_state(2), 2) == 100
    assert prediction_error(-77, predictor.zero_state(4), 4) == -77


def test_advance_shifts_newest_to_the_front():
    assert advance([12, 10], 5) == [5, 12]
    assert advance([3, 2, 1], 9) == [9, 3, 2]


def test_predict_rejects_wrong_history_length():
    with pytest.raises(ValueError):
        predict([1, 2, 3], 2)


def test_order2_worst_residual_is_8190():
    # e = x - 2a + b is linear in each variable, so the extreme value
    # over the sample box must occur at a corner
    corners = (predictor.SAMPLE_MIN, predictor.SAMPLE_MAX)
    worst = max(abs(x - (2 * a - b)) for x in corners for a in corners for b in corners)
    assert worst == 8190
    assert worst < 1 << (predictor.RESIDUAL_BITS - 1)


def test_higher_orders_can_exceed_the_residual_budget():
    corners = (predictor.SAMPLE_MIN, predictor.SAMPLE_MAX)
    worst3 = max(
        abs(x - (3 * a - 3 * b + c))
        for x in corners
        for a in corners
        for b in corners
        for c in corners
    )
    assert worst3 >= 1 << (predictor.RESIDUAL_BITS - 1)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_residual_bits_holds_the_widest_residual_exactly(order):
    # samples alternating between the rails give the widest L-th difference
    rails = [predictor.SAMPLE_MAX, predictor.SAMPLE_MIN] * 8
    worst = max(abs(e) for e in predictor.residuals(rails, order)[order:].tolist())
    assert worst == 4095 << (order - 1)
    bits = predictor.residual_bits(order)
    assert bits == 12 + order
    assert -(1 << (bits - 1)) <= -worst and worst < 1 << (bits - 1)
    assert worst >= 1 << (bits - 2)  # one bit fewer would not hold it


def test_check_sample_bounds():
    assert check_sample(predictor.SAMPLE_MAX) == predictor.SAMPLE_MAX
    assert check_sample(predictor.SAMPLE_MIN) == predictor.SAMPLE_MIN
    with pytest.raises(ValueError):
        check_sample(predictor.SAMPLE_MAX + 1)
    with pytest.raises(ValueError):
        check_sample(predictor.SAMPLE_MIN - 1)


@given(orders_st, st.lists(samples_st, max_size=50))
def test_reconstruct_inverts_prediction_error(order, xs):
    h = predictor.zero_state(order)
    for x in xs:
        e = prediction_error(x, h, order)
        assert reconstruct(e, h, order) == x
        h = advance(h, x)


def test_reconstruct_rejects_out_of_range_results():
    with pytest.raises(CorruptStreamError):
        reconstruct(5000, [0, 0], 2)
    with pytest.raises(CorruptStreamError):
        reconstruct(-1, [predictor.SAMPLE_MIN], 1)


@given(orders_st, st.lists(samples_st, max_size=60))
def test_vectorized_residuals_match_the_streaming_recurrence(order, xs):
    h = predictor.zero_state(order)
    expected = []
    for x in xs:
        expected.append(prediction_error(x, h, order))
        h = advance(h, x)
    got = predictor.residuals(xs, order)
    assert got.dtype == np.int64
    assert got.tolist() == expected


@given(st.integers(-40, 40), st.integers(-15, 15))
def test_order2_is_exact_on_lines_after_warmup(a, b):
    xs = [a + b * n for n in range(20)]
    assert all(predictor.SAMPLE_MIN <= x <= predictor.SAMPLE_MAX for x in xs)
    r = predictor.residuals(xs, 2)
    assert np.all(r[2:] == 0)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-3, 3))
def test_order3_is_exact_on_quadratics_after_warmup(a, b, c):
    xs = [a + b * n + c * n * n for n in range(15)]
    assert all(predictor.SAMPLE_MIN <= x <= predictor.SAMPLE_MAX for x in xs)
    r = predictor.residuals(xs, 3)
    assert np.all(r[3:] == 0)


def test_residuals_validate_input():
    with pytest.raises(ValueError):
        predictor.residuals([0, 5000], 2)
    with pytest.raises(ValueError):
        predictor.residuals(np.zeros((2, 2), dtype=np.int64), 2)
    assert predictor.residuals([], 2).size == 0


def test_error_stats_on_a_constant_signal():
    # residuals of [c]*5 under order 2: c, -c, 0, 0, 0
    xs = [7] * 5
    assert predictor.mape(xs, 2) == pytest.approx(14 / 5)
    assert predictor.rmspe(xs, 2) == pytest.approx((2 * 49 / 5) ** 0.5)


def test_error_stats_reject_empty_input():
    with pytest.raises(ValueError):
        predictor.mape([], 2)
    with pytest.raises(ValueError):
        predictor.rmspe([], 2)


@given(st.lists(samples_st, min_size=1, max_size=50), orders_st)
def test_rmspe_dominates_mape(xs, order):
    # quadratic mean >= arithmetic mean of absolute values
    assert predictor.rmspe(xs, order) >= predictor.mape(xs, order) - 1e-9
