"""Unit + property-based tests for the aggregation functions."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fta import (
    AGGREGATORS,
    fault_tolerant_average,
    fault_tolerant_midpoint,
    mean_aggregate,
    median_aggregate,
)

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestFaultTolerantAverage:
    def test_four_values_f1_is_mid_mean(self):
        r = fault_tolerant_average([5.0, 1.0, 3.0, 100.0], f=1)
        assert r.value == 4.0
        assert r.used == (3.0, 5.0)
        assert r.dropped_low == (1.0,)
        assert r.dropped_high == (100.0,)

    def test_byzantine_outlier_bounded_by_correct_spread(self):
        correct = [10.0, 12.0, 14.0]
        for evil in (-1e9, 1e9):
            r = fault_tolerant_average(correct + [evil], f=1)
            assert min(correct) <= r.value <= max(correct)

    def test_three_values_f1_is_median(self):
        assert fault_tolerant_average([9.0, 5.0, 7.0], f=1).value == 7.0

    def test_two_values_degrade_to_mean(self):
        assert fault_tolerant_average([4.0, 8.0], f=1).value == 6.0

    def test_single_value_passthrough(self):
        assert fault_tolerant_average([42.0], f=1).value == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fault_tolerant_average([], f=1)

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            fault_tolerant_average([1.0], f=-1)

    def test_f0_is_plain_mean(self):
        assert fault_tolerant_average([1.0, 2.0, 9.0], f=0).value == 4.0

    def test_rounding_stays_inside_used_readings(self):
        # sum / len of three copies gives 699051.5243092797, one ulp above.
        offset = 699051.5243092796
        for f in (0, 1):
            assert fault_tolerant_average([offset] * 3, f).value == offset

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.integers(0, 4))
    def test_value_within_input_range(self, values, f):
        r = fault_tolerant_average(values, f)
        tol = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - tol <= r.value <= max(values) + tol

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.integers(0, 4))
    def test_permutation_invariant(self, values, f):
        r1 = fault_tolerant_average(values, f)
        r2 = fault_tolerant_average(list(reversed(values)), f)
        assert r1.value == r2.value

    @given(
        st.lists(finite_floats, min_size=3, max_size=9),
        st.integers(1, 3),
        finite_floats,
    )
    def test_translation_equivariant(self, values, f, shift):
        base = fault_tolerant_average(values, f).value
        shifted = fault_tolerant_average([v + shift for v in values], f).value
        assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-6)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=4, max_size=4))
    def test_single_byzantine_bounded_by_correct_values(self, correct3_and_evil):
        correct = sorted(correct3_and_evil)[:3]
        for evil in (-1e13, 1e13):
            r = fault_tolerant_average(correct + [evil], f=1)
            assert min(correct) - 1e-6 <= r.value <= max(correct) + 1e-6


class TestAlternativeAggregates:
    def test_midpoint(self):
        r = fault_tolerant_midpoint([0.0, 2.0, 10.0, 100.0], f=1)
        assert r.value == 6.0  # (2 + 10) / 2

    def test_midpoint_negative_f_rejected(self):
        with pytest.raises(ValueError):
            fault_tolerant_midpoint([1.0, 2.0], f=-1)

    def test_mean_rounding_stays_inside_readings(self):
        offset = 699051.5243092796
        assert mean_aggregate([offset] * 3).value == offset

    def test_mean_has_no_byzantine_tolerance(self):
        r = mean_aggregate([0.0, 0.0, 0.0, 1e9])
        assert r.value == 2.5e8  # dragged by the outlier

    def test_median_odd_even(self):
        assert median_aggregate([3.0, 1.0, 2.0]).value == 2.0
        assert median_aggregate([4.0, 1.0, 2.0, 3.0]).value == 2.5

    def test_registry_contains_all(self):
        assert set(AGGREGATORS) == {"fta", "ftm", "mean", "median"}

    @given(st.lists(finite_floats, min_size=1, max_size=10))
    def test_all_aggregators_within_range(self, values):
        tol = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        for fn in AGGREGATORS.values():
            r = fn(values, 1)
            assert min(values) - tol <= r.value <= max(values) + tol

    def test_empty_rejected_everywhere(self):
        for fn in AGGREGATORS.values():
            with pytest.raises(ValueError):
                fn([], 1)
