"""The slice-minimum estimator, on synthetic arrays."""

import pytest

from child import percentile
from estimate import (
    CALIBRATION_REFERENCE_S, calibrate, host_slowdown, quartile_spread,
    repetition_spread, slice_minima)


def test_host_slowdown_is_the_first_quartile_calibration_over_the_reference():
    reference = CALIBRATION_REFERENCE_S
    # bursts in most samples do not move it; a slow repetition does
    bursty = [reference] * 4 + [3 * reference] * 5
    assert host_slowdown(bursty) == pytest.approx(1.0)
    assert host_slowdown([1.2 * reference] * 9) == pytest.approx(1.2)
    # nor does one lucky sample
    assert host_slowdown([0.5 * reference] + [reference] * 8) == pytest.approx(1.0)


def test_calibration_kernel_runs_for_milliseconds():
    assert 0.001 < calibrate() < 0.5


def test_slice_minima_ignore_interference_in_any_one_repetition():
    clean = [1.0, 2.0, 3.0, 4.0]
    first = [1.0, 2.0 + 5.0, 3.0, 4.0]   # an episode during slice 1
    second = [1.0 + 0.3, 2.0, 3.0, 4.0 + 2.0]
    third = [1.0, 2.0 + 0.1, 3.0 + 0.7, 4.0]
    minima = slice_minima([first, second, third])
    assert minima == clean
    # every repetition's own total is worse than the sum of minima
    assert sum(minima) < min(sum(first), sum(second), sum(third))


def test_slice_minima_refuse_repetitions_of_different_length():
    with pytest.raises(ValueError):
        slice_minima([[1.0, 2.0], [1.0, 2.0, 3.0]])


def test_repetition_spread():
    assert repetition_spread([8.0, 8.4, 8.2]) == pytest.approx(0.05)
    assert repetition_spread([5.0, 5.0]) == 0.0


def test_quartile_spread_is_interquartile_range_over_median():
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert quartile_spread(values) == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 95) == 95.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
