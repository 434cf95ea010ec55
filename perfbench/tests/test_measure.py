import math

import pytest

from perfbench import measure


def test_p75_needs_ten_samples_beyond_it():
    assert measure.tail_percentile([float(i) for i in range(39)], 75) is None
    samples = [float(i) for i in range(40)]
    p75 = measure.tail_percentile(samples, 75)
    assert p75 == pytest.approx(29.75)
    assert sum(1 for s in samples if s > p75) == 10


def test_median_needs_twenty_samples():
    assert measure.tail_percentile([float(i) for i in range(19)], 50) is None
    assert measure.tail_percentile([float(i) for i in range(21)], 50) == 10.0


def test_ties_at_the_cut_do_not_count_as_beyond():
    assert measure.tail_percentile([1.0] * 100, 75) is None


def test_scaled_uses_the_calibrations_on_either_side():
    ref = measure.CALIB_REF_S
    assert measure.scaled([2.0, 3.0], [ref, ref, 3 * ref]) == pytest.approx([2.0, 1.5])
    with pytest.raises(ValueError):
        measure.scaled([1.0], [ref])


def test_seconds_to_rel_ci_uses_the_worst_group():
    tight = [10.0, 10.0, 10.0, 10.0 + 1e-9]
    loose = [9.0, 11.0, 9.0, 11.0]
    rel = measure.Z95 * (2 / math.sqrt(3)) / 2 / 10.0
    assert measure.seconds_to_rel_ci(4.0, [tight, loose]) == pytest.approx(4.0 * (rel / 0.01) ** 2)
