import numpy as np
import pytest

from lidskii.majorization import majorizes, sort_desc, submajorizes


def test_sort_desc_examples():
    assert np.array_equal(sort_desc([1, 3, 2]), [3, 2, 1])
    assert np.array_equal(sort_desc([-1, -1]), [-1, -1])
    assert np.array_equal(sort_desc([0.5, 0.5, 1.5]), [1.5, 0.5, 0.5])


def test_sort_desc_rejects_nonfinite():
    with pytest.raises(ValueError):
        sort_desc([1.0, np.nan])
    with pytest.raises(ValueError):
        sort_desc([])


def test_submajorizes_examples():
    assert submajorizes([2, 0], [1, 0]).holds
    v = submajorizes([3, 1], [2, 2])
    assert v.holds and v.margin == pytest.approx(0.0)
    v = submajorizes([1, 1], [3, -3])
    assert not v.holds
    assert v.first_violation_index == 1


def test_submajorizes_truncates_unequal_lengths():
    # compares min(k, d) partial sums only
    assert submajorizes([5, 4, 3], [4, 2]).holds
    assert not submajorizes([1], [2, -10]).holds


def test_majorizes_examples():
    v = majorizes([3, 1], [2, 2])
    assert v.holds and v.strict
    # uniform vector is majorized by anything with the same trace
    assert majorizes([3, 1], [2, 2]).holds
    v = majorizes([2, -4], [1, -3])
    assert v.holds
    assert submajorizes([2, 4], [1, 3]).holds


def test_majorizes_trace_mismatch_flags_full_prefix():
    v = majorizes([3, 1], [2, 1])
    assert not v.holds
    assert v.first_violation_index == 2


def test_majorizes_requires_equal_lengths():
    with pytest.raises(ValueError):
        majorizes([1, 2, 3], [1, 2])


def test_reflexive_not_strict():
    v = majorizes([2, 1, 0], [2, 1, 0])
    assert v.holds and not v.strict

