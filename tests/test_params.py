import numpy as np
import pytest

from haarlab.params import NumericsError, ParamVector, ShapeError


def test_from_segments_layout():
    pv = ParamVector.from_segments([("a", np.arange(3.0)), ("b", np.ones((2, 2)))])
    assert pv.size == 7
    assert pv.layout == {"a": (0, 3), "b": (3, 4)}
    assert np.array_equal(pv.segment("a"), [0.0, 1.0, 2.0])
    assert np.array_equal(pv.segment("b"), np.ones(4))


def test_segment_views_share_storage():
    pv = ParamVector.from_segments([("a", np.zeros(2)), ("b", np.zeros(3))])
    pv.segment("b")[:] = 5.0
    assert np.array_equal(pv.values, [0.0, 0.0, 5.0, 5.0, 5.0])


def test_layout_must_be_contiguous():
    with pytest.raises(ShapeError):
        ParamVector(np.zeros(4), {"a": (0, 2), "b": (3, 1)})
    with pytest.raises(ShapeError):
        ParamVector(np.zeros(4), {"a": (0, 2)})


def test_rejects_non_finite():
    with pytest.raises(NumericsError):
        ParamVector(np.array([1.0, np.nan]), {"a": (0, 2)})
    pv = ParamVector.from_segments([("a", np.zeros(2))])
    with pytest.raises(NumericsError):
        pv.replace_values(np.array([np.inf, 0.0]))


def test_set_segment_checks_length():
    pv = ParamVector.from_segments([("a", np.zeros(2))])
    with pytest.raises(ShapeError):
        pv.set_segment("a", np.zeros(3))
    pv.set_segment("a", np.array([1.0, 2.0]))
    assert np.array_equal(pv.values, [1.0, 2.0])
