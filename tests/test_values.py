import numpy as np
import pytest

from haarlab.params import NumericsError, ShapeError
from haarlab.values import RIDGE, PolynomialValueEstimator, fit_value

from helpers import ref_fit_value


def poly_eval_loops(est, s):
    # independent evaluator: plain python accumulation
    acc = est.w0
    for j in range(len(s)):
        acc += est.w3[j] * s[j] ** 3 + est.w2[j] * s[j] ** 2 + est.w1[j] * s[j]
    return acc


def test_constant_estimator():
    est = PolynomialValueEstimator(np.zeros(3), np.zeros(3), np.zeros(3), 7.0)
    rng = np.random.default_rng(0)
    assert np.array_equal(est.predict(rng.standard_normal((5, 3))), np.full(5, 7.0))


def test_linear_term():
    est = PolynomialValueEstimator(np.zeros(1), np.zeros(1), np.array([2.0]), 0.0)
    assert est.predict(np.array([[3.0]]))[0] == 6.0


def test_predict_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        est = PolynomialValueEstimator(rng.standard_normal(d), rng.standard_normal(d),
                                       rng.standard_normal(d), float(rng.standard_normal()))
        s = rng.standard_normal((4, d))
        want = [poly_eval_loops(est, row) for row in s]
        assert np.max(np.abs(est.predict(s) - want)) <= 1e-12


def test_predict_dim_check():
    est = PolynomialValueEstimator.zeros(3)
    with pytest.raises(ShapeError):
        est.predict(np.zeros((2, 4)))


def test_fit_constant_targets():
    rng = np.random.default_rng(2)
    states = rng.standard_normal((50, 3))
    est = fit_value(states, np.full(50, 4.2))
    # the ridge pulls every weight toward zero by less than RIDGE
    assert abs(est.w0 - 4.2) <= RIDGE
    for w in (est.w3, est.w2, est.w1):
        assert np.max(np.abs(w)) <= RIDGE


def test_fit_recovers_known_weights():
    rng = np.random.default_rng(3)
    d = 2
    true = PolynomialValueEstimator(rng.standard_normal(d), rng.standard_normal(d),
                                    rng.standard_normal(d), float(rng.standard_normal()))
    states = rng.uniform(-2.0, 2.0, size=(100, d))
    targets = true.predict(states)
    est = fit_value(states, targets)
    scale = max(1.0, float(np.abs(targets).max()))
    for got, want in [(est.w3, true.w3), (est.w2, true.w2), (est.w1, true.w1),
                      (np.array([est.w0]), np.array([true.w0]))]:
        assert np.max(np.abs(got - want)) / scale <= 1e-6


def test_single_sample_near_interpolation():
    est = fit_value(np.array([[1.5, -0.5]]), np.array([3.0]))
    assert abs(est.predict(np.array([[1.5, -0.5]]))[0] - 3.0) <= 1e-3


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        fit_value(np.zeros((0, 3)), np.zeros(0))


def test_fit_never_beats_zero_estimator():
    rng = np.random.default_rng(4)
    for _ in range(10):
        states = rng.standard_normal((30, 3))
        targets = rng.standard_normal(30) * 5.0
        est = fit_value(states, targets)
        mse_fit = float(np.mean((est.predict(states) - targets) ** 2))
        mse_zero = float(np.mean(targets ** 2))
        assert mse_fit <= mse_zero + 1e-12


def test_refit_same_data_does_not_increase_mse():
    rng = np.random.default_rng(5)
    states = rng.standard_normal((40, 2))
    targets = rng.standard_normal(40)
    first = fit_value(states, targets)
    second = fit_value(states, targets)
    mse1 = float(np.mean((first.predict(states) - targets) ** 2))
    mse2 = float(np.mean((second.predict(states) - targets) ** 2))
    assert mse2 <= mse1 + 1e-15


def test_zero_targets_fit_without_a_solve(monkeypatch):
    rng = np.random.default_rng(6)
    states = rng.standard_normal((200, 4)) * [1.0, 10.0, 0.1, 3.0]
    fresh = rng.standard_normal((50, 4))
    for targets in (np.zeros(200), -np.zeros(200)):
        want = ref_fit_value(states, targets)

        def no_solve(*args, **kwargs):
            raise AssertionError("zero targets must not reach the least-squares solve")

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "lstsq", no_solve)
            got = fit_value(states, targets)
        for s in (states, fresh):
            assert np.array_equal(got.predict(s), want.predict(s))
            # the values feed `returns - V`: 0.0 - (+-0.0) is +0.0 either way
            assert not np.signbit(0.0 - got.predict(s)).any()
            assert not np.signbit(0.0 - want.predict(s)).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_states_rejected(bad):
    states = np.random.default_rng(7).standard_normal((30, 3))
    states[4, 1] = bad
    for targets in (np.zeros(30), np.arange(30.0)):
        with pytest.raises(NumericsError):
            fit_value(states, targets)
