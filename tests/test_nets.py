import numpy as np
import pytest

from haarlab.nets import (MlpSpec, backward_consuming, forward_cached, init_mlp_params,
                          rop_forward, tanh_derivs, unpack_layers, workspace)
from haarlab.params import ShapeError

from helpers import finite_diff_grad, mlp_eval_loops, rel_err


def forward(spec, w, x):
    """The network's output at (n, input_dim) rows."""
    return forward_cached(spec, w, x)[0]


def grad(spec, w, x, gy):
    """The gradient pass at the rows x, spending a fresh forward pass."""
    _, acts = forward_cached(spec, w, x)
    return backward_consuming(spec, w, acts, gy)


def rop(spec, w, v, x):
    """rop_forward at the rows x, from a fresh forward pass."""
    _, acts = forward_cached(spec, w, x)
    return rop_forward(spec, w, v, acts, tanh_derivs(acts), workspace(spec, len(x)))


def test_zero_weights_zero_output():
    spec = MlpSpec(input_dim=3, hidden=(4, 5), output_dim=2)
    w = np.zeros(spec.n_params)
    x = np.array([[1.0, -2.0, 0.5]])
    assert np.array_equal(forward(spec, w, x), np.zeros((1, 2)))


def test_single_unit_chain_at_zero():
    # 1 -> 1 -> 1 net, weights 1 and biases 0: tanh(0) = 0 maps to 0
    spec = MlpSpec(input_dim=1, hidden=(1,), output_dim=1)
    w = np.zeros(spec.n_params)
    for W, _ in unpack_layers(spec, w):
        W[:] = 1.0
    out = forward(spec, w, np.array([[0.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = MlpSpec(input_dim=int(rng.integers(1, 6)),
                       hidden=tuple(int(h) for h in rng.integers(1, 7, size=2)),
                       output_dim=int(rng.integers(1, 4)))
        w = rng.standard_normal(spec.n_params)
        x = rng.standard_normal(spec.input_dim)
        expected = mlp_eval_loops(spec.layer_dims, w, x)
        got = forward(spec, w, x[None])[0]
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_forward_batch_matches_single():
    rng = np.random.default_rng(3)
    spec = MlpSpec(input_dim=4, hidden=(6, 5), output_dim=3)
    w = rng.standard_normal(spec.n_params)
    xs = rng.standard_normal((8, 4))
    batch = forward(spec, w, xs)
    for i in range(8):
        assert np.allclose(batch[i], forward(spec, w, xs[i:i + 1])[0], atol=1e-14)


def test_input_shape_error():
    spec = MlpSpec(input_dim=4, hidden=(3,), output_dim=2)
    w = np.zeros(spec.n_params)
    with pytest.raises(ShapeError):
        forward(spec, w, np.zeros((1, 5)))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = MlpSpec(input_dim=3, hidden=(5, 4), output_dim=2)
        w = rng.standard_normal(spec.n_params) * 0.7
        x = rng.standard_normal((1, 3))
        gy = rng.standard_normal((1, 2))

        def scalar(theta):
            return float((gy * forward(spec, theta, x)).sum())

        analytic = grad(spec, w, x, gy)
        numeric = finite_diff_grad(scalar, w)
        assert rel_err(analytic, numeric).max() <= 1e-4


def test_backward_batch_is_sum_of_samples():
    rng = np.random.default_rng(5)
    spec = MlpSpec(input_dim=3, hidden=(4,), output_dim=2)
    w = rng.standard_normal(spec.n_params)
    xs = rng.standard_normal((6, 3))
    gys = rng.standard_normal((6, 2))
    batch_grad = grad(spec, w, xs, gys)
    acc = np.zeros(spec.n_params)
    for i in range(6):
        acc += grad(spec, w, xs[i:i + 1], gys[i:i + 1])
    assert np.max(np.abs(batch_grad - acc)) <= 1e-10


def test_rop_matches_directional_finite_difference():
    rng = np.random.default_rng(13)
    for _ in range(10):
        spec = MlpSpec(input_dim=3, hidden=(5,), output_dim=2)
        w = rng.standard_normal(spec.n_params) * 0.5
        x = rng.standard_normal((1, 3))
        v = rng.standard_normal(spec.n_params)
        jv = rop(spec, w, v, x)
        h = 1e-6
        fd = (forward(spec, w + h * v, x) - forward(spec, w - h * v, x)) / (2 * h)
        assert np.max(np.abs(jv - fd)) <= 1e-6


def test_rop_is_linear():
    rng = np.random.default_rng(17)
    spec = MlpSpec(input_dim=2, hidden=(4, 3), output_dim=2)
    w = rng.standard_normal(spec.n_params)
    x = rng.standard_normal((1, 2))
    v = rng.standard_normal(spec.n_params)
    a = rop(spec, w, 3.5 * v, x)
    b = 3.5 * rop(spec, w, v, x)
    assert np.max(np.abs(a - b)) <= 1e-10


def test_init_bounds_and_zero_biases():
    rng = np.random.default_rng(19)
    spec = MlpSpec(input_dim=9, hidden=(32, 32), output_dim=4)
    w = init_mlp_params(spec, rng)
    assert w.size == spec.n_params
    for (fan_in, _), (W, b) in zip(spec.layer_dims, unpack_layers(spec, w)):
        assert np.all(np.abs(W) <= 1.0 / np.sqrt(fan_in))
        assert np.array_equal(b, np.zeros_like(b))
