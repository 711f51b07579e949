import math
import pickle

import numpy as np
import pytest

from haarlab.nets import MlpSpec, unpack_layers
from haarlab.params import ShapeError
from haarlab.policies import LOG_2PI, CategoricalPolicy, GaussianPolicy

from helpers import (act_noise, finite_diff_grad, fvp, gaussian_noise_rows, kl_grad, log_prob,
                     mean_kl, rel_err)


def zero_net(policy, segment):
    policy.params.segment(segment)[:] = 0.0


def set_output_bias(policy, segment, bias):
    w = policy.params.segment(segment)
    _, b = unpack_layers(policy.spec, w)[-1]
    b[:] = bias


def make_gaussian(rng=None, input_dim=3, action_dim=2, hidden=(5, 4)):
    rng = rng or np.random.default_rng(0)
    return GaussianPolicy(MlpSpec(input_dim, hidden, action_dim), rng)


def make_categorical(rng=None, input_dim=3, n=3, hidden=(5, 4)):
    rng = rng or np.random.default_rng(0)
    return CategoricalPolicy(MlpSpec(input_dim, hidden, n), rng)


def act_one(policy, x, rng):
    """act on the one-row batch of x with one step's noise from rng:
    (action, log-prob, distribution row)."""
    a, logp, dist = policy.act(x[None], act_noise(policy, rng, 1))
    return a[0], logp[0], dist[0]


def mean(policy, x):
    """The Gaussian head's mean at the one-row batch of x."""
    return policy.dist_params(x[None])[0][0]


# -- sampling -----------------------------------------------------------------

def test_categorical_forced_action():
    pol = make_categorical(n=3)
    zero_net(pol, "logits_net")
    set_output_bias(pol, "logits_net", [30.0, 0.0, 0.0])
    obs = np.zeros(3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, logp, _ = act_one(pol, obs, rng)
        assert a == 0
        assert abs(logp) < 1e-12


def test_gaussian_tight_variance_sampling():
    pol = make_gaussian()
    pol.params.segment("log_std")[:] = -5.0
    obs = np.array([0.3, -0.2, 1.0])
    mu = mean(pol, obs)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a, _, _ = act_one(pol, obs, rng)
        assert np.all(np.abs(a - mu) <= 5.0 * np.exp(-5.0))


def test_categorical_empirical_frequencies():
    pol = make_categorical(n=3)
    zero_net(pol, "logits_net")
    set_output_bias(pol, "logits_net", np.log([0.2, 0.3, 0.5]))
    obs = np.zeros(3)
    rng = np.random.default_rng(3)
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        a, _, _ = act_one(pol, obs, rng)
        counts[a] += 1
    freqs = counts / n
    assert np.max(np.abs(freqs - [0.2, 0.3, 0.5])) <= 0.01


def test_sampled_logprob_equals_log_prob():
    pol = make_gaussian()
    obs = np.array([0.5, 0.1, -1.2])
    rng = np.random.default_rng(4)
    for policy in (pol, make_categorical()):
        a, logp, _ = policy.act(obs[None], act_noise(policy, rng, 1))
        assert abs(logp[0] - log_prob(policy, obs[None], a)[0]) <= 1e-12


@pytest.mark.parametrize("lanes", [1, 2, 7, 16, 33])
def test_batched_act_rows_equal_single_calls(lanes):
    # the layer shapes in use: the 24-input high policy, the low policy on
    # 2 ego inputs plus 6 skills, and the flat policy
    rng = np.random.default_rng(lanes)
    policies = [CategoricalPolicy(MlpSpec(24, (32, 32), 6), rng),
                GaussianPolicy(MlpSpec(8, (32, 32), 2), rng),
                GaussianPolicy(MlpSpec(24, (32, 32), 2), rng)]
    for pol in policies:
        obs = rng.standard_normal((lanes, pol.spec.input_dim)) * 3.0
        noise = act_noise(pol, rng, lanes)
        actions, logps, dists = pol.act(obs, noise)
        assert len(actions) == len(logps) == len(dists) == lanes
        for i in range(lanes):
            a, logp, dist = pol.act(obs[i:i + 1], noise[i:i + 1])
            assert actions[i:i + 1].tobytes() == a.tobytes()
            assert logps[i:i + 1].tobytes() == logp.tobytes()
            assert dists[i:i + 1].tobytes() == dist.tobytes()


@pytest.mark.parametrize("lanes", [1, 3])
def test_act_means_equal_the_one_dimensional_product(lanes):
    # every row, a lone one included, takes the stacked per-row product,
    # which sums as the 1-D product W @ x does; x @ W.T would not
    rng = np.random.default_rng(9)
    pol = GaussianPolicy(MlpSpec(10, (32, 32), 2), rng, input_scale=rng.uniform(0.5, 2.0, 10))
    obs = rng.standard_normal((lanes, 10)) * 3.0
    _, _, means = pol.act(obs, act_noise(pol, rng, lanes))
    layers = unpack_layers(pol.spec, pol.params.segment(pol.NET))
    for row, mu in zip(obs * pol.input_scale, means):
        a = row
        for i, (W, b) in enumerate(layers):
            a = W @ a + b if i == len(layers) - 1 else np.tanh(W @ a + b)
        assert mu.tobytes() == a.tobytes()


@pytest.mark.parametrize("maker", [make_gaussian, make_categorical],
                         ids=["gaussian", "categorical"])
def test_noise_block_equals_single_draws(maker):
    # a block drawn at a decision holds the values a one-by-one loop draws
    # one step at a time, in the same order, on streams that first took
    # the c_maze reset's draws
    pol = maker()
    single_draw = ((lambda r: r.standard_normal(pol.action_dim)) if isinstance(pol, GaussianPolicy)
                   else (lambda r: r.random()))
    for seed in range(300):
        block_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for r in (block_rng, single_rng):
            r.integers(4)
            r.random(2)
        n = 1 + seed % 50
        block = pol.noise(block_rng, n)
        singles = np.array([single_draw(single_rng) for _ in range(n)])
        assert block.shape == singles.shape
        assert block.tobytes() == singles.tobytes()
        assert block_rng.random() == single_rng.random()


@pytest.mark.parametrize("action_dim", [1, 2, 3])
def test_noise_rows_equal_the_per_step_formulas(action_dim):
    # sigma * eps and the log-density, made once for a block of 1...k rows
    # of one lane or of several, equal bit for bit what the per-step
    # formulas give each row
    rng = np.random.default_rng(action_dim)
    pol = make_gaussian(action_dim=action_dim)
    for trial in range(200):
        pol.log_std[:] = rng.uniform(-5.0, 2.0, action_dim)
        shape = (1 + trial % 30,) if trial % 2 else (1 + trial % 7, 1 + trial % 11)
        eps = pol.noise(rng, math.prod(shape)).reshape(*shape, action_dim)
        rows = pol.noise_rows(eps)
        assert rows.shape == (*shape, *pol.row_shape) == (*shape, action_dim + 1)
        oracle = gaussian_noise_rows(pol.log_std, eps.reshape(-1, action_dim))
        assert rows.tobytes() == oracle.tobytes()


def test_act_adds_the_noise_rows_to_the_mean():
    pol = make_gaussian()
    rng = np.random.default_rng(5)
    obs = rng.standard_normal((4, 3))
    noise = act_noise(pol, rng, 4)
    a, logp, mu = pol.act(obs, noise)
    assert a.tobytes() == (mu + noise[:, :2]).tobytes()
    assert logp.tobytes() == noise[:, 2].tobytes()


def test_batched_act_needs_one_noise_row_per_row():
    pol = make_gaussian()
    rng = np.random.default_rng(0)
    # the raw draws of noise are not act's rows: noise_rows makes them
    for noise in (act_noise(pol, rng, 2), pol.noise(rng, 3), rng.standard_normal((3, 1)),
                  rng.standard_normal(3)):
        with pytest.raises(ShapeError):
            pol.act(np.zeros((3, 3)), noise)


@pytest.mark.parametrize("maker", [make_gaussian, make_categorical],
                         ids=["gaussian", "categorical"])
def test_act_refuses_a_lone_vector(maker):
    # a row acts as a one-row batch; a 1-D input or a noise row without
    # its lane axis is refused, not reshaped
    pol = maker()
    rng = np.random.default_rng(0)
    for noise in (act_noise(pol, rng, 1), act_noise(pol, rng, 3)):
        with pytest.raises(ShapeError):
            pol.act(np.zeros(3), noise)
    with pytest.raises(ShapeError):
        pol.act(np.zeros((1, 3)), act_noise(pol, rng, 1)[0])


# -- log densities ------------------------------------------------------------

def test_gaussian_logprob_at_mode():
    pol = make_gaussian(action_dim=3)
    pol.params.segment("log_std")[:] = [-0.3, 0.2, -1.0]
    obs = np.array([[0.5, 0.1, -1.2]])
    mu = pol.dist_params(obs)[0]
    expected = -float(pol.log_std.sum()) - 1.5 * LOG_2PI
    assert abs(log_prob(pol, obs, mu)[0] - expected) <= 1e-12


def test_categorical_uniform_logprob():
    pol = make_categorical(n=6)
    zero_net(pol, "logits_net")
    obs = np.zeros((6, 3))
    assert np.max(np.abs(log_prob(pol, obs, np.arange(6)) - np.log(1.0 / 6.0))) <= 1e-12


def test_gaussian_density_integrates_to_one():
    # quadrature oracle on a 1-D action grid
    pol = make_gaussian(action_dim=1, hidden=(4,))
    obs = np.array([0.2, -0.4, 0.9])
    mu = float(mean(pol, obs)[0])
    sigma = float(np.exp(pol.log_std[0]))
    grid = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 20001)
    dens = np.exp(log_prob(pol, np.tile(obs, (len(grid), 1)), grid[:, None]))
    integral = np.trapezoid(dens, grid)
    assert abs(integral - 1.0) <= 1e-6


def test_categorical_probs_sum_to_one_random():
    rng = np.random.default_rng(5)
    pol = make_categorical(n=5)
    for _ in range(1000):
        pol.params.segment("logits_net")[:] = rng.standard_normal(pol.spec.n_params) * 2.0
        p = np.exp(pol.dist_params(rng.standard_normal((1, 3)))[0])
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0.0)


def test_gaussian_bin_frequencies_match_density():
    # Monte-Carlo frequency of discretized bins vs exp(log_prob) * width
    pol = make_gaussian(action_dim=1, hidden=(4,))
    obs = np.array([0.0, 0.3, -0.7])
    mu = float(mean(pol, obs)[0])
    sigma = float(np.exp(pol.log_std[0]))
    rng = np.random.default_rng(6)
    n = 200_000
    samples = np.array([act_one(pol, obs, rng)[0][0] for _ in range(n)])
    width = 0.1 * sigma
    for center in [mu, mu + sigma, mu - 1.5 * sigma]:
        inside = np.mean(np.abs(samples - center) <= width / 2)
        p_est = np.exp(log_prob(pol, obs[None], np.array([[center]]))[0]) * width
        sd = np.sqrt(p_est * (1 - p_est) / n)
        assert abs(inside - p_est) <= 3 * sd + 1e-4  # small slack for bin curvature


# -- gradients ----------------------------------------------------------------

def test_zero_weights_zero_gradient():
    for pol in (make_gaussian(), make_categorical()):
        rng = np.random.default_rng(7)
        obs = rng.standard_normal((4, 3))
        if isinstance(pol, GaussianPolicy):
            acts = rng.standard_normal((4, 2))
        else:
            acts = rng.integers(0, 3, size=4)
        g = pol.grad_logprob_weighted(pol.forward_batch(obs), acts, np.zeros(4))
        assert np.array_equal(g, np.zeros_like(g))


def test_gaussian_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    pol = make_gaussian(hidden=(4, 3))
    obs = rng.standard_normal((1, 3))
    action = rng.standard_normal((1, 2))
    theta0 = pol.flat()

    def scalar(theta):
        pol.set_flat(theta)
        val = log_prob(pol, obs, action)[0]
        pol.set_flat(theta0)
        return val

    analytic = pol.grad_logprob_weighted(pol.forward_batch(obs), action, np.array([1.0]))
    numeric = finite_diff_grad(scalar, theta0, h=1e-5)
    assert rel_err(analytic, numeric).max() <= 1e-4


def test_categorical_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    pol = make_categorical(hidden=(4, 3))
    obs = rng.standard_normal((1, 3))
    action = np.array([1])
    theta0 = pol.flat()

    def scalar(theta):
        pol.set_flat(theta)
        val = log_prob(pol, obs, action)[0]
        pol.set_flat(theta0)
        return val

    analytic = pol.grad_logprob_weighted(pol.forward_batch(obs), action, np.array([1.0]))
    numeric = finite_diff_grad(scalar, theta0, h=1e-5)
    assert rel_err(analytic, numeric).max() <= 1e-4


def test_batch_gradient_is_mean_of_samples():
    rng = np.random.default_rng(10)
    pol = make_gaussian()
    obs = rng.standard_normal((6, 3))
    acts = rng.standard_normal((6, 2))
    w = rng.standard_normal(6)
    batch = pol.grad_logprob_weighted(pol.forward_batch(obs), acts, w)
    acc = np.zeros_like(batch)
    for i in range(6):
        acc += pol.grad_logprob_weighted(pol.forward_batch(obs[i:i + 1]), acts[i:i + 1],
                                         w[i:i + 1])
    assert np.max(np.abs(batch - acc / 6)) <= 1e-10


# -- KL and Fisher-vector products ---------------------------------------------

def test_kl_zero_at_same_params():
    rng = np.random.default_rng(11)
    obs = rng.standard_normal((5, 3))
    gp = make_gaussian()
    assert mean_kl(gp, gp.dist_params(obs), obs) == 0.0
    cp = make_categorical()
    assert mean_kl(cp, cp.dist_params(obs), obs) == 0.0


def test_categorical_kl_hand_value():
    pol = make_categorical(n=2)
    zero_net(pol, "logits_net")
    set_output_bias(pol, "logits_net", np.log([0.9, 0.1]))
    obs = np.zeros((1, 3))
    old = np.log(np.array([[0.5, 0.5]]))
    expected = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    assert abs(mean_kl(pol, old, obs) - expected) <= 1e-12


def test_gaussian_kl_unit_shift():
    pol = make_gaussian(action_dim=1, hidden=(4,))
    zero_net(pol, "mean_net")
    set_output_bias(pol, "mean_net", [1.0])
    pol.params.segment("log_std")[:] = 0.0
    obs = np.zeros((1, 3))
    old = (np.array([[0.0]]), np.array([0.0]))
    assert abs(mean_kl(pol, old, obs) - 0.5) <= 1e-12


def test_fvp_zero_vector():
    pol = make_gaussian()
    obs = np.random.default_rng(12).standard_normal((4, 3))
    out = fvp(pol, obs, np.zeros(pol.params.size), damping=0.1)
    assert np.array_equal(out, np.zeros_like(out))


def test_fvp_linearity():
    rng = np.random.default_rng(13)
    for pol in (make_gaussian(), make_categorical()):
        obs = rng.standard_normal((4, 3))
        v = rng.standard_normal(pol.params.size)
        a = fvp(pol, obs, 2.5 * v, damping=0.1)
        b = 2.5 * fvp(pol, obs, v, damping=0.1)
        assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("maker, hidden", [
    *(pytest.param(maker, (4,), id=maker.__name__) for maker in (make_gaussian, make_categorical)),
    # no hidden layer: the linear softmax tables of the tabular oracle
    *(pytest.param(maker, (), id=f"{maker.__name__}-linear")
      for maker in (make_gaussian, make_categorical)),
])
def test_fvp_matches_finite_difference_hessian(maker, hidden):
    rng = np.random.default_rng(14)
    pol = maker(hidden=hidden)
    obs = rng.standard_normal((5, 3))
    old = pol.dist_params(obs)
    theta0 = pol.flat()
    v = rng.standard_normal(pol.params.size)
    h = 1e-5

    pol.set_flat(theta0 + h * v)
    gp = kl_grad(pol, old, obs)
    pol.set_flat(theta0 - h * v)
    gm = kl_grad(pol, old, obs)
    pol.set_flat(theta0)
    hv_fd = (gp - gm) / (2 * h)
    hv = fvp(pol, obs, v, damping=0.0)
    denom = max(np.linalg.norm(hv), np.linalg.norm(hv_fd), 1e-8)
    assert np.linalg.norm(hv - hv_fd) / denom <= 1e-4


def test_fvp_matches_fd_on_tiny_policy():
    # near-minimal policy: 1 weight + 1 bias + 1 log_std
    rng = np.random.default_rng(15)
    pol = GaussianPolicy(MlpSpec(1, (), 1), rng)
    obs = rng.standard_normal((6, 1))
    old = pol.dist_params(obs)
    theta0 = pol.flat()
    h = 1e-4
    n = pol.params.size
    hess = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pol.set_flat(theta0 + h * e)
        gp = kl_grad(pol, old, obs)
        pol.set_flat(theta0 - h * e)
        gm = kl_grad(pol, old, obs)
        pol.set_flat(theta0)
        hess[:, i] = (gp - gm) / (2 * h)
    v = rng.standard_normal(n)
    assert rel_err(fvp(pol, obs, v, damping=0.0), hess @ v, floor=1e-4).max() <= 1e-3


def test_kl_grad_matches_finite_differences():
    rng = np.random.default_rng(16)
    for pol in (make_gaussian(hidden=(4,)), make_categorical(hidden=(4,))):
        obs = rng.standard_normal((5, 3))
        # evaluate against a *different* old distribution so the gradient is nonzero
        theta0 = pol.flat()
        pol.set_flat(theta0 + 0.05 * rng.standard_normal(theta0.size))
        old = pol.dist_params(obs)
        pol.set_flat(theta0)

        def scalar(theta):
            pol.set_flat(theta)
            val = mean_kl(pol, old, obs)
            pol.set_flat(theta0)
            return val

        analytic = kl_grad(pol, old, obs)
        numeric = finite_diff_grad(scalar, theta0, h=1e-5)
        assert rel_err(analytic, numeric).max() <= 1e-4


def test_log_std_clamped_after_update():
    pol = make_gaussian()
    theta = pol.flat()
    theta[-pol.action_dim:] = [-9.0, 9.0]
    pol.set_flat(theta)
    assert np.array_equal(pol.log_std, [-5.0, 2.0])


@pytest.mark.parametrize("cls", [GaussianPolicy, CategoricalPolicy],
                         ids=["gaussian", "categorical"])
def test_input_scale_shape_checked(cls):
    with pytest.raises(ShapeError):
        cls(MlpSpec(3, (4,), 2), np.random.default_rng(0), input_scale=np.ones(2))


@pytest.mark.parametrize("maker", [make_gaussian, make_categorical],
                         ids=["gaussian", "categorical"])
def test_unpickled_policy_acts_on_its_own_parameters(maker):
    # act reads cached views of the parameter vector; an unpickled policy
    # must see set_flat, as the original does
    pol = maker()
    clone = pickle.loads(pickle.dumps(pol))
    obs = np.array([[0.5, 0.1, -1.2]])
    noise = act_noise(pol, np.random.default_rng(0), 1)
    before = clone.act(obs, noise)
    assert np.array_equal(before[2], pol.act(obs, noise)[2])
    clone.set_flat(clone.flat() + np.random.default_rng(1).standard_normal(clone.params.size))
    after = clone.act(obs, noise)
    assert not np.array_equal(before[2], after[2])
    dist = clone.dist_params(obs)
    expected = dist[0] if isinstance(clone, GaussianPolicy) else dist
    assert np.allclose(after[2], expected, rtol=0.0, atol=1e-12)
    assert np.array_equal(pol.act(obs, noise)[2], before[2])
