import tracemalloc

import numpy as np
import pytest

from haarlab.experiment import _keep_freed_pages
from haarlab.nets import MlpSpec, unpack_layers
from haarlab.policies import CategoricalPolicy, GaussianPolicy
from haarlab.trpo import AdvantageBatch, conjugate_gradient, standardize_advantages, trpo_update

from helpers import act_noise, log_prob, mean_kl, ref_trpo_update, surrogate_loss

MAX_KL = 0.01


def make_batch(policy, obs, actions, advantages):
    return AdvantageBatch(obs, actions, advantages, log_prob(policy, obs, actions),
                          policy.dist_params(obs))


# -- surrogate ------------------------------------------------------------------

def test_surrogate_equals_mean_advantage_at_old_params():
    rng = np.random.default_rng(0)
    pol = GaussianPolicy(MlpSpec(3, (4,), 2), rng)
    obs = rng.standard_normal((6, 3))
    acts = rng.standard_normal((6, 2))
    adv = rng.standard_normal(6)
    batch = make_batch(pol, obs, acts, adv)
    assert abs(surrogate_loss(batch, pol) - adv.mean()) <= 1e-12


def test_surrogate_zero_for_zero_advantages():
    rng = np.random.default_rng(1)
    pol = GaussianPolicy(MlpSpec(3, (4,), 2), rng)
    obs = rng.standard_normal((5, 3))
    acts = rng.standard_normal((5, 2))
    batch = make_batch(pol, obs, acts, np.zeros(5))
    pol.set_flat(pol.flat() + 0.1)  # any policy
    assert surrogate_loss(batch, pol) == 0.0


def test_surrogate_single_sample_hand_ratio():
    rng = np.random.default_rng(2)
    pol = GaussianPolicy(MlpSpec(2, (3,), 1), rng)
    obs = np.array([[0.4, -0.2]])
    act = np.array([[0.7]])
    old_logp = float(log_prob(pol, obs, act)[0])
    batch = make_batch(pol, obs, act, np.array([2.0]))
    pol.set_flat(pol.flat() + 0.05)
    new_logp = float(log_prob(pol, obs, act)[0])
    expected = np.exp(new_logp - old_logp) * 2.0
    assert abs(surrogate_loss(batch, pol) - expected) <= 1e-12


# -- conjugate gradient ----------------------------------------------------------

def test_cg_identity():
    b = np.array([1.0, 2.0])
    x = conjugate_gradient(lambda v: v, b)
    assert np.max(np.abs(x - b)) <= 1e-12


def test_cg_diagonal():
    a = np.diag([2.0, 4.0])
    x = conjugate_gradient(lambda v: a @ v, np.array([2.0, 4.0]))
    assert np.max(np.abs(x - [1.0, 1.0])) <= 1e-12


def test_cg_random_spd_matches_dense_solve():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((10, 10))
    a = m @ m.T + 10 * np.eye(10)
    b = rng.standard_normal(10)
    x = conjugate_gradient(lambda v: a @ v, b, iters=50, tol=1e-12)
    x_dense = np.linalg.solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8
    assert np.max(np.abs(x - x_dense)) <= 1e-8


def test_cg_zero_rhs_returns_zeros_without_applying_the_operator():
    calls = []

    def apply_a(v):
        calls.append(v)
        return v

    x = conjugate_gradient(apply_a, np.zeros(4))
    assert x.tobytes() == np.zeros(4).tobytes() and calls == []


# -- advantage standardization ----------------------------------------------------

def test_standardize_preserves_ordering():
    rng = np.random.default_rng(4)
    for _ in range(20):
        adv = rng.standard_normal(12) * rng.uniform(0.1, 50)
        norm = standardize_advantages(adv)
        assert abs(norm.mean()) <= 1e-12
        order_raw = np.argsort(adv)
        order_norm = np.argsort(norm)
        assert np.array_equal(order_raw, order_norm)


# -- trpo_update ------------------------------------------------------------------

def test_zero_advantages_leave_parameters_unchanged():
    rng = np.random.default_rng(5)
    pol = GaussianPolicy(MlpSpec(3, (4,), 2), rng)
    obs = rng.standard_normal((8, 3))
    acts = rng.standard_normal((8, 2))
    batch = make_batch(pol, obs, acts, np.zeros(8))
    theta0 = pol.flat()
    diag = trpo_update(pol, batch, MAX_KL)
    assert not diag.accepted
    assert np.max(np.abs(pol.flat() - theta0)) <= 1e-12


@pytest.mark.parametrize("cls", [GaussianPolicy, CategoricalPolicy])
@pytest.mark.parametrize("advantages", [np.zeros(8), -np.zeros(8), np.full(8, 2.5)])
def test_zero_standardized_advantages_skip_the_forward_pass(monkeypatch, cls, advantages):
    assert not standardize_advantages(advantages).any()
    rng = np.random.default_rng(11)
    pol = cls(MlpSpec(3, (4,), 2), rng)
    obs = rng.standard_normal((8, 3))
    acts = rng.standard_normal((8, 2)) if cls is GaussianPolicy else rng.integers(0, 2, 8)
    batch = make_batch(pol, obs, acts, advantages)
    theta0 = pol.flat()
    want = ref_trpo_update(pol, batch, MAX_KL)
    assert pol.flat().tobytes() == theta0.tobytes()

    def no_forward(*args, **kwargs):
        raise AssertionError("zero advantages must not run the policy")

    monkeypatch.setattr(pol, "forward_batch", no_forward)
    got = trpo_update(pol, batch, MAX_KL)
    assert got == want
    assert [np.signbit(v) for v in (got.kl, got.surrogate_before, got.surrogate_after)] == \
        [np.signbit(v) for v in (want.kl, want.surrogate_before, want.surrogate_after)]
    assert pol.flat().tobytes() == theta0.tobytes()


def test_bandit_probability_moves_toward_positive_advantage():
    # two-armed bandit: arm 0 advantage +1, arm 1 advantage -1
    rng = np.random.default_rng(6)
    pol = CategoricalPolicy(MlpSpec(1, (4,), 2), rng)
    obs = np.ones((20, 1))
    actions = np.array([0, 1] * 10)
    adv = np.where(actions == 0, 1.0, -1.0)
    batch = make_batch(pol, obs, actions, adv)
    p_before = float(np.exp(pol.dist_params(obs[:1]))[0, 0])
    diag = trpo_update(pol, batch, MAX_KL)
    p_after = float(np.exp(pol.dist_params(obs[:1]))[0, 0])
    assert diag.accepted
    assert p_after > p_before


def policy_batch(cls, output_dim, rng, rows):
    pol = cls(MlpSpec(4, (8, 8), output_dim), rng)
    obs = rng.standard_normal((rows, 4))
    acts = pol.act(obs, act_noise(pol, rng, rows))[0]
    return pol, make_batch(pol, obs, acts, rng.standard_normal(rows))


# the categorical batch has the size of a high-level batch at k = 100,
# where the Fisher operator sees the fewest rows
@pytest.mark.parametrize("seed,cls,output_dim,rows", [
    *(pytest.param(seed, GaussianPolicy, 2, 64, id=str(seed)) for seed in range(5)),
    *(pytest.param(seed, CategoricalPolicy, 6, 12, id=f"categorical-{seed}")
      for seed in range(5)),
])
def test_accepted_step_respects_kl_bound_and_improvement(seed, cls, output_dim, rows):
    rng = np.random.default_rng(100 + seed)
    pol, batch = policy_batch(cls, output_dim, rng, rows)
    theta0 = pol.flat()
    diag = trpo_update(pol, batch, MAX_KL)
    if diag.accepted:
        assert diag.kl <= 1.5 * MAX_KL + 1e-12
        assert diag.improvement >= 0.0
        # verify the reported KL against a fresh evaluation
        assert abs(mean_kl(pol, batch.old_dist, batch.observations) - diag.kl) <= 1e-12
    else:
        assert np.max(np.abs(pol.flat() - theta0)) <= 1e-12


def test_fisher_sees_every_fifth_row_and_the_rest_sees_all(monkeypatch):
    rng = np.random.default_rng(12)
    pol, batch = policy_batch(GaussianPolicy, 2, rng, 5000)
    obs = batch.observations
    seen = {"fisher": [], "grad": [], "line search": []}

    def spy(kind, method, rows=lambda first: first):
        def wrapper(first, *args, **kwargs):
            seen[kind].append(np.array(rows(first), copy=True))
            return method(first, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(pol, "fvp_builder", spy("fisher", pol.fvp_builder))
    # the gradient's forward pass holds its rows times the unit input scale
    monkeypatch.setattr(pol, "grad_logprob_weighted",
                        spy("grad", pol.grad_logprob_weighted, lambda fwd: fwd.acts[0]))
    monkeypatch.setattr(pol, "dist_params", spy("line search", pol.dist_params))
    diag = trpo_update(pol, batch, MAX_KL)
    assert diag.accepted
    assert [x.tobytes() for x in seen["fisher"]] == [obs[::5].tobytes()]
    assert [x.tobytes() for x in seen["grad"]] == [obs.tobytes()]
    assert len(seen["line search"]) == diag.backtracks + 1
    assert all(x.tobytes() == obs.tobytes() for x in seen["line search"])


def test_update_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        pol = GaussianPolicy(MlpSpec(3, (6,), 2), rng)
        obs = rng.standard_normal((32, 3))
        acts = np.concatenate([pol.act(o[None], act_noise(pol, rng, 1))[0] for o in obs])
        adv = rng.standard_normal(32)
        batch = make_batch(pol, obs, acts, adv)
        trpo_update(pol, batch, MAX_KL)
        return pol.flat()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_update_reuses_freed_heap_pages():
    # with freed heap pages kept, as every run keeps them, an update's
    # temporaries (4.3 MiB at their peak at 5,000 rows) come back from the
    # heap; with glibc's defaults each update faulted in fresh pages
    if not _keep_freed_pages():
        pytest.skip("the C library has no glibc mallopt: freed pages go back to the kernel")
    import resource  # POSIX only, and glibc is POSIX
    rng = np.random.default_rng(9)
    pol = GaussianPolicy(MlpSpec(10, (32, 32), 2), rng)
    batches = [make_batch(pol, rng.standard_normal((5000, 10)), rng.standard_normal((5000, 2)),
                          rng.standard_normal(5000)) for _ in range(4)]
    faults = []
    for batch in batches:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trpo_update(pol, batch, MAX_KL)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[1:]) < 100, faults


def test_rejected_when_no_improving_step():
    # degenerate batch: a single sample cannot be improved after standardization
    rng = np.random.default_rng(8)
    pol = GaussianPolicy(MlpSpec(2, (3,), 1), rng)
    obs = np.array([[0.1, 0.2]])
    act = np.array([[0.5]])
    batch = make_batch(pol, obs, act, np.array([1.0]))
    theta0 = pol.flat()
    diag = trpo_update(pol, batch, MAX_KL)
    assert not diag.accepted
    assert np.array_equal(pol.flat(), theta0)


def test_batch_validation():
    with pytest.raises(Exception):
        AdvantageBatch(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0), np.zeros(0), None)
    with pytest.raises(Exception):
        AdvantageBatch(np.zeros((2, 2)), np.zeros((2, 1)), np.array([np.nan, 0.0]),
                       np.zeros(2), None)


def test_update_peak_memory_holds_no_derivative_or_workspace_arrays():
    # the gradient pass spends its forward: beside the input rows the
    # update's peak holds the two hidden activations and one delta buffer
    # of n x 32 floats, where keeping the forward took two more for the
    # tanh derivatives and two for the workspace (8.1 MiB here)
    n = 5100
    rng = np.random.default_rng(9)
    pol = GaussianPolicy(MlpSpec(10, (32, 32), 2), rng)
    batch = make_batch(pol, rng.standard_normal((n, 10)), rng.standard_normal((n, 2)),
                       rng.standard_normal(n))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        inputs = tracemalloc.get_traced_memory()[0]
        assert trpo_update(pol, batch, MAX_KL).accepted
        peak = tracemalloc.get_traced_memory()[1] - inputs
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4 * n * 32 * 8, peak
