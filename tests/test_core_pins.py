"""Bit-for-bit pins of the MLP core, the trust-region products and the
value fit.

The library computes its forward, backward and R-operator passes and
the value fit's least-squares matrix in place, and shares one forward
pass per update, which the gradient pass spends as it goes; every array
it produces must equal, byte for byte, the allocating reference forms
kept in helpers.py.
"""

import numpy as np
import pytest

from haarlab.nets import (MlpSpec, backward, backward_consuming, forward_cached,
                          init_mlp_params, rop_forward, tanh_derivs, workspace)
from haarlab.policies import CategoricalPolicy, GaussianPolicy
from haarlab.values import fit_value

from helpers import (fvp, log_prob, ref_backward, ref_fit_value_weights, ref_forward_cached,
                     ref_fvp, ref_grad_logprob_weighted, ref_rop_forward, ref_tanh_derivs)

# (input, output) around the (32, 32) hidden layers: the low, flat and high
# policies in use, then the same nets with two more inputs
SHAPES = [(8, 2), (24, 2), (24, 6), (10, 2), (26, 2), (26, 6)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def net_case(input_dim, output_dim, seed):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(input_dim, (32, 32), output_dim)
    w = init_mlp_params(spec, rng)
    w += 0.1 * rng.standard_normal(w.size)  # non-zero biases
    return spec, w, rng


@pytest.mark.parametrize("input_dim,output_dim", SHAPES)
@pytest.mark.parametrize("rows", [1, 7, 5000])
def test_core_matches_reference_bytes(input_dim, output_dim, rows):
    spec, w, rng = net_case(input_dim, output_dim, input_dim * 10 + output_dim)
    x = rng.standard_normal((rows, input_dim))
    out, acts = forward_cached(spec, w, x)
    ref_out, ref_acts = ref_forward_cached(spec, w, x)
    assert same_bytes(out, ref_out)
    assert len(acts) == len(ref_acts) and all(map(same_bytes, acts, ref_acts))
    derivs = tanh_derivs(acts)
    assert all(map(same_bytes, derivs, ref_tanh_derivs(ref_acts)))
    gy = rng.standard_normal(out.shape)
    v = rng.standard_normal(spec.n_params)
    want_grad = ref_backward(spec, w, ref_acts, gy)
    want_rop = ref_rop_forward(spec, w, v, ref_acts)
    assert same_bytes(backward(spec, w, acts, gy, derivs, workspace(spec, rows)), want_grad)
    assert same_bytes(rop_forward(spec, w, v, acts, derivs, workspace(spec, rows)), want_rop)
    # last, as it spends the hidden activations: each ends as its layer's delta
    x_kept = acts[0].copy()
    assert same_bytes(backward_consuming(spec, w, acts, gy), want_grad)
    assert same_bytes(acts[0], x_kept)
    assert not any(map(same_bytes, acts[1:], ref_acts[1:]))


@pytest.mark.parametrize("input_dim,output_dim", SHAPES)
@pytest.mark.parametrize("rows", [5000])
def test_workspace_passes_match_reference_bytes(input_dim, output_dim, rows):
    spec, w, rng = net_case(input_dim, output_dim, input_dim + output_dim)
    x = rng.standard_normal((rows, input_dim))
    out, acts = forward_cached(spec, w, x)
    ref_out, ref_acts = ref_forward_cached(spec, w, x)
    derivs = tanh_derivs(acts)
    work = workspace(spec, rows)
    for _ in range(2):  # a reused workspace keeps no state between calls
        v = rng.standard_normal(spec.n_params)
        assert same_bytes(rop_forward(spec, w, v, acts, derivs, work),
                          ref_rop_forward(spec, w, v, ref_acts))
        gy = rng.standard_normal(out.shape)
        in_work = work[0][:gy.size].reshape(gy.shape)  # as the Fisher product leaves it
        in_work[:] = gy
        assert same_bytes(backward(spec, w, acts, in_work, derivs, work),
                          ref_backward(spec, w, ref_acts, gy))


POLICIES = [(GaussianPolicy, 8, 2), (GaussianPolicy, 24, 2), (CategoricalPolicy, 24, 6),
            (GaussianPolicy, 10, 2), (GaussianPolicy, 26, 2), (CategoricalPolicy, 26, 6)]


def policy_case(cls, input_dim, output_dim, n=5000):
    rng = np.random.default_rng(input_dim * output_dim)
    pol = cls(MlpSpec(input_dim, (32, 32), output_dim), rng,
              input_scale=rng.uniform(0.5, 2.0, input_dim))
    pol.set_flat(pol.flat() + 0.05 * rng.standard_normal(pol.params.size))
    obs = rng.standard_normal((n, input_dim))
    if cls is GaussianPolicy:
        actions = rng.standard_normal((n, output_dim))
    else:
        actions = rng.integers(0, output_dim, n)
    return pol, obs, actions, rng


@pytest.mark.parametrize("cls,input_dim,output_dim", POLICIES)
def test_shared_forward_matches_separate_calls(cls, input_dim, output_dim):
    for rows in (1, 7, 5000):
        pol, obs, actions, rng = policy_case(cls, input_dim, output_dim, rows)
        fwd = pol.forward_batch(obs)
        assert same_bytes(pol.dist_log_prob(fwd.dist, actions), log_prob(pol, obs, actions))
        weights = rng.standard_normal(len(obs))
        want = ref_grad_logprob_weighted(pol, obs, actions, weights)
        assert same_bytes(pol.grad_logprob_weighted(fwd, actions, weights), want)
        # the Fisher operator's forward is its own, untouched by the spent one
        apply = pol.fvp_builder(obs, 0.1)
        for _ in range(3):  # every application of one closure, not just the first
            v = rng.standard_normal(pol.params.size)
            assert same_bytes(apply(v), ref_fvp(pol, obs, v, 0.1))


@pytest.mark.parametrize("cls,input_dim,output_dim", POLICIES)
def test_fvp_results_do_not_alias_the_workspace(cls, input_dim, output_dim):
    pol, obs, _, rng = policy_case(cls, input_dim, output_dim, n=300)
    apply = pol.fvp_builder(obs, 0.1)
    first = apply(rng.standard_normal(pol.params.size))
    kept = first.copy()
    second = apply(rng.standard_normal(pol.params.size))
    assert same_bytes(first, kept)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("cls,input_dim,output_dim", POLICIES)
def test_fvp_closure_unchanged_by_set_flat(cls, input_dim, output_dim):
    pol, obs, _, rng = policy_case(cls, input_dim, output_dim, n=300)
    v = rng.standard_normal(pol.params.size)
    apply = pol.fvp_builder(obs, 0.1)
    want = apply(v)
    pol.set_flat(pol.flat() + 0.3 * rng.standard_normal(pol.params.size))
    assert not same_bytes(fvp(pol, obs, v, 0.1), want)  # the policy did move
    assert same_bytes(apply(v), want)


@pytest.mark.parametrize("rows,dim", [(5100, 24), (300, 2), (5100, 26), (300, 4)])
def test_value_fit_matches_reference_bytes(rows, dim):
    rng = np.random.default_rng(rows + dim)
    states = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 10.0, dim)
    targets = rng.standard_normal(rows)
    for scale in (1.0, rng.uniform(0.05, 2.0, dim)):
        est = fit_value(states, targets, scale)
        got = np.concatenate([est.w3, est.w2, est.w1, [est.w0]])
        # the reference fits a scaled copy of the states
        assert same_bytes(got, ref_fit_value_weights(states * scale, targets, 1e-5))
