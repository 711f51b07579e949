"""Stochastic policy heads over tanh MLPs.

GaussianPolicy: diagonal Gaussian with a state-independent log-std
vector, used for primitive (continuous) actions. CategoricalPolicy:
softmax over skill indices. Both expose exactly what the trust-region
optimizer needs: sampling, log densities, weighted log-prob gradients,
closed-form KL against cached old distributions, and Fisher-vector
products (Gauss-Newton form, exact for the KL Hessian at the cached
parameters).

Policies optionally carry a fixed per-input scale vector applied before
the network; raw observations keep their physical units while the net
sees O(1) inputs.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .nets import (MlpSpec, backward, forward, forward_cached, init_mlp_params,
                   rop_forward, tanh_derivs, unpack_layers, workspace)
from .params import NumericsError, ParamVector, ShapeError


def _forward_rows(layers, x: np.ndarray) -> np.ndarray:
    """Forward of an (L, d) batch over cached layer views, one
    matrix-vector product per row and layer.

    A row comes out bit for bit as the 1-D product W @ x gives it; the
    matrix product x @ W.T sums in another order and would not. A lone
    row takes the 1-D product itself, which skips the stacking overhead.
    """
    one = len(x) == 1
    a = x[0] if one else x[:, :, None]
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = W @ a + (b if one else b[:, None])
        a = z if i == last else np.tanh(z)
    return a.reshape(len(x), -1)


def _as_rows(obs, rng):
    """(rows, generators, single): a 1-D call is the one-row batch."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim == 1:
        return obs[None], (rng,), True
    if len(rng) != len(obs):
        raise ShapeError("a batched act needs one generator per row")
    return obs, rng, False


LOG_2PI = float(np.log(2.0 * np.pi))

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
INIT_LOG_STD = -0.5


NetForward = namedtuple("NetForward", "w n out dist acts derivs")


class _MlpPolicy:
    """Plumbing shared by both heads: a tanh MLP in segment NET, then the
    head's own segments. A head adds act and the dist_* math, and its
    output-layer gradients return (gradient at the network output,
    gradients of the head's own segments)."""

    NET = ""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator,
                 input_scale: np.ndarray | None,
                 head_segments: list[tuple[str, np.ndarray]]):
        self.spec = spec
        self.params = ParamVector.from_segments(
            [(self.NET, init_mlp_params(spec, rng)), *head_segments])
        if input_scale is None:
            input_scale = np.ones(spec.input_dim)
        self.input_scale = np.asarray(input_scale, dtype=np.float64)
        if self.input_scale.shape != (spec.input_dim,):
            raise ShapeError("input_scale must match the network input dimension")
        # views into the parameter buffer stay valid: set_flat writes in place
        self._rebuild_views()

    def _rebuild_views(self):
        self._layers = unpack_layers(self.spec, self.params.segment(self.NET))

    def __setstate__(self, state):
        # unpickled views are copies; make them alias the parameter buffer again
        self.__dict__.update(state)
        self._rebuild_views()

    def flat(self) -> np.ndarray:
        return self.params.values.copy()

    def set_flat(self, values: np.ndarray) -> None:
        self.params.replace_values(values)

    def _forward(self, obs: np.ndarray) -> np.ndarray:
        x = np.asarray(obs, dtype=np.float64) * self.input_scale
        return forward(self.spec, self.params.segment(self.NET), x)

    def forward_batch(self, obs: np.ndarray) -> NetForward:
        """The network run over a batch at a snapshot w of the current parameters:
        n rows, the output and its distribution, the activations and their tanh
        derivatives. grad_logprob_weighted and fvp_builder take it for their pass."""
        w = self.params.segment(self.NET).copy()
        x = np.atleast_2d(np.asarray(obs, dtype=np.float64)) * self.input_scale
        out, acts = forward_cached(self.spec, w, x)
        return NetForward(w, len(x), out, self._dist(out), acts, tanh_derivs(acts))

    def dist_params(self, obs: np.ndarray):
        """Cacheable distribution parameters of a single input or a batch."""
        return self._dist(self._forward(obs))

    def log_prob(self, obs: np.ndarray, action) -> float | np.ndarray:
        """Exact log density; obs may be a single vector or a batch."""
        return self.dist_log_prob(self.dist_params(obs), action)

    def mean_kl(self, old_dist, obs: np.ndarray) -> float:
        """Mean KL(old || current) over the batch, closed form."""
        return self.dist_kl(old_dist, self.dist_params(np.atleast_2d(obs)))

    def grad_logprob_weighted(self, obs: np.ndarray, actions, weights,
                              fwd: NetForward | None = None) -> np.ndarray:
        """Gradient of mean_i(weights_i * log pi(a_i|x_i)) over all parameters;
        fwd, from forward_batch(obs), saves the forward pass."""
        w, n, out, _, acts, derivs = fwd or self.forward_batch(obs)
        actions = self._action_batch(actions)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if len(actions) != n or weights.shape[0] != n or n == 0:
            raise ShapeError("batch arrays must be nonempty and aligned")
        gy, g_head = self._logprob_out_grad(out, actions, weights, n)
        return np.concatenate([backward(self.spec, w, acts, gy, derivs), *g_head])

    def kl_grad(self, old_dist, obs: np.ndarray) -> np.ndarray:
        """Gradient of mean_kl w.r.t. the current parameters."""
        w, n, out, _, acts, derivs = self.forward_batch(obs)
        gy, g_head = self._kl_out_grad(old_dist, out, n)
        return np.concatenate([backward(self.spec, w, acts, gy, derivs), *g_head])

    def fvp_builder(self, obs: np.ndarray, damping: float, fwd: NetForward | None = None):
        """Closure computing (F + damping I) v at the current parameters.

        The forward pass (or fwd, from forward_batch(obs)) and the per-row
        buffers are made once; each application (conjugate gradient) pays
        for the directional passes only and returns a fresh array. The
        parameters are snapshotted, so the closure stays valid if the policy
        is updated afterwards.
        """
        w, n, out, _, acts, derivs = fwd or self.forward_batch(obs)
        fisher_out = self._fisher_out(out, n)
        work = workspace(self.spec, n)
        spec, n_net, size = self.spec, self.spec.n_params, self.params.size

        def apply(v: np.ndarray) -> np.ndarray:
            v = np.asarray(v, dtype=np.float64)
            if v.size != size:
                raise ShapeError("direction vector does not match parameter layout")
            r = rop_forward(spec, w, v[:n_net], acts, derivs, work)
            gy, head = fisher_out(r, v[n_net:])  # gy may overwrite r
            return np.concatenate([backward(spec, w, acts, gy, derivs, work), *head]) + damping * v

        return apply

    def fvp(self, obs: np.ndarray, v: np.ndarray, damping: float) -> np.ndarray:
        """(F + damping I) v with F the KL Hessian at the current parameters."""
        return self.fvp_builder(obs, damping)(v)


class GaussianPolicy(_MlpPolicy):
    """pi(a|x) = N(mlp(x), diag(exp(log_std))^2), log_std clamped to [-5, 2]."""

    NET = "mean_net"

    def __init__(self, spec: MlpSpec, rng: np.random.Generator,
                 input_scale: np.ndarray | None = None):
        self.action_dim = spec.output_dim
        super().__init__(spec, rng, input_scale,
                         [("log_std", np.full(spec.output_dim, INIT_LOG_STD))])

    def _rebuild_views(self):
        super()._rebuild_views()
        self.log_std = self.params.segment("log_std")

    def set_flat(self, values: np.ndarray) -> None:
        super().set_flat(values)
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    def mean(self, obs: np.ndarray) -> np.ndarray:
        return self._forward(obs)

    def act(self, obs: np.ndarray, rng):
        """Sample actions; returns (action, log_prob, mean).

        obs is one input with one Generator, or an (L, d) batch with a
        sequence of L Generators, row i drawing only from rng[i]; a batch
        returns (L, action_dim) actions and means and L log-probs, each
        row equal bit for bit to the 1-D call on that row.
        """
        x, rngs, single = _as_rows(obs, rng)
        mu = _forward_rows(self._layers, x * self.input_scale)
        if not np.isfinite(mu.sum()):
            raise NumericsError("policy mean is not finite")
        eps = np.empty_like(mu)
        for r, row in zip(rngs, eps):
            r.standard_normal(out=row)
        action = mu + np.exp(self.log_std) * eps
        # eps @ eps per row as a stacked product: a row sum would use another order
        quad = np.matmul(eps[:, None, :], eps[:, :, None]).ravel().tolist()
        log_std_sum = float(self.log_std.sum())
        logp = [-0.5 * q - log_std_sum - 0.5 * self.action_dim * LOG_2PI for q in quad]
        if single:
            return action[0], logp[0], mu[0]
        return action, np.array(logp), mu

    def _dist(self, mu: np.ndarray):
        """Cacheable distribution parameters: (means, log_std copy)."""
        return mu, self.log_std.copy()

    def dist_log_prob(self, dist, action: np.ndarray) -> float | np.ndarray:
        """Log density of actions under distribution parameters `dist`."""
        mu, log_std = dist
        z = (np.asarray(action, dtype=np.float64) - mu) * np.exp(-log_std)
        quad = (z * z).sum(axis=-1)
        out = -0.5 * quad - log_std.sum() - 0.5 * self.action_dim * LOG_2PI
        return float(out) if np.ndim(out) == 0 else out

    def dist_kl(self, old_dist, dist) -> float:
        """Mean KL(old || dist) over the batch, closed form."""
        old_mu, old_log_std = old_dist
        mu, log_std = dist
        var = np.exp(2.0 * log_std)
        old_var = np.exp(2.0 * old_log_std)
        per_dim = (log_std - old_log_std
                   + (old_var + (old_mu - mu) ** 2) / (2.0 * var) - 0.5)
        return float(per_dim.sum(axis=-1).mean())

    # -- output-layer gradients ---------------------------------------------

    def _action_batch(self, actions) -> np.ndarray:
        return np.atleast_2d(np.asarray(actions, dtype=np.float64))

    def _logprob_out_grad(self, mu, actions, weights, n):
        inv_var = np.exp(-2.0 * self.log_std)
        diff = actions - mu
        # d logp / d mu = (a - mu) / sigma^2
        gy = (weights[:, None] * diff * inv_var) / n
        # d logp / d log_std = ((a-mu)/sigma)^2 - 1
        return gy, [(weights[:, None] * (diff * diff * inv_var - 1.0)).sum(axis=0) / n]

    def _kl_out_grad(self, old_dist, mu, n):
        old_mu, old_log_std = old_dist
        inv_var = np.exp(-2.0 * self.log_std)
        old_var = np.exp(2.0 * old_log_std)
        gy = (mu - old_mu) * inv_var / n
        return gy, [(1.0 - (old_var + (old_mu - mu) ** 2) * inv_var).sum(axis=0) / n]

    def _fisher_out(self, mu, n):
        inv_var_n = np.exp(-2.0 * self.log_std) / n
        # the Fisher block of log_std is 2 I, and it has no cross terms
        return lambda r, v_log_std: (np.multiply(r, inv_var_n, out=r), [2.0 * v_log_std])


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    s = z - z.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


class CategoricalPolicy(_MlpPolicy):
    """pi(a|x) = softmax(mlp(x)) over n_skills discrete choices."""

    NET = "logits_net"

    def __init__(self, spec: MlpSpec, rng: np.random.Generator,
                 input_scale: np.ndarray | None = None):
        self.n_skills = spec.output_dim
        super().__init__(spec, rng, input_scale, [])

    def log_probs(self, obs: np.ndarray) -> np.ndarray:
        return _log_softmax(self._forward(obs))

    def act(self, obs: np.ndarray, rng):
        """Sample skill indices; returns (index, log_prob, log_prob_vector).

        Batches work as in GaussianPolicy.act: an (L, d) input with L
        Generators gives L indices, L log-probs and (L, n_skills) rows.
        """
        x, rngs, single = _as_rows(obs, rng)
        logp = _log_softmax(_forward_rows(self._layers, x * self.input_scale))
        if not np.isfinite(logp.sum()):
            raise NumericsError("policy logits are not finite")
        p = np.exp(logp)
        u = np.array([r.random() for r in rngs])
        # searchsorted on each row's non-decreasing cumulative sum
        index = (np.cumsum(p, axis=1) < (u * p.sum(axis=1))[:, None]).sum(axis=1)
        index = np.minimum(index, self.n_skills - 1)
        chosen = logp[np.arange(len(index)), index]
        if single:
            return int(index[0]), float(chosen[0]), logp[0]
        return index, chosen, logp

    _dist = staticmethod(_log_softmax)

    def dist_log_prob(self, logp: np.ndarray, action) -> float | np.ndarray:
        """Log-probability of actions under the log-probability rows `logp`."""
        if logp.ndim == 1:
            return float(logp[int(action)])
        idx = np.asarray(action, dtype=np.intp)
        return logp[np.arange(logp.shape[0]), idx]

    def dist_kl(self, old_dist: np.ndarray, logp: np.ndarray) -> float:
        """Mean KL(old || logp) over the batch."""
        old_logp = np.atleast_2d(old_dist)
        new_logp = np.atleast_2d(logp)
        p_old = np.exp(old_logp)
        return float((p_old * (old_logp - new_logp)).sum(axis=1).mean())

    # -- output-layer gradients ---------------------------------------------

    def _action_batch(self, actions) -> np.ndarray:
        return np.asarray(actions, dtype=np.intp).ravel()

    def _logprob_out_grad(self, z, idx, weights, n):
        gy = -_softmax(z)
        gy[np.arange(n), idx] += 1.0
        gy *= weights[:, None] / n
        return gy, []

    def _kl_out_grad(self, old_dist, z, n):
        return (_softmax(z) - np.exp(np.atleast_2d(old_dist))) / n, []

    def _fisher_out(self, z, n):
        p = _softmax(z)
        return lambda r, _: ((p * r - p * (p * r).sum(axis=1, keepdims=True)) / n, [])
