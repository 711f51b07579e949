"""Stochastic policy heads over tanh MLPs.

GaussianPolicy: diagonal Gaussian with a state-independent log-std
vector, used for primitive (continuous) actions. CategoricalPolicy:
softmax over skill indices. Both expose exactly what the trust-region
optimizer needs: sampling, log densities, weighted log-prob gradients,
closed-form KL against cached old distributions, and Fisher-vector
products (Gauss-Newton form, exact for the KL Hessian at the cached
parameters).

The gradient consumes the forward pass it is given (forward_batch keeps
only the activations, which nets.backward_consuming spends), while the
Fisher-vector product keeps its forward, tanh derivatives and workspace
for every application.

Policies optionally carry a fixed per-input scale vector applied before
the network; raw observations keep their physical units while the net
sees O(1) inputs.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .nets import (MlpSpec, backward, backward_consuming, forward_cached, init_mlp_params,
                   rop_forward, tanh_derivs, unpack_layers, workspace)
from .params import NumericsError, ParamVector, ShapeError


def _forward_rows(layers, x: np.ndarray) -> np.ndarray:
    """Forward of an (L, d) batch over cached (W, bias column) views, one
    stacked matrix-vector product per row and layer, a lone row included.

    A row comes out bit for bit as the 1-D product W @ x gives it; the
    matrix product x @ W.T sums in another order and would not.
    """
    a = x[:, :, None]
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        a = W @ a
        a += b
        if i != last:
            np.tanh(a, out=a)
    return a.reshape(len(x), -1)


def _rows(obs, noise, row_shape) -> tuple[np.ndarray, np.ndarray]:
    """act's input as (L, d) float rows and its L noise rows, checked to
    match."""
    obs = np.asarray(obs, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if obs.ndim != 2 or noise.shape != (len(obs), *row_shape):
        raise ShapeError("act takes (L, d) rows and one noise row per row")
    return obs, noise


LOG_2PI = float(np.log(2.0 * np.pi))

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
INIT_LOG_STD = -0.5


NetForward = namedtuple("NetForward", "w n out dist acts")


class _MlpPolicy:
    """Plumbing shared by both heads: a tanh MLP in segment NET, then the
    head's own segments. A head adds act and the dist_* math, and its
    output-layer gradients return (gradient at the network output,
    gradients of the head's own segments).

    act takes its randomness as noise rows: noise(rng, n) draws n steps'
    worth from a Generator, one row per step, the same values in the
    same order as n draws of one row each, and noise_rows turns drawn
    rows of any leading shape into the rows of shape row_shape that act
    takes. The base class's are the drawn rows."""

    NET = ""

    def noise_rows(self, noise: np.ndarray) -> np.ndarray:
        return noise

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
        self._layers = [(W, b[:, None])
                        for W, b in unpack_layers(self.spec, self.params.segment(self.NET))]

    def __setstate__(self, state):
        # unpickled views are copies; make them alias the parameter buffer again
        self.__dict__.update(state)
        self._rebuild_views()

    def flat(self) -> np.ndarray:
        return self.params.values.copy()

    def set_flat(self, values: np.ndarray) -> None:
        self.params.replace_values(values)

    def forward_batch(self, obs: np.ndarray) -> NetForward:
        """The network run over (n, d) rows at a snapshot w of the current
        parameters: n, the output and its distribution, and the
        activations. grad_logprob_weighted spends it on its pass."""
        w = self.params.segment(self.NET).copy()
        x = np.asarray(obs, dtype=np.float64) * self.input_scale
        out, acts = forward_cached(self.spec, w, x)
        return NetForward(w, len(x), out, self._dist(out), acts)

    def dist_params(self, obs: np.ndarray):
        """Cacheable distribution parameters of (n, d) rows."""
        x = np.asarray(obs, dtype=np.float64) * self.input_scale
        return self._dist(forward_cached(self.spec, self.params.segment(self.NET), x)[0])

    def old_dist(self, rows: np.ndarray):
        """The old distribution dist_kl takes, from the per-row
        distribution output of act."""
        return rows

    def grad_logprob_weighted(self, fwd: NetForward, actions, weights) -> np.ndarray:
        """Gradient of mean_i(weights_i * log pi(a_i|x_i)) over all
        parameters, at the rows and parameters of fwd (from forward_batch).

        The pass consumes fwd: its hidden activations are spent, and fwd
        serves no other pass afterwards. Its input rows and output stay."""
        w, n, out, _, acts = fwd
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if len(actions) != n or weights.shape[0] != n or n == 0:
            raise ShapeError("batch arrays must be nonempty and aligned")
        gy, g_head = self._logprob_out_grad(out, actions, weights, n)
        return np.concatenate([backward_consuming(self.spec, w, acts, gy), *g_head])

    def fvp_builder(self, obs: np.ndarray, damping: float):
        """Closure computing (F + damping I) v at the current parameters.

        The forward pass and the per-row buffers are made once; each
        application (conjugate gradient) pays for the directional passes
        only and returns a fresh array. The parameters are snapshotted, so
        the closure stays valid if the policy is updated afterwards.
        """
        w, n, out, _, acts = self.forward_batch(obs)
        derivs = tanh_derivs(acts)
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


class GaussianPolicy(_MlpPolicy):
    """pi(a|x) = N(mlp(x), diag(exp(log_std))^2), log_std clamped to [-5, 2]."""

    NET = "mean_net"

    def __init__(self, spec: MlpSpec, rng: np.random.Generator,
                 input_scale: np.ndarray | None = None):
        self.action_dim = spec.output_dim
        self.row_shape = (spec.output_dim + 1,)
        super().__init__(spec, rng, input_scale,
                         [("log_std", np.full(spec.output_dim, INIT_LOG_STD))])

    def _rebuild_views(self):
        super()._rebuild_views()
        self.log_std = self.params.segment("log_std")

    def set_flat(self, values: np.ndarray) -> None:
        super().set_flat(values)
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    def noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n steps' standard normal rows, (n, action_dim)."""
        return rng.standard_normal((n, self.action_dim))

    def noise_rows(self, eps: np.ndarray) -> np.ndarray:
        """act's rows for standard normal rows eps (..., action_dim), at the
        current parameters: sigma * eps, then the log-density of the action
        it makes. Neither depends on the observation."""
        eps = np.ascontiguousarray(eps, dtype=np.float64)
        rows = np.empty((*eps.shape[:-1], self.action_dim + 1))
        np.multiply(np.exp(self.log_std), eps, out=rows[..., :-1])
        # eps @ eps per C-ordered row as a stacked product: a row sum would use another order
        quad = np.matmul(eps[..., None, :], eps[..., :, None])[..., 0, 0]
        rows[..., -1] = -0.5 * quad - float(self.log_std.sum()) - 0.5 * self.action_dim * LOG_2PI
        return rows

    def act(self, obs: np.ndarray, rows):
        """Sample actions for (L, d) observation rows, row i with the noise
        row rows[i] from noise_rows: the mean plus sigma * eps. Returns
        (L, action_dim) actions, L log-probs and (L, action_dim) means,
        each row equal bit for bit to that row acted on as a one-row batch.
        """
        obs, rows = _rows(obs, rows, self.row_shape)
        mu = _forward_rows(self._layers, obs * self.input_scale)
        if not np.isfinite(mu.sum()):
            raise NumericsError("policy mean is not finite")
        return mu + rows[:, :-1], rows[:, -1].copy(), mu

    def _dist(self, mu: np.ndarray):
        """Cacheable distribution parameters: (means, log_std copy)."""
        return mu, self.log_std.copy()

    old_dist = _dist  # act's rows are the means

    def dist_log_prob(self, dist, action: np.ndarray) -> np.ndarray:
        """Log densities of (n, action_dim) actions under distribution
        parameters `dist`."""
        mu, log_std = dist
        z = (np.asarray(action, dtype=np.float64) - mu) * np.exp(-log_std)
        quad = (z * z).sum(axis=-1)
        return -0.5 * quad - log_std.sum() - 0.5 * self.action_dim * LOG_2PI

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

    def _logprob_out_grad(self, mu, actions, weights, n):
        inv_var = np.exp(-2.0 * self.log_std)
        diff = actions - mu
        # d logp / d mu = (a - mu) / sigma^2
        gy = (weights[:, None] * diff * inv_var) / n
        # d logp / d log_std = ((a-mu)/sigma)^2 - 1
        return gy, [(weights[:, None] * (diff * diff * inv_var - 1.0)).sum(axis=0) / n]

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

    row_shape = ()

    def noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n steps' uniforms on [0, 1), (n,)."""
        return rng.random(n)

    def act(self, obs: np.ndarray, u):
        """Sample skill indices as GaussianPolicy.act samples actions: (L, d)
        rows with L uniforms u give L indices, L log-probs and the
        (L, n_skills) log-probability rows.
        """
        obs, u = _rows(obs, u, self.row_shape)
        logp = _log_softmax(_forward_rows(self._layers, obs * self.input_scale))
        if not np.isfinite(logp.sum()):
            raise NumericsError("policy logits are not finite")
        p = np.exp(logp)
        # searchsorted on each row's non-decreasing cumulative sum
        index = (np.cumsum(p, axis=1) < (u * p.sum(axis=1))[:, None]).sum(axis=1)
        index = np.minimum(index, self.n_skills - 1)
        chosen = logp[np.arange(len(index)), index]
        return index, chosen, logp

    _dist = staticmethod(_log_softmax)

    def dist_log_prob(self, logp: np.ndarray, action) -> np.ndarray:
        """Log-probabilities of n actions under the (n, n_skills)
        log-probability rows `logp`."""
        idx = np.asarray(action, dtype=np.intp)
        return logp[np.arange(logp.shape[0]), idx]

    def dist_kl(self, old_dist: np.ndarray, logp: np.ndarray) -> float:
        """Mean KL(old || logp) over the batch."""
        p_old = np.exp(old_dist)
        return float((p_old * (old_dist - logp)).sum(axis=1).mean())

    # -- output-layer gradients ---------------------------------------------

    def _logprob_out_grad(self, z, idx, weights, n):
        gy = -_softmax(z)
        gy[np.arange(n), idx] += 1.0
        gy *= weights[:, None] / n
        return gy, []

    def _fisher_out(self, z, n):
        p = _softmax(z)
        return lambda r, _: ((p * r - p * (p * r).sum(axis=1, keepdims=True)) / n, [])
