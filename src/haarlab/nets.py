"""Tanh multilayer perceptrons with hand-derived gradients.

No autodiff: the package only ever needs gradients of scalar losses
through this fixed architecture (linear output head, tanh hidden
layers), which are written out explicitly below. `rop_forward` is the
forward-mode counterpart (Jacobian-vector product) used by the
Fisher-vector products in the trust-region optimizer.

Every pass takes a batch of (n, input_dim) rows and computes in place.
rop_forward and backward keep their per-row intermediates in a
workspace(), which repeated calls (the Fisher-vector products) can
share. backward_consuming, the gradient pass of one forward, spends that
forward's activations instead: each turns into its tanh derivative and
then holds a delta, so it allocates one buffer of n rows beside them.
The others allocate only what they return or keep. In-place operations
give the values of their allocating forms, so no output bit moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ShapeError


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    hidden: tuple[int, ...] = (32, 32)
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        dims = (self.input_dim, *self.hidden, self.output_dim)
        if any(d < 1 for d in dims):
            raise ShapeError(f"all MLP dimensions must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output."""
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @property
    def n_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_dims)


def init_mlp_params(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, flat packed."""
    parts = []
    for fan_in, fan_out in spec.layer_dims:
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def unpack_layers(spec: MlpSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W of shape (out, in), b of shape (out,)) per layer."""
    if w.size != spec.n_params:
        raise ShapeError(f"expected {spec.n_params} params, got {w.size}")
    layers = []
    pos = 0
    for fan_in, fan_out in spec.layer_dims:
        W = w[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in)
        pos += fan_in * fan_out
        b = w[pos:pos + fan_out]
        pos += fan_out
        layers.append((W, b))
    return layers


def forward_cached(spec: MlpSpec, w: np.ndarray, x: np.ndarray):
    """Forward pass keeping every layer's input for backprop.

    Returns (output, acts) where acts[0] is the input and acts[i] the
    output of hidden layer i.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != spec.input_dim:
        raise ShapeError(f"input has dim {x.shape[-1]}, spec expects {spec.input_dim}")
    layers = unpack_layers(spec, w)
    acts = [x]
    a = x
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        z = a @ W.T
        z += b
        if i == last:
            return z, acts
        a = np.tanh(z, out=z)
        acts.append(a)
    raise AssertionError("unreachable")


def tanh_derivs(acts: list[np.ndarray]) -> list[np.ndarray]:
    """1 - a^2 for every hidden-layer output (acts[0] is the input)."""
    return [_tanh_deriv(a.copy()) for a in acts[1:]]


def _tanh_deriv(a: np.ndarray) -> np.ndarray:
    """1 - a^2 for a tanh output a, written over a."""
    return np.subtract(1.0, np.multiply(a, a, out=a), out=a)


def workspace(spec: MlpSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """rop_forward's and backward's two buffers, each fitting any layer's n rows."""
    size = n * max((*spec.hidden, spec.output_dim))
    return np.empty(size), np.empty(size)


def _view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return buf[:math.prod(shape)].reshape(shape)


def _backward(spec: MlpSpec, w: np.ndarray, acts: list[np.ndarray], gy: np.ndarray,
              propagate) -> np.ndarray:
    """The pass both backward forms share: each layer's gradient from its
    input acts[i] and its delta, then propagate(i, delta, W) for the
    delta of the layer below."""
    layers = unpack_layers(spec, w)
    flat = np.empty(spec.n_params)
    grads = unpack_layers(spec, flat)  # each layer's gradient is written in place
    delta = np.asarray(gy, dtype=np.float64)
    for i in range(len(layers) - 1, -1, -1):
        (W, _), (gW, gb) = layers[i], grads[i]
        np.matmul(delta.T, acts[i], out=gW)
        np.sum(delta, axis=0, out=gb)
        if i > 0:
            delta = propagate(i, delta, W)
    return flat


def backward(spec: MlpSpec, w: np.ndarray, acts: list[np.ndarray], gy: np.ndarray,
             derivs: list[np.ndarray], work) -> np.ndarray:
    """Gradient of sum(gy * output) w.r.t. the flat parameters, summed
    over the n rows, leaving acts as they are.

    acts and derivs come from forward_cached and tanh_derivs on the same
    (w, x); gy has the output's shape (n, output_dim). work, from
    workspace(), holds the back-propagated deltas; gy itself may lie in
    work[0].
    """
    def propagate(i, delta, W):
        # the deltas alternate between the buffers, from work[1] on
        nxt = _view(work[(len(acts) - i) % 2], (len(delta), W.shape[1]))
        return np.multiply(np.matmul(delta, W, out=nxt), derivs[i - 1], out=nxt)

    return _backward(spec, w, acts, gy, propagate)


def backward_consuming(spec: MlpSpec, w: np.ndarray, acts: list[np.ndarray],
                       gy: np.ndarray) -> np.ndarray:
    """backward's gradient, spending the hidden activations acts[1:] of
    forward_cached instead of derivs and a workspace.

    Once a layer's gradient is taken, its input activation turns into its
    tanh derivative in place and then takes the next delta, so the pass
    allocates one buffer of n rows beside acts. acts[1:] hold no
    activations on return.
    """
    spare = np.empty(len(gy) * max(spec.hidden, default=0))

    def propagate(i, delta, W):
        deriv = _tanh_deriv(acts[i])
        return np.multiply(np.matmul(delta, W, out=_view(spare, deriv.shape)), deriv, out=deriv)

    return _backward(spec, w, acts, gy, propagate)


def rop_forward(spec: MlpSpec, w: np.ndarray, v: np.ndarray, acts: list[np.ndarray],
                derivs: list[np.ndarray], work) -> np.ndarray:
    """Directional derivative of the output along parameter direction v.

    Forward-mode pass reusing acts and derivs from forward_cached and
    tanh_derivs; returns (J @ v) with the output's shape (n, output_dim),
    in work[0] of the workspace() given as work.
    """
    layers = unpack_layers(spec, w)
    vlayers = unpack_layers(spec, np.asarray(v, dtype=np.float64))
    r = None  # derivative of the current layer output along v, in work[0]
    last = len(layers) - 1
    for i, (a_in, (W, _), (Vw, vb)) in enumerate(zip(acts, layers, vlayers)):
        shape = (len(a_in), W.shape[0])
        # r @ W.T goes first, into work[1], so that rz can take r's buffer
        rw = None if r is None else np.matmul(r, W.T, out=_view(work[1], shape))
        rz = np.matmul(a_in, Vw.T, out=_view(work[0], shape))
        rz += vb
        if rw is not None:
            rz += rw
        if i == last:
            return rz
        r = np.multiply(rz, derivs[i], out=rz)
    raise AssertionError("unreachable")
