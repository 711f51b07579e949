"""Tanh multilayer perceptrons with hand-derived gradients.

No autodiff: the package only ever needs gradients of scalar losses
through this fixed architecture (linear output head, tanh hidden
layers), which are written out explicitly below. `rop_forward` is the
forward-mode counterpart (Jacobian-vector product) used by the
Fisher-vector products in the trust-region optimizer.
"""

from __future__ import annotations

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


def forward(spec: MlpSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the network. x is (input_dim,) or (n, input_dim)."""
    return forward_cached(spec, w, x)[0]


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
        z = a @ W.T + b
        if i == last:
            return z, acts
        a = np.tanh(z)
        acts.append(a)
    raise AssertionError("unreachable")


def tanh_derivs(acts: list[np.ndarray]) -> list[np.ndarray]:
    """1 - a^2 for every hidden-layer output (acts[0] is the input)."""
    return [1.0 - a * a for a in acts[1:]]


def backward(spec: MlpSpec, w: np.ndarray, acts: list[np.ndarray], gy: np.ndarray,
             derivs: list[np.ndarray] | None = None) -> np.ndarray:
    """Gradient of sum(gy * output) w.r.t. the flat parameters.

    acts comes from forward_cached on the same (w, x). gy matches the
    output shape; batched inputs accumulate over the batch (sum).
    derivs may pass precomputed tanh derivatives when backward runs
    repeatedly on the same acts.
    """
    layers = unpack_layers(spec, w)
    if derivs is None:
        derivs = tanh_derivs(acts)
    grads = [None] * len(layers)
    delta = np.asarray(gy, dtype=np.float64)
    batched = delta.ndim == 2
    for i in range(len(layers) - 1, -1, -1):
        W, _ = layers[i]
        a_in = acts[i]
        if batched:
            gW = delta.T @ a_in
            gb = delta.sum(axis=0)
        else:
            gW = np.outer(delta, a_in)
            gb = delta
        grads[i] = (gW, gb)
        if i > 0:
            delta = (delta @ W) * derivs[i - 1]
    flat = np.empty(spec.n_params)
    pos = 0
    for gW, gb in grads:
        flat[pos:pos + gW.size] = gW.ravel()
        pos += gW.size
        flat[pos:pos + gb.size] = gb
        pos += gb.size
    return flat


def rop_forward(spec: MlpSpec, w: np.ndarray, v: np.ndarray, acts: list[np.ndarray],
                derivs: list[np.ndarray] | None = None) -> np.ndarray:
    """Directional derivative of the output along parameter direction v.

    Forward-mode pass reusing acts from forward_cached; returns
    (J @ v) with the same shape as the output.
    """
    layers = unpack_layers(spec, w)
    vlayers = unpack_layers(spec, np.asarray(v, dtype=np.float64))
    if derivs is None:
        derivs = tanh_derivs(acts)
    r = None  # derivative of the current layer output along v
    last = len(layers) - 1
    for i, ((W, _), (Vw, vb)) in enumerate(zip(layers, vlayers)):
        a_in = acts[i]
        rz = a_in @ Vw.T + vb
        if r is not None:
            rz = rz + r @ W.T
        if i == last:
            return rz
        r = rz * derivs[i]
    raise AssertionError("unreachable")

