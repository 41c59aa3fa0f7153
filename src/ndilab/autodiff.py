"""Dense tanh networks on numpy arrays: the layer tape, its parameter
gradient, spectral normalization, and an adaptive-moment optimizer.

``Mlp.forward`` returns the layer tape: the input followed by every layer's
activation. The module-level ``backward(net, tape, g)`` applies each layer's
vector-Jacobian product to the tape and returns the gradient of the network's
flat parameter vector; ``input_grad(net, tape, g)`` returns that of its
input. Each ``Mlp`` keeps all its parameters in one flat vector
(``Mlp.flat``); the per-layer weights and biases are views into it, so an
optimizer updates a whole network in one call. ``MlpStack`` runs several
same-width networks through the same tape loop, ``backward`` and
``input_grad``, as stacked arrays. Losses (soft actor-critic, MADE
likelihood, sliced score matching) are written out on arrays by their
callers, which apply these products in a fixed order, so same-seed runs are
byte-identical. Values and gradients are float64 numpy arrays throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


# ---------------------------------------------------------------------------
# Multilayer perceptron with optional spectral normalization
# ---------------------------------------------------------------------------


def spectral_normalize(weight: Array, n_power_iterations: int, u: Array | None = None):
    """Estimate the top singular value by power iteration and divide it out.

    Returns ``(effective_weight, sigma, u)`` where ``u`` is the persistent
    left iteration vector for warm-starting the next call.
    """
    if n_power_iterations < 1:
        raise ValueError("n_power_iterations must be >= 1")
    W = np.asarray(weight, dtype=np.float64)
    if u is None:
        rng = np.random.default_rng(0)
        u = rng.standard_normal(W.shape[0])
        u /= np.linalg.norm(u) + 1e-12
    for _ in range(n_power_iterations):
        v = W.T @ u
        v /= np.linalg.norm(v) + 1e-12
        u = W @ v
        u /= np.linalg.norm(u) + 1e-12
    sigma = float(u @ W @ v)
    return W / max(sigma, 1e-12), sigma, u


def param_count(widths: list[int]) -> int:
    """Length of ``Mlp.flat`` for a network of these widths."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths[:-1], widths[1:]))


@dataclass
class Layer:
    weight: Array            # (out, in)
    bias: Array              # (out,)
    u: Array | None = None   # persistent power-iteration vector
    sigma: float = 1.0       # current top-singular-value estimate
    mask: Array | None = None  # fixed 0/1 connectivity, (out, in)


class Mlp:
    """Dense tanh network. Hidden layers use tanh; the output layer is linear.

    All weights and biases live in one flat vector ``flat`` (layer by layer,
    weight then bias, each C-ordered); ``Layer.weight`` and ``Layer.bias``
    are views into it, so in-place writes to either show up in both.

    ``masks`` (one (out, in) 0/1 array per layer) hard-zero connections, as
    in a masked autoregressive network. With ``spectral_norm`` enabled every
    layer's (masked) weight is divided by a power-iteration estimate of its
    top singular value; the estimate is refreshed once per optimizer step
    (plus a warm start at construction).

    ``flat`` may supply the storage: a float64 vector of
    ``param_count(widths)`` entries, which becomes ``self.flat`` and is
    overwritten with the initial parameters. Its owner can then update the
    network together with other arrays that share its buffer.
    """

    def __init__(self, widths: list[int], seed: int = 0, spectral_norm: bool = False,
                 masks: list[Array] | None = None, flat: Array | None = None):
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        if min(widths) < 1:
            raise ValueError(f"layer widths must be >= 1, got {list(widths)}")
        self.widths = list(widths)
        self.spectral_norm = spectral_norm
        rng = np.random.default_rng(seed)
        pairs = list(zip(widths[:-1], widths[1:]))
        if flat is None:
            flat = np.zeros(param_count(widths))
        elif flat.shape != (param_count(widths),) or flat.dtype != np.float64:
            raise ValueError(f"flat storage must be float64 of shape {(param_count(widths),)}")
        else:
            flat[...] = 0.0
        self.flat = flat
        self.layers: list[Layer] = []
        start = 0
        for i, (fan_in, fan_out) in enumerate(pairs):
            scale = 1.0 / np.sqrt(fan_in)
            W = self.flat[start:start + fan_out * fan_in].reshape(fan_out, fan_in)
            W[...] = rng.uniform(-scale, scale, size=(fan_out, fan_in))
            start += fan_out * fan_in
            b = self.flat[start:start + fan_out]
            start += fan_out
            mask = None if masks is None else masks[i]
            self.layers.append(Layer(W, b, mask=mask))
        if spectral_norm:
            self.refresh_spectral_norm(n_power_iterations=10)

    def params(self) -> list[Array]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def set_params(self, arrays: list[Array]) -> None:
        """Copy ``arrays`` (in ``params()`` order) into the network; the count
        and every shape must match exactly."""
        targets = self.params()
        if len(arrays) != len(targets):
            raise ValueError(f"expected {len(targets)} arrays, got {len(arrays)}")
        for k, (dst, src) in enumerate(zip(targets, arrays)):
            if np.shape(src) != dst.shape:
                raise ValueError(f"array {k} has shape {np.shape(src)}, expected {dst.shape}")
        for dst, src in zip(targets, arrays):
            dst[...] = src

    def refresh_spectral_norm(self, n_power_iterations: int = 1) -> None:
        if not self.spectral_norm:
            return
        for layer in self.layers:
            W = layer.weight if layer.mask is None else layer.mask * layer.weight
            _, sigma, u = spectral_normalize(W, n_power_iterations, layer.u)
            layer.sigma = max(sigma, 1e-12)
            layer.u = u

    def weight(self, i: int) -> Array:
        """Layer ``i``'s effective weight as the forward pass uses it: masked,
        then multiplied by the inverse spectral-norm estimate."""
        layer = self.layers[i]
        W = layer.weight
        if layer.mask is not None:
            W = W * layer.mask
        if self.spectral_norm:
            W = W * (1.0 / layer.sigma)
        return W

    def weights(self) -> list[Array]:
        """Every layer's effective weight."""
        return [self.weight(i) for i in range(len(self.layers))]

    def forward(self, x, weights: list[Array] | None = None) -> list[Array]:
        """The layer tape: the (batch, in) input followed by every layer's
        activation. ``x`` is (batch, in) or (in,). ``weights`` may supply
        ``weights()``, so that a caller running several passes at one
        parameter setting forms them once."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim == 1:
            h = h.reshape((1, -1))
        if h.shape[1] != self.widths[0]:
            raise ValueError(f"input width {h.shape[1]} != expected {self.widths[0]}")
        if weights is None:
            weights = self.weights()
        return _layer_tape(h, weights, [layer.bias for layer in self.layers])

    def weight_vjp(self, i: int, g: Array) -> Array:
        """The gradient of layer ``i``'s stored weight from a gradient ``g`` of
        its effective weight: the spectral-norm factor, then the mask."""
        layer = self.layers[i]
        if self.spectral_norm:
            g = g * (1.0 / layer.sigma)
        if layer.mask is not None:
            g = g * layer.mask
        return g

    def __call__(self, x) -> Array:
        """The network's output for ``x``."""
        return self.forward(x)[-1]


def _layer_tape(h: Array, weights: list[Array], biases: list[Array]) -> list[Array]:
    """``h`` and every layer's activation, on 2-D or stacked ``(k, ., .)`` arrays."""
    tape = [h]
    for i, (W, b) in enumerate(zip(weights, biases)):
        h = h @ W.mT
        h += b
        if i < len(weights) - 1:
            np.tanh(h, out=h)
        tape.append(h)
    return tape


def backward(net: Mlp | MlpStack, tape: list[Array], g: Array) -> Array:
    """Gradient of ``net.flat`` (in its layout) of ``sum(g * output)`` for the
    ``net.forward`` result ``tape``, with the parameters unchanged since it
    was taken. No input gradient is formed (see ``input_grad``). Per layer:
    the pre-activation gradient ``g * (1 - z**2)`` (no factor on the linear
    output layer), the weight gradient ``(h.T @ local).T`` through
    ``weight_vjp``, the bias gradient summed over the batch, and ``local @ W``
    for the layer below. For an ``MlpStack`` row j of the ``(k, n)`` result
    is ``backward`` of net j.
    """
    n = len(tape) - 1
    grads: list[Array] = [None] * (2 * n)
    for i in reversed(range(n)):
        h, z = tape[i], tape[i + 1]
        local = g * (1.0 - z ** 2) if i < n - 1 else g
        grads[2 * i] = net.weight_vjp(i, (h.mT @ local).mT).reshape(*h.shape[:-2], -1)
        grads[2 * i + 1] = local.sum(axis=-2)
        if i > 0:
            g = local @ net.weight(i)
    return np.concatenate(grads, axis=-1)


def input_grad(net: Mlp | MlpStack, tape: list[Array], g: Array) -> Array:
    """Gradient of the input of ``sum(g * output)`` for the ``net.forward``
    result ``tape``: per layer, ``local @ W`` with ``local`` as in ``backward``."""
    n = len(tape) - 1
    for i in reversed(range(n)):
        local = g * (1.0 - tape[i + 1] ** 2) if i < n - 1 else g
        g = local @ net.weight(i)
    return g


class MlpStack:
    """k plain ``Mlp``s of the same widths, run as one stacked network.

    ``flat`` is one ``(k, n)`` array whose rows are the nets' ``flat``
    vectors, so ``nets[j].flat`` and its layer weights and biases are views
    into it, and one optimizer step or one in-place op updates all k nets;
    ``weights`` and ``biases`` are its ``(k, out, in)`` and ``(k, 1, out)``
    layer views. Passes take and give ``(k, batch, width)`` arrays. numpy runs
    a stacked matmul as one product per slice, so slice j of every pass is
    byte-identical to the same pass on ``nets[j]``.
    """

    def __init__(self, widths: list[int], seeds: tuple):
        self.flat = np.zeros((len(seeds), param_count(widths)))
        self.nets = [Mlp(widths, seed=seed, flat=row) for seed, row in zip(seeds, self.flat)]
        self.weights, self.biases, start = [], [], 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.weights.append(self.flat[:, start:start + fan_out * fan_in]
                                .reshape(-1, fan_out, fan_in))
            start += fan_out * fan_in
            self.biases.append(self.flat[:, None, start:start + fan_out])
            start += fan_out

    def weight(self, i: int) -> Array:
        """Layer ``i``'s ``(k, out, in)`` weight: the nets are plain."""
        return self.weights[i]

    def weight_vjp(self, i: int, g: Array) -> Array:
        """``g`` unchanged: a plain net's weight is its effective weight."""
        return g

    def forward(self, x: Array) -> list[Array]:
        """The stacked layer tape of a ``(k, batch, in)`` input: slice j is
        ``nets[j].forward(x[j])``."""
        if x.ndim != 3 or x.shape[0] != len(self.flat) or x.shape[2] != self.nets[0].widths[0]:
            raise ValueError(f"input shape {x.shape} != ({len(self.flat)}, batch, "
                             f"{self.nets[0].widths[0]})")
        return _layer_tape(x, self.weights, self.biases)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# a gradient entry below this magnitude has a finite float64 square
GRAD_BOUND = float(np.sqrt(np.finfo(np.float64).max))


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state of one parameter
    array; the moments are allocated by the first step."""

    lr: float = 1e-4
    step_count: int = 0
    m: Array | None = None
    v: Array | None = None


def adam_step(state: AdamState, param: Array, grad: Array) -> None:
    """One in-place update of ``param``; ``grad`` must have its shape, and
    entries below ``GRAD_BOUND`` (else ``FloatingPointError``, before any update)."""
    if param.shape != grad.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.abs(grad).max() < GRAD_BOUND:   # NaN fails too
        raise FloatingPointError("non-finite or overflowing gradient in adam_step")
    if state.m is None:
        state.m, state.v = np.zeros_like(param), np.zeros_like(param)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad ** 2
    param -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
