"""Reverse-mode automatic differentiation on numpy arrays, MLPs, spectral
normalization, and an adaptive-moment optimizer.

The engine is deliberately small: it supports exactly the operations that
the density models need (matmul, broadcasted add/sub/mul, tanh/exp/square,
clamping, reductions, log-sum-exp, slicing, reshaping), plus one fused
``dense`` node, ``tanh(h @ W.T + b)``, that every network layer uses. Ops
are called by name (``add(a, b)``, not ``a + b``); slicing a ``Node`` with
``[...]`` is the only operator it defines. Each ``Mlp`` keeps all its
parameters in one flat vector (``Mlp.flat``); the per-layer weights and
biases are views into it, so an optimizer updates a whole network in one
call. Values and gradients are float64 numpy arrays throughout.

Density fitting (score matching, MADE likelihood) runs on the graph. Soft
actor-critic and every value-only network call run on the layer tape
instead: ``Mlp.forward_tape`` keeps each layer's activation as an array and
``Mlp.backward_tape`` applies ``dense``'s VJPs to it. The tape builds no
``Node`` and gives the same bytes as ``Mlp.forward`` and ``backward``.
``MlpStack`` runs the tape of several same-width networks at once, as
stacked arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class Node:
    """One value in the computation graph.

    ``parents`` holds ``(node, vjp)`` pairs where ``vjp`` maps the upstream
    gradient to this parent's gradient contribution.
    """

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(a.value + b.value, (
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ))
    return out


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value - b.value, (
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    ))


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value * b.value, (
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ))


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return Node(a.value @ b.value, (
        (a, lambda g: g @ b.value.T),
        (b, lambda g: a.value.T @ g),
    ))


def tanh(a) -> Node:
    a = as_node(a)
    t = np.tanh(a.value)
    return Node(t, ((a, lambda g: g * (1.0 - t ** 2)),))


def exp(a) -> Node:
    a = as_node(a)
    e = np.exp(a.value)
    return Node(e, ((a, lambda g: g * e),))


def square(a) -> Node:
    a = as_node(a)
    return Node(a.value ** 2, ((a, lambda g: g * 2.0 * a.value),))


def clip(a, lo: float, hi: float) -> Node:
    """Hard clamp; gradient passes only where the input lies inside [lo, hi]."""
    a = as_node(a)
    gate = ((a.value >= lo) & (a.value <= hi)).astype(np.float64)
    return Node(np.clip(a.value, lo, hi), ((a, lambda g: g * gate),))


def nsum(a, axis=None) -> Node:
    a = as_node(a)
    val = a.value.sum(axis=axis)

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.value.shape).copy()

    return Node(val, ((a, vjp),))


def nmean(a, axis=None) -> Node:
    a = as_node(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(nsum(a, axis=axis), 1.0 / n)


def logsumexp(a, axis: int = -1) -> Node:
    a = as_node(a)
    m = a.value.max(axis=axis, keepdims=True)
    s = np.exp(a.value - m).sum(axis=axis, keepdims=True)
    val = np.squeeze(m + np.log(s), axis=axis)
    soft = np.exp(a.value - m) / s

    def vjp(g):
        return np.expand_dims(g, axis) * soft

    return Node(val, ((a, vjp),))


def getitem(a, idx) -> Node:
    a = as_node(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return Node(a.value[idx], ((a, vjp),))


def reshape(a, shape) -> Node:
    a = as_node(a)
    return Node(a.value.reshape(shape), ((a, lambda g: g.reshape(a.value.shape)),))


def dense(h, W, b, activate: bool = True) -> Node:
    """One network layer, ``tanh(h @ W.T + b)`` (no tanh when ``activate`` is
    false), as a single graph node with parents ``(h, W, b)``.

    Value and gradients use the same expressions, in the same order, as the
    ``add(matmul(h, transpose(W)), b)`` -> ``tanh`` chain, so they round
    identically; the pre-activation gradient is computed once per backward
    pass and shared by the three parents.
    """
    h, W, b = as_node(h), as_node(W), as_node(b)
    z = h.value @ W.value.T + b.value
    if activate:
        z = np.tanh(z)
    memo = [None, None]   # (upstream gradient, pre-activation gradient)

    def local(g):
        if memo[0] is not g:
            memo[0], memo[1] = g, (g * (1.0 - z ** 2) if activate else g)
        return memo[1]

    return Node(z, (
        (h, lambda g: local(g) @ W.value),
        (W, lambda g: (h.value.T @ local(g)).T),
        (b, lambda g: _unbroadcast(local(g), b.value.shape)),
    ))


def backward(output: Node) -> None:
    """Accumulate gradients of a scalar output into every reachable node.

    Visits each node exactly once, in reverse topological order. A node's
    first gradient contribution is stored as is and later ones are added,
    so a ``.grad`` may be the same array as another node's ``.grad`` (or a
    view of it): never mutate a ``.grad`` in place.
    """
    if output.value.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {output.value.shape}")
    topo: list[Node] = []
    seen: set[int] = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in topo:
        node.grad = None
    output.grad = np.ones_like(output.value)
    for node in reversed(topo):
        for parent, vjp in node.parents:
            contribution = vjp(node.grad)
            parent.grad = contribution if parent.grad is None else parent.grad + contribution


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

    def effective_weight(self, i: int, weight: Node | None = None) -> Node:
        """Layer ``i``'s weight as the forward pass uses it: masked, then
        divided by the spectral-norm estimate. ``weight`` defaults to the
        stored array wrapped as a constant."""
        layer = self.layers[i]
        W = Node(layer.weight) if weight is None else weight
        if layer.mask is not None:
            W = mul(W, layer.mask)
        if self.spectral_norm:
            W = mul(W, 1.0 / layer.sigma)
        return W

    def forward(self, x, params: list[Node] | None = None) -> Node:
        """Run the network; ``x`` is (batch, in) or (in,).

        ``params`` may supply Node-wrapped parameters so gradients reach them;
        otherwise the raw arrays are wrapped as constants.
        """
        x = as_node(x)
        if x.value.ndim == 1:
            x = reshape(x, (1, -1))
        if x.value.shape[1] != self.widths[0]:
            raise ValueError(f"input width {x.value.shape[1]} != expected {self.widths[0]}")
        if params is None:
            params = [Node(p) for p in self.params()]
        h = x
        n = len(self.layers)
        for i in range(n):
            h = dense(h, self.effective_weight(i, params[2 * i]), params[2 * i + 1],
                      activate=i < n - 1)
        return h

    def weight(self, i: int) -> Array:
        """Layer ``i``'s effective weight as an array, by the same products as
        ``effective_weight``."""
        layer = self.layers[i]
        W = layer.weight
        if layer.mask is not None:
            W = W * layer.mask
        if self.spectral_norm:
            W = W * (1.0 / layer.sigma)
        return W

    def forward_tape(self, x) -> list[Array]:
        """The layer tape: the (batch, in) input followed by every layer's
        activation, computed on arrays with ``dense``'s expressions, so each
        entry is byte-identical to the value ``forward`` gives. ``x`` is
        (batch, in) or (in,)."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim == 1:
            h = h.reshape((1, -1))
        if h.shape[1] != self.widths[0]:
            raise ValueError(f"input width {h.shape[1]} != expected {self.widths[0]}")
        tape = [h]
        n = len(self.layers)
        for i in range(n):
            h = h @ self.weight(i).T
            h += self.layers[i].bias
            if i < n - 1:
                np.tanh(h, out=h)
            tape.append(h)
        return tape

    def backward_tape(self, tape: list[Array], g: Array) -> Array:
        """Gradient of ``flat`` (in its layout) of ``sum(g * output)`` for the
        ``forward_tape`` result ``tape``, with the parameters unchanged since
        it was taken; no input gradient is formed (see ``MlpStack.input_grad``).
        Each step is the VJP that ``dense`` and the mask and spectral-norm
        ``mul`` nodes apply, so the result is byte-identical to ``backward``
        on the ``forward`` graph.
        """
        n = len(self.layers)
        grads: list[Array] = [None] * (2 * n)
        for i in reversed(range(n)):
            layer, h, z = self.layers[i], tape[i], tape[i + 1]
            local = g * (1.0 - z ** 2) if i < n - 1 else g
            gW = (h.T @ local).T
            if self.spectral_norm:
                gW = gW * (1.0 / layer.sigma)
            if layer.mask is not None:
                gW = gW * layer.mask
            grads[2 * i] = gW.reshape(-1)
            grads[2 * i + 1] = _unbroadcast(local, layer.bias.shape)
            if i > 0:
                g = local @ self.weight(i)
        return np.concatenate(grads)

    def __call__(self, x) -> Array:
        """The network's output for ``x``, as an array (no graph)."""
        return self.forward_tape(x)[-1]


class MlpStack:
    """k plain ``Mlp``s of the same widths, run as one stacked network.

    ``flat`` is one ``(k, n)`` array whose rows are the nets' ``flat``
    vectors, so ``nets[j].flat`` and its layer weights and biases are views
    into it, and one optimizer step or one in-place op updates all k nets.
    Passes take and give ``(k, batch, width)`` arrays. numpy runs a stacked
    matmul as one product per slice, so slice j of every pass is
    byte-identical to the same step of ``nets[j].forward_tape`` or
    ``backward_tape``.
    """

    def __init__(self, widths: list[int], seeds: tuple):
        self.flat = np.zeros((len(seeds), param_count(widths)))
        self.nets = [Mlp(widths, seed=seed, flat=row) for seed, row in zip(seeds, self.flat)]
        self.weights, self.biases = self._layer_views(self.flat)

    def _layer_views(self, flat: Array) -> tuple[list[Array], list[Array]]:
        """Per-layer views of a ``(k, n)`` array in ``flat``'s layout: the
        ``(k, out, in)`` weights and the ``(k, 1, out)`` biases."""
        k, widths = len(flat), self.nets[0].widths
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            weights.append(flat[:, start:start + fan_out * fan_in].reshape(k, fan_out, fan_in))
            start += fan_out * fan_in
            biases.append(flat[:, None, start:start + fan_out])
            start += fan_out
        return weights, biases

    def forward_tape(self, x: Array) -> list[Array]:
        """The stacked layer tape of a ``(k, batch, in)`` input: slice j is
        ``nets[j].forward_tape(x[j])``."""
        if x.ndim != 3 or x.shape[0] != len(self.flat) or x.shape[2] != self.nets[0].widths[0]:
            raise ValueError(f"input shape {x.shape} != ({len(self.flat)}, batch, "
                             f"{self.nets[0].widths[0]})")
        tape, h, n = [x], x, len(self.weights)
        for i in range(n):
            h = h @ self.weights[i].transpose(0, 2, 1)
            h += self.biases[i]
            if i < n - 1:
                np.tanh(h, out=h)
            tape.append(h)
        return tape

    def param_grad(self, tape: list[Array], g: Array) -> Array:
        """Gradient of ``flat``, as a ``(k, n)`` array, of ``sum(g * output)``
        for the ``forward_tape`` result ``tape``: row j is
        ``nets[j].backward_tape(tape_j, g[j])``. No input gradient."""
        grad = np.empty_like(self.flat)
        g_weights, g_biases = self._layer_views(grad)
        for i in reversed(range(len(self.weights))):
            h, z = tape[i], tape[i + 1]
            local = g * (1.0 - z ** 2) if i < len(self.weights) - 1 else g
            g_weights[i][...] = (h.transpose(0, 2, 1) @ local).transpose(0, 2, 1)
            g_biases[i][...] = local.sum(axis=1, keepdims=True)
            if i > 0:
                g = local @ self.weights[i]
        return grad

    def input_grad(self, tape: list[Array], g: Array) -> Array:
        """Gradient of the ``(k, batch, in)`` input, with no parameter
        gradient: slice j is the input gradient ``backward`` gives on
        ``nets[j].forward``'s graph, by ``dense``'s input VJP."""
        for i in reversed(range(len(self.weights))):
            local = g * (1.0 - tape[i + 1] ** 2) if i < len(self.weights) - 1 else g
            g = local @ self.weights[i]
        return g


def transpose(a) -> Node:
    a = as_node(a)
    return Node(a.value.T, ((a, lambda g: g.T),))


# ---------------------------------------------------------------------------
# Optimizer and gradient checking
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state of one parameter
    array; the moments are allocated by the first step."""

    lr: float = 1e-4
    step_count: int = 0
    m: Array | None = None
    v: Array | None = None


def adam_step(state: AdamState, param: Array, grad: Array) -> None:
    """One in-place update of ``param``; ``grad`` must have its shape."""
    if param.shape != grad.shape:
        raise ValueError("parameter/gradient shape mismatch")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in adam_step")
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


def collect_grads(param_nodes: list[Node]) -> list[Array]:
    return [p.grad if p.grad is not None else np.zeros_like(p.value) for p in param_nodes]


def flat_grads(param_nodes: list[Node]) -> Array:
    """``collect_grads`` concatenated in ``params()`` order: the gradient of
    ``Mlp.flat`` when ``param_nodes`` wrap ``Mlp.params()``."""
    return np.concatenate([g.reshape(-1) for g in collect_grads(param_nodes)])


def grad_check(fn, params: list[Array], eps: float = 1e-6) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``fn`` maps a list of Node-wrapped parameters to a scalar Node.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    nodes = [Node(p.copy()) for p in params]
    out = fn(nodes)
    backward(out)
    analytic = collect_grads(nodes)
    worst = 0.0
    for k, p in enumerate(params):
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn([Node(q) for q in params]).value.item()
            flat[i] = orig - eps
            lo = fn([Node(q) for q in params]).value.item()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            an = analytic[k].reshape(-1)[i]
            err = abs(an - fd) / (abs(an) + abs(fd) + 1e-12)
            worst = max(worst, err)
    return worst
