"""The reverse-mode graph engine, kept as the bit-parity reference for the
array-written losses in ``ndilab``.

Every network pass and loss in the package is written out on arrays over the
layer tape. This module rebuilds them as graphs of ``Node`` values (one node
per operation, ops called by name: ``add(a, b)``, not ``a + b``) and
differentiates them with ``backward``, which visits each node once in
reverse topological order and sums the gradient contributions to a node in
that order. The parity tests check that the array versions give the same
bytes: values, gradients and the parameters after optimizer steps.

Also here: the finite-difference gradient check, the MADE mask-sensitivity
probe, and the analytic quadratic energy that the density tests use.
"""
from __future__ import annotations

import math

import numpy as np

from ndilab.autodiff import AdamState, adam_step
from ndilab.density import LOG_SCALE_MAX, LOG_SCALE_MIN, fd_hvp

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


def transpose(a) -> Node:
    a = as_node(a)
    return Node(a.value.T, ((a, lambda g: g.T),))


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


# ---------------------------------------------------------------------------
# Networks and density losses as graphs
# ---------------------------------------------------------------------------


def effective_weight(net, i: int, weight: Node | None = None) -> Node:
    """Layer ``i``'s weight as the forward pass uses it: masked, then
    divided by the spectral-norm estimate. ``weight`` defaults to the
    stored array wrapped as a constant."""
    layer = net.layers[i]
    W = Node(layer.weight) if weight is None else weight
    if layer.mask is not None:
        W = mul(W, layer.mask)
    if net.spectral_norm:
        W = mul(W, 1.0 / layer.sigma)
    return W


def mlp_forward(net, x, params: list[Node] | None = None) -> Node:
    """``net``'s output as a graph; ``x`` is (batch, in) or (in,).

    ``params`` may supply Node-wrapped parameters so gradients reach them;
    otherwise the raw arrays are wrapped as constants.
    """
    x = as_node(x)
    if x.value.ndim == 1:
        x = reshape(x, (1, -1))
    if x.value.shape[1] != net.widths[0]:
        raise ValueError(f"input width {x.value.shape[1]} != expected {net.widths[0]}")
    if params is None:
        params = [Node(p) for p in net.params()]
    h = x
    n = len(net.layers)
    for i in range(n):
        h = dense(h, effective_weight(net, i, params[2 * i]), params[2 * i + 1],
                  activate=i < n - 1)
    return h


def made_heads(model, Z: Array, params: list[Node] | None = None) -> tuple[Node, Node, Node]:
    """``MadeModel.heads`` as graph nodes."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if Z.shape[1] != model.dim:
        raise ValueError(f"input dim {Z.shape[1]} != model dim {model.dim}")
    h = mlp_forward(model.net, Z, params)
    K = model.n_components
    out = reshape(h, (Z.shape[0], model.dim, 3 * K))
    logits = out[:, :, 0:K]
    means = out[:, :, K:2 * K]
    log_scales = clip(out[:, :, 2 * K:3 * K], LOG_SCALE_MIN, LOG_SCALE_MAX)
    log_weights = sub(logits, reshape(logsumexp(logits, axis=2), (Z.shape[0], model.dim, 1)))
    return log_weights, means, log_scales


def made_log_density_batch(model, Z: Array, params: list[Node] | None = None) -> Node:
    """``MadeModel.log_density_batch`` as a graph node."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    log_w, mu, log_s = made_heads(model, Z, params)
    x = Z[:, :, None]
    z = mul(sub(x, mu), exp(mul(log_s, -1.0)))
    comp = sub(mul(square(z), -0.5), add(log_s, 0.5 * math.log(2 * math.pi)))
    per_coord = logsumexp(add(log_w, comp), axis=2)  # (B, dim)
    return nsum(per_coord, axis=1)


def made_nll(model, batch: Array, params: list[Node]) -> Node:
    return mul(nmean(made_log_density_batch(model, batch, params)), -1.0)


def ebm_value_and_input_grad(model, Z: Array,
                             params: list[Node] | None = None) -> tuple[Node, Node]:
    """``EbmModel.value_and_input_grad`` as graph nodes: the input gradient
    is an explicit forward graph (the chain rule written out layer by
    layer), so parameter gradients flow through it."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    net = model.net
    if params is None:
        params = [Node(p) for p in net.params()]
    n = len(net.layers)
    h: Node = Node(Z)
    act_derivs: list[Node] = []
    for i in range(n):
        h = dense(h, effective_weight(net, i, params[2 * i]), params[2 * i + 1],
                  activate=i < n - 1)
        if i < n - 1:
            act_derivs.append(sub(1.0, square(h)))
    g = Node(np.ones((Z.shape[0], 1)))
    for i in reversed(range(n)):
        g = matmul(g, effective_weight(net, i, params[2 * i]))
        if i > 0:
            g = mul(g, act_derivs[i - 1])
    return h, g


def ssm_loss(model, batch: Array, config, seed: int, params: list[Node]) -> Node:
    """``density.ssm_loss``'s value as a graph node."""
    Z = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    eps = config.hvp_epsilon
    slices = np.random.default_rng(seed).standard_normal((config.n_slices, Z.shape[1]))
    hvp_terms = []
    for v in slices:
        g_hi = ebm_value_and_input_grad(model, Z + eps * v, params)[1]
        g_lo = ebm_value_and_input_grad(model, Z - eps * v, params)[1]
        diff = mul(sub(g_hi, g_lo), 1.0 / (2 * eps))
        hvp_terms.append(nsum(mul(diff, v), axis=1))  # (B,)
    acc = hvp_terms[0]
    for term in hvp_terms[1:]:
        acc = add(acc, term)
    trace_term = mul(acc, 1.0 / len(slices))
    g0 = ebm_value_and_input_grad(model, Z, params)[1]
    grad_term = mul(nsum(square(g0), axis=1), 0.5)
    return nmean(add(trace_term, grad_term))


def graph_fit(model, Z: Array, config, loss_graph):
    """``density._adam_fit`` with each loss built by ``loss_graph(batch,
    params, step)`` and differentiated by ``backward``. Yields, after each
    step, the loss, the flat gradient handed to Adam, and the parameters and
    sigmas after the step."""
    rng = np.random.default_rng(config.seed)
    state = AdamState(lr=config.lr)
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(Z))
        for start in range(0, len(Z), config.batch_size):
            batch = Z[order[start:start + config.batch_size]]
            params = [Node(p) for p in model.params()]
            loss = loss_graph(batch, params, step)
            backward(loss)
            grad = flat_grads(params)
            adam_step(state, model.net.flat, grad)
            model.refresh_spectral_norm()
            yield (float(loss.value), grad, model.net.flat.copy(),
                   [layer.sigma for layer in model.net.layers])
            step += 1


# ---------------------------------------------------------------------------
# Fixtures and probes of the density tests
# ---------------------------------------------------------------------------


def made_mask_max_fd(model, x: Array, delta: float = 1e-3) -> float:
    """Largest finite-difference sensitivity of any head to a forbidden input.

    The head at ordering position p may only react to coordinates at positions
    < p; bumping the coordinate at position q must leave heads at positions
    <= q exactly unchanged. Returns the max |change| / delta over all pairs.
    """
    z = np.atleast_2d(np.asarray(x, dtype=np.float64))
    base = model.heads(z)
    worst = 0.0
    for pos_q in range(model.dim):
        coord = model.ordering[pos_q]
        zb = z.copy()
        zb[0, coord] += delta
        bumped = model.heads(zb)
        for pos_p in range(pos_q + 1):
            head = model.ordering[pos_p]
            for b, a in zip(bumped, base):
                worst = max(worst, float(np.abs(b[0, head] - a[0, head]).max()) / delta)
    return worst


class QuadraticEnergy:
    """Analytic fixture E(x) = -1/2 x^T A x (so grad E = -A x, hess = -A),
    with the ``value_and_input_grad`` and ``scores`` of an energy model and
    no parameters."""

    def __init__(self, A: Array):
        self.A = np.asarray(A, dtype=np.float64)
        self.dim = self.A.shape[0]

    def value_and_input_grad(self, Z: Array) -> tuple[Array, Array]:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        return -0.5 * np.einsum("bi,ij,bj->b", Z, self.A, Z)[:, None], -Z @ self.A

    def scores(self, inputs: list[Array]):
        return [self.value_and_input_grad(X)[1] for X in inputs], lambda upstreams: np.empty(0)


def quadratic_hvp(model: QuadraticEnergy, x: Array, v: Array, eps: float = 1e-4) -> float:
    """v^T hess(E) v at one point by ``density.fd_hvp``, from the gradients
    at x + eps v and x - eps v, formed as ``ssm_loss`` forms them."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    g_hi, g_lo = model.scores([x + eps * v, x - eps * v])[0]
    return float(fd_hvp(g_hi, g_lo, v, eps)[0])
