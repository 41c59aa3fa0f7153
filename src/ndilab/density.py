"""Density estimation of the expert occupancy measure.

Two model families: a Gaussian-mixture masked autoregressive network trained
by maximum likelihood, and an energy-based model trained by sliced score
matching. The energy convention is fixed throughout: the network output IS
the log of the unnormalized density, so the score-matching gradient targets
it directly and the pipeline reward adds it with a plus sign. The partition
function is never materialized.

Both losses and their parameter gradients are written out on arrays over the
layer tape (``Mlp.forward`` and ``autodiff.backward``). Each expression, and
the order in which gradient contributions to one array are summed, is the
one a reverse-mode graph of the same loss evaluates, so a fit is
byte-identical to differentiating that graph.

Inputs are standardized to zero mean / unit variance with training-set
statistics stored on the model; densities are reported in standardized space
(the Jacobian is a constant, irrelevant to policy optimality).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, Mlp, adam_step, backward

Array = np.ndarray

LOG_SCALE_MIN = -7.0
LOG_SCALE_MAX = 3.0
HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _as_matrix(data) -> Array:
    feats = getattr(data, "features", None)
    X = feats() if callable(feats) else data
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a (n_samples, dim) matrix")
    return X


@dataclass
class Standardizer:
    mean: Array
    std: Array

    @staticmethod
    def fit(X: Array) -> "Standardizer":
        std = X.std(axis=0)
        return Standardizer(X.mean(axis=0), np.where(std > 1e-8, std, 1.0))

    @staticmethod
    def identity(dim: int) -> "Standardizer":
        return Standardizer(np.zeros(dim), np.ones(dim))

    def transform(self, X: Array) -> Array:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def smoothed_curve_is_monotone(curve: Array, window: int = 10, slack: float = 1e-3) -> bool:
    """True when window-averaged loss never increases beyond ``slack``."""
    curve = np.asarray(curve, dtype=np.float64)
    if len(curve) < 2 * window:
        return True
    n = (len(curve) // window) * window
    means = curve[:n].reshape(-1, window).mean(axis=1)
    return bool(np.all(np.diff(means) <= slack))


# ---------------------------------------------------------------------------
# Gaussian-mixture masked autoregressive model
# ---------------------------------------------------------------------------


def _made_degrees(dim: int, hidden: tuple, ordering: Array) -> tuple[Array, list[Array]]:
    # input degree = 1-based position of the coordinate in the ordering
    deg_in = np.empty(dim, dtype=np.int64)
    for pos, coord in enumerate(ordering):
        deg_in[coord] = pos + 1
    hidden_degs = []
    span = max(dim - 1, 1)
    for width in hidden:
        hidden_degs.append(np.arange(width) % span + 1)
    return deg_in, hidden_degs


class MadeModel:
    """Masked autoregressive network with per-coordinate Gaussian-mixture heads.

    The head for the coordinate at position p in the input ordering has zero
    sensitivity (hard-masked) to coordinates at positions >= p. Mixture
    weights come from a softmax over K logits; log-scales are clamped to
    [-7, 3]. The network is ``self.net``, an ``Mlp`` carrying the MADE masks.
    """

    kind = "made"

    def __init__(self, dim: int, hidden: tuple = (64, 64), n_components: int = 5,
                 ordering=None, seed: int = 0, spectral_norm: bool = True):
        if dim < 1 or n_components < 1:
            raise ValueError("dim and n_components must be positive")
        self.dim = dim
        self.n_components = n_components
        self.ordering = (np.arange(dim) if ordering is None
                         else np.asarray(ordering, dtype=np.int64))
        if sorted(self.ordering.tolist()) != list(range(dim)):
            raise ValueError("ordering must be a permutation of the coordinates")
        self.standardizer = Standardizer.identity(dim)

        deg_in, hidden_degs = _made_degrees(dim, hidden, self.ordering)
        degs = [deg_in, *hidden_degs]
        masks: list[Array] = []
        for prev, cur in zip(degs[:-1], degs[1:]):
            masks.append((cur[:, None] >= prev[None, :]).astype(np.float64))
        out_deg = np.repeat(deg_in, 3 * n_components)
        masks.append((out_deg[:, None] > degs[-1][None, :]).astype(np.float64))
        self.net = Mlp([dim, *hidden, 3 * n_components * dim], seed=seed,
                       spectral_norm=spectral_norm, masks=masks)

    def params(self) -> list[Array]:
        return self.net.params()

    def refresh_spectral_norm(self, n_power_iterations: int = 1) -> None:
        self.net.refresh_spectral_norm(n_power_iterations)

    def _forward(self, Z: Array) -> tuple[Array, tuple, tuple]:
        """Log densities per row of standardized inputs, the mixture heads,
        and the intermediates ``made_nll`` differentiates."""
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise ValueError(f"input dim {Z.shape[1]} != model dim {self.dim}")
        B, K = len(Z), self.n_components
        tape = self.net.forward(Z)
        out = tape[-1].reshape((B, self.dim, 3 * K))
        logits, means, raw_scales = out[:, :, 0:K], out[:, :, K:2 * K], out[:, :, 2 * K:3 * K]
        log_scales = np.clip(raw_scales, LOG_SCALE_MIN, LOG_SCALE_MAX)
        lse, weights = _logsumexp(logits)
        log_weights = logits - lse.reshape((B, self.dim, 1))
        diff = Z[:, :, None] - means
        inv_scales = np.exp(log_scales * -1.0)
        z = diff * inv_scales
        per_coord, resp = _logsumexp(log_weights
                                     + (z ** 2 * -0.5 - (log_scales + HALF_LOG_2PI)))
        return (per_coord.sum(axis=1), (log_weights, means, log_scales),
                (tape, raw_scales, weights, diff, inv_scales, z, resp))

    def heads(self, Z: Array) -> tuple[Array, Array, Array]:
        """Mixture parameters at standardized inputs: (log-weights, means,
        log-scales), each (batch, dim, K)."""
        return self._forward(Z)[1]

    def log_density_batch(self, Z: Array) -> Array:
        """Standardized-space log density per row."""
        return self._forward(Z)[0]

    def log_density(self, x: Array) -> float:
        z = self.standardizer.transform(np.atleast_2d(x))
        return float(self.log_density_batch(z)[0])


def _logsumexp(a: Array) -> tuple[Array, Array]:
    """Log-sum-exp over the last axis of a (batch, dim, K) array, and the
    softmax weights that are its gradient."""
    m = a.max(axis=2, keepdims=True)
    e = np.exp(a - m)
    s = e.sum(axis=2, keepdims=True)
    return np.squeeze(m + np.log(s), axis=2), e / s


def made_nll(model: MadeModel, batch: Array) -> tuple[float, Array]:
    """Mean negative log-likelihood of a standardized batch and its gradient
    with respect to ``model.net.flat``."""
    ld, _, (tape, raw_scales, weights, diff, inv_scales, z, resp) = model._forward(batch)
    B, K = len(ld), model.n_components
    loss = ld.sum() * (1.0 / B) * -1.0
    # gradient of the per-coordinate mixture log-sum-exp, then back through
    # each head; log-scales and logits each get two contributions
    g_a = np.full((B, model.dim, 1), -1.0 * (1.0 / B)) * resp
    g_z = g_a * -0.5 * 2.0 * z
    g_means = -(g_z * inv_scales)
    g_log_scales = -g_a + g_z * diff * inv_scales * -1.0
    g_logits = g_a + (-g_a).sum(axis=2, keepdims=True) * weights
    gate = ((raw_scales >= LOG_SCALE_MIN) & (raw_scales <= LOG_SCALE_MAX)).astype(np.float64)
    g_out = np.zeros((B, model.dim, 3 * K))
    g_out[:, :, 0:K] += g_logits
    g_out[:, :, K:2 * K] += g_means
    g_out[:, :, 2 * K:3 * K] += g_log_scales * gate
    return float(loss), backward(model.net, tape, g_out.reshape(tape[-1].shape))


def _adam_fit(model, Z: Array, config, loss_fn) -> Array:
    """Shuffled-minibatch Adam on ``loss_fn(batch, step)``, which returns the
    loss and the gradient of ``model.net.flat``, with a spectral-norm refresh
    after every step; returns the per-epoch mean loss."""
    rng = np.random.default_rng(config.seed)
    state = AdamState(lr=config.lr)
    curve = np.empty(config.epochs)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(Z))
        losses = []
        for start in range(0, len(Z), config.batch_size):
            batch = Z[order[start:start + config.batch_size]]
            loss, flat_grad = loss_fn(batch, step)
            if not np.isfinite(loss):
                raise FloatingPointError(f"NaN training loss at epoch {epoch}")
            adam_step(state, model.net.flat, flat_grad)
            model.refresh_spectral_norm()
            losses.append(loss)
            step += 1
        curve[epoch] = float(np.mean(losses))
    return curve


@dataclass
class MadeConfig:
    hidden: tuple = (64, 64)
    n_components: int = 5
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    spectral_norm: bool = True
    ordering: tuple | None = None


def made_fit(data, config: MadeConfig) -> tuple[MadeModel, Array]:
    """Maximum-likelihood training; returns the model and per-epoch mean NLL."""
    X = _as_matrix(data)
    if len(X) < 1:
        raise ValueError("need at least one sample")
    model = MadeModel(X.shape[1], hidden=config.hidden, n_components=config.n_components,
                      ordering=None if config.ordering is None else np.asarray(config.ordering),
                      seed=config.seed, spectral_norm=config.spectral_norm)
    model.standardizer = Standardizer.fit(X)
    return model, _adam_fit(model, model.standardizer.transform(X), config,
                            lambda batch, step: made_nll(model, batch))


# ---------------------------------------------------------------------------
# Energy-based model and sliced score matching
# ---------------------------------------------------------------------------


class EbmModel:
    """Energy network whose output is the log unnormalized density."""

    kind = "ebm"

    def __init__(self, dim: int, hidden: tuple = (64, 64), seed: int = 0,
                 spectral_norm: bool = True):
        self.dim = dim
        self.net = Mlp([dim, *hidden, 1], seed=seed, spectral_norm=spectral_norm)
        self.standardizer = Standardizer.identity(dim)

    def params(self) -> list[Array]:
        return self.net.params()

    def refresh_spectral_norm(self, n_power_iterations: int = 1) -> None:
        self.net.refresh_spectral_norm(n_power_iterations)

    def value_and_input_grad(self, Z: Array) -> tuple[Array, Array]:
        """Energy values (B, 1) and their input gradients (B, d)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        tape, grad, _ = _score_pass(self.net, self.net.weights(), Z)
        return tape[-1], grad

    def scores(self, inputs: list[Array]) -> tuple[list[Array], Callable]:
        """Input gradients of the energy at each (B, d) array of ``inputs``,
        and their pullback: ``pullback(upstreams)`` is the gradient of
        ``net.flat`` of the sum over j of ``sum(upstreams[j] * grads[j])``,
        with each array's contributions summed in the order of ``inputs``.
        The effective weights are formed once for all the passes."""
        weights = self.net.weights()
        passes = [_score_pass(self.net, weights, X) for X in inputs]

        def pullback(upstreams: list[Array]) -> Array:
            sums: list[Array | None] = [None] * (2 * len(weights))
            for (_, _, pass_pullback), G in zip(passes, upstreams):
                for k, parts in enumerate(pass_pullback(G)):
                    for part in parts:
                        sums[k] = part if sums[k] is None else sums[k] + part
            return np.concatenate([(np.zeros(p.shape) if g is None else g).reshape(-1)
                                   for g, p in zip(sums, self.params())])

        return [grad for _, grad, _ in passes], pullback

    def log_density(self, x: Array) -> float:
        z = self.standardizer.transform(np.atleast_2d(x))
        return float(self.net(z)[0, 0])


def _score_pass(net: Mlp, weights: list[Array], Z: Array) -> tuple[list[Array], Array, Callable]:
    """The forward tape of ``net`` at ``Z``, the input gradient of its (B, 1)
    output written out as the chain rule from the output layer down (``g @
    W``, then times the derivative ``1 - y**2`` of the tanh layer below), and
    the pass's pullback.

    ``pullback(G)`` lists, per entry of ``net.params()``, the contributions
    to the gradient of ``sum(G * input_grad)``, in the order a reverse-mode
    graph of this pass adds them. A hidden layer's weight gets one from its
    forward use and one from its chain use, each through its own
    ``weight_vjp``; the output layer's bias gets none.
    """
    n = len(weights)
    tape = net.forward(Z, weights)
    derivs = [1.0 - y ** 2 for y in tape[1:-1]]
    lefts: list[Array] = [None] * n      # left operand of layer i's chain product
    products: list[Array] = [None] * n   # that product
    g = np.ones((len(Z), 1))
    for i in reversed(range(n)):
        lefts[i] = g
        products[i] = g = g @ weights[i]
        if i > 0:
            g = g * derivs[i - 1]

    def pullback(G: Array) -> list[list[Array]]:
        chain, g_derivs = [None] * n, [None] * (n - 1)
        for i in range(n):
            chain[i] = net.weight_vjp(i, lefts[i].T @ G)
            if i < n - 1:
                g_left = G @ weights[i].T
                g_derivs[i] = g_left * products[i + 1]
                G = g_left * derivs[i]
        parts: list[list[Array]] = [[] for _ in range(2 * n)]
        parts[2 * n - 2] = [chain[n - 1]]
        g_y = None
        for k in reversed(range(n - 1)):
            from_square = -g_derivs[k] * 2.0 * tape[k + 1]
            g_y = from_square if g_y is None else g_y + from_square
            local = g_y * derivs[k]
            layer = net.weight_vjp(k, (tape[k].T @ local).T)
            # the graph reaches a wrapped (masked or normalized) weight's
            # forward use first, and a bare weight's chain use first
            wrapped = net.spectral_norm or net.layers[k].mask is not None
            parts[2 * k] = [layer, chain[k]] if wrapped else [chain[k], layer]
            parts[2 * k + 1] = [local.sum(axis=0)]
            if k > 0:
                g_y = local @ weights[k]
        return parts

    return tape, g, pullback


@dataclass
class SsmConfig:
    """Settings of the variance-reduced sliced score-matching fit (SSM-VR,
    Song et al. 2019), whose norm term is the exact 1/2 ||grad E||^2."""

    n_slices: int = 1
    hvp_epsilon: float = 1e-4
    batch_size: int = 128
    epochs: int = 200
    lr: float = 1e-3
    seed: int = 0
    hidden: tuple = (64, 64)
    spectral_norm: bool = True

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        if self.hvp_epsilon <= 0:
            raise ValueError("hvp_epsilon must be positive")


def fd_hvp(g_hi: Array, g_lo: Array, v: Array, eps: float) -> Array:
    """Per-row v^T hess(E) v by central differences: ``g_hi`` and ``g_lo``
    are the (B, d) input gradients of E at x + eps v and x - eps v."""
    return ((g_hi - g_lo) * (1.0 / (2 * eps)) * v).sum(axis=1)


def ssm_loss(model, batch: Array, config: SsmConfig, seed: int) -> tuple[float, Array]:
    """Variance-reduced sliced score-matching (SSM-VR) objective, mean over
    batch and slices, and its gradient with respect to the model parameters.

    Per sample: E_v[v^T hess(E) v] + 1/2 ||grad E||^2, with the Hessian-vector
    product from ``fd_hvp``. ``model.scores`` supplies the input gradients
    and their pullback.
    """
    Z = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if len(Z) == 0:
        raise ValueError("batch must be nonempty")
    B, d = Z.shape
    eps = config.hvp_epsilon
    slices = np.random.default_rng(seed).standard_normal((config.n_slices, d))
    # per slice the passes at Z + eps v and Z - eps v, then the one at Z: the
    # order in which a graph of this loss sums their gradient contributions
    inputs = [X for v in slices for X in (Z + eps * v, Z - eps * v)] + [Z]
    grads, pullback = model.scores(inputs)
    acc = fd_hvp(grads[0], grads[1], slices[0], eps)
    for j in range(1, len(slices)):
        acc = acc + fd_hvp(grads[2 * j], grads[2 * j + 1], slices[j], eps)
    g0 = grads[-1]
    loss = (acc * (1.0 / len(slices)) + (g0 ** 2).sum(axis=1) * 0.5).sum() * (1.0 / B)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite sliced score-matching loss")

    g_row = np.full(B, 1.0 / B)   # d loss / d (per-row objective)
    g_hvp = np.broadcast_to((g_row * (1.0 / len(slices)))[:, None], (B, d))
    upstreams = []
    for v in slices:
        g_hi = g_hvp * v * (1.0 / (2 * eps))
        upstreams += [g_hi, -g_hi]
    upstreams.append((g_row * 0.5)[:, None] * 2.0 * g0)
    return float(loss), pullback(upstreams)


def ebm_fit(data, config: SsmConfig) -> tuple[EbmModel, Array]:
    """Train the energy network by sliced score matching on standardized data."""
    X = _as_matrix(data)
    if len(X) < 2:
        raise ValueError("need at least 2 samples")
    model = EbmModel(X.shape[1], hidden=config.hidden, seed=config.seed,
                     spectral_norm=config.spectral_norm)
    model.standardizer = Standardizer.fit(X)

    def loss(batch, step):
        return ssm_loss(model, batch, config, seed=config.seed * 1_000_003 + step)

    return model, _adam_fit(model, model.standardizer.transform(X), config, loss)
