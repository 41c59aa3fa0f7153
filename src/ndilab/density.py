"""Density estimation of the expert occupancy measure.

Two model families: a Gaussian-mixture masked autoregressive network trained
by maximum likelihood, and an energy-based model trained by sliced score
matching. The energy convention is fixed throughout: the network output IS
the log of the unnormalized density, so the score-matching gradient targets
it directly and the pipeline reward adds it with a plus sign. The partition
function is never materialized.

Inputs are standardized to zero mean / unit variance with training-set
statistics stored on the model; densities are reported in standardized space
(the Jacobian is a constant, irrelevant to policy optimality).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Mlp, Node, adam_step, backward, flat_grads

Array = np.ndarray

LOG_SCALE_MIN = -7.0
LOG_SCALE_MAX = 3.0


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

    def heads(self, Z: Array, params: list[Node] | None = None) -> tuple[Node, Node, Node]:
        """Mixture parameters at standardized inputs: (log-weights, means,
        log-scales), each (batch, dim, K)."""
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise ValueError(f"input dim {Z.shape[1]} != model dim {self.dim}")
        h = self.net.forward(Z, params)
        K = self.n_components
        out = ad.reshape(h, (Z.shape[0], self.dim, 3 * K))
        logits = out[:, :, 0:K]
        means = out[:, :, K:2 * K]
        log_scales = ad.clip(out[:, :, 2 * K:3 * K], LOG_SCALE_MIN, LOG_SCALE_MAX)
        log_weights = ad.sub(logits, ad.reshape(ad.logsumexp(logits, axis=2),
                                                (Z.shape[0], self.dim, 1)))
        return log_weights, means, log_scales

    def log_density_batch(self, Z: Array, params: list[Node] | None = None) -> Node:
        """Standardized-space log density per row, as a graph node."""
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        log_w, mu, log_s = self.heads(Z, params)
        x = Z[:, :, None]
        z = ad.mul(ad.sub(x, mu), ad.exp(ad.mul(log_s, -1.0)))
        comp = ad.sub(ad.mul(ad.square(z), -0.5),
                      ad.add(log_s, 0.5 * math.log(2 * math.pi)))
        per_coord = ad.logsumexp(ad.add(log_w, comp), axis=2)  # (B, dim)
        return ad.nsum(per_coord, axis=1)

    def log_density(self, x: Array) -> float:
        z = self.standardizer.transform(np.atleast_2d(x))
        return float(self.log_density_batch(z).value[0])


def made_mask_max_fd(model: MadeModel, x: Array, delta: float = 1e-3) -> float:
    """Largest finite-difference sensitivity of any head to a forbidden input.

    The head at ordering position p may only react to coordinates at positions
    < p; bumping the coordinate at position q must leave heads at positions
    <= q exactly unchanged. Returns the max |change| / delta over all pairs.
    """
    z = np.atleast_2d(np.asarray(x, dtype=np.float64))
    base = [h.value for h in model.heads(z)]
    worst = 0.0
    for pos_q in range(model.dim):
        coord = model.ordering[pos_q]
        zb = z.copy()
        zb[0, coord] += delta
        bumped = [h.value for h in model.heads(zb)]
        for pos_p in range(pos_q + 1):
            head = model.ordering[pos_p]
            for b, a in zip(bumped, base):
                worst = max(worst, float(np.abs(b[0, head] - a[0, head]).max()) / delta)
    return worst


def _adam_fit(model, Z: Array, config, loss_fn) -> Array:
    """Shuffled-minibatch Adam on ``loss_fn(batch, params, step)`` with a
    spectral-norm refresh after every step; returns the per-epoch mean loss."""
    rng = np.random.default_rng(config.seed)
    state = AdamState(lr=config.lr)
    curve = np.empty(config.epochs)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(Z))
        losses = []
        for start in range(0, len(Z), config.batch_size):
            batch = Z[order[start:start + config.batch_size]]
            params = [Node(p) for p in model.params()]
            loss = loss_fn(batch, params, step)
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"NaN training loss at epoch {epoch}")
            backward(loss)
            adam_step(state, [model.net.flat], [flat_grads(params)])
            model.refresh_spectral_norm()
            losses.append(float(loss.value))
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

    def nll(batch, params, step):
        return ad.mul(ad.nmean(model.log_density_batch(batch, params)), -1.0)

    return model, _adam_fit(model, model.standardizer.transform(X), config, nll)


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

    def value_and_input_grad(self, Z: Array, params: list[Node] | None = None) -> tuple[Node, Node]:
        """Energy values (B, 1) and input gradients (B, d), both as graph
        nodes so parameter gradients can flow through either.

        The input gradient is assembled as an explicit forward graph (the
        chain rule written out layer by layer), keeping the engine first-order.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if params is None:
            params = [Node(p) for p in self.net.params()]
        n = len(self.net.layers)
        h: Node = Node(Z)
        act_derivs: list[Node] = []
        for i in range(n):
            h = ad.dense(h, self.net.effective_weight(i, params[2 * i]), params[2 * i + 1],
                         activate=i < n - 1)
            if i < n - 1:
                act_derivs.append(ad.sub(1.0, ad.square(h)))
        g = Node(np.ones((Z.shape[0], 1)))
        for i in reversed(range(n)):
            g = ad.matmul(g, self.net.effective_weight(i, params[2 * i]))
            if i > 0:
                g = ad.mul(g, act_derivs[i - 1])
        return h, g

    def log_density(self, x: Array) -> float:
        z = self.standardizer.transform(np.atleast_2d(x))
        return float(self.net(z)[0, 0])


class QuadraticEnergy:
    """Analytic fixture E(x) = -1/2 x^T A x (so grad E = -A x, hess = -A)."""

    def __init__(self, A: Array):
        self.A = np.asarray(A, dtype=np.float64)
        self.dim = self.A.shape[0]

    def value_and_input_grad(self, Z: Array, params=None) -> tuple[Node, Node]:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        val = -0.5 * np.einsum("bi,ij,bj->b", Z, self.A, Z)[:, None]
        return Node(val), Node(-Z @ self.A)


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
    exact_trace: bool = False   # sum basis-vector HVPs instead of random slices

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        if self.hvp_epsilon <= 0:
            raise ValueError("hvp_epsilon must be positive")


def hvp_fd(model, x: Array, v: Array, eps: float = 1e-4) -> float:
    """v^T hess(E) v by central differences of first-order input gradients."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    v = np.asarray(v, dtype=np.float64)
    g_hi = model.value_and_input_grad(x + eps * v)[1].value
    g_lo = model.value_and_input_grad(x - eps * v)[1].value
    return float(((g_hi - g_lo) @ v).item() / (2 * eps))


def ssm_loss(model, batch: Array, config: SsmConfig, seed: int,
             params: list[Node] | None = None) -> Node:
    """Variance-reduced sliced score-matching (SSM-VR) objective, mean over
    batch and slices.

    Per sample: E_v[v^T hess(E) v] + 1/2 ||grad E||^2, with the Hessian-vector
    product computed as v^T (grad E(x + eps v) - grad E(x - eps v)) / (2 eps).
    The whole expression is built from graph nodes, so the same code path
    yields both the loss value and its parameter gradients.
    """
    Z = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if len(Z) == 0:
        raise ValueError("batch must be nonempty")
    B, d = Z.shape
    eps = config.hvp_epsilon
    if config.exact_trace:
        slices = np.eye(d)
    else:
        slices = np.random.default_rng(seed).standard_normal((config.n_slices, d))

    hvp_terms = []
    for v in slices:
        g_hi = model.value_and_input_grad(Z + eps * v, params)[1]
        g_lo = model.value_and_input_grad(Z - eps * v, params)[1]
        diff = ad.mul(ad.sub(g_hi, g_lo), 1.0 / (2 * eps))
        hvp_terms.append(ad.nsum(ad.mul(diff, v), axis=1))  # (B,)
    acc = hvp_terms[0]
    for term in hvp_terms[1:]:
        acc = ad.add(acc, term)
    trace_term = acc if config.exact_trace else ad.mul(acc, 1.0 / len(slices))

    g0 = model.value_and_input_grad(Z, params)[1]
    grad_term = ad.mul(ad.nsum(ad.square(g0), axis=1), 0.5)

    loss = ad.nmean(ad.add(trace_term, grad_term))
    if not np.isfinite(loss.value):
        raise FloatingPointError("non-finite sliced score-matching loss")
    return loss


def ebm_fit(data, config: SsmConfig) -> tuple[EbmModel, Array]:
    """Train the energy network by sliced score matching on standardized data."""
    X = _as_matrix(data)
    if len(X) < 2:
        raise ValueError("need at least 2 samples")
    model = EbmModel(X.shape[1], hidden=config.hidden, seed=config.seed,
                     spectral_norm=config.spectral_norm)
    model.standardizer = Standardizer.fit(X)

    def loss(batch, params, step):
        return ssm_loss(model, batch, config, seed=config.seed * 1_000_003 + step, params=params)

    return model, _adam_fit(model, model.standardizer.transform(X), config, loss)
