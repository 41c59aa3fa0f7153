"""Phase-2 machinery: the augmented reward, the fixed RBF critic, the
array-backed replay ring behind both the timestep-indexed buffer and the
SAC buffer, tabular soft policy iteration, a compact soft actor-critic for
toy continuous runs, and policy evaluation.

``augmented_reward`` is the one reward sum, log q(s, a) + lambda_f r_f, and
both trainers call it; the policy-entropy weight lambda_pi is the learner's
soft-RL temperature, not a reward term.

The NWJ term r_f has two shapes behind a flag: the gradient-identity form
(leading gamma on the critic term, marginal samples paired as (sampled,
observed)), and the Algorithm-1 form the pipeline uses by default (no
leading gamma, swapped critic arguments). They differ only by gamma factors
and argument order; the RBF critic is symmetric, so the pipeline is
insensitive to the latter.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, Mlp, adam_step
from .mdp import GaussianPolicy, SoftmaxPolicy, TabularMdp, sample_trajectory
from .occupancy import occupancy_measure, truncation_horizon

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class AugmentedRewardConfig:
    gamma: float = 0.9
    lambda_f: float = 0.005
    use_alg1_form: bool = True  # pipeline shape vs gradient-identity shape

    def __post_init__(self):
        if self.lambda_f < 0:
            raise ValueError("reward weights must be non-negative")


class Ring:
    """Fixed-capacity FIFO of float64 rows of one shape, stored in a single
    preallocated ``(capacity, *shape)`` array that wraps around.

    ``take(idx)`` reads rows by oldest-first position. The array is made
    with ``np.empty``, so memory pages are touched only as rows are written.
    """

    def __init__(self, capacity: int, shape: tuple):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rows = np.empty((capacity, *shape))
        self.count = 0   # rows ever added

    def add(self, row) -> None:
        self.rows[self.count % self.capacity] = row
        self.count += 1

    def take(self, idx: Array) -> Array:
        """Rows at oldest-first positions ``idx`` (each in ``[0, len)``)."""
        if self.count > self.capacity:
            idx = (idx + self.count) % self.capacity
        return self.rows[idx]

    def __len__(self) -> int:
        return min(self.count, self.capacity)


class TimestepReplayBuffer:
    """Visited states bucketed by trajectory timestep, FIFO per bucket.

    Backs the marginal expectations in the critic reward: states deposited at
    trajectory index t approximate samples from the time-t state marginal.
    Each bucket is one ``Ring``; reads return ``(n, d)`` arrays, oldest
    state first.
    """

    def __init__(self, capacity_per_bucket: int = 1024, seed: int = 0):
        self.capacity = capacity_per_bucket
        self.buckets: dict[int, Ring] = {}
        self.rng = np.random.default_rng(seed)

    def add(self, t: int, state: Array) -> None:
        t = int(t)
        state = np.asarray(state, dtype=np.float64)
        if t not in self.buckets:
            self.buckets[t] = Ring(self.capacity, state.shape)
        self.buckets[t].add(state)

    def bucket(self, t: int) -> Array:
        ring = self.buckets.get(int(t))
        if ring is None:
            return np.empty((0, 0))
        return ring.take(np.arange(len(ring)))

    def pooled(self) -> Array:
        if not self.buckets:
            return np.empty((0, 0))
        return np.concatenate([self.bucket(t) for t in self.buckets])

    def sample(self, t: int, n: int) -> Array:
        """Uniform sample (with replacement) from bucket t as an ``(n, d)``
        array; empty buckets fall back to the pooled buffer with a logged
        warning."""
        t = int(t)
        ring = self.buckets.get(t)
        if ring is not None:
            return ring.take(self.rng.integers(0, len(ring), size=n))
        items = self.pooled()
        if not len(items):
            raise ValueError("replay buffer is empty")
        logger.warning("bucket %d empty; falling back to pooled replay sampling", t)
        return items[self.rng.integers(0, len(items), size=n)]

    def __len__(self) -> int:
        return sum(len(ring) for ring in self.buckets.values())


@dataclass
class RbfCritic:
    """Critic fixed to a normalized RBF kernel of the squared state distance.

    value(s, s') = -||s' - s||^2 / bandwidth - log(normalizer) + 1, where the
    normalizer is the running mean kernel value over the marginal state pairs
    passed to ``observe_pairs``. ``value`` broadcasts over leading axes: a
    state of shape (d,) against a batch of shape (n, d) gives (n,) values,
    and two single states give a float.
    """

    bandwidth: float = 1.0
    normalizer: float = 1.0
    _count: int = 0

    def kernel(self, s: Array, s_next: Array) -> float:
        d = np.asarray(s_next, dtype=np.float64) - np.asarray(s, dtype=np.float64)
        return math.exp(-float(d @ d) / self.bandwidth)

    def observe_pairs(self, pairs: list[tuple[Array, Array]]) -> None:
        if not len(pairs):
            raise ValueError("pairs must be nonempty")
        for s, s_next in pairs:
            self._count += 1
            self.normalizer += (self.kernel(s, s_next) - self.normalizer) / self._count

    def value(self, s: Array, s_next: Array):
        if self.normalizer <= 0:
            raise ValueError("normalizer must be positive")
        d = np.asarray(s_next, dtype=np.float64) - np.asarray(s, dtype=np.float64)
        # a stacked (1, d) @ (d, 1) product rounds exactly like the 1-D d @ d
        sq = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
        v = -sq / self.bandwidth - math.log(self.normalizer) + 1.0
        return float(v) if v.ndim == 0 else v


def _mean_exp(values, lead: tuple, n: int) -> Array:
    """mean over the last axis of exp(values), which must have shape lead + (n,)."""
    values = np.asarray(values)
    if values.shape != (*lead, n):
        raise ValueError(f"critic value returned shape {values.shape} for a batch of "
                         f"shape {(*lead, n)}; it must broadcast over leading axes")
    return np.mean(np.exp(values), axis=-1)


def nwj_reward(critic, s_t: Array, s_next: Array, cur: Array, nxt: Array,
               config: AugmentedRewardConfig):
    """The NWJ mutual-information reward of ``reward_f`` against explicit
    marginal samples ``cur`` (n, d) and ``nxt`` (m, d).

    ``s_t`` and ``s_next`` are (d,) for one transition or (k, d) for k
    transitions at once (giving k rewards). ``critic`` is a callable or has
    a ``value`` method; either way f(x, y) must broadcast over leading axes.
    """
    f = getattr(critic, "value", critic)
    s_t, s_next = np.asarray(s_t), np.asarray(s_next)
    lead = s_t.shape[:-1]
    a, b = s_next[..., None, :], s_t[..., None, :]
    gamma = config.gamma
    if config.use_alg1_form:
        cross = _mean_exp(f(a, cur), lead, len(cur)) + _mean_exp(f(nxt, b), lead, len(nxt))
        return f(s_t, s_next) - (gamma / math.e) * cross
    cross = _mean_exp(f(cur, a), lead, len(cur)) + _mean_exp(f(b, nxt), lead, len(nxt))
    return gamma * f(s_t, s_next) - (gamma / math.e) * cross


def reward_f(critic, s_t: Array, s_next: Array, buffer: TimestepReplayBuffer,
             t: int, config: AugmentedRewardConfig, n_marginal_samples: int) -> float:
    """Mutual-information reward against replay-bucket marginal samples.

    Draws ``n_marginal_samples`` states x from bucket t and then as many
    states y from bucket t+1 (``TimestepReplayBuffer.sample``, so an empty
    bucket falls back to the pooled buffer), and returns ``nwj_reward``:
      pipeline form:  f(s_t, s') - (gamma/e) mean[e^{f(s', x)} + e^{f(y, s_t)}]
      identity form:  gamma f(s_t, s') - (gamma/e) mean[e^{f(x, s')} + e^{f(s_t, y)}]
    The critic f is evaluated once per cross term on the whole (n, d) sample
    batch, so ``critic.value`` (or ``critic`` itself, if callable) must
    broadcast over leading axes; a scalar result for a batch raises
    ``ValueError``.
    """
    cur = buffer.sample(t, n_marginal_samples)
    nxt = buffer.sample(t + 1, n_marginal_samples)
    return nwj_reward(critic, s_t, s_next, cur, nxt, config)


def augmented_reward(log_q, r_f, config: AugmentedRewardConfig):
    """The reward soft RL maximizes: log q(s, a) + lambda_f r_f, elementwise,
    so it serves one transition (floats) or a whole (S, A) table (arrays).

    The policy-entropy term lambda_pi r_pi is not added here: the learner
    carries lambda_pi as its soft-RL temperature (soft policy iteration's
    tau on tabular runs, SAC's alpha on the point mass).
    """
    return log_q + config.lambda_f * r_f


# ---------------------------------------------------------------------------
# Tabular soft policy iteration (exact SAC stand-in)
# ---------------------------------------------------------------------------


def soft_policy_iteration(mdp: TabularMdp, temperature: float, tol: float = 1e-10,
                          reward: Array | None = None,
                          max_iters: int = 200_000) -> SoftmaxPolicy:
    """Fixed point of the soft Bellman backup Q <- r + gamma V(P(s,a)) with
    V = tau logsumexp(Q / tau); returns the softmax(Q / tau) policy."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = mdp.reward if reward is None else np.asarray(reward, dtype=np.float64)
    Q = np.zeros_like(r)
    for _ in range(max_iters):
        m = Q.max(axis=1, keepdims=True)
        V = m[:, 0] + temperature * np.log(np.exp((Q - m) / temperature).sum(axis=1))
        Q_new = r + mdp.discount * V[mdp.transition]
        residual = float(np.abs(Q_new - Q).max())
        Q = Q_new
        if residual < tol:
            return SoftmaxPolicy(Q / temperature)
    raise RuntimeError(f"soft policy iteration did not converge; residual {residual:.3g}")


# ---------------------------------------------------------------------------
# Soft actor-critic for the toy continuous environment
# ---------------------------------------------------------------------------


# unsquashed Gaussian policies need the mean held inside the action box,
# otherwise Q extrapolation beyond the bound runs away
ACTION_BOUND = 1.0
BOUND_PENALTY = 10.0
POLYAK = 0.005


@dataclass
class SacConfig:
    gamma: float = 0.99
    lr: float = 3e-4
    lr_alpha: float = 3e-4
    batch_size: int = 64
    hidden: tuple = (64, 64)
    buffer_capacity: int = 100_000
    seed: int = 0


class SacLearner:
    """Twin-Q soft actor-critic with the temperature tuned toward entropy
    -action_dim, stored actions clipped to +-ACTION_BOUND, BOUND_PENALTY times
    the policy's squared excess beyond it, and Polyak rate POLYAK."""

    def __init__(self, state_dim: int, action_dim: int, config: SacConfig):
        self.config = config
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.policy = GaussianPolicy(state_dim, action_dim, hidden=config.hidden,
                                     seed=config.seed)
        self.q1 = Mlp([state_dim + action_dim, *config.hidden, 1], seed=config.seed + 1)
        self.q2 = Mlp([state_dim + action_dim, *config.hidden, 1], seed=config.seed + 2)
        self.q1_target = Mlp([state_dim + action_dim, *config.hidden, 1], seed=config.seed + 1)
        self.q2_target = Mlp([state_dim + action_dim, *config.hidden, 1], seed=config.seed + 2)
        self.log_alpha = np.array([math.log(0.2)])
        self.target_entropy = -float(action_dim)
        # one row per transition: s, a, r, s2, done
        self.buffer = Ring(config.buffer_capacity, (2 * state_dim + action_dim + 2,))
        self.rng = np.random.default_rng(config.seed)
        self.opt_q1 = AdamState(lr=config.lr)
        self.opt_q2 = AdamState(lr=config.lr)
        self.opt_pi = AdamState(lr=config.lr)
        self.opt_log_std = AdamState(lr=config.lr)
        self.opt_alpha = AdamState(lr=config.lr_alpha)

    def add_transition(self, s, a, r, s2, done: bool) -> None:
        a = np.clip(np.asarray(a, dtype=np.float64), -ACTION_BOUND, ACTION_BOUND)
        self.buffer.add(np.concatenate([np.asarray(s, float), a, [float(r)],
                                        np.asarray(s2, float), [float(done)]]))

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def _batch(self):
        idx = self.rng.integers(0, len(self.buffer), size=self.config.batch_size)
        rows = self.buffer.take(idx)
        ds, da = self.state_dim, self.action_dim
        return (rows[:, :ds], rows[:, ds:ds + da], rows[:, ds + da],
                rows[:, ds + da + 1:2 * ds + da + 1], rows[:, -1])

    def step(self) -> dict:
        """One gradient step on both Q networks, the policy, and the
        temperature, followed by a Polyak update of the targets."""
        cfg = self.config
        if len(self.buffer) < cfg.batch_size:
            raise ValueError("buffer smaller than batch size")
        S, A, R, S2, D = self._batch()
        B = len(S)

        # target: r + gamma (1 - d) (min Q_target(s', a') - alpha log pi(a'|s'))
        alpha, ds, da = self.alpha, self.state_dim, self.action_dim
        log_std = self.policy.log_std
        log_std_c = self.policy.clamped_log_std()
        std = np.exp(log_std_c)
        mu2 = self.policy.mean_net(S2)
        eps2 = self.rng.standard_normal((B, da))
        A2 = mu2 + std * eps2
        logp2 = (-0.5 * eps2 ** 2 - log_std_c - 0.5 * math.log(2 * math.pi)).sum(axis=1)
        x2 = np.concatenate([S2, A2], axis=1)
        q_min = np.minimum(self.q1_target(x2)[:, 0], self.q2_target(x2)[:, 0])
        y = R + cfg.gamma * (1.0 - D) * (q_min - alpha * logp2)

        # Both losses and their gradients are written out on arrays (no
        # graph). Each expression, and the order of the one three-term sum
        # (the a_new gradient), is the one backward() evaluates on the same
        # losses built as a graph, so the update is byte-identical to it;
        # graph_step in tests/test_imitation.py is that reference.
        x = np.concatenate([S, A], axis=1)
        losses = {}
        for name, net, opt in (("q1", self.q1, self.opt_q1), ("q2", self.q2, self.opt_q2)):
            tape = net.forward_tape(x)
            diff = tape[-1] - y[:, None]
            loss = float((diff ** 2).sum() * (1.0 / B))   # nmean of the squared error
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite {name} loss")
            grad, _ = net.backward_tape(tape, (1.0 / B) * 2.0 * diff)
            adam_step(opt, [net.flat], [grad])
            losses[name] = loss

        # policy: maximize min Q(s, a~) - alpha log pi(a~|s) with reparameterized a~
        eps = self.rng.standard_normal((B, da))
        mean_tape = self.policy.mean_net.forward_tape(S)
        a_new = mean_tape[-1] + std * eps
        logp = (eps ** 2 * -0.5 - (log_std_c + 0.5 * math.log(2 * math.pi))).sum(axis=1)
        xa = np.concatenate([S, a_new], axis=1)
        tape1, tape2 = self.q1.forward_tape(xa), self.q2.forward_tape(xa)
        take1 = (tape1[-1] <= tape2[-1]).astype(np.float64)   # ties take q1
        qmin = np.minimum(tape1[-1], tape2[-1])
        pi_loss = (logp * alpha - qmin.reshape((B,))).sum() * (1.0 / B)
        a_clipped = np.clip(a_new, -ACTION_BOUND, ACTION_BOUND)
        overflow = a_new - a_clipped
        pi_loss = pi_loss + (overflow ** 2).sum(axis=1).sum() * (1.0 / B) * BOUND_PENALTY
        if not np.isfinite(pi_loss):
            raise FloatingPointError("non-finite policy loss")

        g_q = -(1.0 / B)   # d pi_loss / d qmin, per row
        _, gx1 = self.q1.backward_tape(tape1, g_q * take1, input_grad=True)
        _, gx2 = self.q2.backward_tape(tape2, g_q * (1.0 - take1), input_grad=True)
        g_over = BOUND_PENALTY * (1.0 / B) * 2.0 * overflow
        # a clamp passes gradient only where its input lies inside the bounds
        g_a = ((gx1 + gx2)[:, ds:] + g_over) + (-g_over) * (a_clipped == a_new)
        mean_grad, _ = self.policy.mean_net.backward_tape(mean_tape, g_a)
        # log_std reaches the loss through std * eps and through logp (whose
        # per-row gradient alpha / B is broadcast over the action columns)
        g_logp = np.full((B, da), (1.0 / B) * alpha)
        g_log_std = (g_a * eps).sum(axis=0) * std + (-g_logp).sum(axis=0)
        g_log_std = g_log_std * (log_std_c == log_std)
        adam_step(self.opt_pi, [self.policy.mean_net.flat], [mean_grad])
        adam_step(self.opt_log_std, [log_std], [g_log_std])
        losses["pi"] = float(pi_loss)

        # temperature: alpha <- alpha - lr d/dlog_alpha [-log_alpha (logp + target)]
        alpha_grad = np.array([-(logp.mean() + self.target_entropy)])
        adam_step(self.opt_alpha, [self.log_alpha], [alpha_grad])
        losses["alpha"] = self.alpha

        # Polyak averaging of the targets
        for net, target in ((self.q1, self.q1_target), (self.q2, self.q2_target)):
            target.flat *= (1.0 - POLYAK)
            target.flat += POLYAK * net.flat
        return losses


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _rollout_states(policy, mdp_or_env, n_states: int, seed: int,
                    episode_len: int = 50) -> list:
    rng = np.random.default_rng(seed)
    states = []
    ep = 0
    while len(states) < n_states:
        traj = sample_trajectory(mdp_or_env, policy, episode_len,
                                 int(rng.integers(0, 2 ** 31)) + ep)
        states.extend(list(traj.states))
        ep += 1
    return states[:n_states]


def _gaussian_kl(mu0, log_std0, mu1, log_std1) -> float:
    v0, v1 = np.exp(2 * log_std0), np.exp(2 * log_std1)
    return float(np.sum(log_std1 - log_std0 + (v0 + (mu0 - mu1) ** 2) / (2 * v1) - 0.5))


def evaluate_policy_kl(policy, expert_policy, mdp_or_env, n_eval_states: int = 200,
                       seed: int = 0, episode_len: int = 50) -> float:
    """E_{s~pi}[KL(pi(.|s) || pi_E(.|s))] normalized by the same quantity for
    a random policy; discrete KL exact, Gaussian KL analytic."""
    if isinstance(mdp_or_env, TabularMdp):
        mdp = mdp_or_env
        random_policy = SoftmaxPolicy.uniform(mdp.n_states, mdp.n_actions)

        def mean_kl(pol):
            states = _rollout_states(pol, mdp, n_eval_states, seed, episode_len)
            P, E = pol.probs(), expert_policy.probs()
            logP, logE = pol.log_probs(), expert_policy.log_probs()
            vals = []
            for s in states:
                row = P[s]
                vals.append(float(np.sum(np.where(row > 0, row * (logP[s] - logE[s]), 0.0))))
            return float(np.mean(vals))
    else:
        env = mdp_or_env
        random_policy = GaussianPolicy(env.state_dim, env.action_dim, hidden=(8,), seed=777)
        for p in random_policy.mean_net.params():
            p[...] = 0.0
        random_policy.log_std[:] = 0.0

        def mean_kl(pol):
            states = _rollout_states(pol, env, n_eval_states, seed, episode_len)
            vals = []
            for s in states:
                vals.append(_gaussian_kl(pol.mean(s), pol.clamped_log_std(),
                                         expert_policy.mean(s), expert_policy.clamped_log_std()))
            return float(np.mean(vals))

    denom = mean_kl(random_policy)
    if denom == 0:
        raise ZeroDivisionError("random-policy KL baseline is zero")
    return mean_kl(policy) / denom


def evaluate_return(policy, mdp_or_env, n_episodes: int = 20, seed: int = 0,
                    reward_fn=None) -> tuple[float, float, float | None]:
    """Sampled mean environment return, its standard error, and the mean
    return under ``reward_fn`` (s, a, s_next, t) -> reward over the same
    episodes (None when no ``reward_fn`` is given). Each episode is rolled
    once.

    Tabular environments use discounted returns over a horizon that leaves a
    tail below 1e-9; continuous episodes sum undiscounted rewards over the
    episode.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    rng = np.random.default_rng(seed)
    tabular = isinstance(mdp_or_env, TabularMdp)
    if tabular:
        bound = max(1.0, float(np.abs(mdp_or_env.reward).max()))
        horizon = truncation_horizon(mdp_or_env.discount, 1e-9, bound)
    else:
        horizon = mdp_or_env.spec.episode_len

    def total(rewards) -> float:
        if tabular:
            return float((mdp_or_env.discount ** np.arange(len(rewards)) * rewards).sum())
        return float(rewards.sum())

    returns = np.empty(n_episodes)
    shaped = np.empty(n_episodes)
    for ep in range(n_episodes):
        traj = sample_trajectory(mdp_or_env, policy, horizon, int(rng.integers(0, 2 ** 31)))
        returns[ep] = total(traj.rewards)
        if reward_fn is not None:
            shaped[ep] = total(np.array([reward_fn(traj.states[t], traj.actions[t],
                                                   traj.next_states[t], t)
                                         for t in range(len(traj))]))
    stderr = float(returns.std(ddof=1) / math.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    return float(returns.mean()), stderr, (None if reward_fn is None else float(shaped.mean()))


def exact_discounted_return(mdp: TabularMdp, policy: SoftmaxPolicy) -> float:
    """Occupancy-weighted expected reward (the sampling-free oracle)."""
    occ = occupancy_measure(mdp, policy)
    return float((occ.rho * mdp.reward).sum())
