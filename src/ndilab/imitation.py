"""Phase-2 machinery: augmented-reward construction, the fixed RBF critic,
the array-backed replay ring behind both the timestep-indexed buffer and the
SAC buffer, tabular soft policy iteration, a compact soft actor-critic for
toy continuous runs, and policy evaluation.

Two reward shapes coexist behind a flag: the gradient-identity-faithful form
used by the verification suite (leading gamma on the critic term, marginal
samples paired as (sampled, observed)), and the pipeline form the training
loop uses (no leading gamma, swapped critic arguments). They differ only by
gamma factors and argument order; the RBF critic is symmetric, so the
pipeline is insensitive to the latter.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Mlp, Node, adam_step, backward, flat_grads
from .mdp import GaussianPolicy, SoftmaxPolicy, TabularMdp, policy_log_prob
from .occupancy import occupancy_measure, truncation_horizon

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class AugmentedRewardConfig:
    gamma: float = 0.9
    lambda_pi: float = 0.1      # pipeline auto-tunes this; fixed here
    lambda_f: float = 0.005
    use_alg1_form: bool = True  # pipeline shape vs gradient-identity shape

    def __post_init__(self):
        if self.lambda_pi < 0 or self.lambda_f < 0:
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


def reward_pi(policy, s, a, config: AugmentedRewardConfig) -> float:
    """Policy-entropy reward: -log pi(a|s), or -(1+gamma) log pi(a|s) in the
    gradient-identity form (the coefficient otherwise folds into lambda_pi)."""
    logp = policy_log_prob(policy, s, a)
    return -logp if config.use_alg1_form else -(1.0 + config.gamma) * logp


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


def reward_f(critic, s_t: Array, a_t, s_next: Array, buffer: TimestepReplayBuffer,
             t: int, config: AugmentedRewardConfig,
             n_marginal_samples: int | None = None) -> float:
    """Mutual-information reward against replay-bucket marginal samples.

    With samples x ~ bucket t and y ~ bucket t+1:
      pipeline form:  f(s_t, s') - (gamma/e) mean[e^{f(s', x)} + e^{f(y, s_t)}]
      identity form:  gamma f(s_t, s') - (gamma/e) mean[e^{f(x, s')} + e^{f(s_t, y)}]
    ``n_marginal_samples`` of None uses every bucket element (exhaustive).
    The critic f is evaluated once per cross term on the whole (n, d) sample
    batch, so ``critic.value`` (or ``critic`` itself, if callable) must
    broadcast over leading axes; a scalar result for a batch raises
    ``ValueError``.
    """
    if n_marginal_samples is None:
        cur, nxt = buffer.bucket(t), buffer.bucket(t + 1)
        if not len(cur) or not len(nxt):
            logger.warning("bucket %d or %d empty; falling back to pooled replay sampling",
                           t, t + 1)
            cur = cur if len(cur) else buffer.pooled()
            nxt = nxt if len(nxt) else buffer.pooled()
        if not len(cur) or not len(nxt):
            raise ValueError(f"buckets {t} and {t + 1} are empty")
    else:
        cur = buffer.sample(t, n_marginal_samples)
        nxt = buffer.sample(t + 1, n_marginal_samples)
    return nwj_reward(critic, s_t, s_next, cur, nxt, config)


@dataclass
class TransitionContext:
    """One collected step in both native and embedded coordinates."""

    t: int
    s: object          # native state for the policy (index or vector)
    a: object          # native action
    s_vec: Array       # embedded state for density model and critic
    a_vec: Array
    s_next_vec: Array


def augmented_reward(density_model, policy, critic, transition: TransitionContext,
                     buffer: TimestepReplayBuffer, config: AugmentedRewardConfig,
                     n_marginal_samples: int | None = None) -> float:
    """log q(s, a) + lambda_pi r_pi + lambda_f r_f."""
    log_q = density_model.log_density(np.concatenate([transition.s_vec, transition.a_vec]))
    r_pi = reward_pi(policy, transition.s, transition.a, config)
    r_f = reward_f(critic, transition.s_vec, transition.a_vec, transition.s_next_vec,
                   buffer, transition.t, config, n_marginal_samples)
    return float(log_q + config.lambda_pi * r_pi + config.lambda_f * r_f)


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


@dataclass
class SacConfig:
    gamma: float = 0.99
    lr: float = 3e-4
    lr_alpha: float = 3e-4
    batch_size: int = 64
    polyak: float = 0.005
    hidden: tuple = (64, 64)
    target_entropy: float | None = None   # defaults to -action_dim
    buffer_capacity: int = 100_000
    seed: int = 0
    # unsquashed Gaussian policies need the mean held inside the action box,
    # otherwise Q extrapolation beyond the bound runs away
    action_bound: float | None = 1.0
    bound_penalty: float = 10.0


class SacLearner:
    """Twin-Q soft actor-critic with automatic temperature tuning."""

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
        self.target_entropy = (config.target_entropy if config.target_entropy is not None
                               else -float(action_dim))
        # one row per transition: s, a, r, s2, done
        self.buffer = Ring(config.buffer_capacity, (2 * state_dim + action_dim + 2,))
        self.rng = np.random.default_rng(config.seed)
        self.opt_q1 = AdamState(lr=config.lr)
        self.opt_q2 = AdamState(lr=config.lr)
        self.opt_pi = AdamState(lr=config.lr)
        self.opt_log_std = AdamState(lr=config.lr)
        self.opt_alpha = AdamState(lr=config.lr_alpha)

    def add_transition(self, s, a, r, s2, done: bool) -> None:
        a = np.asarray(a, dtype=np.float64)
        if self.config.action_bound is not None:
            a = np.clip(a, -self.config.action_bound, self.config.action_bound)
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
        mu2 = self.policy.mean_net(S2)
        std = np.exp(self.policy.clamped_log_std())
        eps2 = self.rng.standard_normal((B, self.action_dim))
        A2 = mu2 + std * eps2
        logp2 = (-0.5 * eps2 ** 2 - self.policy.clamped_log_std()
                 - 0.5 * math.log(2 * math.pi)).sum(axis=1)
        x2 = np.concatenate([S2, A2], axis=1)
        q_min = np.minimum(self.q1_target(x2)[:, 0], self.q2_target(x2)[:, 0])
        y = R + cfg.gamma * (1.0 - D) * (q_min - self.alpha * logp2)

        x = np.concatenate([S, A], axis=1)
        losses = {}
        for name, net, opt in (("q1", self.q1, self.opt_q1), ("q2", self.q2, self.opt_q2)):
            params = [Node(p) for p in net.params()]
            pred = net.forward(x, params)
            loss = ad.nmean(ad.square(ad.sub(pred, y[:, None])))
            if not np.isfinite(loss.value):
                raise FloatingPointError(f"non-finite {name} loss")
            backward(loss)
            adam_step(opt, [net.flat], [flat_grads(params)])
            losses[name] = float(loss.value)

        # policy: maximize min Q(s, a~) - alpha log pi(a~|s) with reparameterized a~
        mean_params = [Node(p) for p in self.policy.mean_net.params()]
        log_std_base = Node(self.policy.log_std)
        log_std_node = ad.clip(log_std_base, -5.0, 2.0)
        eps = self.rng.standard_normal((B, self.action_dim))
        mu = self.policy.mean_net.forward(S, mean_params)
        a_new = ad.add(mu, ad.mul(ad.exp(log_std_node), eps))
        logp_node = ad.nsum(ad.sub(ad.mul(ad.square(Node(eps)), -0.5),
                                   ad.add(log_std_node, 0.5 * math.log(2 * math.pi))), axis=1)
        xa = ad.concat([Node(S), a_new], axis=1)
        qmin = ad.minimum(self.q1.forward(xa), self.q2.forward(xa))
        pi_loss = ad.nmean(ad.sub(ad.mul(logp_node, self.alpha),
                                  ad.reshape(qmin, (B,))))
        if cfg.action_bound is not None:
            overflow = ad.sub(a_new, ad.clip(a_new, -cfg.action_bound, cfg.action_bound))
            pi_loss = ad.add(pi_loss, ad.mul(ad.nmean(ad.nsum(ad.square(overflow), axis=1)),
                                             cfg.bound_penalty))
        if not np.isfinite(pi_loss.value):
            raise FloatingPointError("non-finite policy loss")
        backward(pi_loss)
        adam_step(self.opt_pi, [self.policy.mean_net.flat], [flat_grads(mean_params)])
        lsg = log_std_base.grad if log_std_base.grad is not None else np.zeros_like(self.policy.log_std)
        adam_step(self.opt_log_std, [self.policy.log_std], [lsg])
        losses["pi"] = float(pi_loss.value)

        # temperature: alpha <- alpha - lr d/dlog_alpha [-log_alpha (logp + target)]
        logp_detached = logp_node.value
        alpha_grad = np.array([-(logp_detached.mean() + self.target_entropy)])
        adam_step(self.opt_alpha, [self.log_alpha], [alpha_grad])
        losses["alpha"] = self.alpha

        # Polyak averaging of the targets
        for net, target in ((self.q1, self.q1_target), (self.q2, self.q2_target)):
            target.flat *= (1.0 - cfg.polyak)
            target.flat += cfg.polyak * net.flat
        return losses


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _rollout_states(policy, mdp_or_env, n_states: int, seed: int,
                    episode_len: int = 50) -> list:
    from .mdp import sample_trajectory
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


def evaluate_return(policy, mdp_or_env, reward_source="environment",
                    n_episodes: int = 20, seed: int = 0, horizon: int | None = None,
                    tol: float = 1e-9) -> tuple[float, float]:
    """Sampled mean return with its standard error.

    Tabular environments use discounted returns over a horizon chosen from
    ``tol``; continuous episodes sum undiscounted rewards over the episode.
    ``reward_source`` is "environment", an (S, A) table, or a callable
    (s, a, s_next, t) -> reward.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    from .mdp import sample_trajectory
    rng = np.random.default_rng(seed)
    returns = np.empty(n_episodes)
    tabular = isinstance(mdp_or_env, TabularMdp)
    if tabular and horizon is None:
        bound = max(1.0, float(np.abs(mdp_or_env.reward).max()))
        horizon = truncation_horizon(mdp_or_env.discount, tol, bound)
    if not tabular and horizon is None:
        horizon = mdp_or_env.spec.episode_len

    for ep in range(n_episodes):
        traj = sample_trajectory(mdp_or_env, policy, horizon, int(rng.integers(0, 2 ** 31)))
        if isinstance(reward_source, str):
            if reward_source != "environment":
                raise ValueError(f"unknown reward source {reward_source!r}")
            rewards = traj.rewards
        elif callable(reward_source):
            rewards = np.array([reward_source(traj.states[t], traj.actions[t],
                                              traj.next_states[t], t)
                                for t in range(len(traj))])
        else:
            table = np.asarray(reward_source)
            rewards = table[traj.states, traj.actions]
        if tabular:
            disc = mdp_or_env.discount ** np.arange(len(rewards))
            returns[ep] = float((disc * rewards).sum())
        else:
            returns[ep] = float(rewards.sum())
    stderr = float(returns.std(ddof=1) / math.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    return float(returns.mean()), stderr


def exact_discounted_return(mdp: TabularMdp, policy: SoftmaxPolicy,
                            reward: Array | None = None) -> float:
    """Occupancy-weighted expected reward (the sampling-free oracle)."""
    r = mdp.reward if reward is None else np.asarray(reward, dtype=np.float64)
    occ = occupancy_measure(mdp, policy)
    return float((occ.rho * r).sum())
