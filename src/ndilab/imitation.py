"""Phase-2 machinery: the augmented reward, the fixed RBF critic, the
bucketed replay ring behind both the timestep-indexed buffer and the SAC
buffer, tabular soft policy iteration, a compact soft actor-critic for
toy continuous runs, and policy evaluation.

``augmented_reward`` is the one reward sum, log q(s, a) + lambda_f r_f, and
both trainers call it; the policy-entropy weight lambda_pi is the learner's
soft-RL temperature, not a reward term.

The NWJ term r_f takes the Algorithm-1 shape, f(s, s') - (gamma/e) times
the two sampled cross terms. The gradient-identity shape (a leading gamma on
f(s, s') and swapped critic arguments in the cross terms) is computed
exactly, from occupancy marginals rather than replay samples, by
``occupancy._frozen_reward_tables`` for the verification suite; the RBF
critic is symmetric, so the swap does not change its rewards.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, MlpStack, adam_step, backward, input_grad
from .mdp import GaussianPolicy, SoftmaxPolicy, TabularMdp, sample_trajectories
from .occupancy import occupancy_measure, truncation_horizon

logger = logging.getLogger(__name__)

Array = np.ndarray


_THIS_AND_NEXT = np.array([0, 1])   # bucket offsets of a timestep and the next, made once


class Ring:
    """FIFO queues of float64 rows, one per bucket, in one ``np.empty``
    ``(buckets, capacity, *shape)`` array; each bucket wraps on its own.
    ``flat`` views it as ``(buckets * capacity, *shape)`` for gathers."""

    def __init__(self, buckets: int, capacity: int, shape: tuple):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rows = np.empty((buckets, capacity, *shape))
        self.flat = self.rows.reshape(buckets * capacity, *shape)
        self.lens = np.zeros(buckets, dtype=np.int64)    # rows held, per bucket
        self.heads = np.zeros(buckets, dtype=np.int64)   # slot of each bucket's oldest row
        self.size = 0                                    # rows held, all buckets
        self.wrapped = False                             # has any bucket overwritten a row

    def add(self, b, rows) -> None:
        """Append ``rows[i]`` to bucket ``b[i]`` for distinct buckets ``b``
        (or one row to one bucket); a full bucket's new row replaces its
        oldest. A bucket's head stays 0 until it is full, so its next slot is
        always head + length, modulo the capacity."""
        held, head = self.lens[b], self.heads[b]
        self.flat[b * self.capacity + (head + held) % self.capacity] = rows
        full = held // self.capacity   # 1 where the bucket was full, else 0
        self.lens[b] = held + 1 - full
        self.heads[b] = (head + full) % self.capacity
        overwritten = int(np.count_nonzero(full))
        self.size += full.size - overwritten
        self.wrapped = self.wrapped or overwritten > 0

    def take(self, b, idx: Array) -> Array:
        """Rows at oldest-first positions ``idx`` (each below the bucket's
        length) of buckets ``b``, which broadcast against ``idx``: one
        ``take`` from ``flat``."""
        if self.wrapped:   # else every position is its own slot
            idx = (self.heads[b] + idx) % self.capacity
        return self.flat.take(b * self.capacity + idx, axis=0)

    def __len__(self) -> int:
        return self.size


class TimestepReplayBuffer:
    """Visited states bucketed by trajectory timestep 0..horizon in one
    ``Ring``, for the marginal expectations of the critic reward: states
    deposited at trajectory index t approximate samples from the time-t
    state marginal. Reads return arrays, oldest state first."""

    def __init__(self, horizon: int, dim: int, capacity_per_bucket: int = 1024,
                 seed: int = 0):
        self.horizon = horizon
        self.ring = Ring(horizon + 1, capacity_per_bucket, (dim,))
        self.rng = np.random.default_rng(seed)

    def _bucket(self, t) -> int:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"timestep {t} outside 0..{self.horizon}")
        return int(t)

    def add(self, t, state: Array) -> None:
        """Deposit ``state`` (shape ``(dim,)``) at timestep t, or, for a 1-D
        array t of distinct timesteps (one rollout's 0..T), ``state[i]`` at
        ``t[i]`` in one write; ``state`` then has shape ``(len(t), dim)``."""
        ts = np.asarray(t)
        dim = self.ring.rows.shape[-1]
        if np.shape(state) != (*ts.shape, dim):
            raise ValueError(f"states of shape {np.shape(state)} for timesteps of shape "
                             f"{ts.shape}: each state must have shape (dim,) = ({dim},)")
        steps = ts.ravel().tolist()
        self._bucket(min(steps))
        self._bucket(max(steps))
        if len(set(steps)) < len(steps):
            raise ValueError("the timesteps of one add must be distinct")
        self.ring.add(ts, state)

    def bucket(self, t: int) -> Array:
        b = self._bucket(t)
        return self.ring.take(b, np.arange(self.ring.lens[b]))

    def pooled(self) -> Array:
        """Every held state, in ascending t."""
        lens = self.ring.lens
        b = np.repeat(np.arange(len(lens)), lens)   # each row's bucket
        return self.ring.take(b, np.arange(len(b)) - (np.cumsum(lens) - lens)[b])

    def sample(self, t, n: int) -> Array:
        """n states drawn uniformly, with replacement, from bucket t for each
        timestep in ``t``, as a ``t.shape + (n, dim)`` array: the draws, and the
        generator state, of one ``integers(0, len, size=n)`` call per timestep in
        ``t.ravel()`` order. An empty bucket draws from the pooled rows, with a warning."""
        ts = np.asarray(t)
        steps = ts.ravel().tolist()   # list reductions cost less on a few entries
        self._bucket(min(steps))
        self._bucket(max(steps))
        lens = self.ring.lens[ts]
        pooled = None
        if 0 in lens.ravel().tolist():
            pooled = self.pooled()
            if not len(pooled):
                raise ValueError("replay buffer is empty")
            empty = lens == 0
            for x in ts[empty]:
                logger.warning("bucket %d empty; falling back to pooled replay sampling", x)
            lens = np.where(empty, len(pooled), lens)
        # one bound for all rows draws as one bound per row does, in half the time
        sizes = lens.ravel().tolist()
        bound = sizes[0] if sizes.count(sizes[0]) == len(sizes) else lens[..., None]
        idx = self.rng.integers(0, bound, size=(*ts.shape, n))
        if pooled is None:
            return self.ring.take(ts[..., None], idx)
        rows = self.ring.take(ts[..., None], np.where(empty[..., None], 0, idx))  # in range
        rows[empty] = pooled[idx[empty]]
        return rows

    def pairs(self, t, k: int, rng: np.random.Generator) -> Array:
        """k pairs (state at t, state at t + 1) for each timestep in ``t`` (an
        int or a 1-D array), as one ``(m k, 2, dim)`` array in t order, where
        m counts the timesteps whose two buckets both hold states; the others
        give no pairs and draw nothing. One ``rng.integers`` call makes the
        draws of 2k alternating ``rng.integers(len)`` calls on the two buckets
        of each such t, t after t."""
        ts = np.atleast_1d(t)
        steps = ts.tolist()
        self._bucket(min(steps))
        self._bucket(max(steps) + 1)
        ts = ts[:, None] + _THIS_AND_NEXT
        lens = self.ring.lens[ts]
        held = lens.all(axis=1)
        ts, lens = ts[held], lens[held]
        idx = rng.integers(0, lens[:, None, :], size=(len(ts), k, 2))
        return self.ring.take(ts[:, None, :], idx).reshape(-1, 2, self.ring.rows.shape[-1])


def _squared_distance(s, s_next):
    """||s' - s||^2 over the last axis, broadcast over leading axes."""
    d = np.asarray(s_next, dtype=np.float64) - np.asarray(s, dtype=np.float64)
    # a stacked (1, d) @ (d, 1) product rounds exactly like the 1-D d @ d
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0]


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

    def observe_pairs(self, pairs) -> None:
        """Fold each pair's kernel value exp(-||s' - s||^2 / bandwidth) into
        the running mean normalizer, pair after pair. ``pairs`` is an
        ``(m, 2, d)`` array, as the trainers pass, or a list of (s, s') pairs."""
        pairs = np.asarray(pairs, dtype=np.float64)
        if not len(pairs):
            raise ValueError("pairs must be nonempty")
        for sq in _squared_distance(pairs[:, 0], pairs[:, 1]).tolist():
            self._count += 1
            self.normalizer += (math.exp(-sq / self.bandwidth) - self.normalizer) / self._count

    def value(self, s: Array, s_next: Array):
        if self.normalizer <= 0:
            raise ValueError("normalizer must be positive")
        v = -_squared_distance(s, s_next) / self.bandwidth - math.log(self.normalizer) + 1.0
        return float(v) if v.ndim == 0 else v


def _mean_exp(values, lead: tuple, n: int) -> Array:
    """mean over the last axis of exp(values), which must have shape lead + (n,)."""
    values = np.asarray(values)
    if values.shape != (*lead, n):
        raise ValueError(f"critic value returned shape {values.shape} for a batch of "
                         f"shape {(*lead, n)}; it must broadcast over leading axes")
    return np.mean(np.exp(values), axis=-1)


def nwj_reward(critic, s_t: Array, s_next: Array, cur: Array, nxt: Array, gamma: float):
    """The NWJ mutual-information reward of ``reward_f`` against explicit
    marginal samples ``cur`` (n, d) and ``nxt`` (m, d).

    ``s_t`` and ``s_next`` are (d,) for one transition or (k, d) for k
    transitions at once (giving k rewards); with k transitions the samples
    may also be per transition, ``cur`` (k, n, d) and ``nxt`` (k, m, d).
    ``critic`` is a callable or has a ``value`` method; either way f(x, y)
    must broadcast over leading axes.
    """
    f = getattr(critic, "value", critic)
    s_t, s_next, cur, nxt = map(np.asarray, (s_t, s_next, cur, nxt))
    lead = s_t.shape[:-1]
    a, b = s_next[..., None, :], s_t[..., None, :]
    cross = (_mean_exp(f(a, cur), lead, cur.shape[-2])
             + _mean_exp(f(nxt, b), lead, nxt.shape[-2]))
    return f(s_t, s_next) - (gamma / math.e) * cross


def reward_f(critic, s_t: Array, s_next: Array, buffer: TimestepReplayBuffer,
             t, gamma: float, n_marginal_samples: int):
    """Mutual-information reward against replay-bucket marginal samples.

    Draws ``n_marginal_samples`` states x from bucket t and as many states y
    from bucket t+1 in one ``TimestepReplayBuffer.sample`` call (an empty
    bucket falls back to the pooled buffer), and returns ``nwj_reward``:
      f(s_t, s') - (gamma/e) mean[e^{f(s', x)} + e^{f(y, s_t)}]
    ``critic.value`` (or ``critic`` itself, if callable) must broadcast over
    leading axes; a scalar result for a batch raises ``ValueError``.

    For many transitions at once, pass states with leading axes, (k, d) or
    (k, T, d), and timesteps of that leading shape: the buckets are drawn in
    the order t_0, t_0+1, t_1, t_1+1, ... of the timesteps' ravel order, so
    the rewards and the buffer's generator state equal one call per
    transition in that order.
    """
    rows = buffer.sample(np.asarray(t)[..., None] + _THIS_AND_NEXT, n_marginal_samples)
    return nwj_reward(critic, s_t, s_next, rows[..., 0, :, :], rows[..., 1, :, :], gamma)


def augmented_reward(log_q, r_f, lambda_f: float):
    """The reward soft RL maximizes: log q(s, a) + lambda_f r_f, elementwise,
    so it serves one transition (floats) or a whole (S, A) table (arrays).

    The policy-entropy term lambda_pi r_pi is not added here: the learner
    carries lambda_pi as its soft-RL temperature (soft policy iteration's
    tau on tabular runs, SAC's alpha on the point mass).
    """
    return log_q + lambda_f * r_f


# ---------------------------------------------------------------------------
# Tabular soft policy iteration (exact SAC stand-in)
# ---------------------------------------------------------------------------


def soft_policy_iteration(mdp: TabularMdp, temperature: float, tol: float = 1e-10,
                          reward: Array | None = None,
                          max_iters: int = 200_000) -> SoftmaxPolicy:
    """Fixed point of the soft Bellman backup Q <- r + gamma V(P(s,a)) with
    V = tau logsumexp(Q / tau); returns the softmax(Q / tau) policy.

    Q is held action-major, as an (A, S) array, so the max and the sum over
    actions reduce across rows, one action after another. With fewer than 8
    actions that is the order numpy sums a row of an (S, A) array in; from 8
    on, numpy's pairwise row sum would round differently.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    r = mdp.reward if reward is None else np.asarray(reward, dtype=np.float64)
    r, nxt = np.ascontiguousarray(r.T), np.ascontiguousarray(mdp.transition.T)
    Q = np.zeros_like(r)
    for _ in range(max_iters):
        m = np.maximum.reduce(Q)
        V = m + temperature * np.log(np.add.reduce(np.exp((Q - m) / temperature)))
        Q_new = r + mdp.discount * V[nxt]
        residual = float(np.abs(Q_new - Q).max())
        Q = Q_new
        if residual < tol:
            return SoftmaxPolicy((Q / temperature).T)
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


def _twin_input(s: Array, a: Array) -> Array:
    """The ``(2, B, ds + da)`` input of a stacked Q pair: the rows [s, a],
    written once per net (a 2-D input broadcast by matmul runs slower)."""
    ds = s.shape[1]
    x = np.empty((2, len(s), ds + a.shape[1]))
    x[:, :, :ds] = s
    x[:, :, ds:] = a
    return x


class SacLearner:
    """Twin-Q soft actor-critic with the temperature tuned toward entropy
    -action_dim, stored actions clipped to +-ACTION_BOUND, BOUND_PENALTY times
    the policy's squared excess beyond it, and Polyak rate POLYAK.

    The twin Q nets are one ``MlpStack`` (``q``; ``q1`` and ``q2`` are its
    nets, views into ``q.flat``), and so are their targets (``q_target``),
    so each Q pass, Adam step and Polyak update covers both nets at once.
    """

    def __init__(self, state_dim: int, action_dim: int, config: SacConfig):
        self.config = config
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.policy = GaussianPolicy(state_dim, action_dim, hidden=config.hidden,
                                     seed=config.seed)
        widths = [state_dim + action_dim, *config.hidden, 1]
        seeds = (config.seed + 1, config.seed + 2)
        self.q, self.q_target = MlpStack(widths, seeds), MlpStack(widths, seeds)
        self.q1, self.q2 = self.q.nets
        self.q1_target, self.q2_target = self.q_target.nets
        self.log_alpha = np.array([math.log(0.2)])
        self.target_entropy = -float(action_dim)
        # one row per transition: s, a, r, s2, done
        self.buffer = Ring(1, config.buffer_capacity, (2 * state_dim + action_dim + 2,))
        self.rng = np.random.default_rng(config.seed)
        self.opt_q = AdamState(lr=config.lr)       # both Q nets, on q.flat
        self.opt_pi = AdamState(lr=config.lr)      # mean net and log-std, on policy.flat
        self.opt_alpha = AdamState(lr=config.lr_alpha)

    def add_transition(self, s, a, r, s2, done: bool) -> None:
        a = np.clip(np.asarray(a, dtype=np.float64), -ACTION_BOUND, ACTION_BOUND)
        self.buffer.add(0, np.concatenate([np.asarray(s, float), a, [float(r)],
                                           np.asarray(s2, float), [float(done)]]))

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def _batch(self):
        idx = self.rng.integers(0, len(self.buffer), size=self.config.batch_size)
        rows = self.buffer.take(0, idx)
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
        q_next = self.q_target.forward(_twin_input(S2, A2))[-1]
        q_min = np.minimum(q_next[0, :, 0], q_next[1, :, 0])
        y = R + cfg.gamma * (1.0 - D) * (q_min - alpha * logp2)

        # Both losses and their gradients are written out on arrays. Each
        # expression, and the order of the one three-term sum (the a_new
        # gradient), is the one a reverse-mode graph of the same losses
        # evaluates, so the update is byte-identical to it; graph_step in
        # tests/test_imitation.py is that reference.
        tape = self.q.forward(_twin_input(S, A))
        diff = tape[-1] - y[:, None]
        sq = diff ** 2
        losses = {}
        for k, name in enumerate(("q1", "q2")):
            losses[name] = float(sq[k].sum() * (1.0 / B))   # nmean of the squared error
            if not np.isfinite(losses[name]):
                raise FloatingPointError(f"non-finite {name} loss")
        adam_step(self.opt_q, self.q.flat, backward(self.q, tape, (1.0 / B) * 2.0 * diff))

        # policy: maximize min Q(s, a~) - alpha log pi(a~|s) with reparameterized a~
        eps = self.rng.standard_normal((B, da))
        mean_tape = self.policy.mean_net.forward(S)
        a_new = mean_tape[-1] + std * eps
        logp = (eps ** 2 * -0.5 - (log_std_c + 0.5 * math.log(2 * math.pi))).sum(axis=1)
        q_tape = self.q.forward(_twin_input(S, a_new))
        q1, q2 = q_tape[-1]
        take1 = (q1 <= q2).astype(np.float64)   # ties take q1
        qmin = np.minimum(q1, q2)
        pi_loss = (logp * alpha - qmin.reshape((B,))).sum() * (1.0 / B)
        a_clipped = np.clip(a_new, -ACTION_BOUND, ACTION_BOUND)
        overflow = a_new - a_clipped
        pi_loss = pi_loss + (overflow ** 2).sum(axis=1).sum() * (1.0 / B) * BOUND_PENALTY
        if not np.isfinite(pi_loss):
            raise FloatingPointError("non-finite policy loss")

        g_q = -(1.0 / B)   # d pi_loss / d qmin, per row
        gx = input_grad(self.q, q_tape, np.stack([g_q * take1, g_q * (1.0 - take1)]))
        g_over = BOUND_PENALTY * (1.0 / B) * 2.0 * overflow
        # a clamp passes gradient only where its input lies inside the bounds
        g_a = ((gx[0] + gx[1])[:, ds:] + g_over) + (-g_over) * (a_clipped == a_new)
        mean_grad = backward(self.policy.mean_net, mean_tape, g_a)
        # log_std reaches the loss through std * eps and through logp (whose
        # per-row gradient alpha / B is broadcast over the action columns)
        g_logp = np.full((B, da), (1.0 / B) * alpha)
        g_log_std = (g_a * eps).sum(axis=0) * std + (-g_logp).sum(axis=0)
        g_log_std = g_log_std * (log_std_c == log_std)
        adam_step(self.opt_pi, self.policy.flat, np.concatenate([mean_grad, g_log_std]))
        losses["pi"] = float(pi_loss)

        # temperature: alpha <- alpha - lr d/dlog_alpha [-log_alpha (logp + target)]
        alpha_grad = np.array([-(logp.mean() + self.target_entropy)])
        adam_step(self.opt_alpha, self.log_alpha, alpha_grad)
        losses["alpha"] = self.alpha

        # Polyak averaging of both targets
        self.q_target.flat *= (1.0 - POLYAK)
        self.q_target.flat += POLYAK * self.q.flat
        return losses


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _rollout_states(policy, mdp_or_env, n_states: int, seed: int, episode_len: int = 50):
    """The first ``n_states`` states, episode after episode, of as many
    ``episode_len``-step episodes as that takes, rolled in one
    ``sample_trajectories`` call: an ``(n_states,)`` array of tabular states
    or an ``(n_states, d)`` array of continuous ones. Episode ep's seed is
    the ep-th ``integers(0, 2 ** 31)`` draw of ``default_rng(seed)``, plus ep."""
    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(0, 2 ** 31)) + ep for ep in range(-(-n_states // episode_len))]
    states = sample_trajectories(mdp_or_env, policy, episode_len, seeds).states
    return states.reshape(-1, *states.shape[2:])[:n_states]


def _gaussian_kl(mu0, log_std0, mu1, log_std1) -> float:
    v0, v1 = np.exp(2 * log_std0), np.exp(2 * log_std1)
    return float(np.sum(log_std1 - log_std0 + (v0 + (mu0 - mu1) ** 2) / (2 * v1) - 0.5))


def _mean_policy_kl(policy, expert_policy, mdp_or_env, n_eval_states: int, seed: int,
                    episode_len: int) -> float:
    """E_{s~pi}[KL(pi(.|s) || pi_E(.|s))] over the first ``n_eval_states``
    states ``policy`` visits; discrete KL exact, Gaussian KL analytic."""
    if n_eval_states < 1:
        raise ValueError("n_eval_states must be >= 1")
    states = _rollout_states(policy, mdp_or_env, n_eval_states, seed, episode_len)
    if isinstance(mdp_or_env, TabularMdp):
        P = policy.probs()[states]
        log_ratio = (policy.log_probs() - expert_policy.log_probs())[states]
        return float(np.mean(np.where(P > 0, P * log_ratio, 0.0).sum(axis=1)))
    return float(np.mean([_gaussian_kl(policy.mean(s), policy.clamped_log_std(),
                                       expert_policy.mean(s), expert_policy.clamped_log_std())
                          for s in states]))


def policy_kl_baseline(expert_policy, mdp_or_env, n_eval_states: int = 200,
                       seed: int = 0, episode_len: int = 50) -> float:
    """The denominator of ``evaluate_policy_kl``: the mean KL of a random
    policy (uniform actions; on a continuous env, zero mean and unit
    variance) to the expert. It depends only on its arguments, so a run
    that scores many policies with the same ones computes it once."""
    if isinstance(mdp_or_env, TabularMdp):
        random_policy = SoftmaxPolicy.uniform(mdp_or_env.n_states, mdp_or_env.n_actions)
    else:
        random_policy = GaussianPolicy(mdp_or_env.state_dim, mdp_or_env.action_dim,
                                       hidden=(8,), seed=777)
        random_policy.flat[...] = 0.0
    denom = _mean_policy_kl(random_policy, expert_policy, mdp_or_env, n_eval_states, seed,
                            episode_len)
    if denom == 0:
        raise ZeroDivisionError("random-policy KL baseline is zero")
    return denom


def evaluate_policy_kl(policy, expert_policy, mdp_or_env, n_eval_states: int = 200,
                       seed: int = 0, episode_len: int = 50,
                       baseline: float | None = None) -> float:
    """E_{s~pi}[KL(pi(.|s) || pi_E(.|s))] normalized by the same quantity for
    a random policy; discrete KL exact, Gaussian KL analytic.

    ``baseline`` is that denominator when already computed by
    ``policy_kl_baseline`` with the same expert, env, n_eval_states, seed
    and episode_len; by default it is computed here.
    """
    if baseline is None:
        baseline = policy_kl_baseline(expert_policy, mdp_or_env, n_eval_states, seed,
                                      episode_len)
    return _mean_policy_kl(policy, expert_policy, mdp_or_env, n_eval_states, seed,
                           episode_len) / baseline


def evaluate_return(policy, mdp_or_env, n_episodes: int = 20, seed: int = 0,
                    reward_fn=None) -> tuple[float, float, float | None]:
    """Sampled mean environment return, its standard error, and the mean
    return under ``reward_fn`` over the same episodes (None when no
    ``reward_fn`` is given). ``reward_fn(states, actions, next_states,
    timesteps)`` takes one episode's arrays, one row per step, and returns its
    per-step rewards. All episodes are rolled once, in one
    ``sample_trajectories`` call, on the seeds one generator draws episode by
    episode; ``reward_fn`` is called once per episode, in episode order.

    Tabular environments use discounted returns over a horizon that leaves a
    tail below 1e-9; continuous episodes sum undiscounted rewards over the
    episode. Either way an episode's return is one weighted row sum.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(mdp_or_env, TabularMdp):
        bound = max(1.0, float(np.abs(mdp_or_env.reward).max()))
        horizon = truncation_horizon(mdp_or_env.discount, 1e-9, bound)
        weights = mdp_or_env.discount ** np.arange(horizon)
    else:
        horizon, weights = mdp_or_env.spec.episode_len, 1.0
    seeds = [int(rng.integers(0, 2 ** 31)) for _ in range(n_episodes)]
    batch = sample_trajectories(mdp_or_env, policy, horizon, seeds)
    returns = (weights * batch.rewards).sum(axis=1)
    stderr = float(returns.std(ddof=1) / math.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    if reward_fn is None:
        return float(returns.mean()), stderr, None
    shaped = [(weights * np.asarray(reward_fn(traj.states, traj.actions, traj.next_states,
                                              np.arange(horizon)), dtype=np.float64)).sum()
              for traj in map(batch.rollout, range(n_episodes))]
    return float(returns.mean()), stderr, float(np.mean(shaped))


def exact_discounted_return(mdp: TabularMdp, policy: SoftmaxPolicy) -> float:
    """Occupancy-weighted expected reward (the sampling-free oracle)."""
    occ = occupancy_measure(mdp, policy)
    return float((occ.rho * mdp.reward).sum())
