"""Finite and toy-continuous MDPs, policies, trajectory sampling, and exact
per-timestep state marginals.

Tabular dynamics are deterministic: ``transition[s, a]`` is the unique next
state. All stochasticity flows through explicit seeds, so every operation
here is a pure function safe to call from concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Mlp, param_count

Array = np.ndarray

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0


def _log_softmax(logits: Array) -> Array:
    """Row-wise log softmax, the one log-probability table of a ``SoftmaxPolicy``."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


@dataclass
class TabularMdp:
    """Deterministic finite MDP: states x actions -> states."""

    transition: Array    # (S, A) int next-state table
    initial_dist: Array  # (S,)
    reward: Array        # (S, A)
    discount: float

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.int64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        self.reward = np.asarray(self.reward, dtype=np.float64)
        S, A = self.transition.shape
        if self.initial_dist.shape != (S,):
            raise ValueError("initial_dist shape mismatch")
        if self.reward.shape != (S, A):
            raise ValueError("reward shape mismatch")
        if abs(self.initial_dist.sum() - 1.0) > 1e-12 or np.any(self.initial_dist < 0):
            raise ValueError("initial_dist must be a probability vector (sum 1 within 1e-12)")
        if self.transition.min() < 0 or self.transition.max() >= S:
            raise ValueError("transition entries must be valid state indices")
        if not (0.0 <= self.discount < 1.0):
            raise ValueError("discount must lie in [0, 1)")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    def policy_transition_matrix(self, policy: "SoftmaxPolicy") -> Array:
        """M[s, s'] = sum_a pi(a|s) [transition(s, a) = s']."""
        S, A = self.transition.shape
        M = np.zeros((S, S))
        probs = policy.probs()
        for a in range(A):
            np.add.at(M, (np.arange(S), self.transition[:, a]), probs[:, a])
        return M


def check_injective_dynamics(mdp: TabularMdp) -> bool:
    """True iff from every state, distinct actions reach distinct next states."""
    for s in range(mdp.n_states):
        row = mdp.transition[s]
        if len(set(row.tolist())) != mdp.n_actions:
            return False
    return True


class SoftmaxPolicy:
    """Discrete stochastic policy pi(a|s) = softmax(logits[s]).

    Immutable: ``logits`` is a read-only copy, and the log-probability,
    probability and sampling (cumulative) tables are computed once, at
    construction; the first two are returned read-only.
    """

    def __init__(self, logits: Array):
        logits = np.array(logits, dtype=np.float64)
        if logits.ndim != 2:
            raise ValueError("logits must be (n_states, n_actions)")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        self.logits, self._log_probs = logits, _log_softmax(logits)
        self._probs = np.exp(self._log_probs)
        cdf = np.cumsum(self._probs, axis=1)
        self._cdf = cdf / cdf[:, -1:]   # normalized, as Generator.choice normalizes
        for table in (self.logits, self._log_probs, self._probs, self._cdf):
            table.flags.writeable = False

    def log_probs(self) -> Array:
        return self._log_probs

    def probs(self) -> Array:
        return self._probs

    def actions(self, s, u) -> Array:
        """The actions that uniform variates ``u`` pick in states ``s`` (both
        of one shape): per state, the count of the row's normalized
        cumulative sums at or below u, which is ``searchsorted(u,
        side="right")`` on the row, as ``Generator.choice`` searches it."""
        return (self._cdf[s] <= np.asarray(u)[..., None]).sum(axis=-1)

    def sample(self, s: int, rng: np.random.Generator) -> int:
        """The draw ``rng.choice(n_actions, p=probs()[s])`` makes: the action
        one ``rng.random()`` picks."""
        return int(self.actions(s, rng.random()))

    @staticmethod
    def uniform(n_states: int, n_actions: int) -> "SoftmaxPolicy":
        return SoftmaxPolicy(np.zeros((n_states, n_actions)))


class GaussianPolicy:
    """State-conditioned diagonal Gaussian policy for continuous control.

    The mean comes from an MLP; the log standard deviation is a free
    per-dimension parameter clamped to [-5, 2] so entropy terms stay finite.
    Both live in one vector ``flat``: ``mean_net.flat`` is a view of its
    head and ``log_std`` of its last ``action_dim`` entries, so one
    optimizer call updates the whole policy.
    """

    def __init__(self, state_dim: int, action_dim: int, hidden: tuple = (64, 64), seed: int = 0):
        self.state_dim = state_dim
        self.action_dim = action_dim
        widths = [state_dim, *hidden, action_dim]
        n = param_count(widths)
        self.flat = np.empty(n + action_dim)
        self.mean_net = Mlp(widths, seed=seed, flat=self.flat[:n])
        self.log_std = self.flat[n:]
        self.log_std[:] = -0.5

    def clamped_log_std(self) -> Array:
        return np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)

    def mean(self, s: Array) -> Array:
        return self.mean_net(np.atleast_2d(s))[0]

    def sample(self, s: Array, rng: np.random.Generator) -> Array:
        mu = self.mean(s)
        std = np.exp(self.clamped_log_std())
        a = mu + std * rng.standard_normal(self.action_dim)
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite action sampled at state {s!r}")
        return a


@dataclass
class Trajectory:
    """Rollout record; step t holds (s_t, a_t, s_{t+1}, r_env). A batch of k
    rollouts (``sample_trajectories``) holds ``(k, T)`` arrays (tabular) or
    ``(k, T, d)`` arrays (continuous), with the steps on the axis after k."""

    states: Array       # (T,) int, (T, ds) float, or the same with a leading k
    actions: Array      # (T,) int, (T, da) float, or the same with a leading k
    next_states: Array
    rewards: Array      # (T,) or (k, T)

    def __post_init__(self):
        lead = np.shape(self.rewards)
        if any(np.shape(x)[:len(lead)] != lead
               for x in (self.states, self.actions, self.next_states)):
            raise ValueError("trajectory arrays must share length")
        steps = (slice(None),) * (len(lead) - 1)   # the step axis is the rewards' last
        if lead[-1] > 1 and not np.array_equal(np.asarray(self.next_states)[steps + (slice(-1),)],
                                               np.asarray(self.states)[steps + (slice(1, None),)]):
            raise ValueError("next_states[t] must equal states[t+1]")

    def __len__(self) -> int:
        return np.shape(self.rewards)[-1]

    def rollout(self, k: int) -> "Trajectory":
        """Rollout k of a batch."""
        return Trajectory(self.states[k], self.actions[k], self.next_states[k], self.rewards[k])


@dataclass
class MarginalSchedule:
    """Exact state marginals p_t for t = 0..horizon (rows sum to 1) of
    ``policy``, whose transition matrix is ``M``: everything the entropy
    lower bound reads about one policy."""

    per_timestep: Array  # (horizon + 1, S)
    policy: SoftmaxPolicy
    M: Array             # (S, S)

    def __post_init__(self):
        sums = self.per_timestep.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValueError("each marginal must sum to 1 within 1e-10")

    def rows(self, n: int) -> Array:
        """p_0..p_{n-1}; a longer schedule has the same leading rows."""
        if len(self.per_timestep) < n:
            raise ValueError(f"need {n} marginal rows, got {len(self.per_timestep)}")
        return self.per_timestep[:n]


def state_marginals(mdp: TabularMdp, policy: SoftmaxPolicy, horizon: int) -> MarginalSchedule:
    """Forward recursion p_{t+1}(s') = sum_{s,a} p_t(s) pi(a|s) [P(s,a)=s'],
    that is p_{t+1} = M^T p_t from p_0 = the initial distribution."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    M = mdp.policy_transition_matrix(policy)
    p = np.zeros((horizon + 1, mdp.n_states))
    p[0] = mdp.initial_dist
    MT = M.T
    for t in range(horizon):
        np.dot(MT, p[t], out=p[t + 1])
    return MarginalSchedule(p, policy, M)


def _env_rollout(env, policy, max_steps: int, seed: int) -> list[tuple]:
    """One continuous rollout on ``default_rng(seed)``: ``reset``, then
    ``policy.sample`` and ``env.step`` per step; its states, actions, next
    states and rewards, one tuple each."""
    rng = np.random.default_rng(seed)
    s, steps = env.reset(rng), []
    for _ in range(max_steps):
        a = policy.sample(s, rng)
        s2, r = env.step(s, a)
        steps.append((s, a, s2, r))
        s = s2
    return list(zip(*steps))


def sample_trajectories(dynamics, policy, max_steps: int, seeds) -> Trajectory:
    """Roll out ``policy`` on ``dynamics`` (a ``TabularMdp`` or a continuous
    env) for exactly ``max_steps`` steps once per seed, as a batch of
    ``(len(seeds), max_steps, ...)`` arrays. This is the one rollout
    implementation.

    Continuous rollouts run one seed after another, each on its own
    ``default_rng``. Tabular rollouts run in lockstep: each seed's
    ``default_rng`` makes one ``random(max_steps + 1)`` draw, the stream (and
    generator state) of ``choice(p=initial_dist)`` followed by ``max_steps``
    ``random()`` calls. Its first variate picks the start state in the
    normalized cumulative sums of ``initial_dist``, as ``choice`` does;
    variate t + 1 picks the action at step t through
    ``SoftmaxPolicy.actions``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if not len(seeds):
        raise ValueError("seeds must be nonempty")
    if not isinstance(dynamics, TabularMdp):
        rollouts = (_env_rollout(dynamics, policy, max_steps, seed) for seed in seeds)
        return Trajectory(*map(np.array, zip(*rollouts)))
    mdp = dynamics
    u = np.array([np.random.default_rng(seed).random(max_steps + 1) for seed in seeds])
    start = np.cumsum(mdp.initial_dist)
    path = np.empty((len(seeds), max_steps + 1), dtype=np.int64)   # s_0..s_T per rollout
    path[:, 0] = (start / start[-1]).searchsorted(u[:, 0], side="right")
    actions = np.empty((len(seeds), max_steps), dtype=np.int64)
    for t in range(max_steps):
        actions[:, t] = policy.actions(path[:, t], u[:, t + 1])
        path[:, t + 1] = mdp.transition[path[:, t], actions[:, t]]
    states = path[:, :-1]
    return Trajectory(states, actions, path[:, 1:], mdp.reward[states, actions])


def sample_trajectory(dynamics, policy, max_steps: int, seed: int) -> Trajectory:
    """Roll out ``policy`` for exactly ``max_steps`` steps, reproducibly: the
    one rollout ``sample_trajectories`` gives for ``[seed]``."""
    return sample_trajectories(dynamics, policy, max_steps, [seed]).rollout(0)
