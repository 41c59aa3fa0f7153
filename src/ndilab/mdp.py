"""Finite and toy-continuous MDPs, policies, trajectory sampling, and exact
per-timestep state marginals.

Tabular dynamics are deterministic: ``transition[s, a]`` is the unique next
state. All stochasticity flows through explicit seeds, so every operation
here is a pure function safe to call from concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Mlp

Array = np.ndarray

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
# the probability-row tolerance of Generator.choice
_PROB_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


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

    ``logits`` is never modified in place after construction (a new policy
    is built instead), so ``sample`` builds its normalized cumulative table
    once, on its first call, and reuses it.
    """

    def __init__(self, logits: Array):
        self.logits = np.asarray(logits, dtype=np.float64)
        if self.logits.ndim != 2:
            raise ValueError("logits must be (n_states, n_actions)")
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("logits must be finite")
        self._sample_cdf: Array | None = None

    def log_probs(self) -> Array:
        z = self.logits - self.logits.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def probs(self) -> Array:
        return np.exp(self.log_probs())

    def sample(self, s: int, rng: np.random.Generator) -> int:
        """The draw ``rng.choice(n_actions, p=probs()[s])`` makes: one
        ``rng.random()`` searched in the row's normalized cumulative sums."""
        if self._sample_cdf is None:
            probs = self.probs()
            if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > _PROB_ATOL):
                raise ValueError("action probabilities must be non-negative and sum to 1")
            cdf = np.cumsum(probs, axis=1)
            cdf /= cdf[:, -1:]
            self._sample_cdf = cdf
        return int(self._sample_cdf[s].searchsorted(rng.random(), side="right"))

    @staticmethod
    def uniform(n_states: int, n_actions: int) -> "SoftmaxPolicy":
        return SoftmaxPolicy(np.zeros((n_states, n_actions)))


class GaussianPolicy:
    """State-conditioned diagonal Gaussian policy for continuous control.

    The mean comes from an MLP; the log standard deviation is a free
    per-dimension parameter clamped to [-5, 2] so entropy terms stay finite.
    """

    def __init__(self, state_dim: int, action_dim: int, hidden: tuple = (64, 64), seed: int = 0):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.mean_net = Mlp([state_dim, *hidden, action_dim], seed=seed)
        self.log_std = np.full(action_dim, -0.5)

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

    def log_prob(self, s: Array, a: Array) -> float:
        mu = self.mean(s)
        log_std = self.clamped_log_std()
        z = (np.asarray(a, dtype=np.float64) - mu) / np.exp(log_std)
        return float(-0.5 * np.sum(z ** 2) - np.sum(log_std) - 0.5 * self.action_dim * np.log(2 * np.pi))


@dataclass
class Trajectory:
    """Rollout record; step t holds (s_t, a_t, s_{t+1}, r_env)."""

    states: Array       # (T,) int or (T, ds) float
    actions: Array      # (T,) int or (T, da) float
    next_states: Array
    rewards: Array      # (T,)

    def __post_init__(self):
        T = len(self.rewards)
        if not (len(self.states) == len(self.actions) == len(self.next_states) == T):
            raise ValueError("trajectory arrays must share length")
        if T > 1 and not np.array_equal(np.asarray(self.next_states)[:-1], np.asarray(self.states)[1:]):
            raise ValueError("next_states[t] must equal states[t+1]")

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def timesteps(self) -> Array:
        return np.arange(len(self.rewards))


@dataclass
class MarginalSchedule:
    """Exact state marginals p_t for t = 0..horizon (rows sum to 1)."""

    per_timestep: Array  # (horizon + 1, S)
    horizon: int

    def __post_init__(self):
        sums = self.per_timestep.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValueError("each marginal must sum to 1 within 1e-10")

    def at(self, t: int) -> Array:
        return self.per_timestep[t]


def state_marginals(mdp: TabularMdp, policy: SoftmaxPolicy, horizon: int) -> MarginalSchedule:
    """Forward recursion p_{t+1}(s') = sum_{s,a} p_t(s) pi(a|s) [P(s,a)=s']."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    M = mdp.policy_transition_matrix(policy)
    p = np.zeros((horizon + 1, mdp.n_states))
    p[0] = mdp.initial_dist
    for t in range(horizon):
        p[t + 1] = M.T @ p[t]
    return MarginalSchedule(p, horizon)


def policy_log_prob(policy, s, a) -> float:
    """Exact log-probability of action ``a`` in state ``s``."""
    if isinstance(policy, SoftmaxPolicy):
        return float(policy.log_probs()[int(s), int(a)])
    if isinstance(policy, GaussianPolicy):
        return policy.log_prob(s, a)
    raise TypeError(f"unsupported policy type {type(policy)!r}")


def sample_trajectory(mdp_or_env, policy, max_steps: int, seed: int) -> Trajectory:
    """Roll out ``policy`` for exactly ``max_steps`` steps, reproducibly."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rng = np.random.default_rng(seed)
    if isinstance(mdp_or_env, TabularMdp):
        mdp = mdp_or_env
        s = int(rng.choice(mdp.n_states, p=mdp.initial_dist))
        states = np.empty(max_steps, dtype=np.int64)
        actions = np.empty(max_steps, dtype=np.int64)
        nexts = np.empty(max_steps, dtype=np.int64)
        rewards = np.empty(max_steps)
        for t in range(max_steps):
            a = policy.sample(s, rng)
            s2 = int(mdp.transition[s, a])
            states[t], actions[t], nexts[t], rewards[t] = s, a, s2, mdp.reward[s, a]
            s = s2
        return Trajectory(states, actions, nexts, rewards)
    env = mdp_or_env
    s = env.reset(rng)
    states, actions, nexts, rewards = [], [], [], []
    for t in range(max_steps):
        a = policy.sample(s, rng)
        s2, r = env.step(s, a)
        states.append(s)
        actions.append(a)
        nexts.append(s2)
        rewards.append(r)
        s = s2
    return Trajectory(np.array(states), np.array(actions), np.array(nexts), np.array(rewards))
