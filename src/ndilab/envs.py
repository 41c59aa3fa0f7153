"""Built-in benchmark environments: injective deterministic chain and
gridworld MDPs for exact verification, and a 2-D point-mass continuous
environment for the neural pipeline.

Tabular environments carry a coordinate embedding of their discrete states
and actions so density models and the RBF critic can operate on real vectors.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .imitation import soft_policy_iteration
from .mdp import SoftmaxPolicy, TabularMdp, check_injective_dynamics

Array = np.ndarray


@dataclass
class TabularEmbedding:
    """Real-vector coordinates for discrete states and actions."""

    state_coords: Array   # (S, ds)
    action_coords: Array  # (A, da)

    def state(self, s: int) -> Array:
        return self.state_coords[int(s)]

    def action(self, a: int) -> Array:
        return self.action_coords[int(a)]


def build_chain(n_states: int, gamma: float = 0.9) -> TabularMdp:
    """Cyclic chain with left/right actions and the goal at the last state;
    a move into the goal earns 1, every other move 0.

    Wrap-around keeps the dynamics injective for n >= 3. For n == 2 the
    left/right translations coincide, so the two actions become stay/flip
    (the XOR dynamics), which is the injective two-state analogue.
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    S = n_states
    transition = np.zeros((S, 2), dtype=np.int64)
    if S == 2:
        transition[:, 0] = [0, 1]            # stay
        transition[:, 1] = [1, 0]            # flip
    else:
        transition[:, 0] = (np.arange(S) - 1) % S
        transition[:, 1] = (np.arange(S) + 1) % S
    goal = S - 1
    reward = np.where(transition == goal, 1.0, 0.0)
    initial = np.zeros(S)
    initial[0] = 1.0
    return TabularMdp(transition, initial, reward, gamma)


def chain_embedding(n_states: int) -> TabularEmbedding:
    return TabularEmbedding(np.arange(n_states, dtype=np.float64)[:, None],
                            np.arange(2, dtype=np.float64)[:, None])


@dataclass
class GridworldSpec:
    """A W x H torus that starts in cell (0, 0); a move into ``goal`` earns
    1, every other move 0."""

    width: int = 5
    height: int = 5
    goal: tuple[int, int] = (4, 4)
    discount: float = 0.9


# Candidate displacement vectors, in preference order, used to replace moves
# whose wrap-around image collides with an already-used one on tiny grids.
_FALLBACK_MOVES = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


def build_gridworld(spec: GridworldSpec) -> TabularMdp:
    """Toroidal gridworld with actions {stay, right, left, down, up}.

    An action that would leave the grid wraps to the opposite edge, which is a
    permutation of the cells and never collapses two actions for width and
    height >= 3. On degenerate dimensions the colliding translation is
    replaced by a diagonal one (or dropped), keeping the dynamics injective;
    the result is always validated by the injectivity check.
    """
    W, H = spec.width, spec.height
    if W < 2 or H < 2:
        raise ValueError("gridworld needs width and height >= 2")
    moves = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    used: list[tuple[int, int]] = []
    fallbacks = list(_FALLBACK_MOVES)
    for dx, dy in moves:
        eff = (dx % W, dy % H)
        while eff in used and fallbacks:
            fx, fy = fallbacks.pop(0)
            eff = (fx % W, fy % H)
        if eff not in used:
            used.append(eff)
    S, A = W * H, len(used)
    transition = np.zeros((S, A), dtype=np.int64)
    for s in range(S):
        x, y = s % W, s // W
        for a, (dx, dy) in enumerate(used):
            transition[s, a] = ((x + dx) % W) + ((y + dy) % H) * W
    goal_idx = spec.goal[0] + spec.goal[1] * W
    reward = np.where(transition == goal_idx, 1.0, 0.0)
    initial = np.zeros(S)
    initial[0] = 1.0
    mdp = TabularMdp(transition, initial, reward, spec.discount)
    if not check_injective_dynamics(mdp):
        raise ValueError(f"gridworld spec {spec} yields non-injective dynamics")
    return mdp


def gridworld_embedding(spec: GridworldSpec) -> TabularEmbedding:
    W, H = spec.width, spec.height
    coords = np.array([[s % W, s // W] for s in range(W * H)], dtype=np.float64)
    mdp = build_gridworld(spec)
    return TabularEmbedding(coords, np.arange(mdp.n_actions, dtype=np.float64)[:, None])


# ---------------------------------------------------------------------------
# Continuous 2-D point mass
# ---------------------------------------------------------------------------


@dataclass
class PointMassSpec:
    dt: float = 0.1
    episode_len: int = 50
    friction: float = 0.1
    max_accel: float = 1.0
    start_radius: float = 1.0


def pointmass_step(spec: PointMassSpec, s: Array, a: Array) -> Array:
    """Semi-implicit Euler: v' = (1 - friction) v + a dt;  x' = x + v' dt."""
    s = np.asarray(s, dtype=np.float64)
    a = np.clip(np.asarray(a, dtype=np.float64), -spec.max_accel, spec.max_accel)
    x, v = s[:2], s[2:]
    v2 = (1.0 - spec.friction) * v + a * spec.dt
    x2 = x + v2 * spec.dt
    return np.concatenate([x2, v2])


class PointMassEnv:
    """Episodic wrapper around the point-mass dynamics.

    State is (x, y, vx, vy); the reward -||position||^2 drives the mass
    toward the origin.
    """

    state_dim = 4
    action_dim = 2

    def __init__(self, spec: PointMassSpec | None = None):
        self.spec = spec or PointMassSpec()

    def reset(self, rng: np.random.Generator) -> Array:
        angle = rng.uniform(0, 2 * np.pi)
        r = self.spec.start_radius
        return np.array([r * np.cos(angle), r * np.sin(angle), 0.0, 0.0])

    def step(self, s: Array, a: Array) -> tuple[Array, float]:
        s2 = pointmass_step(self.spec, s, a)
        return s2, -float(s2[:2] @ s2[:2])


def pd_controller_action(s: Array, kp: float = 1.5, kd: float = 2.5,
                         max_accel: float = 1.0) -> Array:
    """Proportional-derivative controller driving the point mass to the origin."""
    a = -kp * s[:2] - kd * s[2:]
    return np.clip(a, -max_accel, max_accel)


# ---------------------------------------------------------------------------
# Experts and the environment registry
# ---------------------------------------------------------------------------


def soft_optimal_policy(mdp: TabularMdp, temperature: float = 0.05) -> SoftmaxPolicy:
    """Soft value iteration on the environment reward; the fixture expert."""
    return soft_policy_iteration(mdp, temperature, max_iters=100_000)


@dataclass
class TabularEnvBundle:
    name: str
    mdp: TabularMdp
    embedding: TabularEmbedding
    expert_tau: float = 0.05

    kind: str = "tabular"

    @property
    def dynamics(self) -> TabularMdp:
        return self.mdp

    def expert(self) -> SoftmaxPolicy:
        return soft_optimal_policy(self.mdp, self.expert_tau)


@dataclass
class ContinuousEnvBundle:
    name: str
    env: PointMassEnv

    kind: str = "continuous"

    @property
    def dynamics(self) -> PointMassEnv:
        return self.env

    def expert(self) -> "PdExpert":
        return PdExpert(self.env.spec)


class PdExpert:
    """The point-mass expert: the PD controller plus Gaussian action noise,
    with the Gaussian-policy interface, so the demonstrations are drawn from
    and the analytic KL is measured against the same policy. The log-std is
    fixed at log(noise_std) and needs no clamping."""

    action_dim = PointMassEnv.action_dim

    def __init__(self, spec: PointMassSpec, noise_std: float = 0.02):
        self.spec = spec
        self.noise_std = noise_std
        self.log_std = np.full(self.action_dim, math.log(noise_std))

    def mean(self, s: Array) -> Array:
        return pd_controller_action(s, max_accel=self.spec.max_accel)

    def clamped_log_std(self) -> Array:
        return self.log_std

    def sample(self, s: Array, rng: np.random.Generator) -> Array:
        return self.mean(s) + self.noise_std * rng.standard_normal(self.action_dim)


def get_env(name: str, discount: float | None = None,
            expert_tau: float = 0.05) -> TabularEnvBundle | ContinuousEnvBundle:
    """Resolve a registry name: "chain-N", "grid-WxH", or "pointmass";
    ``expert_tau`` is the tabular expert's temperature."""
    m = re.fullmatch(r"chain-(\d+)", name)
    if m:
        n = int(m.group(1))
        mdp = build_chain(n, gamma=discount if discount is not None else 0.9)
        return TabularEnvBundle(name, mdp, chain_embedding(n), expert_tau)
    m = re.fullmatch(r"grid-(\d+)x(\d+)", name)
    if m:
        W, H = int(m.group(1)), int(m.group(2))
        spec = GridworldSpec(width=W, height=H, goal=(W - 1, H - 1),
                             discount=discount if discount is not None else 0.9)
        return TabularEnvBundle(name, build_gridworld(spec), gridworld_embedding(spec),
                                expert_tau)
    if name == "pointmass":
        return ContinuousEnvBundle(name, PointMassEnv())
    raise KeyError(f"unknown environment {name!r}")
