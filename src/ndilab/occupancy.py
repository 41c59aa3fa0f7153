"""Exact occupancy measures, generalized entropies, mutual information, the
variational MI lower bound, the state-action entropy lower bound, reverse KL,
and both sides of the gradient identity on tabular MDPs.

Everything here is computed either in closed form (linear solves) or by
truncated forward recursion with an explicit, reported truncation horizon.
Infinite-horizon sums are cut at T with gamma^T * bound(summand) < tol.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import SoftmaxPolicy, TabularMdp, state_marginals

Array = np.ndarray

EXP_OVERFLOW = 700.0          # exp() overflows float64 just above this
UNSUPPORTED_CRITIC_FLOOR = -30.0


@dataclass
class OccupancyTable:
    """Non-normalized visitation frequencies rho(s, a) with total mass 1/(1-gamma)."""

    rho: Array
    mass: float

    def __post_init__(self):
        if np.any(self.rho < 0):
            raise ValueError("occupancy entries must be non-negative")
        if abs(self.rho.sum() - self.mass) > 1e-8 * max(1.0, self.mass):
            raise ValueError(
                f"occupancy mass {self.rho.sum():.12g} != expected {self.mass:.12g}")

    def state_marginal(self) -> Array:
        return self.rho.sum(axis=1)


@dataclass
class JointTable:
    """Joint distribution over a pair of state variables with its marginals."""

    joint: Array   # (X, Y), sums to 1
    marg_x: Array
    marg_y: Array

    def __post_init__(self):
        if abs(self.joint.sum() - 1.0) > 1e-10:
            raise ValueError("joint must sum to 1 within 1e-10")
        if np.any(np.abs(self.joint.sum(axis=1) - self.marg_x) > 1e-10):
            raise ValueError("marg_x must equal the joint's row sums")
        if np.any(np.abs(self.joint.sum(axis=0) - self.marg_y) > 1e-10):
            raise ValueError("marg_y must equal the joint's column sums")

    @staticmethod
    def from_joint(joint: Array) -> "JointTable":
        joint = np.asarray(joint, dtype=np.float64)
        return JointTable(joint, joint.sum(axis=1), joint.sum(axis=0))


@dataclass
class CriticTable:
    """Critic values f(x, y) on the joint's support grid."""

    values: Array

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("critic values must be finite")


@dataclass
class SaelboReport:
    """Decomposition of the state-action entropy lower bound.

    saelbo = h_s0 + (1 + gamma) * h_policy + gamma * mi_sum; the additive
    constant ln(1-gamma)/(1-gamma) is reported separately because it is
    policy-independent (see the constant-corrected inequality checks).
    """

    h_s0: float
    h_policy: float
    mi_sum: float
    constant_c_gamma: float
    saelbo: float
    truncation_T: int


def truncation_horizon(gamma: float, tol: float, summand_bound: float = 1.0) -> int:
    """Smallest T with gamma^T * summand_bound < tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if gamma == 0.0:
        return 1
    b = max(summand_bound, 1.0)
    T = int(math.ceil((math.log(tol) - math.log(b)) / math.log(gamma))) + 1
    return max(T, 1)


def occupancy_measure(mdp: TabularMdp, policy: SoftmaxPolicy, tol: float = 1e-10) -> OccupancyTable:
    """rho(s, a) = sum_t gamma^t p_t(s) pi(a|s), via the exact linear solve
    rho_state = (I - gamma M^T)^{-1} p_0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    M = mdp.policy_transition_matrix(policy)
    S = mdp.n_states
    try:
        rho_state = np.linalg.solve(np.eye(S) - mdp.discount * M.T, mdp.initial_dist)
    except np.linalg.LinAlgError as err:  # impossible for gamma < 1
        raise RuntimeError("occupancy linear system is singular") from err
    rho = rho_state[:, None] * policy.probs()
    mass = 1.0 / (1.0 - mdp.discount)
    if abs(rho.sum() - mass) > tol * max(1.0, mass):
        raise RuntimeError(f"occupancy mass {rho.sum()} deviates from {mass} beyond tol")
    return OccupancyTable(rho, mass)


def generalized_entropy(density: Array) -> float:
    """-sum p log p on the extended domain of non-normalized densities.

    Zero-mass cells contribute 0 (the 0 log 0 := 0 convention).
    """
    p = np.asarray(density, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("density entries must be non-negative")
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


def discounted_policy_entropy(mdp: TabularMdp, policy: SoftmaxPolicy, tol: float = 1e-10) -> float:
    """H(pi) = -sum_{s,a} rho(s,a) log pi(a|s)."""
    occ = occupancy_measure(mdp, policy, tol)
    return float(-(occ.rho * policy.log_probs()).sum())


def mutual_information(joint: JointTable) -> float:
    """sum joint * log(joint / (marg_x marg_y)); zero-mass cells skipped."""
    J = joint.joint
    out = 0.0
    X, Y = J.shape
    for x in range(X):
        for y in range(Y):
            if J[x, y] > 0:
                out += J[x, y] * math.log(J[x, y] / (joint.marg_x[x] * joint.marg_y[y]))
    return max(out, 0.0)


def _exp_safe_max(f: Array) -> float:
    """``f.max()``; raises OverflowError naming the cell if exp(f) would overflow."""
    fmax = float(f.max())
    if fmax > EXP_OVERFLOW:
        cell = tuple(int(i) for i in np.unravel_index(int(f.argmax()), f.shape))
        raise OverflowError(f"critic value {fmax:.3g} at cell {cell} would overflow exp")
    return fmax


def _nwj(joint: Array, marg_x: Array, marg_y: Array, f: Array) -> float:
    _exp_safe_max(f)
    cross = float(marg_x @ np.exp(f) @ marg_y)
    return float((joint * f).sum()) - math.exp(-1.0) * cross


def nwj_bound(joint: JointTable, critic: CriticTable) -> float:
    """E_joint[f] - e^{-1} E_{marg_x} E_{marg_y}[e^f]; never exceeds the MI."""
    return _nwj(joint.joint, joint.marg_x, joint.marg_y, critic.values)


def optimal_critic_table(joint: JointTable, floor: float = UNSUPPORTED_CRITIC_FLOOR) -> CriticTable:
    """f*(x, y) = log(joint / (marg_x marg_y)) + 1 on supported cells.

    Cells with zero joint mass get ``floor``; their contribution to the
    cross term is then at most e^{floor - 1} per unit of marginal mass.
    Cells below 1e-250 are treated as unsupported so denormal marginal
    products cannot poison the log ratio; their weight is untestably small.
    """
    J = joint.joint
    f = np.full_like(J, floor)
    sup = J > 1e-250
    mx = np.broadcast_to(joint.marg_x[:, None], J.shape)
    my = np.broadcast_to(joint.marg_y[None, :], J.shape)
    f[sup] = np.log(J[sup]) - np.log(mx[sup]) - np.log(my[sup]) + 1.0
    return CriticTable(f)


def consecutive_state_joint(mdp: TabularMdp, policy: SoftmaxPolicy, p_t: Array) -> JointTable:
    """Joint of (s_t, s_{t+1}) given the marginal p_t of s_t."""
    M = mdp.policy_transition_matrix(policy)
    joint = p_t[:, None] * M
    return JointTable(joint, p_t, M.T @ p_t)


def conditional_state_entropy(mdp: TabularMdp, policy: SoftmaxPolicy, t: int) -> float:
    """Exact H(s_t | s_{t-1}) from the marginal schedule and transition table."""
    if t < 1:
        raise ValueError("conditional state entropy needs t >= 1")
    p_prev = state_marginals(mdp, policy, t).at(t - 1)
    M = mdp.policy_transition_matrix(policy)
    row_ent = np.array([generalized_entropy(M[s]) for s in range(mdp.n_states)])
    return float(p_prev @ row_ent)


def conditional_action_entropy(mdp: TabularMdp, policy: SoftmaxPolicy, t: int) -> float:
    """Exact H(a_{t-1} | s_{t-1})."""
    if t < 1:
        raise ValueError("conditional action entropy needs t >= 1")
    p_prev = state_marginals(mdp, policy, t).at(t - 1)
    probs = policy.probs()
    row_ent = np.array([generalized_entropy(probs[s]) for s in range(mdp.n_states)])
    return float(p_prev @ row_ent)


# ---------------------------------------------------------------------------
# State-action entropy lower bound and its gradient, both sides
# ---------------------------------------------------------------------------


def _critic_bound(f: Array) -> float:
    return max(1.0, float(np.abs(f).max()) + math.exp(_exp_safe_max(f) - 1.0))


def resolve_critic_schedule(mdp: TabularMdp, policy: SoftmaxPolicy, critic_family,
                            tol: float) -> tuple[list[Array], int]:
    """Freeze one critic table per timestep t = 0..T, choosing T from tol.

    ``critic_family`` is a CriticTable or an (S, S) array, used at every t,
    or the string "optimal" (per-t optimal critic for the current policy's
    consecutive-state joints, then frozen).
    """
    gamma = mdp.discount
    base_bound = max(1.0, math.log(max(mdp.n_actions, 2)))
    if isinstance(critic_family, str) and critic_family == "optimal":
        # NWJ at the optimal critic equals the MI, which is at most log S.
        T = truncation_horizon(gamma, tol, max(base_bound, math.log(mdp.n_states) + 1.0))
        marg = state_marginals(mdp, policy, T + 1).per_timestep
        return [optimal_critic_table(consecutive_state_joint(mdp, policy, marg[t])).values
                for t in range(T + 1)], T
    # a constant critic needs no marginals, and its own bound can only
    # lengthen the horizon
    table = (critic_family.values if isinstance(critic_family, CriticTable)
             else np.asarray(critic_family))
    T = truncation_horizon(gamma, tol, max(_critic_bound(table), base_bound))
    return [table] * (T + 1), T


def _saelbo_terms(mdp: TabularMdp, policy: SoftmaxPolicy, critic_tables: list[Array],
                  T: int) -> tuple[float, float, float]:
    """(h_s0, h_policy, mi_sum) of the bound truncated at T for frozen critics."""
    gamma = mdp.discount
    M = mdp.policy_transition_matrix(policy)
    probs, logp = policy.probs(), policy.log_probs()
    ent_rows = -(probs * np.where(probs > 0, logp, 0.0)).sum(axis=1)

    h_s0 = generalized_entropy(mdp.initial_dist)
    p = mdp.initial_dist.copy()
    h_policy = 0.0
    mi_sum = 0.0
    disc = 1.0
    for t in range(T + 1):
        h_policy += disc * float(p @ ent_rows)
        joint = p[:, None] * M
        mi_sum += disc * _nwj(joint, p, M.T @ p, critic_tables[t])
        p = M.T @ p
        disc *= gamma
    return h_s0, h_policy, mi_sum


def saelbo_value(mdp: TabularMdp, logits: Array, critic_tables: list[Array], T: int) -> float:
    """Truncated lower-bound value for a fixed, frozen critic schedule.

    Used directly by the finite-difference gradient: the critics and the
    truncation horizon stay fixed while the policy parameters move.
    """
    h_s0, h_policy, mi_sum = _saelbo_terms(mdp, SoftmaxPolicy(logits), critic_tables, T)
    return h_s0 + (1.0 + mdp.discount) * h_policy + mdp.discount * mi_sum


def saelbo(mdp: TabularMdp, policy: SoftmaxPolicy, critic_family, tol: float = 1e-10) -> SaelboReport:
    """Entropy lower bound H(s_0) + (1+gamma) H(pi) + gamma sum_t gamma^t I_t."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    tables, T = resolve_critic_schedule(mdp, policy, critic_family, tol)
    gamma = mdp.discount
    h_s0, h_policy, mi_sum = _saelbo_terms(mdp, policy, tables, T)
    value = h_s0 + (1.0 + gamma) * h_policy + gamma * mi_sum
    c_gamma = math.log(1.0 - gamma) / (1.0 - gamma)
    return SaelboReport(h_s0, h_policy, mi_sum, c_gamma, value, T)


def reverse_kl_occupancy(rho_p: OccupancyTable, rho_q: OccupancyTable) -> float:
    """Generalized KL sum rho_p log(rho_p / rho_q) over equal-mass tables."""
    if abs(rho_p.mass - rho_q.mass) > 1e-8 * max(1.0, rho_p.mass):
        raise ValueError("occupancy tables must share the same mass")
    P, Q = rho_p.rho, rho_q.rho
    bad = (P > 0) & (Q <= 0)
    if np.any(bad):
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"support violation: rho_q is zero at cell {cell} where rho_p > 0")
    sup = P > 0
    return float((P[sup] * np.log(P[sup] / Q[sup])).sum())


def _frozen_reward_tables(mdp: TabularMdp, policy: SoftmaxPolicy,
                          critic_tables: list[Array], T: int) -> list[Array]:
    """Per-timestep reward tables for the exact policy-gradient side.

    r_pi(s, a) = -(1+gamma) log q_pi(a|s) and, with s' = P(s, a),
    r_f(s, a, s') = gamma f_t(s, s')
                    - (gamma/e) (E_{x~q_t}[e^{f_t(x, s')}] + E_{y~q_{t+1}}[e^{f_t(s, y)}]),
    where q_pi and q_t are frozen copies of the current policy and marginals.
    """
    gamma = mdp.discount
    S, A = mdp.n_states, mdp.n_actions
    marg = state_marginals(mdp, policy, T + 2).per_timestep
    r_pi = -(1.0 + gamma) * policy.log_probs()
    rows = np.arange(S)
    rewards = []
    for t in range(T + 1):
        f = critic_tables[t]
        _exp_safe_max(f)
        ef = np.exp(f)
        ex_in = marg[t] @ ef          # (S',): E_{x~q_t} e^{f(x, s')}
        ex_out = ef @ marg[t + 1]     # (S,):  E_{y~q_{t+1}} e^{f(s, y)}
        r_f = np.empty((S, A))
        for a in range(A):
            nxt = mdp.transition[:, a]
            r_f[:, a] = gamma * f[rows, nxt] - (gamma / math.e) * (ex_in[nxt] + ex_out)
        rewards.append(r_pi + r_f)
    return rewards


def discounted_policy_gradient(mdp: TabularMdp, theta: Array, rewards,
                               T: int) -> Array:
    """Exact gradient of J(pi_theta, r) = sum_t gamma^t E_{p_t, pi}[r_t(s, a)]
    for frozen reward tables, by forward sensitivity through the marginals.

    ``rewards`` is one (S, A) table or a per-timestep list of length T + 1.
    """
    policy = SoftmaxPolicy(theta)
    gamma = mdp.discount
    S, A = mdp.n_states, mdp.n_actions
    P = S * A
    probs = policy.probs()
    M = mdp.policy_transition_matrix(policy)
    # G[s, a, b] = d pi(a|s) / d logits[s, b]
    G = probs[:, :, None] * (np.eye(A)[None, :, :] - probs[:, None, :])

    per_t = isinstance(rewards, (list, tuple))
    p = mdp.initial_dist.copy()
    dp = np.zeros((S, P))
    grad = np.zeros(P)
    disc = 1.0
    for t in range(T + 1):
        rbar = rewards[t] if per_t else rewards
        c = (probs * rbar).sum(axis=1)
        grad += disc * (dp.T @ c)
        dc = np.einsum("sab,sa->sb", G, rbar)  # d c(s) / d logits[s, :]
        grad += disc * (p[:, None] * dc).reshape(-1)
        if t < T:
            dp_next = M.T @ dp
            for s in range(S):
                for a in range(A):
                    dp_next[mdp.transition[s, a], s * A:(s + 1) * A] += p[s] * G[s, a]
            dp = dp_next
            p = M.T @ p
        disc *= gamma
    return grad.reshape(S, A)


def saelbo_gradient_pg(mdp: TabularMdp, theta: Array, critic_family,
                       tol: float = 1e-10) -> Array:
    """Exact discounted policy gradient of J(pi_theta, r_pi + r_f).

    The reward tables are frozen at theta; the gradient is propagated through
    the policy and all state marginals by forward sensitivity analysis, so the
    result is exact for the truncated objective.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    policy = SoftmaxPolicy(theta)
    tables, T = resolve_critic_schedule(mdp, policy, critic_family, tol)
    rewards = _frozen_reward_tables(mdp, policy, tables, T)
    return discounted_policy_gradient(mdp, theta, rewards, T)


def saelbo_gradient_fd(mdp: TabularMdp, theta: Array, critic_family,
                       eps: float = 1e-5, tol: float = 1e-10) -> Array:
    """Central finite differences of the full theta-dependent lower bound.

    Joints, marginals, and the policy are all re-derived at theta +- eps per
    coordinate; the critic schedule and truncation horizon are frozen first.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    policy = SoftmaxPolicy(theta)
    tables, T = resolve_critic_schedule(mdp, policy, critic_family, tol)
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = theta.copy()
        bumped[idx] += eps
        hi = saelbo_value(mdp, bumped, tables, T)
        bumped[idx] -= 2 * eps
        lo = saelbo_value(mdp, bumped, tables, T)
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad
