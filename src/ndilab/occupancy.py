"""Exact occupancy measures, generalized entropies, mutual information, the
variational MI lower bound, the state-action entropy lower bound, reverse KL,
and both sides of the gradient identity on tabular MDPs.

Everything here is computed either in closed form (linear solves) or by
truncated forward recursion with an explicit, reported truncation horizon.
Infinite-horizon sums are cut at T with gamma^T * bound(summand) < tol.

The lower bound, its optimal critics, its frozen reward tables and its
policy gradient are computed over the whole marginal schedule at once. They
read one ``MarginalSchedule`` per policy, which carries the policy, its
transition matrix M and its marginals; the consecutive-state joints
p_t(s) M(s, s') are stacked along a leading t axis, and the critic and NWJ
formulas work on that stack. Only the sequential parts stay loops over t
(the marginal recursion, the gradient's sensitivity recursion, and the
discounted sums, which add their terms in t order so each total rounds as
a loop over t would round it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import MarginalSchedule, SoftmaxPolicy, TabularMdp, state_marginals

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
        _check_joints(self.joint, self.marg_x, self.marg_y)

    @staticmethod
    def from_joint(joint: Array) -> "JointTable":
        joint = np.asarray(joint, dtype=np.float64)
        return JointTable(joint, joint.sum(axis=1), joint.sum(axis=0))


@dataclass
class CriticTable:
    """Critic values f(x, y) on the joint's support grid."""

    values: Array

    def __post_init__(self):
        _check_critics(self.values)


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


def _check_joints(joint: Array, marg_x: Array, marg_y: Array) -> None:
    """The JointTable checks, on one (X, Y) joint or a stack of them over
    leading axes with matching stacks of marginals."""
    if np.any(np.abs(joint.sum(axis=(-2, -1)) - 1.0) > 1e-10):
        raise ValueError("joint must sum to 1 within 1e-10")
    if np.any(np.abs(joint.sum(axis=-1) - marg_x) > 1e-10):
        raise ValueError("marg_x must equal the joint's row sums")
    if np.any(np.abs(joint.sum(axis=-2) - marg_y) > 1e-10):
        raise ValueError("marg_y must equal the joint's column sums")


def _check_critics(values: Array) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("critic values must be finite")


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


def _exp_safe_max(f: Array) -> Array:
    """The max of each (X, Y) table in ``f`` (one table, or a stack over leading
    axes). If exp would overflow on some table, raises OverflowError naming
    the largest value and its cell in the first such table in stack order."""
    fmax = f.max(axis=(-2, -1))
    over = np.flatnonzero(fmax > EXP_OVERFLOW)
    if over.size:
        table = f.reshape(-1, *f.shape[-2:])[over[0]]
        cell = tuple(int(i) for i in np.unravel_index(int(table.argmax()), table.shape))
        raise OverflowError(f"critic value {float(table.max()):.3g} at cell {cell} "
                            "would overflow exp")
    return fmax


def _nwj(joint: Array, marg_x: Array, marg_y: Array, f: Array) -> Array:
    """NWJ value of one (X, Y) table, or of each table in a stack over a
    leading axis (with (T, X) and (T, Y) marginal stacks)."""
    _exp_safe_max(f)
    cross = (marg_x[..., None, :] @ np.exp(f) @ marg_y[..., :, None])[..., 0, 0]
    fit = (joint * f).reshape(*f.shape[:-2], -1).sum(axis=-1)
    return fit - math.exp(-1.0) * cross


def nwj_bound(joint: JointTable, critic: CriticTable) -> float:
    """E_joint[f] - e^{-1} E_{marg_x} E_{marg_y}[e^f]; never exceeds the MI."""
    return float(_nwj(joint.joint, joint.marg_x, joint.marg_y, critic.values))


def optimal_critic_table(joint: JointTable, floor: float = UNSUPPORTED_CRITIC_FLOOR) -> CriticTable:
    """f*(x, y) = log(joint / (marg_x marg_y)) + 1 on supported cells.

    Cells with zero joint mass get ``floor``; their contribution to the
    cross term is then at most e^{floor - 1} per unit of marginal mass.
    Cells below 1e-250 are treated as unsupported so denormal marginal
    products cannot poison the log ratio; their weight is untestably small.
    """
    return CriticTable(_log_ratio_critic(joint.joint, joint.marg_x, joint.marg_y, floor))


def _log_ratio_critic(joint: Array, marg_x: Array, marg_y: Array, floor: float) -> Array:
    """``optimal_critic_table``'s formula on one joint or a stack over leading axes."""
    f = np.full_like(joint, floor)
    sup = joint > 1e-250
    mx = np.broadcast_to(marg_x[..., :, None], joint.shape)
    my = np.broadcast_to(marg_y[..., None, :], joint.shape)
    f[sup] = np.log(joint[sup]) - np.log(mx[sup]) - np.log(my[sup]) + 1.0
    return f


def consecutive_state_joint(mdp: TabularMdp, policy: SoftmaxPolicy, p_t: Array) -> JointTable:
    """Joint of (s_t, s_{t+1}) given the marginal p_t of s_t."""
    M = mdp.policy_transition_matrix(policy)
    joint = p_t[:, None] * M
    return JointTable(joint, p_t, M.T @ p_t)


def conditional_entropies(mdp: TabularMdp, policy: SoftmaxPolicy, max_t: int) -> tuple[Array, Array]:
    """Exact H(s_t | s_{t-1}) and H(a_{t-1} | s_{t-1}) for t = 1..max_t, from one
    marginal schedule and one row entropy per state; each entry is its own
    p_{t-1} dot product, so it rounds as a single-t computation would."""
    if max_t < 1:
        raise ValueError("conditional entropies need t >= 1")
    schedule = state_marginals(mdp, policy, max_t)
    row_ent = [np.array([generalized_entropy(row) for row in table])
               for table in (schedule.M, policy.probs())]
    return tuple(np.array([float(p @ ent) for p in schedule.rows(max_t)]) for ent in row_ent)


# ---------------------------------------------------------------------------
# State-action entropy lower bound and its gradient, both sides
# ---------------------------------------------------------------------------


def _critic_bound(f: Array) -> float:
    return max(1.0, float(np.abs(f).max()) + math.exp(float(_exp_safe_max(f)) - 1.0))


def _discounts(gamma: float, T: int) -> Array:
    """gamma^t for t = 0..T, each the previous one times gamma."""
    factors = np.full(T + 1, gamma)
    factors[0] = 1.0
    return np.cumprod(factors)


def _sum_in_order(terms: Array) -> Array:
    """terms[0] + terms[1] + ... along axis 0, added one by one from 0.0 in
    t order, so the total rounds as a loop over t would round it."""
    return np.add.accumulate(np.concatenate((np.zeros((1, *terms.shape[1:])), terms)))[-1]


def _constant_critic(critic_family) -> Array | None:
    """A constant critic's (S, S) table, or None for "optimal"."""
    if isinstance(critic_family, str) and critic_family == "optimal":
        return None
    values = critic_family.values if isinstance(critic_family, CriticTable) else critic_family
    return np.asarray(values, dtype=np.float64)


def critic_horizon(mdp: TabularMdp, tol: float, critic_family="optimal") -> int:
    """T of the critic schedule of ``critic_family``. The "optimal" one's does
    not depend on the policy: NWJ at the optimal critic equals the MI, which
    is at most log S. A constant critic's comes from its own bound."""
    table = _constant_critic(critic_family)
    bound = math.log(mdp.n_states) + 1.0 if table is None else _critic_bound(table)
    return truncation_horizon(mdp.discount, tol,
                              max(bound, 1.0, math.log(max(mdp.n_actions, 2))))


def resolve_critic_schedule(mdp: TabularMdp, schedule: MarginalSchedule, critic_family,
                            tol: float) -> tuple[Array, int]:
    """Freeze one critic table per timestep t = 0..T, choosing T from tol, as
    one (T + 1, S, S) array.

    ``critic_family`` is a CriticTable or an (S, S) array, used at every t (a
    broadcast view; ``schedule`` is not read), or "optimal": the per-t
    optimal critic for ``schedule``'s consecutive-state joints, then frozen.
    Here and below, ``schedule`` may hold more rows than are read.
    """
    T = critic_horizon(mdp, tol, critic_family)
    table = _constant_critic(critic_family)
    if table is not None:
        return np.broadcast_to(table, (T + 1, *table.shape)), T
    marg = schedule.rows(T + 2)
    joints = marg[:-1, :, None] * schedule.M      # (s_t, s_{t+1}) for t = 0..T
    _check_joints(joints, marg[:-1], marg[1:])
    F = _log_ratio_critic(joints, marg[:-1], marg[1:], UNSUPPORTED_CRITIC_FLOOR)
    _check_critics(F)
    return F, T


def _bound_schedule(mdp: TabularMdp, policy: SoftmaxPolicy, critic_family,
                    tol: float) -> tuple[MarginalSchedule, Array, int]:
    """``policy``'s schedule, propagated once, its frozen critics and T chosen from tol."""
    schedule = state_marginals(mdp, policy, critic_horizon(mdp, tol, critic_family) + 1)
    F, T = resolve_critic_schedule(mdp, schedule, critic_family, tol)
    return schedule, F, T


def _saelbo_terms(mdp: TabularMdp, schedule: MarginalSchedule, F: Array,
                  T: int) -> tuple[float, float, float]:
    """(h_s0, h_policy, mi_sum) of the bound truncated at T for the frozen
    critics ``F``, a (T + 1, S, S) array."""
    probs, logp = schedule.policy.probs(), schedule.policy.log_probs()
    ent_rows = -(probs * np.where(probs > 0, logp, 0.0)).sum(axis=1)
    marg = schedule.rows(T + 2)
    disc = _discounts(mdp.discount, T)

    h_s0 = generalized_entropy(mdp.initial_dist)
    h_policy = _sum_in_order(disc * (marg[:-1, None, :] @ ent_rows[:, None])[:, 0, 0])
    mi_sum = _sum_in_order(disc * _nwj(marg[:-1, :, None] * schedule.M, marg[:-1], marg[1:], F))
    return h_s0, float(h_policy), float(mi_sum)


def saelbo_value(mdp: TabularMdp, schedule: MarginalSchedule, F: Array, T: int) -> float:
    """Truncated lower-bound value for a fixed, frozen critic schedule.

    Used directly by the finite-difference gradient: the critics and the
    truncation horizon stay fixed while the policy parameters move.
    """
    h_s0, h_policy, mi_sum = _saelbo_terms(mdp, schedule, F, T)
    return h_s0 + (1.0 + mdp.discount) * h_policy + mdp.discount * mi_sum


def saelbo(mdp: TabularMdp, policy: SoftmaxPolicy, critic_family, tol: float = 1e-10) -> SaelboReport:
    """Entropy lower bound H(s_0) + (1+gamma) H(pi) + gamma sum_t gamma^t I_t."""
    schedule, F, T = _bound_schedule(mdp, policy, critic_family, tol)
    gamma = mdp.discount
    h_s0, h_policy, mi_sum = _saelbo_terms(mdp, schedule, F, T)
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


def _frozen_reward_tables(mdp: TabularMdp, schedule: MarginalSchedule, F: Array,
                          T: int) -> Array:
    """Per-timestep reward tables for the exact policy-gradient side, stacked
    as a (T + 1, S, A) array.

    r_pi(s, a) = -(1+gamma) log q_pi(a|s) and, with s' = P(s, a),
    r_f(s, a, s') = gamma f_t(s, s')
                    - (gamma/e) (E_{x~q_t}[e^{f_t(x, s')}] + E_{y~q_{t+1}}[e^{f_t(s, y)}]),
    where q_pi and q_t are frozen copies of the current policy and marginals,
    and ``F`` holds the frozen critics f_0..f_T as a (T + 1, S, S) array.
    """
    gamma = mdp.discount
    marg = schedule.rows(T + 2)
    r_pi = -(1.0 + gamma) * schedule.policy.log_probs()
    _exp_safe_max(F)
    EF = np.exp(F)
    ex_in = (marg[:-1, None, :] @ EF)[:, 0, :]    # (T+1, S'): E_{x~q_t} e^{f_t(x, s')}
    ex_out = (EF @ marg[1:, :, None])[:, :, 0]    # (T+1, S):  E_{y~q_{t+1}} e^{f_t(s, y)}
    nxt = mdp.transition
    r_f = (gamma * F[:, np.arange(mdp.n_states)[:, None], nxt]
           - (gamma / math.e) * (ex_in[:, nxt] + ex_out[:, :, None]))
    return r_pi + r_f


def discounted_policy_gradient(mdp: TabularMdp, schedule: MarginalSchedule, rewards,
                               T: int) -> Array:
    """Exact gradient of J(pi_theta, r) = sum_t gamma^t E_{p_t, pi}[r_t(s, a)]
    in the logits theta of ``schedule``'s policy, for frozen reward tables, by
    forward sensitivity through the marginals (T + 1 rows of ``schedule``).

    ``rewards`` is one (S, A) table used at every t, or T + 1 per-timestep
    tables (a list or a (T + 1, S, A) array).
    """
    S, A = mdp.n_states, mdp.n_actions
    P = S * A
    probs = schedule.policy.probs()
    # G[s, a, b] = d pi(a|s) / d logits[s, b]
    G = probs[:, :, None] * (np.eye(A)[None, :, :] - probs[:, None, :])
    R = np.asarray(rewards, dtype=np.float64)
    R = np.broadcast_to(R, (T + 1, S, A)) if R.ndim == 2 else R[:T + 1]
    marg = schedule.rows(T + 1)
    disc = _discounts(mdp.discount, T)

    # dp[t] = d p_t / d logits: dp[t + 1] = M^T dp[t], plus p_t(s) G[s, a, :]
    # in row transition[s, a] and the columns of state s. Actions of s that
    # reach the same state add to the same cells, so pass k adds each cell's
    # k-th term: every cell adds its terms in (s, a, b) order
    nxt = mdp.transition
    rows = np.repeat(nxt.reshape(-1), A)
    cols = np.broadcast_to(np.arange(P).reshape(S, 1, A), (S, A, A)).reshape(-1)
    # rank[s, a]: how many earlier actions of s reach transition[s, a]
    rank = (np.tri(A, k=-1, dtype=bool) & (nxt[:, :, None] == nxt[:, None, :])).sum(axis=2)
    rank = np.repeat(rank.reshape(-1), A)
    pushed = (marg[:-1, :, None, None] * G).reshape(T, S * A * A)
    passes = [(rows[rank == k] * P + cols[rank == k], pushed[:, rank == k])
              for k in range(rank.max() + 1)]
    dp = np.zeros((T + 1, S, P))
    flat = dp.reshape(T + 1, S * P)
    MT = schedule.M.T
    for t in range(T):
        np.dot(MT, dp[t], out=dp[t + 1])
        dp_next = flat[t + 1]
        for cells, added in passes:
            dp_next[cells] += added[t]

    c = (probs * R).sum(axis=2)                   # (T+1, S): E_pi[r_t(s, .)]
    dc = np.einsum("sab,tsa->tsb", G, R)          # d c_t(s) / d logits[s, :]
    through_marginals = disc[:, None] * (dp.transpose(0, 2, 1) @ c[:, :, None])[:, :, 0]
    through_policy = disc[:, None] * (marg[:, :, None] * dc).reshape(T + 1, P)
    # per t, the marginal term is added before the policy term
    terms = np.stack((through_marginals, through_policy), axis=1).reshape(2 * (T + 1), P)
    return _sum_in_order(terms).reshape(S, A)


def saelbo_gradient_pg(mdp: TabularMdp, theta: Array, critic_family,
                       tol: float = 1e-10) -> Array:
    """Exact discounted policy gradient of J(pi_theta, r_pi + r_f).

    The reward tables are frozen at theta; the gradient is propagated through
    the policy and all state marginals by forward sensitivity analysis, so the
    result is exact for the truncated objective.
    """
    schedule, F, T = _bound_schedule(mdp, SoftmaxPolicy(theta), critic_family, tol)
    return discounted_policy_gradient(mdp, schedule, _frozen_reward_tables(mdp, schedule, F, T), T)


def saelbo_gradient_fd(mdp: TabularMdp, theta: Array, critic_family,
                       eps: float = 1e-5, tol: float = 1e-10) -> Array:
    """Central finite differences of the full theta-dependent lower bound.

    Joints, marginals, and the policy are all re-derived at theta +- eps per
    coordinate, one schedule per bumped policy; the critic schedule and
    truncation horizon are frozen first.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, F, T = _bound_schedule(mdp, SoftmaxPolicy(theta), critic_family, tol)

    def value(logits: Array) -> float:
        return saelbo_value(mdp, state_marginals(mdp, SoftmaxPolicy(logits), T + 1), F, T)

    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        bumped = theta.copy()
        bumped[idx] += eps
        hi = value(bumped)
        bumped[idx] -= 2 * eps
        grad[idx] = (hi - value(bumped)) / (2 * eps)
    return grad
