"""Verification suites: randomized exact-computation checks of every
inequality and identity the analysis rests on, plus the non-adversarial
coordinate-ascent property.

Each suite runs on seeded random fixtures and reports violations with the
offending fixture seed. The literal (uncorrected) entropy inequality is
exercised on the one-state fixture where it provably fails; that check is
reported as a documented expected failure, listed separately from
violations and excluded from the exit status.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mdp import SoftmaxPolicy, TabularMdp, state_marginals
from .occupancy import (
    CriticTable,
    JointTable,
    conditional_entropies,
    critic_horizon,
    discounted_policy_gradient,
    generalized_entropy,
    mutual_information,
    nwj_bound,
    occupancy_measure,
    optimal_critic_table,
    resolve_critic_schedule,
    reverse_kl_occupancy,
    saelbo,
    saelbo_gradient_fd,
    saelbo_gradient_pg,
    saelbo_value,
    _frozen_reward_tables,
)

SUITE_NAMES = ("lemma1", "lemma2", "theorem1", "theorem2", "corollary1", "nwj",
               "coordinate-ascent")


@dataclass
class SuiteResult:
    name: str
    n_checks: int
    violations: list = field(default_factory=list)
    expected_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def random_injective_mdp(S: int, A: int, gamma: float, rng) -> TabularMdp:
    trans = np.array([rng.choice(S, size=A, replace=False) for _ in range(S)])
    return TabularMdp(trans, rng.dirichlet(np.ones(S)), np.zeros((S, A)), gamma)


def one_state_fixture(gamma: float = 0.9) -> TabularMdp:
    return TabularMdp(np.zeros((1, 1), dtype=int), np.ones(1), np.zeros((1, 1)), gamma)


def verify_lemma1(n: int = 1000, seed: int = 0) -> SuiteResult:
    """Concavity of the generalized entropy on equal-mass densities."""
    result = SuiteResult("lemma1", n)
    rng = np.random.default_rng(seed)
    for k in range(n):
        dim = int(rng.integers(1, 33))
        p = rng.uniform(0.0, 10.0, size=dim)
        q = rng.uniform(0.0, 10.0, size=dim)
        if q.sum() == 0 or p.sum() == 0:
            continue
        q *= p.sum() / q.sum()
        lam = float(rng.uniform(0.0, 1.0))
        lhs = generalized_entropy(lam * p + (1 - lam) * q)
        rhs = lam * generalized_entropy(p) + (1 - lam) * generalized_entropy(q)
        if lhs < rhs - 1e-12:
            result.violations.append(f"fixture {k} (seed {seed}): {lhs} < {rhs}")
    return result


def verify_lemma2(n_mdps: int = 20, max_t: int = 30, seed: int = 1) -> SuiteResult:
    """H(s_t | s_{t-1}) equals H(a_{t-1} | s_{t-1}) under injective dynamics."""
    result = SuiteResult("lemma2", n_mdps * max_t)
    rng = np.random.default_rng(seed)
    for k in range(n_mdps):
        S = int(rng.integers(2, 11))
        A = int(min(rng.integers(2, 5), S))
        mdp = random_injective_mdp(S, A, float(rng.uniform(0.3, 0.95)), rng)
        policy = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
        h_state, h_action = conditional_entropies(mdp, policy, max_t)
        for t in range(1, max_t + 1):
            gap = abs(h_state[t - 1] - h_action[t - 1])
            if gap >= 1e-10:
                result.violations.append(f"fixture {k} (seed {seed}), t={t}: gap {gap}")
    return result


def verify_theorem1(n: int = 50, seed: int = 2) -> SuiteResult:
    """Constant-corrected entropy lower bound, optimal-critic dominance, and
    the documented failure of the literal inequality on the one-state MDP."""
    result = SuiteResult("theorem1", n)
    rng = np.random.default_rng(seed)
    for k in range(n):
        S = int(rng.integers(2, 8))
        A = int(min(rng.integers(2, 5), S))
        mdp = random_injective_mdp(S, A, float(rng.uniform(0.3, 0.95)), rng)
        policy = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
        critic = CriticTable(rng.normal(0, 1.0, size=(S, S)))
        report = saelbo(mdp, policy, critic)
        entropy = generalized_entropy(occupancy_measure(mdp, policy).rho)
        if entropy < report.saelbo + report.constant_c_gamma - 1e-8:
            result.violations.append(
                f"fixture {k} (seed {seed}): H={entropy} < bound")
        optimal_value = saelbo(mdp, policy, "optimal").saelbo
        for j in range(10):
            rand_val = saelbo(mdp, policy,
                              CriticTable(rng.normal(0, 1.0, size=(S, S)))).saelbo
            if optimal_value < rand_val - 1e-9:
                result.violations.append(
                    f"fixture {k} (seed {seed}): optimal critic beaten by random {j}")

    # literal inequality on the one-state fixture: -10 ln 10 >= 0 is false
    mdp = one_state_fixture(0.9)
    policy = SoftmaxPolicy.uniform(1, 1)
    report = saelbo(mdp, policy, CriticTable(np.ones((1, 1))))
    entropy = generalized_entropy(occupancy_measure(mdp, policy).rho)
    if entropy < report.saelbo:
        result.expected_failures.append(
            f"literal inequality fails on the 1-state gamma=0.9 fixture: "
            f"{entropy:.4f} < {report.saelbo:.4f} (constant-corrected form holds: "
            f"{entropy:.4f} >= {report.saelbo + report.constant_c_gamma:.4f})")
    else:
        result.violations.append("expected literal failure did not occur")
    if entropy < report.saelbo + report.constant_c_gamma - 1e-8:
        result.violations.append("constant-corrected inequality failed on 1-state fixture")
    return result


def verify_nwj(n: int = 1000, seed: int = 3) -> SuiteResult:
    """Variational MI bound never exceeds the MI; tight at the optimal critic."""
    result = SuiteResult("nwj", n)
    rng = np.random.default_rng(seed)
    for k in range(n):
        dim = int(rng.integers(2, 7))
        joint = JointTable.from_joint(rng.dirichlet(np.ones(dim * dim)).reshape(dim, dim))
        critic = CriticTable(rng.normal(0, 2.0, size=(dim, dim)))
        mi = mutual_information(joint)
        if nwj_bound(joint, critic) > mi + 1e-12:
            result.violations.append(f"fixture {k} (seed {seed}): bound exceeds MI")
        gap = abs(nwj_bound(joint, optimal_critic_table(joint)) - mi)
        if gap > 1e-9:
            result.violations.append(
                f"fixture {k} (seed {seed}): optimal critic not tight, gap {gap}")
    return result


def verify_theorem2(n: int = 5, seed: int = 4, rel_tol: float = 1e-4) -> SuiteResult:
    """Finite-difference gradient of the lower bound equals the exact policy
    gradient of the frozen-reward objective."""
    result = SuiteResult("theorem2", n)
    rng = np.random.default_rng(seed)
    for k in range(n):
        mdp = random_injective_mdp(3, 2, 0.9, rng)
        theta = rng.normal(0, 1.0, size=(3, 2))
        critic = CriticTable(rng.normal(0, 1.0, size=(3, 3)))
        g_fd = saelbo_gradient_fd(mdp, theta, critic, eps=1e-5, tol=1e-10)
        g_pg = saelbo_gradient_pg(mdp, theta, critic, tol=1e-10)
        rel = np.linalg.norm(g_fd - g_pg) / max(np.linalg.norm(g_fd),
                                                np.linalg.norm(g_pg), 1e-300)
        if rel >= rel_tol:
            result.violations.append(f"fixture {k} (seed {seed}): rel error {rel:.3e}")
    return result


def verify_corollary1(n: int = 50, seed: int = 5) -> SuiteResult:
    """Constant-corrected lower bound on the distribution-matching objective."""
    result = SuiteResult("corollary1", n)
    rng = np.random.default_rng(seed)
    for k in range(n):
        S = int(rng.integers(2, 7))
        A = int(min(rng.integers(2, 4), S))
        mdp = random_injective_mdp(S, A, float(rng.uniform(0.4, 0.95)), rng)
        imitator = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
        expert = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
        critic = CriticTable(rng.normal(0, 1.0, size=(S, S)))
        rho_p = occupancy_measure(mdp, imitator)
        rho_e = occupancy_measure(mdp, expert)
        lhs = -reverse_kl_occupancy(rho_p, rho_e)
        report = saelbo(mdp, imitator, critic)
        rhs = (float((rho_p.rho * np.log(rho_e.rho)).sum())
               + report.saelbo + report.constant_c_gamma)
        if lhs < rhs - 1e-8:
            result.violations.append(f"fixture {k} (seed {seed}): {lhs} < {rhs}")
    return result


def coordinate_ascent_objective(mdp, schedule, log_rho_e, tables, T) -> float:
    """J(pi, log rho_E) + lower-bound value at truncation T, for ``schedule``'s policy."""
    rho = occupancy_measure(mdp, schedule.policy)
    return float((rho.rho * log_rho_e).sum()) + saelbo_value(mdp, schedule, tables, T)


def verify_coordinate_ascent(n_alternations: int = 200, seed: int = 6,
                             step_tol: float = 1e-9) -> SuiteResult:
    """Alternating critic-then-policy updates never decrease the objective.

    The critic step sets each per-timestep critic to the optimal one (which
    maximizes every MI term); the policy step is gradient ascent with
    backtracking line search on the exact objective. Each policy's marginal
    schedule is built once and shared by all the steps that evaluate it.
    """
    result = SuiteResult("coordinate-ascent", 2 * n_alternations)
    rng = np.random.default_rng(seed)
    mdp = random_injective_mdp(3, 2, 0.9, rng)
    expert = SoftmaxPolicy(rng.normal(0, 1.0, size=(3, 2)))
    log_rho_e = np.log(occupancy_measure(mdp, expert).rho)

    # the "optimal" horizon depends only on S, A, gamma and tol; p_0..p_{T+1}
    # are every marginal the critic, objective, reward and gradient steps read
    T = critic_horizon(mdp, 1e-10)
    schedule = state_marginals(mdp, SoftmaxPolicy(rng.normal(0, 0.5, size=(3, 2))), T + 1)
    tables, _ = resolve_critic_schedule(mdp, schedule, "optimal", 1e-10)
    objective = coordinate_ascent_objective(mdp, schedule, log_rho_e, tables, T)
    history = [objective]
    step = 0.5
    for k in range(n_alternations):
        # critic update: per-timestep optimal critics for the current policy
        tables, _ = resolve_critic_schedule(mdp, schedule, "optimal", 1e-10)
        objective_f = coordinate_ascent_objective(mdp, schedule, log_rho_e, tables, T)
        if objective_f < history[-1] - step_tol:
            result.violations.append(
                f"alternation {k} (seed {seed}): critic step decreased objective "
                f"{history[-1]} -> {objective_f}")
        history.append(objective_f)

        # policy update: ascent with backtracking on the exact objective
        rewards = _frozen_reward_tables(mdp, schedule, tables, T) + log_rho_e
        grad = discounted_policy_gradient(mdp, schedule, rewards, T)
        trial = step
        for _ in range(40):
            cand = state_marginals(mdp, SoftmaxPolicy(schedule.policy.logits + trial * grad),
                                   T + 1)
            objective_pi = coordinate_ascent_objective(mdp, cand, log_rho_e, tables, T)
            if objective_pi >= objective_f - 1e-12:
                schedule = cand
                step = min(trial * 2.0, 2.0)
                break
            trial *= 0.5
        else:
            objective_pi = objective_f  # no admissible step; keep the policy
        if objective_pi < history[-1] - step_tol:
            result.violations.append(
                f"alternation {k} (seed {seed}): policy step decreased objective")
        history.append(objective_pi)
    result.history = history  # type: ignore[attr-defined]
    return result


_SUITES = {
    "lemma1": verify_lemma1,
    "lemma2": verify_lemma2,
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "corollary1": verify_corollary1,
    "nwj": verify_nwj,
    "coordinate-ascent": verify_coordinate_ascent,
}


def run_suite(name: str) -> list[SuiteResult]:
    if name == "all":
        return [fn() for fn in _SUITES.values()]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(_SUITES)} or 'all'")
    return [_SUITES[name]()]
