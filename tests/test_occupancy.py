"""Tests for occupancy measures, entropies, MI bounds, the entropy lower
bound, and the gradient identity between its finite-difference and exact
policy-gradient forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndilab import occupancy
from ndilab.envs import GridworldSpec, build_chain, build_gridworld
from ndilab.mdp import SoftmaxPolicy, TabularMdp, state_marginals
from ndilab.occupancy import (
    CriticTable,
    JointTable,
    OccupancyTable,
    conditional_action_entropy,
    conditional_state_entropy,
    consecutive_state_joint,
    discounted_policy_entropy,
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
    truncation_horizon,
)


def one_state_mdp(n_actions=1, gamma=0.9):
    return TabularMdp(np.zeros((1, n_actions), dtype=int), np.ones(1),
                      np.zeros((1, n_actions)), gamma)


def xor_mdp(gamma=0.9, uniform_start=True):
    start = np.array([0.5, 0.5]) if uniform_start else np.array([1.0, 0.0])
    return TabularMdp(np.array([[0, 1], [1, 0]]), start, np.zeros((2, 2)), gamma)


def random_injective_mdp(S, A, gamma, rng):
    trans = np.array([rng.choice(S, size=A, replace=False) for _ in range(S)])
    return TabularMdp(trans, rng.dirichlet(np.ones(S)), np.zeros((S, A)), gamma)


def occupancy_by_recursion(mdp, policy, T):
    """Independent truncated forward-recursion oracle for the linear solve."""
    p = mdp.initial_dist.copy()
    M = mdp.policy_transition_matrix(policy)
    rho_state = np.zeros(mdp.n_states)
    disc = 1.0
    for _ in range(T + 1):
        rho_state += disc * p
        p = M.T @ p
        disc *= mdp.discount
    return rho_state[:, None] * policy.probs()


CORRELATED_BINARY = np.array([[0.4, 0.1], [0.1, 0.4]])


class TestOccupancyMeasure:
    def test_single_state_geometric_series(self):
        occ = occupancy_measure(one_state_mdp(), SoftmaxPolicy.uniform(1, 1))
        assert occ.rho[0, 0] == pytest.approx(10.0, abs=1e-9)

    def test_xor_uniform_symmetry(self):
        occ = occupancy_measure(xor_mdp(), SoftmaxPolicy.uniform(2, 2))
        np.testing.assert_allclose(occ.rho, 2.5, atol=1e-9)

    def test_matches_truncated_recursion_oracle(self):
        rng = np.random.default_rng(13)
        mdp = build_chain(3, gamma=0.9)
        policy = SoftmaxPolicy(rng.normal(0, 1, size=(3, 2)))
        occ = occupancy_measure(mdp, policy)
        oracle = occupancy_by_recursion(mdp, policy, T=1000)
        np.testing.assert_allclose(occ.rho, oracle, atol=1e-9)

    def test_mass_invariant(self):
        rng = np.random.default_rng(4)
        for gamma in (0.0, 0.5, 0.95):
            mdp = random_injective_mdp(6, 3, gamma, rng)
            occ = occupancy_measure(mdp, SoftmaxPolicy(rng.normal(size=(6, 3))))
            assert occ.rho.sum() == pytest.approx(1.0 / (1.0 - gamma), rel=1e-10)


class TestGeneralizedEntropy:
    def test_uniform_four_points(self):
        assert generalized_entropy(np.full(4, 0.25)) == pytest.approx(math.log(4))

    def test_single_point_mass_two(self):
        assert generalized_entropy(np.array([2.0])) == pytest.approx(-2 * math.log(2))

    def test_occupancy_of_single_state(self):
        occ = occupancy_measure(one_state_mdp(), SoftmaxPolicy.uniform(1, 1))
        assert generalized_entropy(occ.rho) == pytest.approx(-10 * math.log(10), abs=1e-7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            generalized_entropy(np.array([0.5, -0.1]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0), st.integers(1, 32))
    def test_concavity_on_equal_mass_densities(self, seed, lam, dim):
        # generalized entropy is concave on the extended non-normalized domain
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.0, 10.0, size=dim)
        q = rng.uniform(0.0, 10.0, size=dim)
        if p.sum() == 0 or q.sum() == 0:
            return
        q *= p.sum() / q.sum()
        mixed = generalized_entropy(lam * p + (1 - lam) * q)
        assert mixed >= lam * generalized_entropy(p) + (1 - lam) * generalized_entropy(q) - 1e-12


class TestDiscountedPolicyEntropy:
    def test_deterministic_policy_zero(self):
        policy = SoftmaxPolicy(np.array([[0.0, -1000.0], [0.0, -1000.0]]))
        assert discounted_policy_entropy(xor_mdp(), policy) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_two_actions(self):
        val = discounted_policy_entropy(xor_mdp(), SoftmaxPolicy.uniform(2, 2))
        assert val == pytest.approx(math.log(2) / 0.1, rel=1e-10)

    def test_matches_monte_carlo_oracle(self):
        mdp = build_chain(3, gamma=0.9)
        probs = np.array([0.9, 0.1])
        policy = SoftmaxPolicy(np.tile(np.log(probs), (3, 1)))
        exact = discounted_policy_entropy(mdp, policy)

        # vectorized rollout oracle: 1e5 discounted rollouts
        rng = np.random.default_rng(77)
        n, T = 100_000, truncation_horizon(0.9, 1e-8, math.log(2))
        logp = policy.log_probs()
        s = rng.choice(3, size=n, p=mdp.initial_dist)
        totals = np.zeros(n)
        disc = 1.0
        for _ in range(T):
            a = (rng.random(n) > probs[0]).astype(int)
            totals += disc * (-logp[s, a])
            s = mdp.transition[s, a]
            disc *= 0.9
        stderr = totals.std(ddof=1) / math.sqrt(n)
        assert abs(totals.mean() - exact) < 3 * stderr


class TestMutualInformation:
    def test_product_joint_zero(self):
        mx, my = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        assert mutual_information(JointTable.from_joint(np.outer(mx, my))) == pytest.approx(0.0, abs=1e-15)

    def test_perfectly_correlated_binary(self):
        joint = JointTable.from_joint(np.diag([0.5, 0.5]))
        assert mutual_information(joint) == pytest.approx(math.log(2))

    def test_correlated_binary_brute_force(self):
        joint = JointTable.from_joint(CORRELATED_BINARY)
        # enumerate all four outcomes by hand
        expected = 0.0
        for x in range(2):
            for y in range(2):
                pxy = CORRELATED_BINARY[x, y]
                expected += pxy * math.log(pxy / (0.5 * 0.5))
        assert mutual_information(joint) == pytest.approx(expected, abs=1e-14)


class TestNwjBound:
    def test_constant_one_critic_on_independent_joint(self):
        joint = JointTable.from_joint(np.outer([0.5, 0.5], [0.5, 0.5]))
        val = nwj_bound(joint, CriticTable(np.ones((2, 2))))
        assert val == pytest.approx(0.0, abs=1e-15)
        assert val == pytest.approx(mutual_information(joint), abs=1e-15)

    def test_constant_zero_critic(self):
        joint = JointTable.from_joint(CORRELATED_BINARY)
        assert nwj_bound(joint, CriticTable(np.zeros((2, 2)))) == pytest.approx(-math.exp(-1))

    def test_tight_at_optimal_critic(self):
        joint = JointTable.from_joint(CORRELATED_BINARY)
        mi = mutual_information(joint)
        assert nwj_bound(joint, optimal_critic_table(joint)) == pytest.approx(mi, abs=1e-12)

    def test_overflow_reported_with_cell(self):
        joint = JointTable.from_joint(CORRELATED_BINARY)
        critic = CriticTable(np.array([[0.0, 0.0], [0.0, 800.0]]))
        with pytest.raises(OverflowError, match=r"\(1, 1\)"):
            nwj_bound(joint, critic)

    def test_domination_on_random_joints(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            dim = rng.integers(2, 6)
            joint = JointTable.from_joint(rng.dirichlet(np.ones(dim * dim)).reshape(dim, dim))
            critic = CriticTable(rng.normal(0, 2, size=(dim, dim)))
            assert nwj_bound(joint, critic) <= mutual_information(joint) + 1e-12


class TestOptimalCritic:
    def test_product_joint_gives_constant_one(self):
        joint = JointTable.from_joint(np.outer([0.25, 0.75], [0.5, 0.5]))
        np.testing.assert_allclose(optimal_critic_table(joint).values, 1.0, atol=1e-12)

    def test_correlated_uniform_binary(self):
        f = optimal_critic_table(JointTable.from_joint(np.diag([0.5, 0.5]))).values
        assert f[0, 0] == pytest.approx(math.log(2) + 1)
        assert f[1, 1] == pytest.approx(math.log(2) + 1)
        assert f[0, 1] == -30.0 and f[1, 0] == -30.0

    def test_cellwise_log_ratio_plus_one(self):
        f = optimal_critic_table(JointTable.from_joint(CORRELATED_BINARY)).values
        expected = np.log(CORRELATED_BINARY / 0.25) + 1.0
        np.testing.assert_allclose(f, expected, atol=1e-12)


class TestConditionalEntropies:
    def test_deterministic_policy_both_zero(self):
        policy = SoftmaxPolicy(np.array([[0.0, -2000.0], [-2000.0, 0.0]]))
        mdp = xor_mdp()
        for t in (1, 2, 5):
            assert conditional_state_entropy(mdp, policy, t) == pytest.approx(0.0, abs=1e-12)
            assert conditional_action_entropy(mdp, policy, t) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_policy_xor_gives_log2(self):
        mdp = xor_mdp()
        policy = SoftmaxPolicy.uniform(2, 2)
        for t in (1, 3, 10):
            assert conditional_state_entropy(mdp, policy, t) == pytest.approx(math.log(2))
            assert conditional_action_entropy(mdp, policy, t) == pytest.approx(math.log(2))

    def test_epsilon_greedy_gridworld_identity_at_t3(self):
        mdp = build_gridworld(GridworldSpec())
        rng = np.random.default_rng(9)
        greedy = rng.integers(0, mdp.n_actions, size=mdp.n_states)
        probs = np.full((mdp.n_states, mdp.n_actions), 0.2 / mdp.n_actions)
        probs[np.arange(mdp.n_states), greedy] += 0.8
        policy = SoftmaxPolicy(np.log(probs))
        hs = conditional_state_entropy(mdp, policy, 3)
        ha = conditional_action_entropy(mdp, policy, 3)
        assert abs(hs - ha) < 1e-10

    def test_lemma_identity_on_random_injective_mdps(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            S, A = int(rng.integers(2, 10)), int(rng.integers(2, 5))
            A = min(S, A)
            mdp = random_injective_mdp(S, A, 0.9, rng)
            policy = SoftmaxPolicy(rng.normal(0, 2, size=(S, A)))
            for t in range(1, 15):
                diff = abs(conditional_state_entropy(mdp, policy, t)
                           - conditional_action_entropy(mdp, policy, t))
                assert diff < 1e-10


class TestResolveCriticSchedule:
    @pytest.mark.parametrize("critic, bound", [
        (CriticTable(np.full((3, 3), 6.0)), 6.0 + math.exp(5.0)),   # lengthens T
        (np.zeros((3, 3)), 1.0),
    ], ids=["table", "array"])
    def test_constant_critic_needs_no_state_marginals(self, critic, bound, monkeypatch):
        calls = []
        monkeypatch.setattr(occupancy, "state_marginals", lambda *args: calls.append(args))
        mdp = build_chain(3)
        tables, T = resolve_critic_schedule(mdp, SoftmaxPolicy.uniform(3, 2), critic, 1e-10)
        assert calls == []
        assert T == truncation_horizon(mdp.discount, 1e-10, bound)
        values = getattr(critic, "values", critic)
        assert len(tables) == T + 1 and all(table is values for table in tables)


class TestSaelbo:
    def test_one_state_deterministic_report(self):
        mdp = one_state_mdp()
        report = saelbo(mdp, SoftmaxPolicy.uniform(1, 1), CriticTable(np.ones((1, 1))))
        assert report.h_s0 == 0.0
        assert report.h_policy == pytest.approx(0.0, abs=1e-15)
        assert report.mi_sum == pytest.approx(0.0, abs=1e-12)
        assert report.saelbo == pytest.approx(0.0, abs=1e-12)
        assert report.constant_c_gamma == pytest.approx(math.log(0.1) / 0.1)

    def test_xor_uniform_with_optimal_critics(self):
        # point-mass start: consecutive states are exactly independent
        mdp = xor_mdp(uniform_start=False)
        report = saelbo(mdp, SoftmaxPolicy.uniform(2, 2), "optimal")
        assert report.mi_sum == pytest.approx(0.0, abs=1e-10)
        assert report.saelbo == pytest.approx(1.9 * math.log(2) / 0.1, rel=1e-9)

    def test_report_composition(self):
        rng = np.random.default_rng(2)
        mdp = random_injective_mdp(4, 2, 0.8, rng)
        report = saelbo(mdp, SoftmaxPolicy(rng.normal(size=(4, 2))),
                        CriticTable(rng.normal(size=(4, 4))))
        composed = report.h_s0 + 1.8 * report.h_policy + 0.8 * report.mi_sum
        assert report.saelbo == pytest.approx(composed, rel=1e-12)

    def test_raw_array_critic_matches_critic_table(self):
        mdp = build_chain(3)
        policy = SoftmaxPolicy.uniform(3, 2)
        raw = saelbo(mdp, policy, np.zeros((3, 3)))
        assert raw == saelbo(mdp, policy, CriticTable(np.zeros((3, 3))))

    @pytest.mark.parametrize("objective", [
        lambda mdp, theta, critic: saelbo(mdp, SoftmaxPolicy(theta), critic),
        saelbo_gradient_pg,
    ], ids=["saelbo", "saelbo_gradient_pg"])
    def test_overflowing_critic_reported_with_cell(self, objective):
        mdp = build_chain(3)
        critic = np.zeros((3, 3))
        critic[2, 1] = 750.0
        with pytest.raises(OverflowError, match=r"750 at cell \(2, 1\)"):
            objective(mdp, np.zeros((3, 2)), CriticTable(critic))

    def test_random_critic_dominated_by_optimal(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            mdp = random_injective_mdp(4, 3, 0.85, rng)
            policy = SoftmaxPolicy(rng.normal(0, 1, size=(4, 3)))
            random_val = saelbo(mdp, policy, CriticTable(rng.normal(0, 1, (4, 4)))).saelbo
            optimal_val = saelbo(mdp, policy, "optimal").saelbo
            assert optimal_val >= random_val - 1e-12

    def test_constant_corrected_lower_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            S, A = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            A = min(S, A)
            mdp = random_injective_mdp(S, A, float(rng.uniform(0.3, 0.95)), rng)
            policy = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
            critic = CriticTable(rng.normal(0, 1, size=(S, S)))
            report = saelbo(mdp, policy, critic)
            entropy = generalized_entropy(occupancy_measure(mdp, policy).rho)
            assert entropy >= report.saelbo + report.constant_c_gamma - 1e-8

    def test_entropy_decomposition_identity(self):
        rng = np.random.default_rng(8)
        mdp = random_injective_mdp(5, 3, 0.9, rng)
        policy = SoftmaxPolicy(rng.normal(size=(5, 3)))
        occ = occupancy_measure(mdp, policy)
        lhs = generalized_entropy(occ.rho)
        rhs = discounted_policy_entropy(mdp, policy) + generalized_entropy(occ.state_marginal())
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestReverseKl:
    def test_identical_tables_zero(self):
        rho = OccupancyTable(np.array([[4.0, 3.0], [2.0, 1.0]]), 10.0)
        assert reverse_kl_occupancy(rho, rho) == 0.0

    def test_permuted_cells_positive_via_direct_sum(self):
        p = np.array([[4.0, 3.0], [2.0, 1.0]])
        q = np.array([[1.0, 2.0], [3.0, 4.0]])  # permutation of the same cells
        val = reverse_kl_occupancy(OccupancyTable(p, 10.0), OccupancyTable(q, 10.0))
        direct = sum(p[i, j] * math.log(p[i, j] / q[i, j])
                     for i in range(2) for j in range(2))
        assert val == pytest.approx(direct, abs=1e-12)
        assert val > 0

    def test_small_support_ratio(self):
        eps = 1e-6
        p = np.array([10.0, 0.0])
        q = np.array([eps, 10.0 - eps])
        val = reverse_kl_occupancy(OccupancyTable(p, 10.0), OccupancyTable(q, 10.0))
        assert val == pytest.approx(10.0 * math.log(10.0 / eps), rel=1e-12)

    def test_support_violation_reports_cell(self):
        p = OccupancyTable(np.array([[10.0, 0.0]]), 10.0)
        q = OccupancyTable(np.array([[0.0, 10.0]]), 10.0)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            reverse_kl_occupancy(p, q)

    def test_mass_mismatch_rejected(self):
        p = OccupancyTable(np.array([10.0]), 10.0)
        q = OccupancyTable(np.array([5.0]), 5.0)
        with pytest.raises(ValueError, match="mass"):
            reverse_kl_occupancy(p, q)


def softmax_entropy_gradient(logits_row):
    """Analytic oracle: d/d logits of -sum_a pi_a log pi_a for one state."""
    z = logits_row - logits_row.max()
    p = np.exp(z) / np.exp(z).sum()
    ent = -(p * np.log(p)).sum()
    return -p * (np.log(p) + ent)


class TestGradientIdentity:
    def test_one_state_matches_analytic_entropy_gradient(self):
        mdp = one_state_mdp(n_actions=3)
        rng = np.random.default_rng(5)
        theta = rng.normal(0, 1, size=(1, 3))
        critic = CriticTable(np.array([[0.7]]))
        report = saelbo(mdp, SoftmaxPolicy(theta), critic)
        geom = (1 - 0.9 ** (report.truncation_T + 1)) / 0.1
        expected = 1.9 * geom * softmax_entropy_gradient(theta[0])
        g_fd = saelbo_gradient_fd(mdp, theta, critic, eps=1e-5)
        g_pg = saelbo_gradient_pg(mdp, theta, critic)
        np.testing.assert_allclose(g_fd[0], expected, atol=1e-6)
        np.testing.assert_allclose(g_pg[0], expected, atol=1e-10)

    def test_one_state_uniform_gives_zero_vector(self):
        mdp = one_state_mdp(n_actions=2)
        theta = np.zeros((1, 2))
        g = saelbo_gradient_fd(mdp, theta, CriticTable(np.zeros((1, 1))), eps=1e-5)
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_symmetric_xor_gradient_symmetry(self):
        mdp = xor_mdp()
        theta = np.zeros((2, 2))
        g = saelbo_gradient_fd(mdp, theta, CriticTable(np.zeros((2, 2))), eps=1e-5)
        # symmetry of the fixture: both states and both actions interchangeable
        assert abs(g[0, 0] - g[1, 0]) < 1e-6
        assert abs(g[0, 1] - g[1, 1]) < 1e-6

    def test_zero_critic_reduces_to_policy_entropy_reward(self):
        rng = np.random.default_rng(17)
        mdp = random_injective_mdp(3, 2, 0.9, rng)
        theta = rng.normal(0, 1, size=(3, 2))
        zero = CriticTable(np.zeros((3, 3)))
        g_pg = saelbo_gradient_pg(mdp, theta, zero)
        g_fd = saelbo_gradient_fd(mdp, theta, zero, eps=1e-5)
        rel = np.linalg.norm(g_fd - g_pg) / max(np.linalg.norm(g_fd), 1e-300)
        assert rel < 1e-4

    def test_random_mdp_random_critic_cross_check(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            mdp = random_injective_mdp(3, 2, 0.9, rng)
            theta = rng.normal(0, 1, size=(3, 2))
            critic = CriticTable(rng.normal(0, 1, size=(3, 3)))
            g_fd = saelbo_gradient_fd(mdp, theta, critic, eps=1e-5)
            g_pg = saelbo_gradient_pg(mdp, theta, critic)
            rel = np.linalg.norm(g_fd - g_pg) / max(
                np.linalg.norm(g_fd), np.linalg.norm(g_pg), 1e-300)
            assert rel < 1e-4


class TestCorollaryBound:
    def test_constant_corrected_distribution_matching_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            S, A = int(rng.integers(2, 6)), 2
            mdp = random_injective_mdp(S, A, float(rng.uniform(0.4, 0.95)), rng)
            imitator = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
            expert = SoftmaxPolicy(rng.normal(0, 1.5, size=(S, A)))
            critic = CriticTable(rng.normal(0, 1, size=(S, S)))
            rho_p = occupancy_measure(mdp, imitator)
            rho_e = occupancy_measure(mdp, expert)
            lhs = -reverse_kl_occupancy(rho_p, rho_e)
            report = saelbo(mdp, imitator, critic)
            j_term = float((rho_p.rho * np.log(rho_e.rho)).sum())
            assert lhs >= j_term + report.saelbo + report.constant_c_gamma - 1e-8


class TestJointHelpers:
    def test_consecutive_joint_marginals(self):
        rng = np.random.default_rng(3)
        mdp = random_injective_mdp(4, 2, 0.9, rng)
        policy = SoftmaxPolicy(rng.normal(size=(4, 2)))
        sched = state_marginals(mdp, policy, 5)
        joint = consecutive_state_joint(mdp, policy, sched.at(2))
        np.testing.assert_allclose(joint.marg_x, sched.at(2), atol=1e-12)
        np.testing.assert_allclose(joint.marg_y, sched.at(3), atol=1e-12)
