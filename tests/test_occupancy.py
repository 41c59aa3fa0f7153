"""Tests for occupancy measures, entropies, MI bounds, the entropy lower
bound, and the gradient identity between its finite-difference and exact
policy-gradient forms."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndilab import occupancy
from ndilab.envs import GridworldSpec, build_chain, build_gridworld
from ndilab import mdp as mdp_module
from ndilab.mdp import SoftmaxPolicy, TabularMdp, state_marginals
from ndilab.occupancy import (
    CriticTable,
    JointTable,
    OccupancyTable,
    conditional_entropies,
    consecutive_state_joint,
    critic_horizon,
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
from test_verify import counting


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


def discounted_policy_entropy(mdp, policy, tol=1e-10):
    """H(pi) = -sum_{s,a} rho(s,a) log pi(a|s)."""
    occ = occupancy_measure(mdp, policy, tol)
    return float(-(occ.rho * policy.log_probs()).sum())


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


def per_t_conditional_entropies(mdp, policy, t):
    """H(s_t | s_{t-1}) and H(a_{t-1} | s_{t-1}) at one t, each from its own
    marginal recursion and row entropies."""
    p_prev = state_marginals(mdp, policy, t).per_timestep[t - 1]
    M = mdp.policy_transition_matrix(policy)
    probs = policy.probs()
    h_state = float(p_prev @ np.array([generalized_entropy(M[s]) for s in range(mdp.n_states)]))
    h_action = float(p_prev @ np.array([generalized_entropy(probs[s])
                                        for s in range(mdp.n_states)]))
    return h_state, h_action


class TestConditionalEntropies:
    def test_deterministic_policy_both_zero(self):
        policy = SoftmaxPolicy(np.array([[0.0, -2000.0], [-2000.0, 0.0]]))
        h_state, h_action = conditional_entropies(xor_mdp(), policy, 5)
        for t in (1, 2, 5):
            assert h_state[t - 1] == pytest.approx(0.0, abs=1e-12)
            assert h_action[t - 1] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_policy_xor_gives_log2(self):
        h_state, h_action = conditional_entropies(xor_mdp(), SoftmaxPolicy.uniform(2, 2), 10)
        for t in (1, 3, 10):
            assert h_state[t - 1] == pytest.approx(math.log(2))
            assert h_action[t - 1] == pytest.approx(math.log(2))

    def test_epsilon_greedy_gridworld_identity_at_t3(self):
        mdp = build_gridworld(GridworldSpec())
        rng = np.random.default_rng(9)
        greedy = rng.integers(0, mdp.n_actions, size=mdp.n_states)
        probs = np.full((mdp.n_states, mdp.n_actions), 0.2 / mdp.n_actions)
        probs[np.arange(mdp.n_states), greedy] += 0.8
        policy = SoftmaxPolicy(np.log(probs))
        h_state, h_action = conditional_entropies(mdp, policy, 3)
        assert abs(h_state[2] - h_action[2]) < 1e-10

    def test_lemma_identity_on_random_injective_mdps(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            S, A = int(rng.integers(2, 10)), int(rng.integers(2, 5))
            A = min(S, A)
            mdp = random_injective_mdp(S, A, 0.9, rng)
            policy = SoftmaxPolicy(rng.normal(0, 2, size=(S, A)))
            h_state, h_action = conditional_entropies(mdp, policy, 14)
            assert np.all(np.abs(h_state - h_action) < 1e-10)

    @pytest.mark.parametrize("kind", ["one-state-three-actions", "non-injective", "4x3", "7x5"])
    def test_each_entry_equals_its_single_t_computation(self, kind):
        mdp, theta, _ = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        h_state, h_action = conditional_entropies(mdp, policy, 30)
        assert h_state.shape == h_action.shape == (30,)
        for t in range(1, 31):
            want = per_t_conditional_entropies(mdp, policy, t)
            assert same_bytes((h_state[t - 1], h_action[t - 1]), want), t

    def test_needs_t_at_least_one(self):
        with pytest.raises(ValueError, match="t >= 1"):
            conditional_entropies(xor_mdp(), SoftmaxPolicy.uniform(2, 2), 0)


class TestResolveCriticSchedule:
    @pytest.mark.parametrize("critic, bound", [
        (CriticTable(np.full((3, 3), 6.0)), 6.0 + math.exp(5.0)),   # lengthens T
        (np.zeros((3, 3)), 1.0),
    ], ids=["table", "array"])
    def test_constant_critic_needs_no_state_marginals(self, critic, bound, monkeypatch):
        mdp = build_chain(3)
        # two rows: far fewer than an optimal critic of this horizon reads
        schedule = state_marginals(mdp, SoftmaxPolicy.uniform(3, 2), 1)
        calls = []
        monkeypatch.setattr(occupancy, "state_marginals", lambda *args: calls.append(args))
        tables, T = resolve_critic_schedule(mdp, schedule, critic, 1e-10)
        assert calls == []
        assert T == truncation_horizon(mdp.discount, 1e-10, bound)
        values = getattr(critic, "values", critic)
        assert tables.shape == (T + 1, 3, 3) and np.shares_memory(tables, values)
        assert all(same_bytes(table, values) for table in tables)
        with pytest.raises(ValueError, match=f"need {T + 2} marginal rows, got 2"):
            occupancy.saelbo_value(mdp, schedule, tables, T)


@pytest.mark.parametrize("critic", ["optimal", "constant"])
@pytest.mark.parametrize("fn", [saelbo, saelbo_gradient_pg], ids=["saelbo", "gradient_pg"])
def test_bound_propagates_its_policy_once(monkeypatch, fn, critic):
    mdp, theta, rng = parity_fixture("4x3")
    if critic == "constant":
        critic = rng.normal(0, 1.0, size=(4, 4))
    schedules = counting(monkeypatch, "state_marginals", [mdp_module, occupancy])
    matrices = counting(monkeypatch, "policy_transition_matrix", [TabularMdp])
    fn(mdp, SoftmaxPolicy(theta) if fn is saelbo else theta, critic)
    assert len(schedules) == 1 and len(matrices) == 1


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
        joint = consecutive_state_joint(mdp, policy, sched.per_timestep[2])
        np.testing.assert_allclose(joint.marg_x, sched.per_timestep[2], atol=1e-12)
        np.testing.assert_allclose(joint.marg_y, sched.per_timestep[3], atol=1e-12)


# ---------------------------------------------------------------------------
# The per-timestep loops the schedule-wide code replaced, kept as references:
# the array versions must reproduce them byte for byte.
# ---------------------------------------------------------------------------


def loop_exp_safe_max(f):
    fmax = float(f.max())
    if fmax > 700.0:
        cell = tuple(int(i) for i in np.unravel_index(int(f.argmax()), f.shape))
        raise OverflowError(f"critic value {fmax:.3g} at cell {cell} would overflow exp")
    return fmax


def loop_nwj(joint, marg_x, marg_y, f):
    loop_exp_safe_max(f)
    cross = float(marg_x @ np.exp(f) @ marg_y)
    return float((joint * f).sum()) - math.exp(-1.0) * cross


def loop_optimal_schedule(mdp, policy, T):
    """One consecutive-state joint and one log-ratio critic per t."""
    marg = state_marginals(mdp, policy, T + 1).per_timestep
    tables = []
    for t in range(T + 1):
        M = mdp.policy_transition_matrix(policy)
        J = JointTable(marg[t][:, None] * M, marg[t], M.T @ marg[t])
        f = np.full_like(J.joint, -30.0)
        sup = J.joint > 1e-250
        mx = np.broadcast_to(J.marg_x[:, None], J.joint.shape)
        my = np.broadcast_to(J.marg_y[None, :], J.joint.shape)
        f[sup] = np.log(J.joint[sup]) - np.log(mx[sup]) - np.log(my[sup]) + 1.0
        tables.append(CriticTable(f).values)
    return tables


def loop_saelbo_terms(mdp, policy, critic_tables, T):
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
        mi_sum += disc * loop_nwj(joint, p, M.T @ p, critic_tables[t])
        p = M.T @ p
        disc *= gamma
    return h_s0, h_policy, mi_sum


def loop_frozen_reward_tables(mdp, policy, critic_tables, T):
    gamma = mdp.discount
    S, A = mdp.n_states, mdp.n_actions
    marg = state_marginals(mdp, policy, T + 2).per_timestep
    r_pi = -(1.0 + gamma) * policy.log_probs()
    rows = np.arange(S)
    rewards = []
    for t in range(T + 1):
        f = critic_tables[t]
        loop_exp_safe_max(f)
        ef = np.exp(f)
        ex_in = marg[t] @ ef
        ex_out = ef @ marg[t + 1]
        r_f = np.empty((S, A))
        for a in range(A):
            nxt = mdp.transition[:, a]
            r_f[:, a] = gamma * f[rows, nxt] - (gamma / math.e) * (ex_in[nxt] + ex_out)
        rewards.append(r_pi + r_f)
    return rewards


def loop_policy_gradient(mdp, theta, rewards, T):
    policy = SoftmaxPolicy(theta)
    gamma = mdp.discount
    S, A = mdp.n_states, mdp.n_actions
    P = S * A
    probs = policy.probs()
    M = mdp.policy_transition_matrix(policy)
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
        dc = np.einsum("sab,sa->sb", G, rbar)
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


def parity_fixture(kind):
    """(mdp, logits, rng) of one fixture kind: S = 1, injective MDPs of
    several sizes, and MDPs where two or more actions of one state reach the
    same next state (one of them starting from a point mass, so some joint
    cells are empty and get the critic floor)."""
    rng = np.random.default_rng(PARITY_KINDS.index(kind))
    if kind == "one-state-one-action":
        mdp = one_state_mdp(n_actions=1, gamma=0.9)
    elif kind == "one-state-three-actions":
        mdp = one_state_mdp(n_actions=3, gamma=0.8)
    elif kind == "non-injective":
        trans = np.array([[1, 1, 2], [0, 2, 2], [3, 0, 3], [1, 1, 1]])
        mdp = TabularMdp(trans, rng.dirichlet(np.ones(4)), np.zeros((4, 3)), 0.85)
    elif kind == "non-injective-point-start":
        trans = np.array([[0, 0, 1, 1], [2, 2, 2, 0], [1, 0, 1, 0]])
        mdp = TabularMdp(trans, np.array([1.0, 0.0, 0.0]), np.zeros((3, 4)), 0.9)
    else:
        S, A = (int(n) for n in kind.split("x"))
        mdp = random_injective_mdp(S, A, float(rng.uniform(0.5, 0.95)), rng)
    theta = rng.normal(0, 1.5, size=(mdp.n_states, mdp.n_actions))
    return mdp, theta, rng


PARITY_KINDS = ["one-state-one-action", "one-state-three-actions", "non-injective",
                "non-injective-point-start", "2x2", "3x2", "4x3", "6x4", "7x5"]


def same_bytes(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def exact_schedule(mdp, policy, T):
    """The T + 2 marginal rows the bound and its critics read."""
    return state_marginals(mdp, policy, T + 1)


@pytest.mark.parametrize("kind", PARITY_KINDS)
class TestScheduleParity:
    def critic_schedules(self, mdp, policy, rng):
        S = mdp.n_states
        T = critic_horizon(mdp, 1e-10)
        schedule = exact_schedule(mdp, policy, T)
        tables, T = resolve_critic_schedule(mdp, schedule, "optimal", 1e-10)
        yield "optimal", tables, T, schedule
        yield "per-t random", rng.normal(0, 1.0, size=(T + 1, S, S)), T, schedule
        constant, T_c = resolve_critic_schedule(mdp, schedule, rng.normal(0, 2.0, size=(S, S)),
                                                1e-10)
        yield "constant", constant, T_c, exact_schedule(mdp, policy, T_c)

    def test_optimal_critic_schedule(self, kind):
        mdp, theta, _ = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        T = critic_horizon(mdp, 1e-10)
        tables, got_T = resolve_critic_schedule(mdp, exact_schedule(mdp, policy, T), "optimal",
                                                1e-10)
        log_s = math.log(mdp.n_states) + 1.0
        assert got_T == T == truncation_horizon(mdp.discount, 1e-10,
                                                max(1.0, math.log(max(mdp.n_actions, 2)), log_s))
        assert tables.shape == (T + 1, mdp.n_states, mdp.n_states)
        assert same_bytes(tables, loop_optimal_schedule(mdp, policy, T))

    def test_saelbo_terms_and_value(self, kind):
        mdp, theta, rng = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        for name, tables, T, schedule in self.critic_schedules(mdp, policy, rng):
            want = loop_saelbo_terms(mdp, policy, tables, T)
            assert same_bytes(occupancy._saelbo_terms(mdp, schedule, tables, T), want), name
            h_s0, h_policy, mi_sum = want
            value = h_s0 + (1.0 + mdp.discount) * h_policy + mdp.discount * mi_sum
            assert same_bytes(occupancy.saelbo_value(mdp, schedule, tables, T), value), name

    def test_frozen_reward_tables(self, kind):
        mdp, theta, rng = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        for name, tables, T, schedule in self.critic_schedules(mdp, policy, rng):
            got = occupancy._frozen_reward_tables(mdp, schedule, tables, T)
            assert same_bytes(got, loop_frozen_reward_tables(mdp, policy, tables, T)), name

    def test_discounted_policy_gradient(self, kind):
        mdp, theta, rng = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        S, A = mdp.n_states, mdp.n_actions
        T = critic_horizon(mdp, 1e-10)
        tables, _ = resolve_critic_schedule(mdp, exact_schedule(mdp, policy, T), "optimal", 1e-10)
        frozen = loop_frozen_reward_tables(mdp, policy, tables, T)
        single = rng.normal(0, 1.0, size=(S, A))
        per_t = [rng.normal(0, 1.0, size=(S, A)) for _ in range(T + 1)]
        schedule = state_marginals(mdp, policy, T)     # the T + 1 rows the gradient reads
        for name, rewards, loop_rewards in [("frozen list", frozen, frozen),
                                            ("frozen array", np.stack(frozen), frozen),
                                            ("single table", single, single),
                                            ("random list", per_t, per_t)]:
            want = loop_policy_gradient(mdp, theta, loop_rewards, T)
            got = occupancy.discounted_policy_gradient(mdp, schedule, rewards, T)
            assert same_bytes(got, want), name
        assert same_bytes(occupancy.saelbo_gradient_pg(mdp, theta, "optimal"),
                          loop_policy_gradient(mdp, theta, frozen, T))

    def test_supplied_marginal_stack_gives_the_same_bytes(self, kind):
        # rows needed: T + 2 for the critics, the bound and the reward tables,
        # T + 1 for the gradient; a longer schedule gives the same bytes as
        # one of exact length
        mdp, theta, rng = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        for name, tables, T, exact in self.critic_schedules(mdp, policy, rng):
            longer = state_marginals(mdp, policy, T + 8)
            if name == "optimal":
                got, got_T = resolve_critic_schedule(mdp, longer, "optimal", 1e-10)
                assert got_T == T and same_bytes(got, tables)
            assert same_bytes(occupancy._saelbo_terms(mdp, longer, tables, T),
                              occupancy._saelbo_terms(mdp, exact, tables, T)), name
            assert same_bytes(occupancy.saelbo_value(mdp, longer, tables, T),
                              occupancy.saelbo_value(mdp, exact, tables, T)), name
            rewards = occupancy._frozen_reward_tables(mdp, exact, tables, T)
            assert same_bytes(occupancy._frozen_reward_tables(mdp, longer, tables, T),
                              rewards), name
            want = occupancy.discounted_policy_gradient(mdp, state_marginals(mdp, policy, T),
                                                        rewards, T)
            for schedule in (exact, longer):
                got = occupancy.discounted_policy_gradient(mdp, schedule, rewards, T)
                assert same_bytes(got, want), name

    def test_short_marginal_stack_rejected(self, kind):
        mdp, theta, _ = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        T = critic_horizon(mdp, 1e-10)
        tables, _ = resolve_critic_schedule(mdp, exact_schedule(mdp, policy, T), "optimal", 1e-10)
        short = state_marginals(mdp, policy, T)
        with pytest.raises(ValueError, match=f"need {T + 2} marginal rows, got {T + 1}"):
            resolve_critic_schedule(mdp, short, "optimal", 1e-10)
        with pytest.raises(ValueError, match=f"need {T + 2} marginal rows"):
            occupancy.saelbo_value(mdp, short, tables, T)
        with pytest.raises(ValueError, match=f"need {T + 2} marginal rows"):
            occupancy._frozen_reward_tables(mdp, short, tables, T)
        with pytest.raises(ValueError, match=f"need {T + 1} marginal rows, got {T}"):
            occupancy.discounted_policy_gradient(mdp, state_marginals(mdp, policy, T - 1),
                                                 np.zeros(theta.shape), T)

    @pytest.mark.parametrize("T", [0, 1, 2])
    def test_shortest_horizons(self, kind, T):
        mdp, theta, rng = parity_fixture(kind)
        policy = SoftmaxPolicy(theta)
        S, A = mdp.n_states, mdp.n_actions
        tables = rng.normal(0, 1.0, size=(T + 1, S, S))
        schedule = exact_schedule(mdp, policy, T)
        assert same_bytes(occupancy._saelbo_terms(mdp, schedule, tables, T),
                          loop_saelbo_terms(mdp, policy, tables, T))
        frozen = loop_frozen_reward_tables(mdp, policy, tables, T)
        assert same_bytes(occupancy._frozen_reward_tables(mdp, schedule, tables, T), frozen)
        for rewards in (frozen, frozen[0]):
            assert same_bytes(occupancy.discounted_policy_gradient(mdp, schedule, rewards, T),
                              loop_policy_gradient(mdp, theta, rewards, T))


class TestScheduleOverflowParity:
    def schedule(self):
        rng = np.random.default_rng(12)
        mdp = random_injective_mdp(3, 2, 0.9, rng)
        T = 10
        tables = rng.normal(0, 1.0, size=(T + 1, 3, 3))
        tables[3][1, 2] = 750.0     # the first entry above 700
        tables[5][0, 0] = 900.0     # a later, larger one
        tables[5][2, 2] = 800.0
        return mdp, rng.normal(size=(3, 2)), tables, T

    @pytest.mark.parametrize("name", ["saelbo_value", "_frozen_reward_tables"])
    def test_first_offending_timestep_is_named_without_warnings(self, name):
        mdp, theta, tables, T = self.schedule()
        policy = SoftmaxPolicy(theta)
        schedule = exact_schedule(mdp, policy, T)
        new, loop = {
            "saelbo_value": (lambda: occupancy.saelbo_value(mdp, schedule, tables, T),
                             lambda: loop_saelbo_terms(mdp, policy, tables, T)),
            "_frozen_reward_tables": (
                lambda: occupancy._frozen_reward_tables(mdp, schedule, tables, T),
                lambda: loop_frozen_reward_tables(mdp, policy, tables, T)),
        }[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as want:
                loop()
            with pytest.raises(OverflowError) as got:
                new()
        assert str(got.value) == str(want.value)
        assert str(got.value) == "critic value 750 at cell (1, 2) would overflow exp"
