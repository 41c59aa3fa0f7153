"""Tests for the built-in chain, gridworld, and point-mass environments."""
import numpy as np
import pytest

from ndilab.envs import (
    GridworldSpec,
    PdExpert,
    PointMassEnv,
    PointMassSpec,
    build_chain,
    build_gridworld,
    chain_embedding,
    get_env,
    pd_controller_action,
    pointmass_step,
    soft_optimal_policy,
)
from ndilab.imitation import evaluate_policy_kl, exact_discounted_return
from ndilab.mdp import SoftmaxPolicy, check_injective_dynamics, state_marginals
from ndilab.occupancy import occupancy_measure


class TestBuildChain:
    def test_two_states_isomorphic_to_xor(self):
        mdp = build_chain(2)
        assert check_injective_dynamics(mdp)
        # stay/flip dynamics: action 0 fixes the state, action 1 swaps
        np.testing.assert_array_equal(mdp.transition, [[0, 1], [1, 0]])

    def test_optimal_policy_reaches_goal_in_four_steps(self):
        mdp = build_chain(5)
        right = SoftmaxPolicy(np.array([[0.0, 50.0]] * 5))
        s = 0
        for _ in range(4):
            s = int(mdp.transition[s, 1])
        assert s == 4
        sched = state_marginals(mdp, right, horizon=4)
        assert sched.per_timestep[4][4] == pytest.approx(1.0)

    def test_right_moving_occupancy_matches_hand_recursion(self):
        mdp = build_chain(4, gamma=0.9)
        right = SoftmaxPolicy(np.array([[0.0, 60.0]] * 4))
        occ = occupancy_measure(mdp, right)
        # hand recursion at T=100: the point mass cycles 0 -> 1 -> 2 -> 3 -> 0
        rho = np.zeros(4)
        s, disc = 0, 1.0
        for _ in range(101):
            rho[s] += disc
            s = (s + 1) % 4
            disc *= 0.9
        np.testing.assert_allclose(occ.rho[:, 1], rho, atol=1e-4)
        np.testing.assert_allclose(occ.rho[:, 0], 0.0, atol=1e-12)

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            build_chain(1)


class TestBuildGridworld:
    def test_two_by_two_passes_injectivity(self):
        mdp = build_gridworld(GridworldSpec(width=2, height=2, goal=(1, 1)))
        assert check_injective_dynamics(mdp)

    def test_five_by_five_injective_with_all_actions(self):
        mdp = build_gridworld(GridworldSpec())
        assert mdp.n_actions == 5
        assert check_injective_dynamics(mdp)

    def test_shortest_path_return_matches_hand_discounting(self):
        spec = GridworldSpec()
        mdp = build_gridworld(spec)
        expert = soft_optimal_policy(mdp, temperature=0.01)
        # torus distance from (0,0) to (4,4) is 2; reward flows from step d-1 on
        d = 2
        expected = spec.discount ** (d - 1) * 1.0 / (1 - spec.discount)
        assert exact_discounted_return(mdp, expert) == pytest.approx(expected, rel=1e-6)

    def test_uniform_marginals_converge(self):
        mdp = build_gridworld(GridworldSpec())
        sched = state_marginals(mdp, SoftmaxPolicy.uniform(25, 5), horizon=200)
        diff = np.abs(sched.per_timestep[200] - sched.per_timestep[199]).sum()
        assert diff < 1e-6


class TestPointMass:
    def test_zero_action_zero_velocity_is_fixed_point(self):
        spec = PointMassSpec()
        s = np.array([0.3, -0.7, 0.0, 0.0])
        np.testing.assert_array_equal(pointmass_step(spec, s, np.zeros(2)), s)

    def test_unit_acceleration_builds_velocity_linearly(self):
        spec = PointMassSpec(friction=0.0, dt=0.1)
        s = np.zeros(4)
        for k in range(5):
            s = pointmass_step(spec, s, np.array([1.0, 0.0]))
        assert s[2] == pytest.approx(5 * 0.1)

    def test_friction_contracts_velocity(self):
        spec = PointMassSpec(friction=0.2)
        s = np.array([0.0, 0.0, 1.0, -2.0])
        prev = np.linalg.norm(s[2:])
        for _ in range(20):
            s = pointmass_step(spec, s, np.zeros(2))
            cur = np.linalg.norm(s[2:])
            assert cur <= prev + 1e-12
            prev = cur

    def test_action_clipped_to_bounds(self):
        spec = PointMassSpec(max_accel=1.0, friction=0.0)
        s = pointmass_step(spec, np.zeros(4), np.array([100.0, 0.0]))
        assert s[2] == pytest.approx(spec.dt * 1.0)


class TestPdExpert:
    def test_sample_is_pd_action_plus_demo_noise_bit_for_bit(self):
        expert = get_env("pointmass").expert()
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        state_rng = np.random.default_rng(6)
        for _ in range(1000):
            s = state_rng.normal(size=4)
            expected = pd_controller_action(s) + 0.02 * ref_rng.standard_normal(2)
            np.testing.assert_array_equal(expert.sample(s, rng), expected)

    def test_gaussian_interface_matches_the_sampling_noise(self):
        expert = PdExpert(PointMassSpec())
        s = np.array([0.4, -0.3, 0.2, 0.1])
        np.testing.assert_array_equal(expert.mean(s), pd_controller_action(s))
        np.testing.assert_array_equal(np.exp(expert.clamped_log_std()), [0.02, 0.02])

    def test_expert_scores_zero_kl_against_itself(self):
        expert = get_env("pointmass").expert()
        assert evaluate_policy_kl(expert, expert, PointMassEnv(), n_eval_states=60) == 0.0


class TestRegistry:
    def test_known_names_resolve(self):
        assert get_env("chain-5").mdp.n_states == 5
        assert get_env("grid-3x4").mdp.n_states == 12
        assert get_env("pointmass").kind == "continuous"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_env("mountaincar")

    def test_expert_tau_sets_the_tabular_expert_temperature(self):
        assert get_env("grid-3x3").expert_tau == 0.05
        bundle = get_env("grid-3x3", expert_tau=0.5)
        np.testing.assert_array_equal(bundle.expert().logits,
                                      soft_optimal_policy(bundle.mdp, 0.5).logits)

    def test_all_tabular_registry_envs_injective(self):
        for name in ("chain-2", "chain-5", "chain-9", "grid-2x2", "grid-5x5", "grid-3x3"):
            assert check_injective_dynamics(get_env(name).mdp), name

    def test_embedding_dimensions(self):
        bundle = get_env("grid-5x5")
        assert bundle.embedding.state_coords.shape == (25, 2)
        assert bundle.embedding.action_coords.shape == (5, 1)
        assert chain_embedding(5).state_coords.shape == (5, 1)


class TestExperts:
    @pytest.mark.parametrize("name", ["chain-5", "grid-5x5"])
    def test_soft_optimal_expert_near_deterministic_optimum(self, name):
        bundle = get_env(name)
        expert = bundle.expert()
        expert_return = exact_discounted_return(bundle.mdp, expert)
        greedy = SoftmaxPolicy(expert.logits * 1e6)
        optimal_return = exact_discounted_return(bundle.mdp, greedy)
        assert expert_return >= 0.99 * optimal_return
