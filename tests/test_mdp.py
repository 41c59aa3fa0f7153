"""Tests for tabular MDPs, policies, marginals, and trajectory sampling."""
import numpy as np
import pytest

from ndilab.envs import build_chain
from ndilab.mdp import (
    GaussianPolicy,
    SoftmaxPolicy,
    TabularMdp,
    check_injective_dynamics,
    sample_trajectory,
    state_marginals,
)


def xor_mdp(gamma=0.9):
    # s' = s XOR a on two states: action 0 stays, action 1 flips
    transition = np.array([[0, 1], [1, 0]])
    return TabularMdp(transition, np.array([0.5, 0.5]), np.zeros((2, 2)), gamma)


def right_chain(n=3, gamma=0.9):
    # action 0: stay, action 1: move right (absorbing at the end)
    transition = np.stack([np.arange(n), np.minimum(np.arange(n) + 1, n - 1)], axis=1)
    init = np.zeros(n)
    init[0] = 1.0
    return TabularMdp(transition, init, np.zeros((n, 2)), gamma)


class TestTabularMdpValidation:
    def test_rejects_bad_initial_dist(self):
        with pytest.raises(ValueError):
            TabularMdp(np.zeros((2, 1), dtype=int), np.array([0.6, 0.6]), np.zeros((2, 1)), 0.9)

    def test_rejects_bad_transition_index(self):
        with pytest.raises(ValueError):
            TabularMdp(np.array([[5], [0]]), np.array([1.0, 0.0]), np.zeros((2, 1)), 0.9)

    def test_rejects_discount_one(self):
        with pytest.raises(ValueError):
            TabularMdp(np.zeros((1, 1), dtype=int), np.ones(1), np.zeros((1, 1)), 1.0)


class TestInjectivity:
    def test_single_action_cannot_collide(self):
        mdp = TabularMdp(np.zeros((1, 1), dtype=int), np.ones(1), np.zeros((1, 1)), 0.9)
        assert check_injective_dynamics(mdp)

    def test_xor_dynamics_are_injective(self):
        assert check_injective_dynamics(xor_mdp())

    def test_collapsing_actions_detected(self):
        mdp = TabularMdp(np.array([[0, 0], [1, 1]]), np.array([0.5, 0.5]),
                         np.zeros((2, 2)), 0.9)
        assert not check_injective_dynamics(mdp)


class TestStateMarginals:
    def test_single_state_is_constant(self):
        mdp = TabularMdp(np.zeros((1, 2), dtype=int), np.ones(1), np.zeros((1, 2)), 0.9)
        sched = state_marginals(mdp, SoftmaxPolicy.uniform(1, 2), horizon=5)
        np.testing.assert_allclose(sched.per_timestep, 1.0)

    def test_xor_uniform_start_stays_uniform(self):
        sched = state_marginals(xor_mdp(), SoftmaxPolicy.uniform(2, 2), horizon=10)
        np.testing.assert_allclose(sched.per_timestep, 0.5, atol=1e-14)

    def test_deterministic_right_chain_reaches_state_two(self):
        # hand-unrolled: point mass moves 0 -> 1 -> 2 under always-right
        mdp = right_chain(3)
        right = SoftmaxPolicy(np.array([[0.0, 50.0]] * 3))
        sched = state_marginals(mdp, right, horizon=2)
        np.testing.assert_allclose(sched.at(2), [0.0, 0.0, 1.0], atol=1e-12)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(3)
        mdp = build_chain(5)
        policy = SoftmaxPolicy(rng.normal(size=(5, 2)))
        sched = state_marginals(mdp, policy, horizon=60)
        np.testing.assert_allclose(sched.per_timestep.sum(axis=1), 1.0, atol=1e-10)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            state_marginals(xor_mdp(), SoftmaxPolicy.uniform(2, 2), horizon=0)

    def test_p0_equals_initial_dist(self):
        mdp = build_chain(4)
        sched = state_marginals(mdp, SoftmaxPolicy.uniform(4, 2), horizon=3)
        np.testing.assert_array_equal(sched.at(0), mdp.initial_dist)


class TestSampleTrajectory:
    def test_deterministic_policy_identical_across_seeds(self):
        mdp = right_chain(4)
        right = SoftmaxPolicy(np.array([[0.0, 60.0]] * 4))
        t1 = sample_trajectory(mdp, right, max_steps=6, seed=1)
        t2 = sample_trajectory(mdp, right, max_steps=6, seed=999)
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.actions, t2.actions)

    def test_xor_uniform_frequencies(self):
        traj = sample_trajectory(xor_mdp(), SoftmaxPolicy.uniform(2, 2),
                                 max_steps=10_000, seed=5)
        freq = np.mean(traj.states == 0)
        assert abs(freq - 0.5) < 0.02

    def test_same_seed_bitwise_identical(self):
        mdp = build_chain(5)
        policy = SoftmaxPolicy(np.random.default_rng(0).normal(size=(5, 2)))
        t1 = sample_trajectory(mdp, policy, max_steps=200, seed=42)
        t2 = sample_trajectory(mdp, policy, max_steps=200, seed=42)
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.actions, t2.actions)
        np.testing.assert_array_equal(t1.rewards, t2.rewards)

    def test_transitions_match_table(self):
        mdp = build_chain(6)
        policy = SoftmaxPolicy(np.random.default_rng(1).normal(size=(6, 2)))
        traj = sample_trajectory(mdp, policy, max_steps=300, seed=7)
        np.testing.assert_array_equal(traj.next_states,
                                      mdp.transition[traj.states, traj.actions])

    def test_rollout_equals_per_step_softmax_draws(self):
        mdp = build_chain(6)
        logits = np.random.default_rng(2).normal(size=(6, 2)) * 3.0
        # extreme rows: probabilities within 1e-15 of 0 and 1, and exactly 0 and 1
        logits[1] = [0.0, 36.0]
        logits[3] = [-800.0, 800.0]
        logits[4] = [0.0, 34.0]
        logits[5] = [0.0, 0.0]   # lets the walk leave the 3 -> 4 -> 5 run
        policy = SoftmaxPolicy(logits)
        traj = sample_trajectory(mdp, policy, max_steps=300, seed=11)
        rng = np.random.default_rng(11)
        s = int(rng.choice(mdp.n_states, p=mdp.initial_dist))
        for t in range(300):
            a = int(rng.choice(mdp.n_actions, p=policy.probs()[s]))
            assert (traj.states[t], traj.actions[t]) == (s, a)
            s = int(mdp.transition[s, a])
        assert set(traj.states.tolist()) == set(range(6))

    def test_sample_makes_the_same_draws_as_choice(self):
        master = np.random.default_rng(8)
        logits = master.normal(size=(40, 5)) * np.repeat([0.1, 3.0, 40.0, 400.0], 10)[:, None]
        policy = SoftmaxPolicy(logits)
        probs = policy.probs()
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        for s in master.integers(0, 40, size=2000):
            assert policy.sample(int(s), ours) == int(theirs.choice(5, p=probs[s]))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_point_mass_next_state_given_state_action(self):
        # injective deterministic MDP: empirical next state is a point mass per (s, a)
        mdp = xor_mdp()
        traj = sample_trajectory(mdp, SoftmaxPolicy.uniform(2, 2), max_steps=2000, seed=3)
        for s in range(2):
            for a in range(2):
                mask = (traj.states == s) & (traj.actions == a)
                if mask.any():
                    assert len(np.unique(traj.next_states[mask])) == 1


class TestPolicyLogProb:
    def test_nonfinite_action_aborts_with_diagnostic(self):
        policy = GaussianPolicy(state_dim=2, action_dim=1, hidden=(4,), seed=0)
        policy.mean_net.layers[-1].bias[:] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite action"):
            policy.sample(np.zeros(2), np.random.default_rng(0))
