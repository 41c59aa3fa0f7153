"""Tests for augmented rewards, the RBF critic, the timestep replay buffer,
soft policy iteration, the toy SAC learner, and policy evaluation."""
import logging
import math
from collections import deque

import numpy as np
import pytest

from ndilab.envs import PointMassEnv, PointMassSpec, build_chain, soft_optimal_policy
from ndilab.imitation import (
    AugmentedRewardConfig,
    RbfCritic,
    SacConfig,
    SacLearner,
    TimestepReplayBuffer,
    TransitionContext,
    augmented_reward,
    evaluate_policy_kl,
    evaluate_return,
    exact_discounted_return,
    nwj_reward,
    reward_f,
    reward_pi,
    soft_policy_iteration,
)
from ndilab.mdp import GaussianPolicy, SoftmaxPolicy, TabularMdp, sample_trajectory
from ndilab.occupancy import occupancy_measure, reverse_kl_occupancy


class TestRbfCritic:
    def test_degenerate_distribution_gives_one(self):
        critic = RbfCritic()
        s = np.array([1.0, 2.0])
        critic.observe_pairs([(s, s)] * 3)
        assert critic.value(s, s) == pytest.approx(1.0)

    def test_ratio_of_equal_kernels_gives_one(self):
        critic = RbfCritic()
        s, s_next = np.array([0.0]), np.array([1.0])   # squared distance 1
        critic.observe_pairs([(np.array([0.0]), np.array([1.0]))])   # mean kernel e^{-1}
        assert critic.value(s, s_next) == pytest.approx(1.0)

    def test_four_pair_fixture_hand_computed(self):
        critic = RbfCritic()
        critic.observe_pairs([(np.array([0.0]), np.array([0.5])),
                              (np.array([1.0]), np.array([1.0])),
                              (np.array([0.0]), np.array([2.0])),
                              (np.array([1.0]), np.array([0.0]))])
        norm = (math.exp(-0.25) + 1.0 + math.exp(-4.0) + math.exp(-1.0)) / 4
        expected = -1.0 - math.log(norm) + 1.0
        got = critic.value(np.array([0.0]), np.array([1.0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            RbfCritic().observe_pairs([])

    def test_value_broadcasts_over_leading_axes(self):
        critic = RbfCritic(bandwidth=2.0)
        critic.observe_pairs([(np.zeros(3), np.ones(3))])
        rng = np.random.default_rng(4)
        s, batch = rng.normal(size=3), rng.normal(size=(5, 2, 3))
        got = critic.value(s, batch)
        assert got.shape == (5, 2)
        expected = [[critic.value(s, y) for y in row] for row in batch]
        np.testing.assert_array_equal(got, expected)
        assert isinstance(critic.value(s, batch[0, 0]), float)

    def test_running_normalizer_matches_batch_mean(self):
        critic = RbfCritic()
        rng = np.random.default_rng(0)
        pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(50)]
        critic.observe_pairs(pairs)
        batch = float(np.mean([critic.kernel(a, b) for a, b in pairs]))
        assert critic.normalizer == pytest.approx(batch, rel=1e-12)


class TestRewardPi:
    def test_uniform_alg1_form(self):
        policy = SoftmaxPolicy.uniform(1, 2)
        cfg = AugmentedRewardConfig(gamma=0.9, use_alg1_form=True)
        assert reward_pi(policy, 0, 0, cfg) == pytest.approx(math.log(2))

    def test_uniform_identity_form_carries_one_plus_gamma(self):
        policy = SoftmaxPolicy.uniform(1, 2)
        cfg = AugmentedRewardConfig(gamma=0.9, use_alg1_form=False)
        assert reward_pi(policy, 0, 0, cfg) == pytest.approx(1.9 * math.log(2))

    def test_near_deterministic_at_argmax(self):
        policy = SoftmaxPolicy(np.array([[30.0, 0.0]]))
        cfg = AugmentedRewardConfig(gamma=0.9)
        assert reward_pi(policy, 0, 0, cfg) == pytest.approx(0.0, abs=1e-12)


class ConstantCritic:
    def __init__(self, value):
        self._v = value

    def value(self, s, s_next):
        return self._v


class TestRewardF:
    def test_constant_critic_all_states_identical(self):
        # f = 1 on all pairs: 1 - (gamma/e)(e + e) = 1 - 2 gamma
        buffer = TimestepReplayBuffer(seed=0)
        s = np.array([0.5])
        for t in (0, 1):
            buffer.add(t, s)
        cfg = AugmentedRewardConfig(gamma=0.9, use_alg1_form=True)
        critic = RbfCritic()  # all states equal -> kernel 1, normalizer 1, f = 1
        got = reward_f(critic, s, None, s, buffer, t=0, config=cfg)
        assert got == pytest.approx(1.0 - 2 * 0.9, abs=1e-12)

    def test_gamma_zero_reduces_to_critic_value(self):
        buffer = TimestepReplayBuffer(seed=0)
        rng = np.random.default_rng(1)
        for t in (0, 1):
            buffer.add(t, rng.normal(size=2))
        cfg = AugmentedRewardConfig(gamma=0.0, use_alg1_form=True)
        critic = RbfCritic()
        s, s2 = rng.normal(size=2), rng.normal(size=2)
        assert reward_f(critic, s, None, s2, buffer, 0, cfg) == pytest.approx(
            critic.value(s, s2), abs=1e-12)

    def test_matches_exhaustive_expectation_oracle(self):
        buffer = TimestepReplayBuffer(seed=0)
        states = {0: [np.array([0.0]), np.array([1.0])],
                  1: [np.array([0.5]), np.array([2.0]), np.array([1.0])]}
        for t, items in states.items():
            for x in items:
                buffer.add(t, x)
        critic = ConstantCritic(0.0)
        critic.value = lambda x, y: -0.5 * np.sum((np.asarray(x) - np.asarray(y)) ** 2, axis=-1)
        cfg = AugmentedRewardConfig(gamma=0.9, use_alg1_form=True)
        s, s2 = np.array([0.25]), np.array([0.75])
        got = reward_f(critic, s, None, s2, buffer, 0, cfg)
        f = critic.value
        cross = np.mean([math.exp(f(s2, x)) for x in states[0]]) + \
            np.mean([math.exp(f(y, s)) for y in states[1]])
        expected = f(s, s2) - (0.9 / math.e) * cross
        assert got == pytest.approx(expected, abs=1e-12)

    def test_identity_form_gamma_factor_and_argument_order(self):
        buffer = TimestepReplayBuffer(seed=0)
        for t in (0, 1):
            buffer.add(t, np.array([float(t)]))
        asym = ConstantCritic(0.0)
        asym.value = lambda x, y: np.asarray(x)[..., 0] - 2.0 * np.asarray(y)[..., 0]
        cfg = AugmentedRewardConfig(gamma=0.5, use_alg1_form=False)
        s, s2 = np.array([3.0]), np.array([1.0])
        got = reward_f(asym, s, None, s2, buffer, 0, cfg)
        f = asym.value
        expected = 0.5 * f(s, s2) - (0.5 / math.e) * (math.exp(f(np.array([0.0]), s2))
                                                      + math.exp(f(s, np.array([1.0]))))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_bucket_falls_back_with_warning(self, caplog):
        buffer = TimestepReplayBuffer(seed=0)
        buffer.add(0, np.array([0.0]))
        cfg = AugmentedRewardConfig(gamma=0.9)
        with caplog.at_level(logging.WARNING):
            val = reward_f(RbfCritic(), np.zeros(1), None, np.zeros(1), buffer, 5, cfg,
                           n_marginal_samples=4)
        assert "pooled" in caplog.text
        assert np.isfinite(val)

    @pytest.mark.parametrize("alg1", [True, False])
    def test_batched_reward_matches_scalar_exp_oracle(self, alg1):
        rng = np.random.default_rng(7)
        buffer = TimestepReplayBuffer(capacity_per_bucket=16, seed=0)
        for t in (3, 4):
            for _ in range(24):   # wraps each ring
                buffer.add(t, rng.normal(size=4))
        critic = RbfCritic(bandwidth=2.5)
        critic.observe_pairs([(rng.normal(size=4), rng.normal(size=4)) for _ in range(10)])
        cfg = AugmentedRewardConfig(gamma=0.8, use_alg1_form=alg1)
        f = critic.value
        for _ in range(5):
            s, s2 = rng.normal(size=4), rng.normal(size=4)
            cur, nxt = list(buffer.bucket(3)), list(buffer.bucket(4))
            if alg1:
                cross = np.mean([math.exp(f(s2, x)) for x in cur]) + \
                    np.mean([math.exp(f(y, s)) for y in nxt])
                expected = f(s, s2) - (0.8 / math.e) * cross
            else:
                cross = np.mean([math.exp(f(x, s2)) for x in cur]) + \
                    np.mean([math.exp(f(s, y)) for y in nxt])
                expected = 0.8 * f(s, s2) - (0.8 / math.e) * cross
            got = reward_f(critic, s, None, s2, buffer, 3, cfg)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_nwj_reward_over_many_transitions_matches_one_at_a_time(self):
        rng = np.random.default_rng(8)
        critic = RbfCritic()
        critic.observe_pairs([(rng.normal(size=2), rng.normal(size=2)) for _ in range(6)])
        samples = rng.normal(size=(9, 2))
        S, S2 = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        for alg1 in (True, False):
            cfg = AugmentedRewardConfig(gamma=0.9, use_alg1_form=alg1)
            got = nwj_reward(critic, S, S2, samples, samples, cfg)
            assert got.shape == (7,)
            expected = [nwj_reward(critic, s, s2, samples, samples, cfg) for s, s2 in zip(S, S2)]
            np.testing.assert_array_equal(got, expected)

    def test_scalar_valued_critic_rejected(self):
        buffer = TimestepReplayBuffer(seed=0)
        for t in (0, 1):
            for k in range(3):
                buffer.add(t, np.array([float(k)]))
        cfg = AugmentedRewardConfig(gamma=0.9)
        with pytest.raises(ValueError, match="broadcast"):
            reward_f(ConstantCritic(0.0), np.zeros(1), None, np.ones(1), buffer, 0, cfg)
        scalar_sum = lambda x, y: float(np.sum(np.asarray(x) - np.asarray(y)))  # noqa: E731
        with pytest.raises(ValueError, match="broadcast"):
            reward_f(scalar_sum, np.zeros(1), None, np.ones(1), buffer, 0, cfg,
                     n_marginal_samples=4)


class StubDensity:
    def __init__(self, value):
        self._v = value

    def log_density(self, x):
        return self._v


class TestAugmentedReward:
    def _context(self):
        return TransitionContext(t=0, s=0, a=0, s_vec=np.array([0.0]),
                                 a_vec=np.array([0.0]), s_next_vec=np.array([0.0]))

    def test_zero_weights_give_log_density(self):
        buffer = TimestepReplayBuffer(seed=0)
        for t in (0, 1):
            buffer.add(t, np.array([0.0]))
        cfg = AugmentedRewardConfig(gamma=0.9, lambda_pi=0.0, lambda_f=0.0)
        got = augmented_reward(StubDensity(1.5), SoftmaxPolicy.uniform(1, 2), RbfCritic(),
                               self._context(), buffer, cfg)
        assert got == pytest.approx(1.5)

    def test_hand_computed_fixture(self):
        # log q = 1.5, r_pi = ln 2, r_f = 1 - 2*0.9 = -0.8 (identical states)
        buffer = TimestepReplayBuffer(seed=0)
        for t in (0, 1):
            buffer.add(t, np.array([0.0]))
        cfg = AugmentedRewardConfig(gamma=0.9, lambda_pi=0.1, lambda_f=0.005)
        got = augmented_reward(StubDensity(1.5), SoftmaxPolicy.uniform(1, 2), RbfCritic(),
                               self._context(), buffer, cfg)
        assert got == pytest.approx(1.5 + 0.1 * math.log(2) + 0.005 * (-0.8), abs=1e-9)
        assert got == pytest.approx(1.5653, abs=5e-4)

    def test_constant_density_leaves_entropy_terms_only(self):
        buffer = TimestepReplayBuffer(seed=0)
        for t in (0, 1):
            buffer.add(t, np.array([0.0]))
        cfg = AugmentedRewardConfig(gamma=0.9, lambda_pi=0.2, lambda_f=0.01)
        a = augmented_reward(StubDensity(4.0), SoftmaxPolicy.uniform(1, 2), RbfCritic(),
                             self._context(), buffer, cfg)
        b = augmented_reward(StubDensity(6.0), SoftmaxPolicy.uniform(1, 2), RbfCritic(),
                             self._context(), buffer, cfg)
        assert b - a == pytest.approx(2.0, abs=1e-12)


class TestTimestepReplayBuffer:
    def test_bucket_fidelity_with_tags(self):
        buffer = TimestepReplayBuffer(capacity_per_bucket=64, seed=3)
        for t in range(5):
            for k in range(10):
                buffer.add(t, np.array([float(t), float(k)]))  # tag = timestep
        for t in range(5):
            for s in buffer.sample(t, 30):
                assert s[0] == t

    def test_fifo_eviction_at_capacity(self):
        buffer = TimestepReplayBuffer(capacity_per_bucket=4, seed=0)
        for k in range(10):
            buffer.add(0, np.array([float(k)]))
        np.testing.assert_array_equal(buffer.bucket(0), [[6.0], [7.0], [8.0], [9.0]])
        buffer.add(0, np.array([10.0]))
        np.testing.assert_array_equal(buffer.bucket(0), [[7.0], [8.0], [9.0], [10.0]])
        assert len(buffer) == 4

    def test_ring_keeps_last_capacity_states_in_fifo_order(self):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(23, 3))
        buffer = TimestepReplayBuffer(capacity_per_bucket=8, seed=0)
        for k, x in enumerate(states):
            buffer.add(1, x)
            np.testing.assert_array_equal(buffer.bucket(1), states[max(0, k - 7):k + 1])

    def test_sample_returns_rows_in_the_same_draw_order(self):
        buffer = TimestepReplayBuffer(capacity_per_bucket=5, seed=9)
        for k in range(12):
            buffer.add(0, np.array([float(k), -float(k)]))
        got = buffer.sample(0, 6)
        assert got.shape == (6, 2)
        idx = np.random.default_rng(9).integers(0, 5, size=6)
        np.testing.assert_array_equal(got, buffer.bucket(0)[idx])

    def test_pooled_concatenates_buckets_in_insertion_order(self):
        buffer = TimestepReplayBuffer(capacity_per_bucket=2, seed=0)
        for t, v in ((4, 0.0), (1, 1.0), (4, 2.0), (4, 3.0), (1, 4.0)):
            buffer.add(t, np.array([v]))
        np.testing.assert_array_equal(buffer.pooled(), [[2.0], [3.0], [1.0], [4.0]])
        assert buffer.bucket(7).shape[0] == 0

    def test_sampling_is_uniform_over_contents(self):
        buffer = TimestepReplayBuffer(seed=11)
        for k in range(4):
            buffer.add(2, np.array([float(k)]))
        draws = np.array([s[0] for s in buffer.sample(2, 40_000)])
        freqs = np.array([(draws == k).mean() for k in range(4)])
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            TimestepReplayBuffer(seed=0).sample(0, 1)


def value_iteration_greedy(mdp, iters=5_000):
    V = np.zeros(mdp.n_states)
    for _ in range(iters):
        Q = mdp.reward + mdp.discount * V[mdp.transition]
        V = Q.max(axis=1)
    return Q.argmax(axis=1)


class TestSoftPolicyIteration:
    def test_single_backup_bandit(self):
        mdp = TabularMdp(np.zeros((1, 2), dtype=int), np.ones(1),
                         np.array([[1.0, 0.0]]), 0.0)
        policy = soft_policy_iteration(mdp, temperature=1.0)
        np.testing.assert_allclose(policy.probs()[0],
                                   [math.e / (math.e + 1), 1 / (math.e + 1)], atol=1e-9)

    def test_small_temperature_approaches_argmax(self):
        mdp = TabularMdp(np.zeros((1, 2), dtype=int), np.ones(1),
                         np.array([[1.0, 0.0]]), 0.0)
        policy = soft_policy_iteration(mdp, temperature=0.01)
        assert policy.probs()[0, 0] > 0.999

    def test_matches_value_iteration_oracle_on_chain(self):
        mdp = build_chain(3, gamma=0.9, goal_reward=1.0)
        greedy = value_iteration_greedy(mdp)
        policy = soft_policy_iteration(mdp, temperature=0.01)
        np.testing.assert_array_equal(policy.probs().argmax(axis=1), greedy)

    def test_reward_shift_leaves_policy_unchanged(self):
        mdp = build_chain(4, gamma=0.9)
        base = soft_policy_iteration(mdp, temperature=0.5)
        shifted = soft_policy_iteration(mdp, temperature=0.5, reward=mdp.reward + 3.0)
        np.testing.assert_allclose(base.probs(), shifted.probs(), atol=1e-8)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            soft_policy_iteration(build_chain(3), temperature=0.0)


class TestSacLearner:
    def test_zero_learning_rates_leave_everything_unchanged(self):
        cfg = SacConfig(lr=0.0, lr_alpha=0.0, batch_size=8, hidden=(8,), seed=0)
        learner = SacLearner(state_dim=2, action_dim=1, config=cfg)
        rng = np.random.default_rng(0)
        for _ in range(16):
            learner.add_transition(rng.normal(size=2), rng.normal(size=1),
                                   rng.normal(), rng.normal(size=2), False)
        before = [p.copy() for p in learner.policy.mean_net.params()
                  + learner.q1.params() + learner.q2.params()
                  + learner.q1_target.params() + [learner.log_alpha, learner.policy.log_std]]
        for _ in range(5):
            learner.step()
        after = (learner.policy.mean_net.params() + learner.q1.params()
                 + learner.q2.params() + learner.q1_target.params()
                 + [learner.log_alpha, learner.policy.log_std])
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_replay_ring_after_wraparound_matches_a_deque(self):
        # reference: the transitions kept in a deque(maxlen=capacity) and
        # stacked per field for the same sampled indices
        cfg = SacConfig(batch_size=8, hidden=(4,), buffer_capacity=7, seed=3)
        learner = SacLearner(state_dim=3, action_dim=2, config=cfg)
        reference = deque(maxlen=cfg.buffer_capacity)
        rng = np.random.default_rng(5)
        for k in range(1, 20):
            s, a, r, s2 = rng.normal(size=3), rng.uniform(-2, 2, size=2), rng.normal(), rng.normal(size=3)
            learner.add_transition(s, a, r, s2, done=k % 4 == 0)
            reference.append((s, np.clip(a, -1.0, 1.0), r, s2, float(k % 4 == 0)))
            assert len(learner.buffer) == len(reference)
            draw = np.random.Generator(np.random.PCG64())
            draw.bit_generator.state = learner.rng.bit_generator.state
            idx = draw.integers(0, len(reference), size=cfg.batch_size)
            want = [np.stack(field) for field in zip(*(reference[i] for i in idx))]
            for got, expected in zip(learner._batch(), want):
                np.testing.assert_array_equal(got, expected)

    def test_constant_reward_bandit_q_converges_to_geometric_series(self):
        cfg = SacConfig(gamma=0.9, lr=3e-3, lr_alpha=3e-3, batch_size=64,
                        hidden=(32, 32), seed=0)
        learner = SacLearner(state_dim=1, action_dim=1, config=cfg)
        rng = np.random.default_rng(0)
        s = np.zeros(1)
        for _ in range(8000):
            a = learner.policy.sample(s, rng)
            learner.add_transition(s, a, 1.0, s, done=False)
            if len(learner.buffer) >= cfg.batch_size:
                learner.step()
        q = learner.q1(np.concatenate([s, learner.policy.mean(s)])[None, :])[0, 0]
        assert abs(q - 10.0) / 10.0 < 0.05

    def test_point_mass_reaches_origin(self):
        env = PointMassEnv(PointMassSpec(episode_len=50))
        cfg = SacConfig(gamma=0.98, lr=8e-4, lr_alpha=1e-3, batch_size=96,
                        hidden=(32, 32), seed=0)
        learner = SacLearner(env.state_dim, env.action_dim, cfg)
        rng = np.random.default_rng(1)
        total, returns = 0, []
        for _ in range(360):
            s = env.reset(rng)
            ret = 0.0
            for t in range(50):
                a = (rng.uniform(-1, 1, 2) if total < 500
                     else learner.policy.sample(s, rng))
                s2, r = env.step(s, a)
                learner.add_transition(s, a, r, s2, done=False)
                ret += r
                s = s2
                total += 1
                if total >= 500:
                    learner.step()
            returns.append(ret)
        # smoothed returns improve and then hold
        windows = np.array(returns).reshape(12, 30).mean(axis=1)
        assert windows[-1] > windows[0]
        assert np.all(windows[4:] > windows[:2].min())
        norms = []
        for k in range(20):
            traj = sample_trajectory(env, learner.policy, 50, seed=1000 + k)
            norms.append(np.linalg.norm(traj.next_states[-1][:2]))
        # hand-tuned PD controller lands around 0.1; the learner must be close
        assert np.mean(norms) < 0.35


def constant_gaussian_policy(mean_value, state_dim=2, action_dim=1):
    policy = GaussianPolicy(state_dim, action_dim, hidden=(4,), seed=0)
    for p in policy.mean_net.params():
        p[...] = 0.0
    policy.mean_net.layers[-1].bias[:] = mean_value
    policy.log_std[:] = 0.0
    return policy


class TestEvaluatePolicyKl:
    def test_expert_against_itself_is_zero(self):
        mdp = build_chain(4, gamma=0.9)
        expert = soft_optimal_policy(mdp, 0.05)
        assert evaluate_policy_kl(expert, expert, mdp, 100, seed=0) == pytest.approx(0.0, abs=1e-12)

    def test_random_policy_normalizes_to_one(self):
        mdp = build_chain(4, gamma=0.9)
        expert = soft_optimal_policy(mdp, 0.05)
        random_policy = SoftmaxPolicy.uniform(4, 2)
        assert evaluate_policy_kl(random_policy, expert, mdp, 200, seed=1) == pytest.approx(1.0)

    def test_gaussian_pair_analytic_kl(self):
        env = PointMassEnv(PointMassSpec(episode_len=20))
        policy = constant_gaussian_policy(0.0, env.state_dim, env.action_dim)
        expert = constant_gaussian_policy(1.0, env.state_dim, env.action_dim)
        # per-state KL between N(0,1) and N(1,1) is 0.5; the zero-mean random
        # baseline coincides with the policy, so the normalized value is 1
        val = evaluate_policy_kl(policy, expert, env, 50, seed=2, episode_len=20)
        assert val == pytest.approx(1.0, abs=1e-9)
        halfway = constant_gaussian_policy(0.5, env.state_dim, env.action_dim)
        val2 = evaluate_policy_kl(halfway, expert, env, 50, seed=2, episode_len=20)
        assert val2 == pytest.approx(0.125 / 0.5, abs=0.05)


class TestEvaluateReturn:
    def test_single_state_unit_reward(self):
        mdp = TabularMdp(np.zeros((1, 1), dtype=int), np.ones(1), np.ones((1, 1)), 0.9)
        mean, stderr = evaluate_return(SoftmaxPolicy.uniform(1, 1), mdp, n_episodes=3, seed=0)
        assert mean == pytest.approx(10.0, abs=1e-6)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_setup_zero_stderr(self):
        mdp = build_chain(4, gamma=0.9)
        right = SoftmaxPolicy(np.array([[0.0, 60.0]] * 4))
        _, stderr = evaluate_return(right, mdp, n_episodes=5, seed=0)
        assert stderr == 0.0

    def test_epsilon_greedy_chain_matches_occupancy_oracle(self):
        mdp = build_chain(3, gamma=0.9, goal_reward=1.0)
        policy = SoftmaxPolicy(np.tile(np.log([0.1, 0.9]), (3, 1)))
        mean, stderr = evaluate_return(policy, mdp, n_episodes=400, seed=3)
        exact = exact_discounted_return(mdp, policy)
        assert abs(mean - exact) < 3 * max(stderr, 1e-12)

    def test_augmented_reward_table_source(self):
        mdp = build_chain(3, gamma=0.9)
        table = np.full((3, 2), 2.0)
        mean, _ = evaluate_return(SoftmaxPolicy.uniform(3, 2), mdp, reward_source=table,
                                  n_episodes=2, seed=0)
        assert mean == pytest.approx(2.0 / 0.1, abs=1e-6)

    def test_constant_shift_moves_return_by_geometric_factor(self):
        mdp = build_chain(3, gamma=0.9)
        policy = SoftmaxPolicy.uniform(3, 2)
        base, _ = evaluate_return(policy, mdp, reward_source=mdp.reward, n_episodes=5, seed=1)
        shifted, _ = evaluate_return(policy, mdp, reward_source=mdp.reward + 1.5,
                                     n_episodes=5, seed=1)
        assert shifted - base == pytest.approx(1.5 / 0.1, abs=1e-6)


class TestDensityRewardImitation:
    def test_energy_shift_leaves_optimal_policy_unchanged(self):
        # shifting the energy network by a constant shifts the reward table
        # uniformly, which soft policy iteration is invariant to
        from ndilab.density import EbmModel
        from ndilab.envs import get_env

        bundle = get_env("chain-4", 0.9)
        model = EbmModel(dim=2, hidden=(8, 8), seed=7, spectral_norm=False)

        def table():
            return np.array([[model.log_density(np.concatenate(
                [bundle.embedding.state(s), bundle.embedding.action(a)]))
                for a in range(2)] for s in range(4)])

        before = soft_policy_iteration(bundle.mdp, temperature=0.2, reward=table())
        model.net.layers[-1].bias += 5.0
        after = soft_policy_iteration(bundle.mdp, temperature=0.2, reward=table())
        np.testing.assert_allclose(before.probs(), after.probs(), atol=1e-8)

    def test_log_expert_occupancy_reward_beats_uniform(self):
        # lambda_f = 0: soft policy iteration on log rho_E must reduce the
        # occupancy reverse KL below the uniform policy's
        mdp = build_chain(5, gamma=0.9, goal_reward=1.0)
        expert = soft_optimal_policy(mdp, temperature=0.05)
        rho_e = occupancy_measure(mdp, expert)
        reward = np.log(np.maximum(rho_e.rho, 1e-300))
        imitator = soft_policy_iteration(mdp, temperature=0.1, reward=reward)
        kl_imitator = reverse_kl_occupancy(occupancy_measure(mdp, imitator), rho_e)
        kl_uniform = reverse_kl_occupancy(
            occupancy_measure(mdp, SoftmaxPolicy.uniform(5, 2)), rho_e)
        assert kl_imitator < kl_uniform
