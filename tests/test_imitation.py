"""Tests for augmented rewards, the RBF critic, the timestep replay buffer,
soft policy iteration, the toy SAC learner, and policy evaluation."""
import copy
import logging
import math
from collections import deque

import numpy as np
import pytest

import graph_reference as gr
from graph_reference import Node, backward, flat_grads, mlp_forward
from ndilab import imitation
from ndilab.autodiff import adam_step, input_grad
from ndilab.checkpoint import load_gaussian_policy, save_gaussian_policy
from ndilab.envs import PointMassEnv, PointMassSpec, build_chain, get_env, soft_optimal_policy
from ndilab.imitation import (
    ACTION_BOUND,
    BOUND_PENALTY,
    POLYAK,
    RbfCritic,
    SacConfig,
    SacLearner,
    TimestepReplayBuffer,
    augmented_reward,
    evaluate_policy_kl,
    evaluate_return,
    exact_discounted_return,
    nwj_reward,
    reward_f,
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
        batch = float(np.mean([math.exp(-float((b - a) @ (b - a)) / critic.bandwidth)
                               for a, b in pairs]))
        assert critic.normalizer == pytest.approx(batch, rel=1e-12)


class ConstantCritic:
    def __init__(self, value):
        self._v = value

    def value(self, s, s_next):
        return self._v


class TestRewardF:
    def test_constant_critic_all_states_identical(self):
        # f = 1 on all pairs: 1 - (gamma/e)(e + e) = 1 - 2 gamma
        buffer = TimestepReplayBuffer(1, 1, seed=0)
        s = np.array([0.5])
        for t in (0, 1):
            buffer.add(t, s)
        critic = RbfCritic()  # all states equal -> kernel 1, normalizer 1, f = 1
        got = nwj_reward(critic, s, s, buffer.bucket(0), buffer.bucket(1), 0.9)
        assert got == pytest.approx(1.0 - 2 * 0.9, abs=1e-12)

    def test_gamma_zero_reduces_to_critic_value(self):
        buffer = TimestepReplayBuffer(1, 2, seed=0)
        rng = np.random.default_rng(1)
        for t in (0, 1):
            buffer.add(t, rng.normal(size=2))
        critic = RbfCritic()
        s, s2 = rng.normal(size=2), rng.normal(size=2)
        got = nwj_reward(critic, s, s2, buffer.bucket(0), buffer.bucket(1), 0.0)
        assert got == pytest.approx(critic.value(s, s2), abs=1e-12)

    def test_matches_exhaustive_expectation_oracle(self):
        buffer = TimestepReplayBuffer(1, 1, seed=0)
        states = {0: [np.array([0.0]), np.array([1.0])],
                  1: [np.array([0.5]), np.array([2.0]), np.array([1.0])]}
        for t, items in states.items():
            for x in items:
                buffer.add(t, x)
        critic = ConstantCritic(0.0)
        critic.value = lambda x, y: -0.5 * np.sum((np.asarray(x) - np.asarray(y)) ** 2, axis=-1)
        s, s2 = np.array([0.25]), np.array([0.75])
        got = nwj_reward(critic, s, s2, buffer.bucket(0), buffer.bucket(1), 0.9)
        f = critic.value
        cross = np.mean([math.exp(f(s2, x)) for x in states[0]]) + \
            np.mean([math.exp(f(y, s)) for y in states[1]])
        expected = f(s, s2) - (0.9 / math.e) * cross
        assert got == pytest.approx(expected, abs=1e-12)

    def test_alg1_form_gamma_factor_and_argument_order(self):
        buffer = TimestepReplayBuffer(1, 1, seed=0)
        for t in (0, 1):
            buffer.add(t, np.array([float(t)]))
        asym = ConstantCritic(0.0)
        asym.value = lambda x, y: np.asarray(x)[..., 0] - 2.0 * np.asarray(y)[..., 0]
        s, s2 = np.array([3.0]), np.array([1.0])
        got = nwj_reward(asym, s, s2, buffer.bucket(0), buffer.bucket(1), 0.5)
        f = asym.value
        expected = f(s, s2) - (0.5 / math.e) * (math.exp(f(s2, np.array([0.0])))
                                                + math.exp(f(np.array([1.0]), s)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_bucket_falls_back_with_warning(self, caplog):
        buffer = TimestepReplayBuffer(6, 1, seed=0)
        buffer.add(0, np.array([0.0]))
        with caplog.at_level(logging.WARNING):
            val = reward_f(RbfCritic(), np.zeros(1), np.zeros(1), buffer, 5, 0.9,
                           n_marginal_samples=4)
        assert "pooled" in caplog.text
        assert np.isfinite(val)

    def test_batched_reward_matches_scalar_exp_oracle(self):
        rng = np.random.default_rng(7)
        buffer = TimestepReplayBuffer(4, 4, capacity_per_bucket=16, seed=0)
        for t in (3, 4):
            for _ in range(24):   # wraps each ring
                buffer.add(t, rng.normal(size=4))
        critic = RbfCritic(bandwidth=2.5)
        critic.observe_pairs([(rng.normal(size=4), rng.normal(size=4)) for _ in range(10)])
        f = critic.value
        for _ in range(5):
            s, s2 = rng.normal(size=4), rng.normal(size=4)
            cur, nxt = list(buffer.bucket(3)), list(buffer.bucket(4))
            cross = np.mean([math.exp(f(s2, x)) for x in cur]) + \
                np.mean([math.exp(f(y, s)) for y in nxt])
            expected = f(s, s2) - (0.8 / math.e) * cross
            got = nwj_reward(critic, s, s2, buffer.bucket(3), buffer.bucket(4), 0.8)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_is_two_bucket_draws_then_nwj_reward(self):
        rng = np.random.default_rng(9)
        buffer = TimestepReplayBuffer(3, 3, capacity_per_bucket=8, seed=5)
        for t in (2, 3):
            for _ in range(13):   # wraps each ring
                buffer.add(t, rng.normal(size=3))
        twin = copy.deepcopy(buffer)
        critic = RbfCritic(bandwidth=1.5)
        critic.observe_pairs([(rng.normal(size=3), rng.normal(size=3)) for _ in range(4)])
        for _ in range(3):
            s, s2 = rng.normal(size=3), rng.normal(size=3)
            got = reward_f(critic, s, s2, buffer, 2, 0.9, 6)
            expected = nwj_reward(critic, s, s2, twin.sample(2, 6), twin.sample(3, 6), 0.9)
            assert got == expected

    def test_nwj_reward_over_many_transitions_matches_one_at_a_time(self):
        rng = np.random.default_rng(8)
        critic = RbfCritic()
        critic.observe_pairs([(rng.normal(size=2), rng.normal(size=2)) for _ in range(6)])
        samples = rng.normal(size=(9, 2))
        S, S2 = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        got = nwj_reward(critic, S, S2, samples, samples, 0.9)
        assert got.shape == (7,)
        expected = [nwj_reward(critic, s, s2, samples, samples, 0.9) for s, s2 in zip(S, S2)]
        np.testing.assert_array_equal(got, expected)

    def test_scalar_valued_critic_rejected(self):
        buffer = TimestepReplayBuffer(1, 1, seed=0)
        for t in (0, 1):
            for k in range(3):
                buffer.add(t, np.array([float(k)]))
        with pytest.raises(ValueError, match="broadcast"):
            nwj_reward(ConstantCritic(0.0), np.zeros(1), np.ones(1), buffer.bucket(0),
                       buffer.bucket(1), 0.9)
        scalar_sum = lambda x, y: float(np.sum(np.asarray(x) - np.asarray(y)))  # noqa: E731
        with pytest.raises(ValueError, match="broadcast"):
            reward_f(scalar_sum, np.zeros(1), np.ones(1), buffer, 0, 0.9,
                     n_marginal_samples=4)
        # the same on per-transition (k, n, d) samples
        for critic in (ConstantCritic(0.0), scalar_sum):
            with pytest.raises(ValueError, match="broadcast"):
                reward_f(critic, np.zeros((2, 1)), np.ones((2, 1)), buffer, np.array([0, 0]),
                         0.9, n_marginal_samples=4)

    @pytest.mark.parametrize("critic", [
        RbfCritic(bandwidth=1.5, normalizer=0.7),
        lambda x, y: np.asarray(x)[..., 0] - 2.0 * np.asarray(y)[..., 1],
    ], ids=["rbf", "asymmetric"])
    def test_rollout_rewards_equal_scalar_calls_in_order(self, critic):
        rng = np.random.default_rng(12)
        buffer = TimestepReplayBuffer(6, 3, capacity_per_bucket=8, seed=4)
        for t in range(6):   # later buckets wrap; bucket 6 is missing
            for _ in range(3 + 2 * t):
                buffer.add(t, rng.normal(size=3))
        twin = copy.deepcopy(buffer)
        ts = np.array([0, 3, 3, 5, 1, 4, 2])   # t = 5 falls back for its t + 1 draw
        S, S2 = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        got = reward_f(critic, S, S2, buffer, ts, 0.9, 7)
        want = [reward_f(critic, s, s2, twin, t, 0.9, 7) for s, s2, t in zip(S, S2, ts)]
        assert got.shape == (7,)
        assert got.tobytes() == np.array(want).tobytes()
        assert buffer.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_nwj_reward_with_per_transition_samples_matches_one_at_a_time(self):
        rng = np.random.default_rng(14)
        critic = RbfCritic(normalizer=1.3)
        cur, nxt = rng.normal(size=(5, 6, 2)), rng.normal(size=(5, 4, 2))
        S, S2 = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        got = nwj_reward(critic, S, S2, cur, nxt, 0.8)
        want = [nwj_reward(critic, *args, 0.8) for args in zip(S, S2, cur, nxt)]
        assert got.tobytes() == np.array(want).tobytes()


class TestAugmentedReward:
    @staticmethod
    def _r_f(gamma):
        buffer = TimestepReplayBuffer(1, 1, seed=0)
        for t in (0, 1):
            buffer.add(t, np.array([0.0]))
        return nwj_reward(RbfCritic(), np.array([0.0]), np.array([0.0]), buffer.bucket(0),
                          buffer.bucket(1), gamma)

    def test_zero_weights_give_log_density(self):
        assert augmented_reward(1.5, self._r_f(0.9), 0.0) == pytest.approx(1.5)

    def test_hand_computed_fixture(self):
        # log q = 1.5, r_f = 1 - 2*0.9 = -0.8 (identical states); lambda_pi r_pi
        # is the learner's temperature, not a reward term
        got = augmented_reward(1.5, self._r_f(0.9), 0.005)
        assert got == pytest.approx(1.5 + 0.005 * (-0.8), abs=1e-9)
        assert got == pytest.approx(1.496, abs=5e-4)

    def test_constant_density_leaves_entropy_terms_only(self):
        r_f = self._r_f(0.9)
        a = augmented_reward(4.0, r_f, 0.01)
        b = augmented_reward(6.0, r_f, 0.01)
        assert b - a == pytest.approx(2.0, abs=1e-12)

    def test_table_form_matches_per_cell_scalars(self):
        rng = np.random.default_rng(3)
        log_q, r_f = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        table = augmented_reward(log_q, r_f, 0.3)
        assert table.shape == (4, 3)
        expected = [[augmented_reward(float(q), float(f), 0.3) for q, f in zip(qr, fr)]
                    for qr, fr in zip(log_q, r_f)]
        np.testing.assert_array_equal(table, expected)


class TestTimestepReplayBuffer:
    def test_bucket_fidelity_with_tags(self):
        buffer = TimestepReplayBuffer(4, 2, capacity_per_bucket=64, seed=3)
        for t in range(5):
            for k in range(10):
                buffer.add(t, np.array([float(t), float(k)]))  # tag = timestep
        for t in range(5):
            for s in buffer.sample(t, 30):
                assert s[0] == t

    def test_fifo_eviction_at_capacity(self):
        buffer = TimestepReplayBuffer(0, 1, capacity_per_bucket=4, seed=0)
        for k in range(10):
            buffer.add(0, np.array([float(k)]))
        np.testing.assert_array_equal(buffer.bucket(0), [[6.0], [7.0], [8.0], [9.0]])
        buffer.add(0, np.array([10.0]))
        np.testing.assert_array_equal(buffer.bucket(0), [[7.0], [8.0], [9.0], [10.0]])
        assert len(buffer.ring) == 4

    def test_ring_keeps_last_capacity_states_in_fifo_order(self):
        rng = np.random.default_rng(5)
        states = rng.normal(size=(23, 3))
        buffer = TimestepReplayBuffer(1, 3, capacity_per_bucket=8, seed=0)
        for k, x in enumerate(states):
            buffer.add(1, x)
            np.testing.assert_array_equal(buffer.bucket(1), states[max(0, k - 7):k + 1])

    def test_sample_returns_rows_in_the_same_draw_order(self):
        buffer = TimestepReplayBuffer(0, 2, capacity_per_bucket=5, seed=9)
        for k in range(12):
            buffer.add(0, np.array([float(k), -float(k)]))
        got = buffer.sample(0, 6)
        assert got.shape == (6, 2)
        idx = np.random.default_rng(9).integers(0, 5, size=6)
        np.testing.assert_array_equal(got, buffer.bucket(0)[idx])

    def test_pooled_concatenates_buckets_in_ascending_t(self):
        # bucket 4 is filled first and wraps; pooled still lists bucket 1 first
        buffer = TimestepReplayBuffer(7, 1, capacity_per_bucket=2, seed=0)
        for t, v in ((4, 0.0), (1, 1.0), (4, 2.0), (4, 3.0), (1, 4.0)):
            buffer.add(t, np.array([v]))
        np.testing.assert_array_equal(buffer.pooled(), [[1.0], [4.0], [2.0], [3.0]])
        assert buffer.bucket(7).shape == (0, 1)

    def test_sampling_is_uniform_over_contents(self):
        buffer = TimestepReplayBuffer(2, 1, seed=11)
        for k in range(4):
            buffer.add(2, np.array([float(k)]))
        draws = np.array([s[0] for s in buffer.sample(2, 40_000)])
        freqs = np.array([(draws == k).mean() for k in range(4)])
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            TimestepReplayBuffer(1, 1, seed=0).sample(0, 1)
        with pytest.raises(ValueError):
            TimestepReplayBuffer(1, 1, seed=0).sample(np.array([0, 1]), 1)

    def test_sample_over_timesteps_equals_sequential_calls(self, caplog):
        # buckets 0..5 without 3: bucket 1 has wrapped, bucket 4 holds one
        # state (a bound of 1 draws nothing), 3 and 9 fall back to pooled
        rng = np.random.default_rng(21)
        buffer = TimestepReplayBuffer(9, 2, capacity_per_bucket=6, seed=13)
        for t, count in ((0, 4), (1, 9), (2, 6), (4, 1), (5, 3)):
            for _ in range(count):
                buffer.add(t, rng.normal(size=2))
        buffer.rng.integers(0, 7, size=3)   # leaves half a 64-bit output buffered
        twin = copy.deepcopy(buffer)
        ts = np.array([0, 1, 3, 4, 2, 3, 5, 1, 9, 0])
        with caplog.at_level(logging.WARNING, logger="ndilab.imitation"):
            got = buffer.sample(ts, 5)
            batched_log = [r.getMessage() for r in caplog.records]
            caplog.clear()
            want = np.stack([twin.sample(t, 5) for t in ts])
            sequential_log = [r.getMessage() for r in caplog.records]
        assert got.shape == (10, 5, 2)
        assert got.tobytes() == want.tobytes()
        assert buffer.rng.bit_generator.state == twin.rng.bit_generator.state
        assert batched_log == sequential_log
        assert [m.split()[1] for m in batched_log] == ["3", "3", "9"]


def reference_sample(buffer, t, n):
    """One timestep's draw as it was made before the buckets shared one ring:
    the bucket's rows (the pooled rows if it is empty) indexed by one
    scalar-bound ``integers`` call."""
    rows = buffer.bucket(t)
    if not len(rows):
        rows = buffer.pooled()
    return rows[buffer.rng.integers(0, len(rows), size=n)]


def pair_loop(buffer, ts, k, rng):
    """k critic-normalizer pairs (state at t, state at t + 1) per timestep, as
    the trainers once drew them: alternating scalar ``integers`` calls on the
    two buckets, none where either is empty."""
    pairs = []
    for t in ts:
        cur, nxt = buffer.bucket(t), buffer.bucket(t + 1)
        if len(cur) and len(nxt):
            for _ in range(k):
                pairs.append((cur[rng.integers(len(cur))], nxt[rng.integers(len(nxt))]))
    return pairs


def tabular_pair_loop(buffer, rollout_len, pair_rng):
    """The tabular trainer's critic-normalizer pairs as it once drew them."""
    return pair_loop(buffer, range(0, rollout_len, 4), 4, pair_rng)


def point_mass_pair_loop(buffer, t, rng):
    """The point-mass trainer's critic-normalizer pairs as it once drew them."""
    return pair_loop(buffer, [t], 2, rng)


def uneven_buffer(seed, horizon=12, capacity=8, dim=2):
    """Buckets of mixed fill: every t = 3 (mod 7) is empty, every other
    multiple of 5 holds one state, the rest hold 2 to 2 * capacity states
    (so some wrap). Unwritten rows are NaN, and the generator is left
    half-buffered."""
    rng = np.random.default_rng(seed)
    buffer = TimestepReplayBuffer(horizon, dim, capacity_per_bucket=capacity, seed=seed)
    buffer.ring.rows[...] = np.nan
    for t in range(horizon + 1):
        count = 0 if t % 7 == 3 else 1 if t % 5 == 0 else int(rng.integers(2, 2 * capacity + 1))
        for _ in range(count):
            buffer.add(t, rng.normal(size=dim))
    buffer.rng.integers(0, 7, size=3)
    return buffer


class TestBufferContract:
    def test_timesteps_outside_the_horizon_rejected(self):
        buffer = TimestepReplayBuffer(3, 1, seed=0)
        buffer.add(0, np.array([0.5]))
        state = copy.deepcopy(buffer.rng.bit_generator.state)
        for bad in (-1, 4):
            for call in (lambda: buffer.add(bad, np.array([1.0])),
                         lambda: buffer.bucket(bad),
                         lambda: buffer.sample(bad, 2),
                         lambda: buffer.sample(np.array([[0, 1], [bad, 2]]), 2)):
                with pytest.raises(ValueError, match=r"outside 0\.\.3"):
                    call()
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            buffer.pairs(3, 2, np.random.default_rng(0))   # t + 1 = 4
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            reward_f(RbfCritic(), np.zeros(1), np.zeros(1), buffer, 3, 0.9, 2)
        assert len(buffer.ring) == 1 and buffer.bucket(3).shape == (0, 1)
        assert buffer.rng.bit_generator.state == state

    def test_buckets_wrap_on_their_own(self):
        ring = imitation.Ring(3, 2, (1,))
        for v in range(5):
            ring.add(0, [float(v)])
        ring.add(2, [9.0])
        np.testing.assert_array_equal(ring.take(0, np.array([0, 1])), [[3.0], [4.0]])
        np.testing.assert_array_equal(ring.take(np.array([2, 0]), np.array([0, 1])),
                                      [[9.0], [4.0]])
        assert len(ring) == 3 and ring.lens.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("seed", range(12))
    def test_sample_equals_one_scalar_draw_per_timestep(self, seed, caplog):
        # bucket 5 holds one state (a bound of 1 draws nothing), 3 and 10 are empty
        buffer = uneven_buffer(seed)
        twin = copy.deepcopy(buffer)
        lens = buffer.ring.lens.copy()
        full = int(np.argmax(lens))
        for ts in (np.arange(13), np.array([5, full, 5, 3]), np.array([full, full, full]),
                   np.array([[5, 7], [7, 5]]), np.array(5), np.array(3)):
            with caplog.at_level(logging.WARNING, logger="ndilab.imitation"):
                got = buffer.sample(ts, 6)
                batched_log = [r.getMessage() for r in caplog.records]
                caplog.clear()
                want = np.stack([reference_sample(twin, t, 6) for t in ts.ravel()])
            assert got.shape == (*ts.shape, 6, 2)
            assert got.tobytes() == want.tobytes() and not np.isnan(got).any()
            assert buffer.rng.bit_generator.state == twin.rng.bit_generator.state
            assert batched_log == [f"bucket {t} empty; falling back to pooled replay sampling"
                                   for t in ts.ravel() if lens[t] == 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_fallback_reads_more_pooled_rows_than_one_bucket_holds(self, seed):
        # no bucket wraps, and the 24 pooled rows outnumber a bucket's capacity of 8
        rng = np.random.default_rng(seed)
        buffer = TimestepReplayBuffer(4, 2, capacity_per_bucket=8, seed=seed)
        for t in (0, 1, 3):
            for _ in range(8):
                buffer.add(t, rng.normal(size=2))
        assert not buffer.ring.wrapped and len(buffer.pooled()) == 24
        twin = copy.deepcopy(buffer)
        for ts in (np.array(2), np.array([4, 1, 2, 3]), np.array(4)):
            got = buffer.sample(ts, 40)
            want = np.stack([reference_sample(twin, t, 40) for t in ts.ravel()])
            assert got.tobytes() == want.tobytes()
        critic = RbfCritic(bandwidth=1.5)
        S, S2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        got = reward_f(critic, S, S2, buffer, np.array([3, 2, 1]), 0.9, 40)
        want = [nwj_reward(critic, s, s2, reference_sample(twin, t, 40),
                           reference_sample(twin, t + 1, 40), 0.9)
                for s, s2, t in zip(S, S2, (3, 2, 1))]
        assert got.tobytes() == np.array(want).tobytes()
        assert buffer.rng.bit_generator.state == twin.rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(12))
    def test_pairs_equal_the_tabular_loop(self, seed):
        buffer = uneven_buffer(seed, horizon=40)
        pair_rng, twin_rng = np.random.default_rng(seed + 101), np.random.default_rng(seed + 101)
        got = buffer.pairs(np.arange(0, 40, 4), 4, pair_rng)
        want = tabular_pair_loop(buffer, 40, twin_rng)
        assert len(want) == 4 * 8   # t = 16 and 24 meet an empty bucket
        assert got.shape == (32, 2, 2)
        assert got.tobytes() == np.array(want).tobytes()
        assert pair_rng.bit_generator.state == twin_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(12))
    def test_pairs_over_timesteps_equal_the_per_t_loop(self, seed):
        # in uneven_buffer every t = 3 (mod 7) is empty, so t = 2, 3, 9, 10, ...
        # give no pairs; [2, 3] draws nothing at all
        buffer = uneven_buffer(seed, horizon=40)
        g = np.random.default_rng(seed)
        for ts in (g.integers(0, 40, size=15), np.array([39, 0, 39]), np.array([2, 3]),
                   np.array([17]), np.array(20)):
            for k in (1, 3):
                rng, twin_rng = np.random.default_rng(seed + k), np.random.default_rng(seed + k)
                rng.integers(0, 7, size=3)   # leaves half a 64-bit output buffered
                twin_rng.integers(0, 7, size=3)
                got = buffer.pairs(ts, k, rng)
                want = pair_loop(buffer, np.atleast_1d(ts), k, twin_rng)
                assert got.shape == (len(want), 2, 2) and not np.isnan(got).any()
                assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()
                assert rng.bit_generator.state == twin_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(6))
    def test_block_add_equals_per_row_adds_through_wraparound(self, seed):
        # random subsets of distinct timesteps, in random order, until every
        # bucket has wrapped several times over
        g = np.random.default_rng(seed)
        block, rows = (TimestepReplayBuffer(6, 2, capacity_per_bucket=5, seed=0)
                       for _ in range(2))
        for buffer in (block, rows):
            buffer.ring.rows[...] = np.nan
        for rollout in range(40):
            ts = g.permutation(7)[:int(g.integers(1, 8))]
            states = g.normal(size=(len(ts), 2))
            block.add(ts, states)
            for t, state in zip(ts.tolist(), states):
                rows.add(t, state)
            assert block.ring.rows.tobytes() == rows.ring.rows.tobytes()
            for name in ("lens", "heads"):
                assert getattr(block.ring, name).tolist() == getattr(rows.ring, name).tolist()
            assert (len(block.ring), block.ring.wrapped) == (len(rows.ring), rows.ring.wrapped)
        assert block.ring.wrapped and block.pooled().tobytes() == rows.pooled().tobytes()

    def test_states_of_the_wrong_width_rejected(self):
        # numpy broadcasting once wrote [5.0] as [5, 5] and 7.0 as [7, 7]
        buffer = TimestepReplayBuffer(3, 2, seed=0)
        for t, state in ((0, np.array([5.0])), (1, 7.0), (2, np.zeros(3)),
                         (np.arange(2), np.zeros(2)), (np.arange(2), np.zeros((3, 2))),
                         (np.arange(2), np.zeros((2, 1)))):
            with pytest.raises(ValueError, match=r"shape \(dim,\) = \(2,\)"):
                buffer.add(t, state)
        with pytest.raises(ValueError, match="distinct"):
            buffer.add(np.array([1, 2, 1]), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            buffer.add(np.array([2, 4]), np.zeros((2, 2)))
        assert len(buffer.ring) == 0 and buffer.ring.lens.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("seed", range(12))
    def test_pairs_equal_the_point_mass_loop(self, seed):
        buffer = uneven_buffer(seed, horizon=50, capacity=64)
        rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for t in range(0, 50, 8):   # t = 16 and 24 meet an empty bucket
            for r in (rng, twin_rng):
                r.uniform(-1, 1, size=2)   # the trainer's other draws on this generator
            got, want = buffer.pairs(t, 2, rng), point_mass_pair_loop(buffer, t, twin_rng)
            assert got.shape == (len(want), 2, 2)
            assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()
            assert rng.bit_generator.state == twin_rng.bit_generator.state


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
        mdp = build_chain(3, gamma=0.9)
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

    @pytest.mark.parametrize("seed", range(30))
    def test_action_major_sweeps_equal_the_state_major_loop(self, seed):
        rng = np.random.default_rng(seed)
        S, A = int(rng.integers(2, 30)), int(rng.integers(2, 8))
        mdp = TabularMdp(rng.integers(0, S, size=(S, A)), np.full(S, 1.0 / S),
                         rng.normal(size=(S, A)), float(rng.uniform(0.3, 0.95)))
        temperature = float(10 ** rng.uniform(-3, 1))
        reward = rng.normal(size=(S, A)) * 10 ** rng.uniform(-1, 2)
        got = soft_policy_iteration(mdp, temperature, tol=1e-9, reward=reward)
        want = state_major_soft_policy_iteration(mdp, temperature, 1e-9, reward)
        assert got.logits.tobytes() == want.logits.tobytes()

    @pytest.mark.parametrize("name, tau", [("grid-5x5", 0.05), ("chain-4", 0.05),
                                           ("grid-5x5", 1e-6)])
    def test_shipped_environments_equal_the_state_major_loop(self, name, tau):
        mdp = get_env(name, 0.9).mdp
        reward = np.random.default_rng(7).normal(size=mdp.reward.shape)
        for r in (None, reward):
            got = soft_policy_iteration(mdp, tau, tol=1e-9, reward=r)
            want = state_major_soft_policy_iteration(mdp, tau, 1e-9, r)
            assert got.logits.tobytes() == want.logits.tobytes()


def state_major_soft_policy_iteration(mdp, temperature, tol, reward=None):
    """soft_policy_iteration as it once ran, on (S, A) arrays."""
    r = mdp.reward if reward is None else np.asarray(reward, dtype=np.float64)
    Q = np.zeros_like(r)
    while True:
        m = Q.max(axis=1, keepdims=True)
        V = m[:, 0] + temperature * np.log(np.exp((Q - m) / temperature).sum(axis=1))
        Q_new = r + mdp.discount * V[mdp.transition]
        residual = float(np.abs(Q_new - Q).max())
        Q = Q_new
        if residual < tol:
            return SoftmaxPolicy(Q / temperature)


def graph_minimum(a, b):
    """Elementwise min as one graph node; the gradient follows the smaller
    branch, ties to ``a``."""
    take_a = (a.value <= b.value).astype(np.float64)
    return Node(np.minimum(a.value, b.value), ((a, lambda g: g * take_a),
                                               (b, lambda g: g * (1.0 - take_a))))


def graph_concat(a, b):
    """The columns of ``a`` then ``b`` as one graph node."""
    n = a.value.shape[1]
    return Node(np.concatenate([a.value, b.value], axis=1),
                ((a, lambda g: g[:, :n]), (b, lambda g: g[:, n:])))


def graph_step(learner):
    """``SacLearner.step`` with both losses built as autodiff graphs and
    differentiated by ``backward``: the reference for the array version.

    Returns the losses, the gradients handed to each Adam update in the
    learner's layout (both Q nets stacked as rows; the policy mean's flat
    gradient then the log-std one; log-alpha), and how many batch rows tie
    (q1 == q2) or push the action past the bound.
    """
    S, A, R, S2, D = learner._batch()
    B = len(S)
    mu2 = mlp_forward(learner.policy.mean_net, S2).value
    std = np.exp(learner.policy.clamped_log_std())
    eps2 = learner.rng.standard_normal((B, learner.action_dim))
    A2 = mu2 + std * eps2
    logp2 = (-0.5 * eps2 ** 2 - learner.policy.clamped_log_std()
             - 0.5 * math.log(2 * math.pi)).sum(axis=1)
    x2 = np.concatenate([S2, A2], axis=1)
    q_min = np.minimum(mlp_forward(learner.q1_target, x2).value[:, 0],
                       mlp_forward(learner.q2_target, x2).value[:, 0])
    y = R + learner.config.gamma * (1.0 - D) * (q_min - learner.alpha * logp2)

    x = np.concatenate([S, A], axis=1)
    losses, q_grads = {}, []
    for name, net in (("q1", learner.q1), ("q2", learner.q2)):
        params = [Node(p) for p in net.params()]
        loss = gr.nmean(gr.square(gr.sub(mlp_forward(net, x, params), y[:, None])))
        backward(loss)
        q_grads.append(flat_grads(params))
        losses[name] = float(loss.value)
    grads = [np.stack(q_grads)]
    adam_step(learner.opt_q, learner.q.flat, grads[-1])

    mean_params = [Node(p) for p in learner.policy.mean_net.params()]
    log_std_base = Node(learner.policy.log_std)
    log_std_node = gr.clip(log_std_base, -5.0, 2.0)
    eps = learner.rng.standard_normal((B, learner.action_dim))
    mu = mlp_forward(learner.policy.mean_net, S, mean_params)
    a_new = gr.add(mu, gr.mul(gr.exp(log_std_node), eps))
    logp_node = gr.nsum(gr.sub(gr.mul(gr.square(Node(eps)), -0.5),
                               gr.add(log_std_node, 0.5 * math.log(2 * math.pi))), axis=1)
    xa = graph_concat(Node(S), a_new)
    q1, q2 = mlp_forward(learner.q1, xa), mlp_forward(learner.q2, xa)
    qmin = graph_minimum(q1, q2)
    pi_loss = gr.nmean(gr.sub(gr.mul(logp_node, learner.alpha), gr.reshape(qmin, (B,))))
    overflow = gr.sub(a_new, gr.clip(a_new, -ACTION_BOUND, ACTION_BOUND))
    pi_loss = gr.add(pi_loss, gr.mul(gr.nmean(gr.nsum(gr.square(overflow), axis=1)),
                                     BOUND_PENALTY))
    backward(pi_loss)
    grads.append(np.concatenate([flat_grads(mean_params), log_std_base.grad]))
    adam_step(learner.opt_pi, learner.policy.flat, grads[-1])
    losses["pi"] = float(pi_loss.value)

    grads.append(np.array([-(logp_node.value.mean() + learner.target_entropy)]))
    adam_step(learner.opt_alpha, learner.log_alpha, grads[-1])
    losses["alpha"] = learner.alpha
    for net, target in ((learner.q1, learner.q1_target), (learner.q2, learner.q2_target)):
        target.flat *= (1.0 - POLYAK)
        target.flat += POLYAK * net.flat
    ties = int((q1.value == q2.value).sum())
    out_of_bound = int((overflow.value != 0).any(axis=1).sum())
    return losses, grads, ties, out_of_bound


def tape_fixture() -> SacLearner:
    """A learner whose next batch exercises every branch of the policy
    loss: q2 is q1 with a different weight on state coordinate 0, so rows
    with s_0 = 0 tie (and the Q nets do not learn, keeping the tie; on those
    rows both nets have the same action gradient, so the tie checks values,
    not which net the gradient follows); the first log-std sits above its
    clamp and the mean is pushed toward the second action bound, so some
    sampled actions cross the bound."""
    learner = SacLearner(state_dim=2, action_dim=2,
                         config=SacConfig(batch_size=48, hidden=(8, 8), seed=0))
    rng = np.random.default_rng(11)
    for k in range(64):
        s, s2 = rng.normal(size=2), rng.normal(size=2)
        s[0] *= k % 2
        learner.add_transition(s, rng.normal(size=2), rng.normal(), s2, done=k % 7 == 0)
    learner.q2.flat[...] = learner.q1.flat
    learner.q2.layers[0].weight[:, 0] += 0.5
    learner.opt_q.lr = 0.0
    learner.policy.log_std[:] = [2.5, -0.5]
    learner.policy.mean_net.layers[-1].bias[:] = [0.0, 0.8]
    return learner


def tie_slope_fixture() -> tuple[SacLearner, np.ndarray]:
    """``tape_fixture`` with q2 = q1 + 0.5 * (layer-2 weights) * h, where h is
    a first-layer unit tanh(a_0 - a*) of both nets and a* is the action the
    next step samples for batch row 0. On that row h is exactly 0, so q1 and
    q2 tie bit for bit, but the extra term's action slope is not 0, so the
    two nets' action gradients differ: the policy gradient shows which net
    the tie rule follows. Returns the learner and that row's (s, a*)."""
    learner = tape_fixture()
    learner.q2.flat[...] = learner.q1.flat
    probe = copy.deepcopy(learner)   # replays the step's draws up to a_new
    S = probe._batch()[0]
    probe.rng.standard_normal((len(S), 2))
    eps = probe.rng.standard_normal((len(S), 2))
    a_new = probe.policy.mean_net(S) + np.exp(probe.policy.clamped_log_std()) * eps
    for net in (learner.q1, learner.q2):
        net.layers[0].weight[0] = [0.0, 0.0, 1.0, 0.0]
        net.layers[0].bias[0] = -a_new[0, 0]
    learner.q2.layers[1].weight[:, 0] += 0.5
    return learner, np.concatenate([S[0], a_new[0]])


def learner_arrays(learner: SacLearner) -> list:
    return [learner.q1.flat, learner.q2.flat, learner.q1_target.flat, learner.q2_target.flat,
            learner.policy.mean_net.flat, learner.policy.log_std, learner.log_alpha,
            learner.q.flat, learner.q_target.flat, learner.policy.flat]


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

    def test_step_is_bit_equal_to_the_graph_step(self, monkeypatch):
        reference, learner, got_grads = tape_fixture(), tape_fixture(), []

        def recording_adam_step(state, param, grad):
            got_grads.append(grad.copy())
            adam_step(state, param, grad)

        monkeypatch.setattr(imitation, "adam_step", recording_adam_step)
        for _ in range(4):   # later steps start from moved weights and Adam moments
            want_losses, want_grads, ties, out_of_bound = graph_step(reference)
            assert 0 < ties < reference.config.batch_size
            assert 0 < out_of_bound < reference.config.batch_size
            got_grads.clear()
            assert learner.step() == want_losses
            assert len(got_grads) == len(want_grads) == 3
            for got, want in zip(got_grads, want_grads):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for got, want in zip(learner_arrays(learner), learner_arrays(reference)):
                assert got.tobytes() == want.tobytes()
            assert learner.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_tied_rows_follow_q1_where_the_nets_slopes_differ(self, monkeypatch):
        (reference, tied_row), (learner, _) = tie_slope_fixture(), tie_slope_fixture()
        got_grads = []

        def recording_adam_step(state, param, grad):
            got_grads.append(grad.copy())
            adam_step(state, param, grad)

        monkeypatch.setattr(imitation, "adam_step", recording_adam_step)
        # the fixture's point: the nets tie on the row but their a_0 slopes differ
        tape = reference.q.forward(np.stack([tied_row[None, :]] * 2))
        assert tape[-1][0, 0, 0] == tape[-1][1, 0, 0]
        slopes = input_grad(reference.q, tape, np.ones((2, 1, 1)))[:, 0, 2]
        assert abs(slopes[0] - slopes[1]) > 1e-3
        want_losses, want_grads, ties, _ = graph_step(reference)
        assert ties == 1
        assert learner.step() == want_losses
        for got, want in zip(got_grads, want_grads):
            assert got.tobytes() == want.tobytes()

    def test_nets_are_views_of_the_stacked_arrays(self):
        learner = tape_fixture()
        stacked = {"q": learner.q.flat, "q_target": learner.q_target.flat,
                   "policy": learner.policy.flat}
        views = [("q", learner.q1), ("q", learner.q2), ("q_target", learner.q1_target),
                 ("q_target", learner.q2_target), ("policy", learner.policy.mean_net)]
        for owner, net in views:
            for array in [net.flat, *net.params()]:
                assert array.base is not None and np.shares_memory(array, stacked[owner])
        assert np.shares_memory(learner.policy.log_std, learner.policy.flat)
        # in-place writes through every view land in the arrays the step
        # reads, so the step still equals the graph reference, which reads
        # each net through its own layers
        reference = tape_fixture()
        for other in (learner, reference):
            other.q1.layers[1].weight[0] += 0.25
            other.q2.flat[-1] -= 0.5
            other.q1_target.layers[0].bias[:] = 0.1
            other.q2_target.flat[:3] *= 2.0
            other.policy.mean_net.layers[0].weight[:, 1] = 0.3
            other.policy.log_std[1] = -1.0
        assert learner.q.flat[1, -1] == tape_fixture().q.flat[1, -1] - 0.5
        assert learner.policy.flat[-1] == -1.0
        want_losses = graph_step(reference)[0]
        assert learner.step() == want_losses
        for got, want in zip(learner_arrays(learner), learner_arrays(reference)):
            assert got.tobytes() == want.tobytes()

    def test_trained_policy_survives_a_checkpoint_round_trip(self, tmp_path):
        learner = tape_fixture()
        for _ in range(3):
            learner.step()
        save_gaussian_policy(tmp_path / "policy.ckpt", learner.policy)
        loaded, header = load_gaussian_policy(tmp_path / "policy.ckpt")
        assert (header["state_dim"], header["action_dim"]) == (2, 2)
        assert loaded.flat.tobytes() == learner.policy.flat.tobytes()
        assert loaded.mean_net.widths == learner.policy.mean_net.widths
        assert np.shares_memory(loaded.log_std, loaded.flat)
        states = np.random.default_rng(3).normal(size=(5, 2))
        assert loaded.mean_net(states).tobytes() == learner.policy.mean_net(states).tobytes()

    def test_step_builds_no_graph(self, monkeypatch):
        learner, nodes = tape_fixture(), []
        init = Node.__init__

        def counting_init(self, *args, **kwargs):
            nodes.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", counting_init)
        learner.step()
        assert len(nodes) == 0
        mlp_forward(learner.q1, np.zeros((1, 4)))   # the count does see graph work
        assert len(nodes) > 0

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


def per_state_policy_kl(policy, expert_policy, mdp, n_eval_states, seed=0, episode_len=50):
    """The tabular evaluate_policy_kl as a loop over the visited states, one
    KL row at a time; the reference the row-wise form must equal bit for bit."""
    def mean_kl(pol):
        states = imitation._rollout_states(pol, mdp, n_eval_states, seed, episode_len)
        P, logP, logE = pol.probs(), pol.log_probs(), expert_policy.log_probs()
        vals = []
        for s in states:
            row = P[s]
            vals.append(float(np.sum(np.where(row > 0, row * (logP[s] - logE[s]), 0.0))))
        return float(np.mean(vals))

    return mean_kl(policy) / mean_kl(SoftmaxPolicy.uniform(mdp.n_states, mdp.n_actions))


def episode_loop_states(policy, mdp_or_env, n_states, seed, episode_len):
    """_rollout_states as it once rolled one episode at a time."""
    rng = np.random.default_rng(seed)
    states, ep = [], 0
    while len(states) < n_states:
        traj = sample_trajectory(mdp_or_env, policy, episode_len,
                                 int(rng.integers(0, 2 ** 31)) + ep)
        states.extend(list(traj.states))
        ep += 1
    return states[:n_states]


def episode_loop_return(policy, mdp_or_env, n_episodes, seed, step_reward=None):
    """evaluate_return as it once rolled one episode, and scored one step,
    at a time; ``step_reward(s, a, s_next, t)`` rewards one transition."""
    rng = np.random.default_rng(seed)
    tabular = isinstance(mdp_or_env, TabularMdp)
    if tabular:
        bound = max(1.0, float(np.abs(mdp_or_env.reward).max()))
        horizon = imitation.truncation_horizon(mdp_or_env.discount, 1e-9, bound)
    else:
        horizon = mdp_or_env.spec.episode_len

    def total(rewards):
        if tabular:
            return float((mdp_or_env.discount ** np.arange(len(rewards)) * rewards).sum())
        return float(rewards.sum())

    returns, shaped = np.empty(n_episodes), np.empty(n_episodes)
    for ep in range(n_episodes):
        traj = sample_trajectory(mdp_or_env, policy, horizon, int(rng.integers(0, 2 ** 31)))
        returns[ep] = total(traj.rewards)
        if step_reward is not None:
            shaped[ep] = total(np.array([step_reward(traj.states[t], traj.actions[t],
                                                     traj.next_states[t], t)
                                         for t in range(len(traj))]))
    stderr = float(returns.std(ddof=1) / math.sqrt(n_episodes)) if n_episodes > 1 else 0.0
    return (float(returns.mean()), stderr,
            None if step_reward is None else float(shaped.mean()))


class TestLockstepEvaluation:
    @pytest.mark.parametrize("n_states, episode_len", [(1, 7), (60, 30), (61, 30), (200, 40)])
    def test_tabular_rollout_states_equal_the_episode_loop(self, n_states, episode_len):
        mdp = get_env("grid-5x5", 0.9).mdp
        policy = SoftmaxPolicy(np.random.default_rng(n_states).normal(size=(25, 5)) * 2)
        got = imitation._rollout_states(policy, mdp, n_states, 5, episode_len)
        want = episode_loop_states(policy, mdp, n_states, 5, episode_len)
        assert np.asarray(got).tolist() == np.asarray(want).tolist()

    def test_continuous_rollout_states_equal_the_episode_loop(self):
        env = PointMassEnv(PointMassSpec(episode_len=20))
        policy = GaussianPolicy(env.state_dim, env.action_dim, hidden=(4,), seed=3)
        got = imitation._rollout_states(policy, env, 45, 2, 20)
        want = episode_loop_states(policy, env, 45, 2, 20)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_tabular_return_equals_the_episode_loop(self, seed):
        mdp = get_env("grid-5x5", 0.9).mdp
        policy = SoftmaxPolicy(np.random.default_rng(seed).normal(size=(25, 5)) * 2)
        table = np.random.default_rng(seed + 9).normal(size=(25, 5))
        for n in (1, 2, 20):
            assert evaluate_return(policy, mdp, n, seed) == episode_loop_return(
                policy, mdp, n, seed)
            got = evaluate_return(policy, mdp, n, seed,
                                  reward_fn=lambda s, a, s2, t: table[s, a] * s2 + 0.5 * t)
            want = episode_loop_return(policy, mdp, n, seed,
                                       step_reward=lambda s, a, s2, t: table[s, a] * s2 + 0.5 * t)
            assert got == want

    def test_continuous_episode_r_f_equals_one_call_per_step(self):
        # one reward_f call per episode, on its (T,) timesteps, scores the
        # episode as one call per transition did, and moves the buffer's
        # generator as far; bucket 7 is empty and falls back to the pool
        env = PointMassEnv(PointMassSpec(episode_len=20))
        policy = GaussianPolicy(env.state_dim, env.action_dim, hidden=(4,), seed=1)
        rng = np.random.default_rng(4)
        buffer = TimestepReplayBuffer(20, env.state_dim, capacity_per_bucket=9, seed=6)
        for t in range(21):
            for _ in range(0 if t == 7 else int(rng.integers(1, 14))):
                buffer.add(t, rng.normal(size=env.state_dim))
        twin = copy.deepcopy(buffer)
        critic = RbfCritic(bandwidth=1.3, normalizer=0.7)
        got = evaluate_return(policy, env, 3, 8, reward_fn=lambda S, A, S2, ts: reward_f(
            critic, S, S2, buffer, ts, 0.95, 5))
        want = episode_loop_return(policy, env, 3, 8, step_reward=lambda s, a, s2, t: reward_f(
            critic, s, s2, twin, t, 0.95, 5))
        assert got == want
        assert buffer.rng.bit_generator.state == twin.rng.bit_generator.state


class TestEvaluatePolicyKl:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_tabular_kl_equals_the_per_state_loop(self, seed):
        mdp = get_env("grid-5x5", 0.9).mdp
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(mdp.n_states, mdp.n_actions))
        logits[rng.random(logits.shape) < 0.4] = -800.0   # probability exactly 0
        logits[:, 0] = 0.0
        policy = SoftmaxPolicy(logits)
        assert (policy.probs() == 0).any()
        expert = soft_optimal_policy(mdp, 0.05)
        got = evaluate_policy_kl(policy, expert, mdp, 150, seed=seed, episode_len=30)
        assert got == per_state_policy_kl(policy, expert, mdp, 150, seed=seed, episode_len=30)

    def test_expert_against_itself_is_zero(self):
        mdp = build_chain(4, gamma=0.9)
        expert = soft_optimal_policy(mdp, 0.05)
        assert evaluate_policy_kl(expert, expert, mdp, 100, seed=0) == pytest.approx(0.0, abs=1e-12)

    def test_random_policy_normalizes_to_one(self):
        mdp = build_chain(4, gamma=0.9)
        expert = soft_optimal_policy(mdp, 0.05)
        random_policy = SoftmaxPolicy.uniform(4, 2)
        assert evaluate_policy_kl(random_policy, expert, mdp, 200, seed=1) == pytest.approx(1.0)

    def test_no_eval_states_rejected(self):
        env = PointMassEnv(PointMassSpec(episode_len=20))
        policy = constant_gaussian_policy(0.0, env.state_dim, env.action_dim)
        mdp = build_chain(4, gamma=0.9)
        for args in ((policy, policy, env), (SoftmaxPolicy.uniform(4, 2),
                                             soft_optimal_policy(mdp, 0.05), mdp)):
            for n in (0, -1):
                with pytest.raises(ValueError, match="n_eval_states"):
                    evaluate_policy_kl(*args, n)

    @pytest.mark.parametrize("tabular", [True, False], ids=["tabular", "gaussian"])
    def test_precomputed_baseline_gives_the_same_bytes(self, tabular):
        if tabular:
            env = build_chain(4, gamma=0.9)
            expert = soft_optimal_policy(env, 0.05)
            policy = SoftmaxPolicy(np.random.default_rng(2).normal(size=(4, 2)))
        else:
            env = PointMassEnv(PointMassSpec(episode_len=20))
            expert = constant_gaussian_policy(1.0, env.state_dim, env.action_dim)
            policy = GaussianPolicy(env.state_dim, env.action_dim, hidden=(4,), seed=1)
        baseline = imitation.policy_kl_baseline(expert, env, 30, seed=4, episode_len=20)
        want = evaluate_policy_kl(policy, expert, env, 30, seed=4, episode_len=20)
        got = evaluate_policy_kl(policy, expert, env, 30, seed=4, episode_len=20,
                                 baseline=baseline)
        assert got == want

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
        mean, stderr, _ = evaluate_return(SoftmaxPolicy.uniform(1, 1), mdp, n_episodes=3,
                                          seed=0)
        assert mean == pytest.approx(10.0, abs=1e-6)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_setup_zero_stderr(self):
        mdp = build_chain(4, gamma=0.9)
        right = SoftmaxPolicy(np.array([[0.0, 60.0]] * 4))
        _, stderr, _ = evaluate_return(right, mdp, n_episodes=5, seed=0)
        assert stderr == 0.0

    def test_epsilon_greedy_chain_matches_occupancy_oracle(self):
        mdp = build_chain(3, gamma=0.9)
        policy = SoftmaxPolicy(np.tile(np.log([0.1, 0.9]), (3, 1)))
        mean, stderr, _ = evaluate_return(policy, mdp, n_episodes=400, seed=3)
        exact = exact_discounted_return(mdp, policy)
        assert abs(mean - exact) < 3 * max(stderr, 1e-12)

    def test_env_reward_fn_mean_is_bit_equal_to_env_mean(self):
        mdp = build_chain(3, gamma=0.9)
        policy = SoftmaxPolicy.uniform(3, 2)
        mean, _, shaped = evaluate_return(policy, mdp, n_episodes=5, seed=1,
                                          reward_fn=lambda s, a, s2, t: mdp.reward[s, a])
        assert shaped == mean
        assert evaluate_return(policy, mdp, n_episodes=5, seed=1)[2] is None

    def test_constant_shift_moves_return_by_geometric_factor(self):
        mdp = build_chain(3, gamma=0.9)
        policy = SoftmaxPolicy.uniform(3, 2)
        base, _, shifted = evaluate_return(policy, mdp, n_episodes=5, seed=1,
                                           reward_fn=lambda s, a, s2, t: mdp.reward[s, a] + 1.5)
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
        mdp = build_chain(5, gamma=0.9)
        expert = soft_optimal_policy(mdp, temperature=0.05)
        rho_e = occupancy_measure(mdp, expert)
        reward = np.log(np.maximum(rho_e.rho, 1e-300))
        imitator = soft_policy_iteration(mdp, temperature=0.1, reward=reward)
        kl_imitator = reverse_kl_occupancy(occupancy_measure(mdp, imitator), rho_e)
        kl_uniform = reverse_kl_occupancy(
            occupancy_measure(mdp, SoftmaxPolicy.uniform(5, 2)), rho_e)
        assert kl_imitator < kl_uniform
