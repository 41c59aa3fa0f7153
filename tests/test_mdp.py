"""Tests for tabular MDPs, policies, marginals, and trajectory sampling."""
import numpy as np
import pytest

from ndilab.envs import PdExpert, PointMassEnv, PointMassSpec, build_chain
from ndilab.mdp import (
    GaussianPolicy,
    SoftmaxPolicy,
    TabularMdp,
    Trajectory,
    check_injective_dynamics,
    sample_trajectories,
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


def choice_rollout(mdp, policy, max_steps, seed):
    """A tabular rollout as it was once drawn, one ``rng.choice`` for the
    start state and one per action; its states and actions, and the
    generator after the last draw."""
    rng = np.random.default_rng(seed)
    s = int(rng.choice(mdp.n_states, p=mdp.initial_dist))
    states, actions = [], []
    for _ in range(max_steps):
        a = int(rng.choice(mdp.n_actions, p=policy.probs()[s]))
        states.append(s)
        actions.append(a)
        s = int(mdp.transition[s, a])
    return np.array(states), np.array(actions), rng


def extreme_chain_policy():
    """build_chain(6) under a policy with extreme rows: probabilities within
    1e-15 of 0 and 1, and exactly 0 and 1."""
    logits = np.random.default_rng(2).normal(size=(6, 2)) * 3.0
    logits[1] = [0.0, 36.0]
    logits[3] = [-800.0, 800.0]
    logits[4] = [0.0, 34.0]
    logits[5] = [0.0, 0.0]   # lets the walk leave the 3 -> 4 -> 5 run
    return build_chain(6), SoftmaxPolicy(logits)


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
        np.testing.assert_allclose(sched.per_timestep[2], [0.0, 0.0, 1.0], atol=1e-12)

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
        np.testing.assert_array_equal(sched.per_timestep[0], mdp.initial_dist)

    @pytest.mark.parametrize("S", [1, 3, 25])
    def test_rows_are_the_matrix_vector_recursion_byte_for_byte(self, S):
        rng = np.random.default_rng(S)
        A = 4
        mdp = TabularMdp(rng.integers(0, S, size=(S, A)), rng.dirichlet(np.ones(S)),
                         np.zeros((S, A)), 0.9)
        policy = SoftmaxPolicy(rng.normal(size=(S, A)))
        M = mdp.policy_transition_matrix(policy)
        p = mdp.initial_dist.copy()
        for row in state_marginals(mdp, policy, horizon=80).per_timestep:
            assert row.tobytes() == p.tobytes()
            p = M.T @ p


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
        mdp, policy = extreme_chain_policy()
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


class TestSampleTrajectories:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_each_rollout_equals_the_per_step_choice_loop(self, k):
        chain, policy = extreme_chain_policy()
        start = np.random.default_rng(k).dirichlet(np.ones(6))
        start[2] = 0.0   # a start state that is never drawn
        mdp = TabularMdp(chain.transition, start / start.sum(), chain.reward, 0.9)
        seeds = np.random.default_rng(k + 10).integers(0, 2 ** 31, size=k).tolist()
        batch = sample_trajectories(mdp, policy, 300, seeds)
        assert batch.states.shape == batch.actions.shape == batch.rewards.shape == (k, 300)
        assert len(batch) == 300
        for j, seed in enumerate(seeds):
            states, actions, _ = choice_rollout(mdp, policy, 300, seed)
            np.testing.assert_array_equal(batch.states[j], states)
            np.testing.assert_array_equal(batch.actions[j], actions)
            np.testing.assert_array_equal(batch.next_states[j], mdp.transition[states, actions])
            assert batch.rewards[j].tobytes() == mdp.reward[states, actions].tobytes()
            one = sample_trajectory(mdp, policy, 300, seed)
            for got, want in zip((one.states, one.actions, one.next_states, one.rewards),
                                 (batch.states[j], batch.actions[j], batch.next_states[j],
                                  batch.rewards[j])):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    def test_one_draw_per_seed_is_the_choice_stream(self, steps):
        # the premise of the lockstep rollout: random(T + 1) makes the draws,
        # and leaves the generator state, of choice(p) and T random() calls
        p = np.random.default_rng(steps).dirichlet(np.ones(5))
        cdf = np.cumsum(p)
        for seed in range(20):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            u = ours.random(steps + 1)
            assert (cdf / cdf[-1]).searchsorted(u[0], side="right") == theirs.choice(5, p=p)
            assert u[1:].tolist() == [theirs.random() for _ in range(steps)]
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_actions_equal_the_row_search(self):
        _, policy = extreme_chain_policy()
        cdf = np.cumsum(policy.probs(), axis=1)
        cdf /= cdf[:, -1:]
        rng = np.random.default_rng(3)
        s = rng.integers(0, 6, size=500)
        u = rng.random(500)
        u[:12] = cdf[s[:12], 0]   # exactly on a cumulative sum
        u[12:20] = 0.0
        got = policy.actions(s, u)
        assert got.tolist() == [int(cdf[x].searchsorted(v, side="right"))
                                for x, v in zip(s, u)]
        assert policy.actions(s.reshape(20, 25), u.reshape(20, 25)).tolist() == \
            got.reshape(20, 25).tolist()

    def test_bad_arguments_rejected(self):
        mdp, policy = extreme_chain_policy()
        with pytest.raises(ValueError, match="max_steps"):
            sample_trajectories(mdp, policy, 0, [1])
        with pytest.raises(ValueError, match="seeds"):
            sample_trajectories(mdp, policy, 5, [])

    def test_a_batch_checks_steps_along_its_last_axis(self):
        mdp, policy = extreme_chain_policy()
        batch = sample_trajectories(mdp, policy, 6, [1, 2])
        one = batch.rollout(1)
        assert len(one) == 6 and one.states.tolist() == batch.states[1].tolist()
        nexts = batch.next_states.copy()
        nexts[1, 2] = (nexts[1, 2] + 1) % 6
        with pytest.raises(ValueError, match="next_states"):
            Trajectory(batch.states, batch.actions, nexts, batch.rewards)
        with pytest.raises(ValueError, match="share length"):
            Trajectory(batch.states[:, :5], batch.actions, batch.next_states, batch.rewards)


def step_loop_rollout(env, policy, max_steps, seed):
    """A continuous rollout as a per-step loop on ``default_rng(seed)``:
    ``reset``, then ``sample`` and ``step``; its states, actions, next states
    and rewards as arrays."""
    rng = np.random.default_rng(seed)
    s = env.reset(rng)
    states, actions, nexts, rewards = [], [], [], []
    for _ in range(max_steps):
        a = policy.sample(s, rng)
        s2, r = env.step(s, a)
        states.append(s)
        actions.append(a)
        nexts.append(s2)
        rewards.append(r)
        s = s2
    return np.array(states), np.array(actions), np.array(nexts), np.array(rewards)


class TestContinuousRollouts:
    @pytest.mark.parametrize("make_policy", [
        lambda env: GaussianPolicy(env.state_dim, env.action_dim, hidden=(8,), seed=2),
        lambda env: PdExpert(env.spec),
    ], ids=["gaussian", "pd-expert"])
    def test_each_rollout_equals_the_per_step_loop(self, make_policy):
        env = PointMassEnv(PointMassSpec(episode_len=30))
        policy = make_policy(env)
        seeds = [0, 1, 77, 2 ** 31 - 1]
        batch = sample_trajectories(env, policy, 30, seeds)
        assert batch.states.shape == batch.next_states.shape == (4, 30, env.state_dim)
        assert batch.actions.shape == (4, 30, env.action_dim)
        assert batch.rewards.shape == (4, 30) and len(batch) == 30
        for j, seed in enumerate(seeds):
            want = step_loop_rollout(env, policy, 30, seed)
            one = sample_trajectory(env, policy, 30, seed)
            for got in ((batch.states[j], batch.actions[j], batch.next_states[j],
                         batch.rewards[j]),
                        (one.states, one.actions, one.next_states, one.rewards)):
                for x, y in zip(got, want):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_bad_arguments_rejected(self):
        env = PointMassEnv()
        with pytest.raises(ValueError, match="max_steps"):
            sample_trajectories(env, PdExpert(env.spec), 0, [1])
        with pytest.raises(ValueError, match="seeds"):
            sample_trajectories(env, PdExpert(env.spec), 5, [])


class TestSoftmaxPolicyImmutable:
    def test_logits_and_tables_are_read_only(self):
        policy = SoftmaxPolicy(np.array([[0.0, 1.0], [2.0, -1.0]]))
        for table in (policy.logits, policy.log_probs(), policy.probs()):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 5.0

    def test_caller_array_is_copied(self):
        logits = np.array([[0.0, 1.0], [2.0, -1.0]])
        policy = SoftmaxPolicy(logits)
        log_probs = policy.log_probs().copy()
        logits[1] = [-50.0, 50.0]
        assert logits.flags.writeable
        np.testing.assert_array_equal(policy.logits, [[0.0, 1.0], [2.0, -1.0]])
        assert policy.log_probs().tobytes() == log_probs.tobytes()

    def test_tables_are_computed_once_and_match_the_softmax(self):
        logits = np.random.default_rng(4).normal(size=(6, 3)) * 5
        policy = SoftmaxPolicy(logits)
        assert policy.log_probs() is policy.log_probs() and policy.probs() is policy.probs()
        z = logits - logits.max(axis=1, keepdims=True)
        want = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert policy.log_probs().tobytes() == want.tobytes()
        assert policy.probs().tobytes() == np.exp(want).tobytes()

    def test_coordinate_ascent_computes_one_table_per_policy(self, monkeypatch):
        from ndilab import mdp, verify
        counts = {"policies": 0, "tables": 0}
        init, log_softmax = mdp.SoftmaxPolicy.__init__, mdp._log_softmax

        def counted_init(self, logits):
            counts["policies"] += 1
            init(self, logits)

        def counted_log_softmax(logits):
            counts["tables"] += 1
            return log_softmax(logits)

        monkeypatch.setattr(mdp.SoftmaxPolicy, "__init__", counted_init)
        monkeypatch.setattr(mdp, "_log_softmax", counted_log_softmax)
        assert verify.verify_coordinate_ascent().passed
        # about 400 policies, which once took 3,207 log-prob evaluations
        assert 300 < counts["tables"] == counts["policies"] < 1000


class TestPolicyLogProb:
    def test_nonfinite_action_aborts_with_diagnostic(self):
        policy = GaussianPolicy(state_dim=2, action_dim=1, hidden=(4,), seed=0)
        policy.mean_net.layers[-1].bias[:] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite action"):
            policy.sample(np.zeros(2), np.random.default_rng(0))
