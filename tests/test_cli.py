"""Tests for configuration parsing, demo files, checkpoints, the pipeline
commands, and the command-line interface contracts."""
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from ndilab import imitation, pipeline
from ndilab.checkpoint import (
    load_checkpoint,
    load_density_model,
    load_softmax_policy,
    save_checkpoint,
    save_density_model,
    save_gaussian_policy,
    load_gaussian_policy,
    save_softmax_policy,
)
from ndilab.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, main
from ndilab.config import (
    COUNT_KEYS,
    RATE_KEYS,
    WEIGHT_KEYS,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from ndilab.demos import DemoSet, load_demos, save_demos
from ndilab.density import EbmModel, MadeConfig, made_fit
from ndilab.envs import get_env, soft_optimal_policy
from ndilab.imitation import evaluate_policy_kl, exact_discounted_return, soft_policy_iteration
from ndilab.mdp import GaussianPolicy, SoftmaxPolicy
from ndilab.pipeline import (
    SPI_TOL,
    cmd_eval,
    cmd_fit_density,
    cmd_gen_demos,
    cmd_train,
    run_full_pipeline,
)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def quick_config(tmp_path, **overrides):
    defaults = dict(env="grid-5x5", seed=0, out_dir=str(tmp_path / "run"),
                    rl_iterations=4, density_epochs=30, rollouts_per_iter=4,
                    lambda_pi_mode="fixed", lambda_pi=0.05, n_eval_states=60,
                    eval_episodes=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def smoke_pointmass_config(tmp_path):
    return ExperimentConfig(env="pointmass", seed=0, out_dir=str(tmp_path / "pm"),
                            n_demo_trajectories=3, demo_len=50,
                            density_kind="ebm", density_epochs=20, density_batch=64,
                            sac_steps=900, eval_every=300, sac_batch=64,
                            n_eval_states=40, eval_episodes=4, n_marginal_samples=16)


class TestConfig:
    def test_parses_typed_values_and_comments(self):
        cfg = parse_config_text("""
            # comment line
            env = chain-5
            gamma = 0.8        # trailing comment
            density_hidden = 32,16
            spectral_norm = false
            seed = 3
        """)
        assert cfg.env == "chain-5"
        assert cfg.gamma == 0.8
        assert cfg.density_hidden == (32, 16)
        assert cfg.spectral_norm is False
        assert cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate = 0.1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = banana")
        with pytest.raises(ConfigError):
            parse_config_text("density_kind = flow")
        with pytest.raises(ConfigError):
            parse_config_text("gamma = 1.5")

    @pytest.mark.parametrize("key", COUNT_KEYS)
    def test_count_below_one_rejected(self, key):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig(**{key: bad})
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = 0")
        assert getattr(ExperimentConfig(**{key: 1}), key) == 1

    @pytest.mark.parametrize("key", RATE_KEYS)
    def test_rate_not_above_zero_rejected(self, key):
        for bad in (0.0, -0.5, float("nan")):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig(**{key: bad})
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = 0")
        assert getattr(ExperimentConfig(**{key: 1e-3}), key) == 1e-3

    @pytest.mark.parametrize("key", WEIGHT_KEYS)
    def test_reward_weight_not_finite_and_non_negative_rejected(self, key):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig(**{key: bad})
        for text in ("nan", "inf", "-1"):
            with pytest.raises(ConfigError, match=key):
                parse_config_text(f"{key} = {text}")
        assert getattr(ExperimentConfig(**{key: 0.0}), key) == 0.0

    def test_zero_hidden_width_rejected(self):
        for bad in ((64, 0), (-1,)):
            with pytest.raises(ConfigError, match="density_hidden"):
                ExperimentConfig(density_hidden=bad)
        with pytest.raises(ConfigError, match="density_hidden"):
            parse_config_text("density_hidden = 64,0")
        assert ExperimentConfig(density_hidden="8,1").density_hidden == (8, 1)

    def test_every_config_field_is_read_by_the_program(self):
        src = Path(__file__).resolve().parents[1] / "src" / "ndilab"
        text = "\n".join(path.read_text() for path in sorted(src.glob("*.py"))
                         if path.name != "config.py")
        unread = [f.name for f in dataclasses.fields(ExperimentConfig)
                  if not re.search(rf"\bconfig\.{f.name}\b", text)]
        assert unread == []

    def test_both_shipped_configs_are_found(self):
        names = {path.name for path in SHIPPED_CONFIGS}
        assert {"grid-made.cfg", "pointmass-ebm.cfg"} <= names

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_loads_and_names_a_registry_env(self, path):
        cfg = load_config(path)
        assert get_env(cfg.env, cfg.gamma).name == cfg.env

    def test_hash_is_stable_and_sensitive(self):
        a = ExperimentConfig(seed=0)
        b = ExperimentConfig(seed=0)
        c = ExperimentConfig(seed=1)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()


class TestDemoFiles:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        demos = DemoSet(states=rng.normal(size=(12, 2)), actions=rng.normal(size=(12, 1)),
                        episodes=np.repeat([0, 1], 6), timesteps=np.tile(np.arange(6), 2),
                        meta={"env": "grid-5x5", "seed": 0})
        path = tmp_path / "demos.csv"
        save_demos(path, demos)
        loaded = load_demos(path)
        np.testing.assert_array_equal(loaded.states, demos.states)
        np.testing.assert_array_equal(loaded.actions, demos.actions)
        assert loaded.meta["env"] == "grid-5x5"

    def test_noncontiguous_timesteps_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            DemoSet(states=np.zeros((3, 1)), actions=np.zeros((3, 1)),
                    episodes=np.zeros(3, dtype=int), timesteps=np.array([0, 2, 3]))

    def test_features_concatenates_states_and_actions(self):
        demos = DemoSet(states=np.ones((4, 2)), actions=np.zeros((4, 1)),
                        episodes=np.zeros(4, dtype=int), timesteps=np.arange(4))
        assert demos.features().shape == (4, 3)


class TestCheckpoints:
    def test_raw_roundtrip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        arrays = [np.arange(6.0).reshape(2, 3), np.array([1.5])]
        save_checkpoint(path, "made", {"k": [1, 2], "name": "z"}, arrays)
        kind, header, loaded = load_checkpoint(path)
        assert kind == "made"
        assert header == {"k": [1, 2], "name": "z"}
        for a, b in zip(arrays, loaded):
            np.testing.assert_array_equal(a, b)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_made_model_roundtrip_preserves_densities(self, tmp_path):
        rng = np.random.default_rng(1)
        model, _ = made_fit(rng.normal(size=(200, 2)),
                            MadeConfig(hidden=(16,), n_components=2, epochs=3,
                                       batch_size=64, lr=1e-3, seed=0))
        path = tmp_path / "made.ckpt"
        save_density_model(path, model)
        loaded = load_density_model(path)
        for x in rng.normal(size=(5, 2)):
            assert loaded.log_density(x) == model.log_density(x)

    def test_ebm_model_roundtrip(self, tmp_path):
        model = EbmModel(dim=2, hidden=(8,), seed=0, spectral_norm=True)
        path = tmp_path / "ebm.ckpt"
        save_density_model(path, model)
        loaded = load_density_model(path)
        x = np.array([0.3, -0.4])
        assert loaded.log_density(x) == model.log_density(x)

    def test_density_checkpoint_with_missing_arrays_rejected(self, tmp_path):
        model = EbmModel(dim=2, hidden=(8,), seed=0)
        path = tmp_path / "ebm.ckpt"
        save_density_model(path, model)
        kind, header, arrays = load_checkpoint(path)
        save_checkpoint(path, kind, header, arrays[:2])
        with pytest.raises(ValueError, match="expected 4 arrays, got 2"):
            load_density_model(path)

    def test_density_checkpoint_with_wrong_shapes_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        model, _ = made_fit(rng.normal(size=(50, 2)),
                            MadeConfig(hidden=(16,), n_components=2, epochs=1, seed=0))
        path = tmp_path / "made.ckpt"
        save_density_model(path, model)
        kind, header, arrays = load_checkpoint(path)
        save_checkpoint(path, kind, header, [np.ones(1) for _ in arrays])
        with pytest.raises(ValueError, match="shape"):
            load_density_model(path)

    @pytest.mark.parametrize("field,value", [("mean", [5.0]), ("sn_sigma", [1.0])])
    def test_density_checkpoint_with_wrong_header_rejected(self, tmp_path, field, value):
        path = tmp_path / "ebm.ckpt"
        save_density_model(path, EbmModel(dim=2, hidden=(8,), seed=0))
        kind, header, arrays = load_checkpoint(path)
        save_checkpoint(path, kind, {**header, field: value}, arrays)
        with pytest.raises(ValueError, match="ebm.ckpt"):
            load_density_model(path)

    @pytest.mark.parametrize("arrays", [[], [np.zeros(3)], [np.zeros((2, 2))] * 2])
    def test_softmax_policy_without_one_logits_table_rejected(self, tmp_path, arrays):
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, "softmax_policy", {}, arrays)
        with pytest.raises(ValueError, match="logits"):
            load_softmax_policy(path)

    def test_gaussian_policy_with_wrong_shapes_rejected(self, tmp_path):
        path = tmp_path / "g.ckpt"
        save_gaussian_policy(path, GaussianPolicy(3, 2, hidden=(8,), seed=5))
        kind, header, arrays = load_checkpoint(path)
        save_checkpoint(path, kind, header, arrays[:-1] + [np.zeros(1)])
        with pytest.raises(ValueError, match="log_std"):
            load_gaussian_policy(path)
        save_checkpoint(path, kind, header, [np.ones(1) for _ in arrays])
        with pytest.raises(ValueError, match="shape"):
            load_gaussian_policy(path)

    @pytest.mark.parametrize("keep", [10, 40, 200, -3])
    def test_truncated_checkpoint_names_the_file(self, tmp_path, keep):
        path = tmp_path / "ebm.ckpt"
        save_density_model(path, EbmModel(dim=2, hidden=(8,), seed=0))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="ebm.ckpt: unreadable checkpoint"):
            load_checkpoint(path)

    def test_policy_roundtrips(self, tmp_path):
        logits = np.random.default_rng(2).normal(size=(4, 3))
        save_softmax_policy(tmp_path / "p.ckpt", SoftmaxPolicy(logits), {"seed": 1})
        policy, header = load_softmax_policy(tmp_path / "p.ckpt")
        np.testing.assert_array_equal(policy.logits, logits)
        assert header["seed"] == 1

        gauss = GaussianPolicy(3, 2, hidden=(8,), seed=5)
        save_gaussian_policy(tmp_path / "g.ckpt", gauss)
        loaded, _ = load_gaussian_policy(tmp_path / "g.ckpt")
        s = np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(loaded.mean(s), gauss.mean(s))


def episode_loop_demos(config):
    """The records of ``cmd_gen_demos`` rolled one episode, and one step, at
    a time: ``rng.choice`` draws for the tabular expert, ``reset``, ``sample``
    and ``step`` on the point mass; its states, actions, episodes and
    timesteps."""
    bundle = get_env(config.env, config.gamma, config.expert_tau)
    expert, tabular = bundle.expert(), bundle.kind == "tabular"
    states, actions, episodes, timesteps = [], [], [], []
    for ep in range(config.n_demo_trajectories):
        rng = np.random.default_rng(config.seed * 9973 + ep)
        if tabular:
            mdp, embed = bundle.mdp, bundle.embedding
            s = int(rng.choice(mdp.n_states, p=mdp.initial_dist))
        else:
            s = bundle.env.reset(rng)
        for t in range(config.demo_len):
            if tabular:
                a = int(rng.choice(mdp.n_actions, p=expert.probs()[s]))
                s2 = int(mdp.transition[s, a])
                states.append(embed.state(s))
                actions.append(embed.action(a))
            else:
                a = expert.sample(s, rng)
                s2, _ = bundle.env.step(s, a)
                states.append(s)
                actions.append(a)
            episodes.append(ep)
            timesteps.append(t)
            s = s2
    return states, actions, episodes, timesteps


class TestGenDemos:
    @pytest.mark.parametrize("make_config", [
        lambda tmp_path: quick_config(tmp_path, n_demo_trajectories=3, demo_len=12),
        smoke_pointmass_config,
    ], ids=["grid", "pointmass"])
    def test_file_equals_the_per_episode_loop(self, tmp_path, make_config):
        cfg = make_config(tmp_path)
        assert cfg.n_demo_trajectories >= 2
        got = cmd_gen_demos(cfg, tmp_path / "g")
        want = tmp_path / "want.csv"
        save_demos(want, DemoSet(*episode_loop_demos(cfg), meta=load_demos(got).meta))
        assert got.read_bytes() == want.read_bytes()

    def test_deterministic_file_identical_on_rerun(self, tmp_path):
        cfg = quick_config(tmp_path)
        p1 = cmd_gen_demos(cfg, tmp_path / "a")
        p2 = cmd_gen_demos(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_count_scales_with_trajectories(self, tmp_path):
        cfg = quick_config(tmp_path, n_demo_trajectories=25, demo_len=10)
        demos = load_demos(cmd_gen_demos(cfg, tmp_path / "c"))
        assert len(demos) == 25 * 10

    def test_expert_return_header_matches_oracle(self, tmp_path):
        cfg = quick_config(tmp_path)
        demos = load_demos(cmd_gen_demos(cfg, tmp_path / "d"))
        bundle = get_env(cfg.env, cfg.gamma)
        oracle = exact_discounted_return(bundle.mdp, bundle.expert())
        assert float(demos.meta["expert_return"]) == pytest.approx(oracle, abs=1e-9)


class TestExpertTemperature:
    """Every phase's tabular expert is the soft-optimal policy at ``expert_tau``."""

    def test_gen_demos_rolls_the_configured_expert(self, tmp_path):
        cfg = quick_config(tmp_path, expert_tau=0.5)
        demos = load_demos(cmd_gen_demos(cfg, tmp_path / "d"))
        mdp = get_env(cfg.env, cfg.gamma).mdp
        assert demos.meta["expert"] == "soft-optimal(tau=0.5)"
        oracle = exact_discounted_return(mdp, soft_optimal_policy(mdp, 0.5))
        assert demos.meta["expert_return"] == f"{oracle:.17g}"

    def test_train_kl_is_measured_against_the_configured_expert(self, tmp_path):
        cfg = quick_config(tmp_path, expert_tau=0.5, rl_iterations=1)
        out = tmp_path / "t"
        result = cmd_train(cfg, cmd_fit_density(cfg, cmd_gen_demos(cfg, out), out), out)
        header, row = [line.split(",") for line in
                       result.metrics_path.read_text().splitlines()]
        policy, _ = load_softmax_policy(result.policy_path)
        mdp = get_env(cfg.env, cfg.gamma).mdp
        oracle = evaluate_policy_kl(policy, soft_optimal_policy(mdp, 0.5), mdp,
                                    cfg.n_eval_states, seed=cfg.seed,
                                    episode_len=cfg.rollout_len)
        assert float(row[header.index("normalized_kl")]) == oracle

    def test_eval_scores_the_configured_expert_zero(self, tmp_path):
        cfg = quick_config(tmp_path, expert_tau=0.5)
        mdp = get_env(cfg.env, cfg.gamma).mdp
        path = tmp_path / "expert.ckpt"
        save_softmax_policy(path, soft_optimal_policy(mdp, 0.5), {})
        summary = cmd_eval(cfg, path)
        assert summary["normalized_kl"] == pytest.approx(0.0, abs=1e-12)
        assert summary["occupancy_reverse_kl"] == pytest.approx(0.0, abs=1e-9)


class TestFitDensityCommand:
    def test_same_seed_bitwise_identical_checkpoint(self, tmp_path):
        cfg = quick_config(tmp_path)
        demos = cmd_gen_demos(cfg, tmp_path / "r")
        p1 = cmd_fit_density(cfg, demos, tmp_path / "r1")
        p2 = cmd_fit_density(cfg, demos, tmp_path / "r2")
        assert p1.read_bytes() == p2.read_bytes()

    def test_kind_mismatch_rejected_by_train(self, tmp_path):
        cfg = quick_config(tmp_path)
        demos = cmd_gen_demos(cfg, tmp_path / "m")
        model = cmd_fit_density(cfg, demos, tmp_path / "m")
        bad = quick_config(tmp_path, density_kind="ebm")
        with pytest.raises(ValueError, match="does not match"):
            cmd_train(bad, model, tmp_path / "m")


class TestTrainCommand:
    def test_tabular_r_f_is_one_call_per_iteration_averaged_in_visit_order(self, tmp_path,
                                                                            monkeypatch):
        cfg = quick_config(tmp_path, rl_iterations=2, density_epochs=10)
        out = tmp_path / "r"
        model = cmd_fit_density(cfg, cmd_gen_demos(cfg, out), out)
        batches, pair_steps, calls, tables = [], [], [], []
        rollouts, pairs = pipeline.sample_trajectories, imitation.TimestepReplayBuffer.pairs

        def recording_rollouts(*args, **kwargs):
            batches.append(rollouts(*args, **kwargs))
            return batches[-1]

        def recording_pairs(buffer, t, *args):
            pair_steps.append(np.asarray(t).tolist())
            return pairs(buffer, t, *args)

        def recording_reward_f(critic, s_t, s_next, buffer, t, *args):
            calls.append((np.asarray(t).tolist(),
                          imitation.reward_f(critic, s_t, s_next, buffer, t, *args)))
            return calls[-1][1]

        def recording_sum(log_q, r_f, lambda_f):
            tables.append(np.array(r_f))
            return imitation.augmented_reward(log_q, r_f, lambda_f)

        monkeypatch.setattr(pipeline, "sample_trajectories", recording_rollouts)
        monkeypatch.setattr(imitation.TimestepReplayBuffer, "pairs", recording_pairs)
        monkeypatch.setattr(pipeline, "reward_f", recording_reward_f)
        monkeypatch.setattr(pipeline, "augmented_reward", recording_sum)
        cmd_train(cfg, model, out)
        # one rollout batch, one pair draw and one reward_f call per
        # iteration, never one per rollout or per transition
        k, T, n = cfg.rollouts_per_iter, cfg.rollout_len, cfg.rl_iterations
        assert [batch.states.shape for batch in batches] == [(k, T)] * n
        assert pair_steps == [list(range(0, T, 4))] * n
        assert [t for t, _ in calls] == [[list(range(T))] * k] * n
        assert len(tables) == n
        for batch, (_, vals), table in zip(batches, calls, tables):
            # the per-transition loop the trainer ran before batching
            total, count = {}, {}
            for j in range(k):
                for s, a, val in zip(batch.states[j], batch.actions[j], vals[j]):
                    total[s, a] = total.get((s, a), 0.0) + float(val)
                    count[s, a] = count.get((s, a), 0) + 1
            got = [table[cell] for cell in total]
            assert got == [total[cell] / count[cell] for cell in total]

    def test_zero_weights_equal_plain_soft_policy_iteration(self, tmp_path):
        cfg = quick_config(tmp_path, lambda_pi=0.0, lambda_f=0.0, rl_iterations=2)
        out = tmp_path / "z"
        demos = cmd_gen_demos(cfg, out)
        model_path = cmd_fit_density(cfg, demos, out)
        result = cmd_train(cfg, model_path, out)
        policy, _ = load_softmax_policy(result.policy_path)

        model = load_density_model(model_path)
        bundle = get_env(cfg.env, cfg.gamma)
        logq = np.array([[model.log_density(np.concatenate([
            bundle.embedding.state(s), bundle.embedding.action(a)]))
            for a in range(bundle.mdp.n_actions)] for s in range(bundle.mdp.n_states)])
        reference = soft_policy_iteration(bundle.mdp, temperature=1e-6, reward=logq,
                                          tol=SPI_TOL)
        np.testing.assert_allclose(policy.probs(), reference.probs(), atol=1e-9)

    def test_metrics_carry_seed_and_hash_and_audit_holds(self, tmp_path):
        cfg = quick_config(tmp_path, rl_iterations=5)
        out = tmp_path / "a"
        demos = cmd_gen_demos(cfg, out)
        model = cmd_fit_density(cfg, demos, out)
        result = cmd_train(cfg, model, out)
        rows = [line.split(",") for line in
                result.metrics_path.read_text().strip().splitlines()]
        header, data = rows[0], rows[1:]
        assert header == ["iteration", "env_steps", "augmented_return", "env_return",
                          "normalized_kl", "lambda_pi", "wallclock", "config_hash", "seed"]
        assert len(data) == 5
        hash_col, seed_col = header.index("config_hash"), header.index("seed")
        assert all(r[hash_col] == cfg.hash() for r in data)
        assert all(int(r[seed_col]) == cfg.seed for r in data)
        # audit: the chosen checkpoint is the argmax of the augmented column
        aug = [float(r[header.index("augmented_return")]) for r in data]
        assert result.summary["chosen_iteration"] == int(np.argmax(aug))
        assert result.summary["selection_rule"] == "augmented_return"

    def test_auto_lambda_pi_steps_toward_the_target_entropy(self, tmp_path, monkeypatch):
        from ndilab import pipeline
        entropy, entropies = pipeline._policy_entropy_weighted, []

        def recording_entropy(occ, policy):
            entropies.append(entropy(occ, policy))
            return entropies[-1]

        monkeypatch.setattr(pipeline, "_policy_entropy_weighted", recording_entropy)
        cfg = quick_config(tmp_path, lambda_pi_mode="auto", rl_iterations=3)
        out = tmp_path / "auto"
        model = cmd_fit_density(cfg, cmd_gen_demos(cfg, out), out)
        result = cmd_train(cfg, model, out)
        rows = [line.split(",") for line in
                result.metrics_path.read_text().strip().splitlines()]
        lam = [float(r[rows[0].index("lambda_pi")]) for r in rows[1:]]
        assert len(lam) == len(entropies) == 3
        assert lam[0] == cfg.lambda_pi
        n_actions = get_env(cfg.env).mdp.n_actions
        for k in range(2):
            step = lam[k] * math.exp(0.5 * (0.5 * math.log(n_actions) - entropies[k]))
            assert lam[k + 1] == float(np.clip(step, 1e-4, 10.0))
        assert lam[1] != lam[0] and lam[2] != lam[1]

    def test_five_seeds_produce_five_distinct_runs(self, tmp_path):
        seeds = []
        for seed in range(5):
            cfg = quick_config(tmp_path, seed=seed, rl_iterations=2, density_epochs=10)
            out = tmp_path / f"s{seed}"
            demos = cmd_gen_demos(cfg, out)
            model = cmd_fit_density(cfg, demos, out)
            result = cmd_train(cfg, model, out)
            rows = result.metrics_path.read_text().strip().splitlines()[1:]
            assert len(rows) == 2
            seeds.append(int(rows[0].split(",")[-1]))
        assert sorted(seeds) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("make_config", [
        lambda tmp_path: quick_config(tmp_path, rl_iterations=3),
        smoke_pointmass_config,
    ], ids=["grid", "pointmass"])
    def test_rerun_outputs_byte_identical_except_wallclock(self, tmp_path, make_config):
        cfg = make_config(tmp_path)
        r1 = run_full_pipeline(cfg, tmp_path / "x1")
        r2 = run_full_pipeline(cfg, tmp_path / "x2")
        for name in ("demos.csv", "density_curve.csv", "model.ckpt", "policy.ckpt",
                     "train_summary.json"):
            assert (tmp_path / "x1" / name).read_bytes() == \
                (tmp_path / "x2" / name).read_bytes(), name
        # the eval summary names its run directory in "checkpoint" and nowhere else
        e1, e2 = (json.loads((tmp_path / x / "eval_summary.json").read_text())
                  for x in ("x1", "x2"))
        assert e1.pop("checkpoint") != e2.pop("checkpoint")
        assert e1 == e2
        # metrics match column-for-column apart from the measured wallclock
        m1 = [r.split(",") for r in (tmp_path / "x1" / "metrics.csv").read_text().splitlines()]
        m2 = [r.split(",") for r in (tmp_path / "x2" / "metrics.csv").read_text().splitlines()]
        wall = m1[0].index("wallclock")
        for a, b in zip(m1, m2):
            for i, (x, y) in enumerate(zip(a, b)):
                if i != wall:
                    assert x == y


class TestContinuousPipeline:
    def test_point_mass_smoke_run(self, tmp_path):
        summary = run_full_pipeline(smoke_pointmass_config(tmp_path))
        assert np.isfinite(summary["env_return_mean"])
        assert np.isfinite(summary["normalized_kl"])
        metrics = (tmp_path / "pm" / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 4  # header + one row per eval checkpoint
        assert summary["train"]["selection_rule"] == "augmented_return"

    def test_each_evaluation_rolls_its_episodes_once(self, tmp_path, monkeypatch):
        cfg = smoke_pointmass_config(tmp_path)
        out = tmp_path / "pm"
        model = cmd_fit_density(cfg, cmd_gen_demos(cfg, out), out)
        calls, sample_trajectories = [], imitation.sample_trajectories

        def counting(*args, **kwargs):
            calls.append(sys._getframe(1).f_code.co_name)
            return sample_trajectories(*args, **kwargs)

        monkeypatch.setattr(imitation, "sample_trajectories", counting)
        result = cmd_train(cfg, model, out)
        rows = len(result.metrics_path.read_text().splitlines()) - 1
        assert rows == 3
        # each evaluation rolls all its return episodes in one batch
        assert calls.count("evaluate_return") == rows
        # the random-policy KL baseline is rolled once per run, the policy's
        # KL states once per evaluation
        assert calls.count("_rollout_states") == 1 + rows
        assert len(calls) == 1 + 2 * rows

    def test_each_evaluation_episode_is_one_reward_f_call(self, tmp_path, monkeypatch):
        cfg = smoke_pointmass_config(tmp_path)
        out = tmp_path / "pm"
        model = cmd_fit_density(cfg, cmd_gen_demos(cfg, out), out)
        shapes = []

        def recording_reward_f(critic, s_t, s_next, buffer, t, *args):
            shapes.append(np.shape(t))
            return imitation.reward_f(critic, s_t, s_next, buffer, t, *args)

        monkeypatch.setattr(pipeline, "reward_f", recording_reward_f)
        result = cmd_train(cfg, model, out)
        rows = len(result.metrics_path.read_text().splitlines()) - 1
        episode_len = get_env(cfg.env, cfg.gamma).env.spec.episode_len
        # one call per training transition (on one-step arrays), one per
        # evaluation episode
        assert shapes.count((1,)) == cfg.sac_steps
        assert shapes.count((episode_len,)) == rows * max(2, cfg.eval_episodes // 4)
        assert len(shapes) == cfg.sac_steps + rows * max(2, cfg.eval_episodes // 4)

    def test_evaluation_cadence_leaves_training_unchanged(self, tmp_path):
        # evaluations score episodes with reward_f, which samples the replay
        # buffer; training must not see those draws
        cfg = smoke_pointmass_config(tmp_path)
        out = tmp_path / "pm"
        model = cmd_fit_density(cfg, cmd_gen_demos(cfg, out), out)
        by_step = {}
        for every in (300, 600):
            run = dataclasses.replace(cfg, eval_every=every)
            header, *rows = [line.split(",") for line in cmd_train(
                run, model, tmp_path / f"every{every}").metrics_path.read_text().splitlines()]
            keep = [i for i, name in enumerate(header)
                    if name not in ("iteration", "wallclock", "config_hash")]
            by_step[every] = {int(row[1]): [row[i] for i in keep] for row in rows}
        assert sorted(by_step[300]) == [300, 600, 900]
        assert sorted(by_step[600]) == [600, 900]
        for step in (600, 900):
            assert by_step[300][step] == by_step[600][step], step


class TestEvalCommand:
    def test_expert_scores_zero_kl(self, tmp_path):
        cfg = quick_config(tmp_path)
        bundle = get_env(cfg.env, cfg.gamma)
        expert = bundle.expert()
        path = tmp_path / "expert.ckpt"
        save_softmax_policy(path, expert, {"config_hash": cfg.hash(), "seed": 0})
        summary = cmd_eval(cfg, path)
        assert summary["normalized_kl"] == pytest.approx(0.0, abs=1e-12)
        assert summary["occupancy_reverse_kl"] == pytest.approx(0.0, abs=1e-9)

    def test_random_policy_scores_unit_kl(self, tmp_path):
        cfg = quick_config(tmp_path)
        bundle = get_env(cfg.env, cfg.gamma)
        path = tmp_path / "rand.ckpt"
        save_softmax_policy(path, SoftmaxPolicy.uniform(bundle.mdp.n_states,
                                                        bundle.mdp.n_actions), {})
        summary = cmd_eval(cfg, path)
        assert summary["normalized_kl"] == pytest.approx(1.0)

    def test_policy_for_another_env_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "chain.cfg"
        cfg.write_text(f"env = chain-4\nout_dir = {tmp_path}\n")
        path = tmp_path / "grid_policy.ckpt"
        save_softmax_policy(path, SoftmaxPolicy.uniform(25, 5), {})
        assert main(["eval", "--config", str(cfg), "--policy", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid_policy.ckpt" in err
        assert "(25, 5)" in err and "(4, 2)" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_policy_of_the_other_kind_names_the_file(self, tmp_path):
        cfg = quick_config(tmp_path)
        path = tmp_path / "pm_policy.ckpt"
        save_gaussian_policy(path, GaussianPolicy(state_dim=4, action_dim=2, hidden=(4,)))
        with pytest.raises(ValueError, match=r"pm_policy\.ckpt: not a softmax policy"):
            cmd_eval(cfg, path)

    def test_gaussian_policy_with_other_dims_rejected(self, tmp_path):
        cfg = ExperimentConfig(env="pointmass", out_dir=str(tmp_path))
        path = tmp_path / "wide.ckpt"
        save_gaussian_policy(path, GaussianPolicy(state_dim=3, action_dim=1, hidden=(4,)))
        with pytest.raises(ValueError, match=r"wide\.ckpt.*\(3, 1\).*\(4, 2\)"):
            cmd_eval(cfg, path)


class TestCliFrontend:
    def write_cfg(self, tmp_path, extra=""):
        path = tmp_path / "exp.cfg"
        path.write_text("env = grid-5x5\nseed = 0\n"
                        f"out_dir = {tmp_path / 'run'}\n"
                        "rl_iterations = 2\ndensity_epochs = 10\n"
                        "lambda_pi_mode = fixed\nlambda_pi = 0.05\n"
                        "eval_episodes = 3\nn_eval_states = 40\n" + extra)
        return path

    def test_full_command_sequence(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_OK
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "normalized_kl" in out

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("env = grid-5x5\nwarp_drive = on\n")
        assert main(["gen-demos", "--config", str(bad)]) == EXIT_USAGE

    def test_unknown_env_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"env = atlantis\nout_dir = {tmp_path}\n")
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_USAGE

    def test_verify_suite_passes(self, capsys):
        assert main(["verify", "--suite", "lemma1"]) == EXIT_OK
        assert "PASS lemma1" in capsys.readouterr().out

    def test_verify_reports_expected_failure_without_failing(self, capsys):
        assert main(["verify", "--suite", "theorem1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "documented expected-failure" in out

    def test_verify_all_suites(self, capsys):
        assert main(["verify", "--suite", "all"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        passed = [line for line in lines if line.startswith("PASS ")]
        assert [line.split(":")[0] for line in passed] == [
            "PASS lemma1", "PASS lemma2", "PASS theorem1", "PASS theorem2",
            "PASS corollary1", "PASS nwj", "PASS coordinate-ascent"]
        assert all(line.endswith(" 0 violations") for line in passed)
        assert not any("violation:" in line or line.startswith("FAIL") for line in lines)
        expected = [k for k, line in enumerate(lines) if "documented expected-failure" in line]
        assert len(expected) == 1 and lines[expected[0] - 1].startswith("PASS theorem1:")

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_truncated_model_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_OK
        model = tmp_path / "run" / "model.ckpt"
        model.write_bytes(model.read_bytes()[:100])
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--model", str(model)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model.ckpt" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit", ["nan", "inf", "ragged", "fractional_episode", "header",
                                      "t_gap"])
    def test_bad_demo_record_is_usage_error(self, tmp_path, capsys, edit):
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        demos = tmp_path / "run" / "demos.csv"
        lines = demos.read_text().splitlines()
        header = next(k for k, line in enumerate(lines) if line.startswith("episode,"))
        i = header if edit == "header" else header + 3
        fields = lines[i].split(",")
        if edit == "ragged":
            fields.append("0.5")
        elif edit in ("fractional_episode", "header"):
            fields[0] = "0.5"
        elif edit == "t_gap":
            fields[1] = str(int(fields[1]) + 1)
        else:
            fields[-1] = edit
        lines[i] = ",".join(fields)
        demos.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        where = f"{demos}: episode 0" if edit == "t_gap" else f"demos.csv line {i + 1}"
        assert err.startswith("error: ") and where in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("cut", [4, 3], ids=["a_0", "s_1"])
    def test_demos_with_a_cut_column_are_usage_error(self, tmp_path, capsys, cut):
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        demos = tmp_path / "run" / "demos.csv"
        lines = demos.read_text().splitlines()
        assert "episode,t,s_0,s_1,a_0" in lines
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                fields = line.split(",")
                del fields[cut]
                lines[i] = ",".join(fields)
        demos.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "demos.csv" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_pointmass_demos_under_grid_config_are_usage_error(self, tmp_path, capsys):
        pm = tmp_path / "pm.cfg"
        pm.write_text(f"env = pointmass\nseed = 0\nout_dir = {tmp_path / 'run'}\n"
                      "n_demo_trajectories = 1\ndemo_len = 10\neval_episodes = 1\n")
        assert main(["gen-demos", "--config", str(pm)]) == EXIT_OK
        capsys.readouterr()
        assert main(["fit-density", "--config", str(self.write_cfg(tmp_path))]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "demos.csv" in err
        assert "(4, 2)" in err and "(2, 1)" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_pointmass_with_fewer_than_four_eval_states_scores_a_finite_kl(self, tmp_path):
        # train scores n_eval_states // 4 states per evaluation, at least one
        cfg = tmp_path / "pm.cfg"
        cfg.write_text(f"env = pointmass\nseed = 0\nout_dir = {tmp_path / 'run'}\n"
                       "n_demo_trajectories = 2\ndemo_len = 30\ndensity_kind = ebm\n"
                       "density_epochs = 5\ndensity_batch = 32\nsac_steps = 200\n"
                       "eval_every = 100\nsac_batch = 32\neval_episodes = 2\n"
                       "n_marginal_samples = 8\nn_eval_states = 3\n")
        for command in ("gen-demos", "fit-density", "train", "eval"):
            assert main([command, "--config", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        column = lines[0].split(",").index("normalized_kl")
        kls = [float(line.split(",")[column]) for line in lines[1:]]
        assert len(kls) == 2 and all(math.isfinite(kl) for kl in kls)

    def test_zero_eval_every_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "eval_every = 0\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eval_every" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("line", ["density_lr = -0.5", "sac_lr = -0.1",
                                      "density_hidden = 64,0", "expert_tau = 0",
                                      "ssm_hvp_epsilon = 0", "lambda_f = nan",
                                      "lambda_f = inf", "lambda_pi = nan",
                                      "lambda_pi = inf"])
    def test_bad_rate_or_width_is_usage_error(self, tmp_path, capsys, line):
        cfg = self.write_cfg(tmp_path, line + "\n")
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split(" = ")[0] in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_overflowing_density_gradient_is_divergence(self, tmp_path, capsys):
        # at this epsilon Z + eps v rounds to Z, and the score-matching
        # gradient grows until its square overflows Adam's second moment
        cfg = tmp_path / "pm.cfg"
        cfg.write_text(f"env = pointmass\nseed = 0\nout_dir = {tmp_path / 'run'}\n"
                       "n_demo_trajectories = 3\ndemo_len = 50\ndensity_kind = ebm\n"
                       "density_epochs = 2\ndensity_batch = 64\nssm_hvp_epsilon = 1e-300\n")
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: ") and "adam_step" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit", ["sigma_zero", "sigma_negative", "sigma_nan",
                                      "sigma_string", "nan_weight", "zero_hidden",
                                      "missing_key"])
    def test_bad_density_checkpoint_is_usage_error(self, tmp_path, capsys, edit):
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_OK
        model = tmp_path / "run" / "model.ckpt"
        kind, header, arrays = load_checkpoint(model)
        sigma = {"sigma_zero": 0.0, "sigma_negative": -1.0, "sigma_nan": math.nan,
                 "sigma_string": "1.0"}.get(edit)
        if sigma is not None:
            header["sn_sigma"][1] = sigma
        elif edit == "nan_weight":
            arrays[2][0, 0] = math.nan
        elif edit == "zero_hidden":
            header["hidden"][0] = 0
        else:
            del header["hidden"]
        save_checkpoint(model, kind, header, arrays)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit", ["inf_weight", "nan_log_std", "widths_string", "zero_width",
                                      "no_widths", "too_few_arrays", "nan_logits"])
    def test_bad_policy_checkpoint_is_usage_error(self, tmp_path, capsys, edit):
        policy = tmp_path / "policy.ckpt"
        if edit == "nan_logits":
            cfg = self.write_cfg(tmp_path)
            logits = np.zeros((25, 5))
            logits[3, 1] = math.nan
            save_checkpoint(policy, "softmax_policy", {}, [logits])
        else:
            cfg = tmp_path / "pm.cfg"
            cfg.write_text(f"env = pointmass\nout_dir = {tmp_path / 'run'}\n"
                           "eval_episodes = 2\nn_eval_states = 8\n")
            save_gaussian_policy(policy, GaussianPolicy(4, 2, hidden=(8,), seed=0))
            kind, header, arrays = load_checkpoint(policy)
            if edit == "inf_weight":
                arrays[0][0, 0] = math.inf
            elif edit == "nan_log_std":
                arrays[-1][0] = math.nan
            elif edit == "widths_string":
                header["widths"] = "abc"
            elif edit == "zero_width":
                header["widths"] = [4, 0, 2]
            elif edit == "no_widths":
                del header["widths"]
            else:
                arrays = arrays[:1]
            save_checkpoint(policy, kind, header, arrays)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg), "--policy", str(policy)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {policy}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("form", ["config", "flag"])
    def test_negative_seed_is_usage_error_naming_the_key(self, tmp_path, capsys, form):
        cfg = self.write_cfg(tmp_path, "seed = -1\n" if form == "config" else "")
        cfg.write_text(cfg.read_text().replace("seed = 0\n", ""))
        flag = ["--seed", "-1"] if form == "flag" else []
        assert main(["gen-demos", "--config", str(cfg), *flag]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_seed_and_out_overrides_hash_like_the_same_config_values(self, tmp_path, capsys):
        out = tmp_path / "other"
        overridden = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(overridden), "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        written = overridden.read_text().replace("seed = 0", "seed = 3").replace(
            str(tmp_path / "run"), str(out))
        meta = load_demos(out / "demos.csv").meta
        assert meta["seed"] == "3" and meta["config_hash"] == parse_config_text(written).hash()

    def test_directory_as_model_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        model_dir = tmp_path / "not_a_file"
        model_dir.mkdir()
        assert main(["train", "--config", str(cfg), "--model", str(model_dir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not_a_file" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_soft_policy_iteration_failure_is_divergence(self, tmp_path, capsys,
                                                         monkeypatch):
        from ndilab import pipeline
        cfg = self.write_cfg(tmp_path)
        assert main(["gen-demos", "--config", str(cfg)]) == EXIT_OK
        assert main(["fit-density", "--config", str(cfg)]) == EXIT_OK
        monkeypatch.setattr(pipeline, "soft_policy_iteration",
                            functools.partial(soft_policy_iteration, max_iters=1))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("numerical divergence: soft policy iteration did not converge")
        assert err.count("\n") == 1
