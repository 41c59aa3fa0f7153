"""Tests for configuration parsing, demo files, checkpoints, the pipeline
commands, and the command-line interface contracts."""
import functools

import numpy as np
import pytest

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
from ndilab.config import COUNT_KEYS, ConfigError, ExperimentConfig, parse_config_text
from ndilab.demos import DemoSet, load_demos, save_demos
from ndilab.density import EbmModel, MadeConfig, made_fit
from ndilab.envs import get_env
from ndilab.imitation import exact_discounted_return, soft_policy_iteration
from ndilab.mdp import GaussianPolicy, SoftmaxPolicy
from ndilab.pipeline import cmd_eval, cmd_fit_density, cmd_gen_demos, cmd_train, run_full_pipeline


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


class TestGenDemos:
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
                                          tol=cfg.spi_tol)
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
        for name in ("demos.csv", "model.ckpt", "policy.ckpt"):
            assert (tmp_path / "x1" / name).read_bytes() == \
                (tmp_path / "x2" / name).read_bytes(), name
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

    def test_zero_eval_every_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "eval_every = 0\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eval_every" in err
        assert err.count("\n") == 1 and "Traceback" not in err

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
