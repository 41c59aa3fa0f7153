"""The end-to-end pipeline: demonstration generation, density fitting,
maximum-occupancy-entropy RL with the augmented reward, and evaluation.

Reward composition during training is r = log q(s, a) + lambda_f * r_f, with
the policy-entropy weight lambda_pi realized as the soft-RL temperature (the
tabular soft-policy-iteration temperature, or SAC's tuned entropy
coefficient) rather than added to the reward table; the two are equivalent
and keep a single entropy knob. Model selection never reads the environment
reward: the best checkpoint is the one with the highest augmented return,
and the metrics log makes that auditable.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import (
    load_density_model,
    save_density_model,
    save_gaussian_policy,
    save_softmax_policy,
)
from .config import ExperimentConfig
from .demos import DemoSet, load_demos, save_demos
from .density import MadeConfig, SsmConfig, ebm_fit, made_fit, smoothed_curve_is_monotone
from .envs import ContinuousEnvBundle, TabularEnvBundle, get_env
from .imitation import (
    AugmentedRewardConfig,
    RbfCritic,
    SacConfig,
    SacLearner,
    TimestepReplayBuffer,
    evaluate_policy_kl,
    evaluate_return,
    exact_discounted_return,
    nwj_reward,
    reward_f,
    soft_policy_iteration,
)
from .mdp import SoftmaxPolicy, sample_trajectory
from .occupancy import occupancy_measure

METRICS_COLUMNS = ["iteration", "env_steps", "augmented_return", "env_return",
                   "normalized_kl", "lambda_pi", "wallclock", "config_hash", "seed"]


def _write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_gen_demos(config: ExperimentConfig, out_dir=None) -> Path:
    """Roll the in-repo expert and write the demonstration file."""
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = get_env(config.env, config.gamma)
    expert = bundle.expert()
    states, actions, episodes, timesteps = [], [], [], []
    if bundle.kind == "tabular":
        embed = bundle.embedding
        for ep in range(config.n_demo_trajectories):
            traj = sample_trajectory(bundle.mdp, expert, config.demo_len,
                                     seed=config.seed * 9973 + ep)
            for t in range(len(traj)):
                states.append(embed.state(traj.states[t]))
                actions.append(embed.action(traj.actions[t]))
                episodes.append(ep)
                timesteps.append(t)
        expert_return = exact_discounted_return(bundle.mdp, expert)
        descriptor = f"soft-optimal(tau={bundle.expert_tau})"
    else:
        env = bundle.env
        for ep in range(config.n_demo_trajectories):
            traj = sample_trajectory(env, expert, config.demo_len,
                                     seed=config.seed * 9973 + ep)
            for t in range(len(traj)):
                states.append(traj.states[t])
                actions.append(traj.actions[t])
                episodes.append(ep)
                timesteps.append(t)
        expert_return, _ = evaluate_return(expert, env, n_episodes=config.eval_episodes,
                                           seed=config.seed)
        descriptor = "pd-controller"
    demos = DemoSet(np.array(states), np.array(actions), np.array(episodes),
                    np.array(timesteps),
                    meta={"env": config.env, "expert": descriptor,
                          "seed": config.seed, "count": len(states),
                          "expert_return": f"{expert_return:.17g}",
                          "config_hash": config.hash()})
    path = out / "demos.csv"
    save_demos(path, demos)
    return path


def cmd_fit_density(config: ExperimentConfig, demos_path, out_dir=None) -> Path:
    """Phase 1: fit the expert occupancy density and write the checkpoint."""
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    demos = load_demos(demos_path)
    if config.density_kind == "made":
        model, curve = made_fit(demos, MadeConfig(
            hidden=config.density_hidden, n_components=config.made_components,
            epochs=config.density_epochs, batch_size=config.density_batch,
            lr=config.density_lr, seed=config.seed, spectral_norm=config.spectral_norm))
    else:
        model, curve = ebm_fit(demos, SsmConfig(
            n_slices=config.ssm_slices, hvp_epsilon=config.ssm_hvp_epsilon,
            batch_size=config.density_batch, epochs=config.density_epochs,
            lr=config.density_lr, seed=config.seed, hidden=config.density_hidden,
            spectral_norm=config.spectral_norm))
    smooth = smoothed_curve_is_monotone(curve, window=10, slack=5e-3)
    if not smooth:
        logging.getLogger(__name__).warning(
            "density training curve is not smoothed-monotone; inspect density_curve.csv")
    path = out / "model.ckpt"
    save_density_model(path, model, extra={"config_hash": config.hash(),
                                           "seed": config.seed,
                                           "curve_smoothly_decreasing": smooth})
    _write_csv(out / "density_curve.csv", ["epoch", "loss"],
               [(i, float(v)) for i, v in enumerate(curve)])
    return path


@dataclass
class TrainResult:
    policy_path: Path
    metrics_path: Path
    summary: dict


def _policy_entropy_weighted(mdp, policy) -> float:
    """Occupancy-weighted mean per-state policy entropy (normalized weights)."""
    occ = occupancy_measure(mdp, policy)
    w = occ.state_marginal() / occ.mass
    probs, logp = policy.probs(), policy.log_probs()
    ent = -(probs * np.where(probs > 0, logp, 0.0)).sum(axis=1)
    return float(w @ ent)


def _train_tabular(config: ExperimentConfig, bundle: TabularEnvBundle,
                   density_model, out: Path) -> TrainResult:
    mdp, embed = bundle.mdp, bundle.embedding
    S, A = mdp.n_states, mdp.n_actions
    expert = bundle.expert()
    rcfg = AugmentedRewardConfig(gamma=mdp.discount, lambda_pi=config.lambda_pi,
                                 lambda_f=config.lambda_f,
                                 use_alg1_form=(config.reward_form == "alg1"))

    # density reward table over the embedded grid
    logq = np.empty((S, A))
    for s in range(S):
        for a in range(A):
            logq[s, a] = density_model.log_density(
                np.concatenate([embed.state(s), embed.action(a)]))

    # critic operates on standardized state coordinates (unit bandwidth there)
    ds = embed.state_coords.shape[1]
    smean = density_model.standardizer.mean[:ds]
    sstd = density_model.standardizer.std[:ds]
    zstate = np.array([(embed.state(s) - smean) / sstd for s in range(S)])

    critic = RbfCritic(bandwidth=1.0)
    buffer = TimestepReplayBuffer(config.buffer_capacity, seed=config.seed)
    pair_rng = np.random.default_rng(config.seed + 101)
    lambda_pi = config.lambda_pi
    target_entropy = config.target_entropy_factor * math.log(A)
    policy = SoftmaxPolicy.uniform(S, A)

    rows = []
    best = None
    env_steps = 0
    t0 = time.time()
    for it in range(config.rl_iterations):
        trajs = [sample_trajectory(mdp, policy, config.rollout_len,
                                   seed=config.seed * 31337 + it * 131 + k)
                 for k in range(config.rollouts_per_iter)]
        for traj in trajs:
            for t in range(len(traj)):
                buffer.add(t, zstate[traj.states[t]])
            buffer.add(len(traj), zstate[traj.next_states[-1]])
            env_steps += len(traj)
        # refresh the critic normalizer from independent bucket pairs
        pairs = []
        for t in range(0, config.rollout_len, 4):
            cur, nxt = buffer.bucket(t), buffer.bucket(t + 1)
            if len(cur) and len(nxt):
                for _ in range(4):
                    pairs.append((cur[pair_rng.integers(len(cur))],
                                  nxt[pair_rng.integers(len(nxt))]))
        if pairs:
            critic.observe_pairs(pairs)

        # r_f table: visitation-averaged over fresh transitions, pooled fallback
        r_f_sum = np.zeros((S, A))
        r_f_count = np.zeros((S, A))
        for traj in trajs:
            for t in range(len(traj)):
                s, a = int(traj.states[t]), int(traj.actions[t])
                val = reward_f(critic, zstate[s], None, zstate[traj.next_states[t]],
                               buffer, t, rcfg, config.n_marginal_samples)
                r_f_sum[s, a] += val
                r_f_count[s, a] += 1
        pooled = buffer.pooled()
        cross_rng = np.random.default_rng(config.seed + it)
        idx = cross_rng.integers(0, len(pooled), size=min(config.n_marginal_samples,
                                                          len(pooled)))
        pool_samples = pooled[idx]
        r_f_table = np.divide(r_f_sum, r_f_count, out=np.empty((S, A)), where=r_f_count > 0)
        cells_s, cells_a = np.nonzero(r_f_count == 0)
        if len(cells_s):
            r_f_table[cells_s, cells_a] = nwj_reward(
                critic, zstate[cells_s], zstate[mdp.transition[cells_s, cells_a]],
                pool_samples, pool_samples, rcfg)

        base_table = logq + config.lambda_f * r_f_table
        policy = soft_policy_iteration(mdp, temperature=max(lambda_pi, 1e-6),
                                       reward=base_table, tol=config.spi_tol)

        aug_return = exact_discounted_return(mdp, policy, base_table) \
            + lambda_pi * -(occupancy_measure(mdp, policy).rho * policy.log_probs()).sum()
        env_return = exact_discounted_return(mdp, policy)
        norm_kl = evaluate_policy_kl(policy, expert, mdp, config.n_eval_states,
                                     seed=config.seed + it,
                                     episode_len=config.rollout_len)
        rows.append((it, env_steps, float(aug_return), float(env_return),
                     float(norm_kl), float(lambda_pi), time.time() - t0,
                     config.hash(), config.seed))
        if best is None or aug_return > best[0]:
            best = (aug_return, it, SoftmaxPolicy(policy.logits.copy()))

        if config.lambda_pi_mode == "auto":
            entropy = _policy_entropy_weighted(mdp, policy)
            lambda_pi = float(np.clip(lambda_pi * math.exp(0.5 * (target_entropy - entropy)),
                                      1e-4, 10.0))

    policy_path = out / "policy.ckpt"
    save_softmax_policy(policy_path, best[2],
                        extra={"config_hash": config.hash(), "seed": config.seed,
                               "chosen_iteration": best[1],
                               "selection_rule": "augmented_return"})
    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, METRICS_COLUMNS, rows)
    summary = {"chosen_iteration": best[1],
               "best_augmented_return": float(best[0]),
               "selection_rule": "augmented_return",
               "iterations": config.rl_iterations,
               "env_steps": env_steps,
               "config_hash": config.hash(), "seed": config.seed}
    (out / "train_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return TrainResult(policy_path, metrics_path, summary)


def _train_continuous(config: ExperimentConfig, bundle: ContinuousEnvBundle,
                      density_model, out: Path) -> TrainResult:
    env = bundle.env
    rcfg = AugmentedRewardConfig(gamma=config.gamma, lambda_pi=config.lambda_pi,
                                 lambda_f=config.lambda_f,
                                 use_alg1_form=(config.reward_form == "alg1"))
    std = density_model.standardizer
    ds = env.state_dim

    def zstate(s):
        return (np.asarray(s) - std.mean[:ds]) / std.std[:ds]

    critic = RbfCritic(bandwidth=1.0)
    buffer = TimestepReplayBuffer(config.buffer_capacity, seed=config.seed)
    sac = SacLearner(env.state_dim, env.action_dim,
                     SacConfig(gamma=config.gamma, lr=config.sac_lr,
                               lr_alpha=config.sac_lr, batch_size=config.sac_batch,
                               hidden=(32, 32), seed=config.seed))
    if config.lambda_pi_mode == "fixed":
        sac.log_alpha[:] = math.log(max(config.lambda_pi, 1e-8))
        sac.opt_alpha.lr = 0.0

    def augmented(s, a, s2, t):
        log_q = density_model.log_density(np.concatenate([np.asarray(s), np.asarray(a)]))
        r_f = reward_f(critic, zstate(s), a, zstate(s2), buffer, t, rcfg,
                       config.n_marginal_samples)
        return float(log_q + config.lambda_f * r_f)

    rng = np.random.default_rng(config.seed)
    rows = []
    best = None
    episode_len = env.spec.episode_len
    env_steps = 0
    t0 = time.time()
    warmup = min(500, config.sac_steps // 4)
    s = env.reset(rng)
    t_in_ep = 0
    buffer.add(0, zstate(s))
    while env_steps < config.sac_steps:
        a = (rng.uniform(-1, 1, env.action_dim) if env_steps < warmup
             else sac.policy.sample(s, rng))
        s2, _ = env.step(s, a)
        buffer.add(t_in_ep + 1, zstate(s2))
        if (t_in_ep % 8) == 0:
            cur, nxt = buffer.bucket(t_in_ep), buffer.bucket(t_in_ep + 1)
            if len(cur) and len(nxt):
                critic.observe_pairs([(cur[rng.integers(len(cur))],
                                       nxt[rng.integers(len(nxt))]) for _ in range(2)])
        r_bar = augmented(s, a, s2, t_in_ep)
        sac.add_transition(s, a, r_bar, s2, done=False)
        env_steps += 1
        t_in_ep += 1
        if t_in_ep >= episode_len:
            s = env.reset(rng)
            t_in_ep = 0
            buffer.add(0, zstate(s))
        else:
            s = s2
        if env_steps > warmup and len(sac.buffer) >= config.sac_batch:
            sac.step()
        if env_steps % config.eval_every == 0 or env_steps == config.sac_steps:
            aug_mean, _ = evaluate_return(sac.policy, env, reward_source=augmented,
                                          n_episodes=max(2, config.eval_episodes // 4),
                                          seed=config.seed + env_steps)
            env_mean, _ = evaluate_return(sac.policy, env,
                                          n_episodes=max(2, config.eval_episodes // 4),
                                          seed=config.seed + env_steps)
            norm_kl = evaluate_policy_kl(sac.policy, _pd_as_gaussian(env, config.seed),
                                         env, config.n_eval_states // 4,
                                         seed=config.seed, episode_len=episode_len)
            rows.append((len(rows), env_steps, float(aug_mean), float(env_mean),
                         float(norm_kl), sac.alpha, time.time() - t0,
                         config.hash(), config.seed))
            if best is None or aug_mean > best[0]:
                best = (aug_mean, env_steps, _copy_gaussian(sac.policy))

    policy_path = out / "policy.ckpt"
    save_gaussian_policy(policy_path, best[2],
                         extra={"config_hash": config.hash(), "seed": config.seed,
                                "chosen_env_steps": best[1],
                                "selection_rule": "augmented_return"})
    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, METRICS_COLUMNS, rows)
    summary = {"chosen_env_steps": best[1], "best_augmented_return": float(best[0]),
               "selection_rule": "augmented_return", "env_steps": env_steps,
               "config_hash": config.hash(), "seed": config.seed}
    (out / "train_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return TrainResult(policy_path, metrics_path, summary)


def _copy_gaussian(policy):
    from .mdp import GaussianPolicy
    widths = policy.mean_net.widths
    clone = GaussianPolicy(policy.state_dim, policy.action_dim,
                           hidden=tuple(widths[1:-1]))
    clone.mean_net.set_params(policy.mean_net.params())
    clone.log_std[...] = policy.log_std
    return clone


def _pd_as_gaussian(env, seed):
    """Gaussian wrapper over the scripted controller so analytic KL applies."""
    from .envs import pd_controller_action
    from .mdp import GaussianPolicy

    class PdGaussian(GaussianPolicy):
        def __init__(self):
            super().__init__(env.state_dim, env.action_dim, hidden=(4,), seed=seed)
            self.log_std[:] = math.log(0.05)

        def mean(self, s):
            return pd_controller_action(s)

    return PdGaussian()


def cmd_train(config: ExperimentConfig, model_path, out_dir=None) -> TrainResult:
    """Phase 2: maximum-occupancy-entropy RL against the learned density."""
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    density_model = load_density_model(model_path)
    if density_model.kind != config.density_kind:
        raise ValueError(f"checkpoint kind {density_model.kind!r} does not match "
                         f"config density_kind {config.density_kind!r}")
    bundle = get_env(config.env, config.gamma)
    if bundle.kind == "tabular":
        return _train_tabular(config, bundle, density_model, out)
    return _train_continuous(config, bundle, density_model, out)


def cmd_eval(config: ExperimentConfig, policy_path, out_dir=None) -> dict:
    """Structured evaluation summary for a trained policy checkpoint."""
    bundle = get_env(config.env, config.gamma)
    if bundle.kind == "tabular":
        from .checkpoint import load_softmax_policy
        policy, header = load_softmax_policy(policy_path)
        mdp = bundle.mdp
        expert = bundle.expert()
        mean, stderr = evaluate_return(policy, mdp, n_episodes=config.eval_episodes,
                                       seed=config.seed)
        norm_kl = evaluate_policy_kl(policy, expert, mdp, config.n_eval_states,
                                     seed=config.seed, episode_len=config.rollout_len)
        from .occupancy import reverse_kl_occupancy
        rev_kl = reverse_kl_occupancy(occupancy_measure(mdp, policy),
                                      occupancy_measure(mdp, expert))
        summary = {"env_return_mean": float(mean), "env_return_stderr": float(stderr),
                   "exact_env_return": float(exact_discounted_return(mdp, policy)),
                   "normalized_kl": float(norm_kl),
                   "occupancy_reverse_kl": float(rev_kl),
                   "config_hash": config.hash(), "seed": config.seed,
                   "checkpoint": str(policy_path)}
    else:
        from .checkpoint import load_gaussian_policy
        policy, header = load_gaussian_policy(policy_path)
        env = bundle.env
        mean, stderr = evaluate_return(policy, env, n_episodes=config.eval_episodes,
                                       seed=config.seed)
        norm_kl = evaluate_policy_kl(policy, _pd_as_gaussian(env, config.seed), env,
                                     config.n_eval_states, seed=config.seed,
                                     episode_len=env.spec.episode_len)
        summary = {"env_return_mean": float(mean), "env_return_stderr": float(stderr),
                   "normalized_kl": float(norm_kl),
                   "config_hash": config.hash(), "seed": config.seed,
                   "checkpoint": str(policy_path)}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return summary


def run_full_pipeline(config: ExperimentConfig, out_dir=None) -> dict:
    """gen-demos -> fit-density -> train -> eval, one seed, one directory."""
    out = Path(out_dir or config.out_dir)
    demos = cmd_gen_demos(config, out)
    model = cmd_fit_density(config, demos, out)
    result = cmd_train(config, model, out)
    summary = cmd_eval(config, result.policy_path, out)
    summary["train"] = result.summary
    return summary
