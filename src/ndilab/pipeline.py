"""The end-to-end pipeline: demonstration generation, density fitting,
maximum-occupancy-entropy RL with the augmented reward, and evaluation.

Both trainers reward r = log q(s, a) + lambda_f * r_f through
``imitation.augmented_reward``: the tabular trainer on the (S, A) tables,
the continuous one per transition. r_f is the Algorithm-1 NWJ term
(``imitation.reward_f``) with the configured gamma. The policy-entropy
weight lambda_pi is realized as the soft-RL temperature rather than added
to the reward; the two are equivalent and keep a single entropy knob. The
tabular soft-policy-iteration temperature starts at the configured
lambda_pi and, in auto mode, adapts after each iteration toward a target
entropy of 0.5 log|A|. SAC's entropy coefficient is lambda_pi in fixed mode;
in auto mode SAC tunes it from its own initial value (0.2) and the
configured lambda_pi is unused.

Model selection never reads the environment reward: the best checkpoint is
the one with the highest augmented return, and the metrics log makes that
auditable. Tabular runs score it exactly (the discounted expectation of r
plus lambda_pi times the policy entropy); point-mass runs take the sampled,
undiscounted episode sum of r over the same rolled-once episodes that give
the environment return.
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
    load_gaussian_policy,
    load_softmax_policy,
    save_density_model,
    save_gaussian_policy,
    save_softmax_policy,
)
from .config import ExperimentConfig
from .demos import DemoSet, load_demos, save_demos
from .density import MadeConfig, SsmConfig, ebm_fit, made_fit, smoothed_curve_is_monotone
from .envs import ContinuousEnvBundle, TabularEnvBundle, get_env
from .imitation import (
    RbfCritic,
    SacConfig,
    SacLearner,
    TimestepReplayBuffer,
    augmented_reward,
    evaluate_policy_kl,
    evaluate_return,
    exact_discounted_return,
    nwj_reward,
    policy_kl_baseline,
    reward_f,
    soft_policy_iteration,
)
from .mdp import GaussianPolicy, SoftmaxPolicy, sample_trajectories
from .occupancy import occupancy_measure, reverse_kl_occupancy

# residual at which the tabular trainer's soft policy iteration stops
SPI_TOL = 1e-9

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
    bundle = get_env(config.env, config.gamma, config.expert_tau)
    expert = bundle.expert()
    n, T = config.n_demo_trajectories, config.demo_len
    batch = sample_trajectories(bundle.dynamics, expert, T,
                                [config.seed * 9973 + ep for ep in range(n)])
    # one row per step, episode after episode
    states = batch.states.reshape(n * T, *batch.states.shape[2:])
    actions = batch.actions.reshape(n * T, *batch.actions.shape[2:])
    if bundle.kind == "tabular":
        states = bundle.embedding.state_coords[states]
        actions = bundle.embedding.action_coords[actions]
        expert_return = exact_discounted_return(bundle.mdp, expert)
        descriptor = f"soft-optimal(tau={bundle.expert_tau})"
    else:
        expert_return, _, _ = evaluate_return(expert, bundle.env,
                                              n_episodes=config.eval_episodes, seed=config.seed)
        descriptor = "pd-controller"
    demos = DemoSet(states, actions, np.repeat(np.arange(n), T), np.tile(np.arange(T), n),
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
    bundle = get_env(config.env, config.gamma, config.expert_tau)
    if bundle.kind == "tabular":
        want = (bundle.embedding.state_coords.shape[1], bundle.embedding.action_coords.shape[1])
    else:
        want = (bundle.env.state_dim, bundle.env.action_dim)
    got = (demos.state_dim, demos.action_dim)
    if got != want:
        raise ValueError(f"{demos_path}: demos have (state, action) dims {got}, "
                         f"but env {config.env} has {want}")
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


def _policy_entropy_weighted(occ, policy) -> float:
    """Occupancy-weighted mean per-state policy entropy (normalized weights);
    ``occ`` is the occupancy measure of ``policy``."""
    w = occ.state_marginal() / occ.mass
    probs, logp = policy.probs(), policy.log_probs()
    ent = -(probs * np.where(probs > 0, logp, 0.0)).sum(axis=1)
    return float(w @ ent)


def _train_tabular(config: ExperimentConfig, bundle: TabularEnvBundle, density_model):
    mdp, embed = bundle.mdp, bundle.embedding
    S, A = mdp.n_states, mdp.n_actions
    expert = bundle.expert()

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
    zstate = (embed.state_coords - smean) / sstd

    critic = RbfCritic(bandwidth=1.0)
    buffer = TimestepReplayBuffer(config.rollout_len, ds, config.buffer_capacity, config.seed)
    pair_rng = np.random.default_rng(config.seed + 101)
    lambda_pi = config.lambda_pi
    target_entropy = 0.5 * math.log(A)   # half the uniform policy's entropy
    policy = SoftmaxPolicy.uniform(S, A)

    T, k = config.rollout_len, config.rollouts_per_iter
    steps = np.arange(T + 1)   # each rollout's replay timesteps, s_0..s_T
    pair_steps = np.arange(0, T, 4)
    rows = []
    best = None
    env_steps = 0
    t0 = time.time()
    for it in range(config.rl_iterations):
        batch = sample_trajectories(mdp, policy, T,
                                    [config.seed * 31337 + it * 131 + j for j in range(k)])
        visited = np.concatenate([batch.states, batch.next_states[:, -1:]], axis=1)
        for path in zstate[visited]:   # one write per rollout, in rollout order
            buffer.add(steps, path)
        env_steps += batch.states.size
        # refresh the critic normalizer from independent bucket pairs
        pairs = buffer.pairs(pair_steps, 4, pair_rng)
        if len(pairs):
            critic.observe_pairs(pairs)

        # r_f table: visitation-averaged over fresh transitions, pooled fallback;
        # one reward_f call for the batch, and add.at sums each cell's values
        # in visit order, rollout after rollout
        vals = reward_f(critic, zstate[batch.states], zstate[batch.next_states], buffer,
                        np.broadcast_to(steps[:-1], batch.states.shape), mdp.discount,
                        config.n_marginal_samples)
        cells = (batch.states.ravel(), batch.actions.ravel())
        r_f_sum = np.zeros((S, A))
        r_f_count = np.zeros((S, A))
        np.add.at(r_f_sum, cells, vals.ravel())
        np.add.at(r_f_count, cells, 1.0)
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
                pool_samples, pool_samples, mdp.discount)

        reward_table = augmented_reward(logq, r_f_table, config.lambda_f)
        policy = soft_policy_iteration(mdp, temperature=max(lambda_pi, 1e-6),
                                       reward=reward_table, tol=SPI_TOL)

        occ = occupancy_measure(mdp, policy)
        aug_return = float((occ.rho * reward_table).sum()) \
            + lambda_pi * -(occ.rho * policy.log_probs()).sum()
        env_return = float((occ.rho * mdp.reward).sum())
        norm_kl = evaluate_policy_kl(policy, expert, mdp, config.n_eval_states,
                                     seed=config.seed + it,
                                     episode_len=config.rollout_len)
        rows.append((it, env_steps, float(aug_return), float(env_return),
                     float(norm_kl), float(lambda_pi), time.time() - t0,
                     config.hash(), config.seed))
        if best is None or aug_return > best[0]:
            best = (aug_return, it, policy)

        if config.lambda_pi_mode == "auto":
            entropy = _policy_entropy_weighted(occ, policy)
            lambda_pi = float(np.clip(lambda_pi * math.exp(0.5 * (target_entropy - entropy)),
                                      1e-4, 10.0))

    return best[2], {"chosen_iteration": best[1]}, rows, {
        "best_augmented_return": float(best[0]), "iterations": config.rl_iterations,
        "env_steps": env_steps}


def _train_continuous(config: ExperimentConfig, bundle: ContinuousEnvBundle, density_model):
    env, expert = bundle.env, bundle.expert()
    std = density_model.standardizer
    ds = env.state_dim

    def zstate(s):
        return (np.asarray(s) - std.mean[:ds]) / std.std[:ds]

    critic = RbfCritic(bandwidth=1.0)
    episode_len = env.spec.episode_len
    buffer = TimestepReplayBuffer(episode_len, ds, config.buffer_capacity, config.seed)
    sac = SacLearner(env.state_dim, env.action_dim,
                     SacConfig(gamma=config.gamma, lr=config.sac_lr,
                               lr_alpha=config.sac_lr, batch_size=config.sac_batch,
                               hidden=(32, 32), seed=config.seed))
    if config.lambda_pi_mode == "fixed":
        sac.log_alpha[:] = math.log(max(config.lambda_pi, 1e-8))
        sac.opt_alpha.lr = 0.0

    def augmented_episode(states, actions, next_states, timesteps):
        # log q one row per step, r_f in one reward_f call over the steps
        # of one episode (or of one training step, as one-step arrays)
        log_q = np.array([density_model.log_density(np.concatenate([s, a]))
                          for s, a in zip(states, actions)])
        r_f = reward_f(critic, zstate(states), zstate(next_states), buffer, timesteps,
                       config.gamma, config.n_marginal_samples)
        return augmented_reward(log_q, r_f, config.lambda_f)

    rng = np.random.default_rng(config.seed)
    rows = []
    best = None
    # every evaluation scores the policy on the same state count and seed,
    # so the random-policy KL it is normalized by is one number per run
    n_kl_states = max(1, config.n_eval_states // 4)
    kl_baseline = policy_kl_baseline(expert, env, n_kl_states, seed=config.seed,
                                     episode_len=episode_len)
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
            pairs = buffer.pairs(t_in_ep, 2, rng)
            if len(pairs):
                critic.observe_pairs(pairs)
        r_bar = float(augmented_episode([s], [a], [s2], np.array([t_in_ep]))[0])
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
            # reward_f draws on the replay generator; evaluation must not move it
            replay_state = buffer.rng.bit_generator.state
            env_mean, _, aug_mean = evaluate_return(
                sac.policy, env, n_episodes=max(2, config.eval_episodes // 4),
                seed=config.seed + env_steps, reward_fn=augmented_episode)
            buffer.rng.bit_generator.state = replay_state
            norm_kl = evaluate_policy_kl(sac.policy, expert, env, n_kl_states, seed=config.seed,
                                         episode_len=episode_len, baseline=kl_baseline)
            rows.append((len(rows), env_steps, float(aug_mean), float(env_mean),
                         float(norm_kl), sac.alpha, time.time() - t0,
                         config.hash(), config.seed))
            if best is None or aug_mean > best[0]:
                best = (aug_mean, env_steps, _copy_gaussian(sac.policy))

    return best[2], {"chosen_env_steps": best[1]}, rows, {
        "best_augmented_return": float(best[0]), "env_steps": env_steps}


def _copy_gaussian(policy):
    widths = policy.mean_net.widths
    clone = GaussianPolicy(policy.state_dim, policy.action_dim,
                           hidden=tuple(widths[1:-1]))
    clone.flat[...] = policy.flat
    return clone


def cmd_train(config: ExperimentConfig, model_path, out_dir=None) -> TrainResult:
    """Phase 2: maximum-occupancy-entropy RL against the learned density.

    Writes the policy with the best augmented return, ``metrics.csv`` (one
    row per evaluation) and ``train_summary.json``.
    """
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    density_model = load_density_model(model_path)
    if density_model.kind != config.density_kind:
        raise ValueError(f"checkpoint kind {density_model.kind!r} does not match "
                         f"config density_kind {config.density_kind!r}")
    bundle = get_env(config.env, config.gamma, config.expert_tau)
    if bundle.kind == "tabular":
        train, save_policy = _train_tabular, save_softmax_policy
    else:
        train, save_policy = _train_continuous, save_gaussian_policy
    # the chosen policy, the key naming its evaluation, the metrics rows and
    # the run's summary figures
    policy, chosen, rows, results = train(config, bundle, density_model)
    stamp = {"config_hash": config.hash(), "seed": config.seed,
             "selection_rule": "augmented_return", **chosen}
    policy_path = out / "policy.ckpt"
    save_policy(policy_path, policy, extra=stamp)
    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, METRICS_COLUMNS, rows)
    summary = {**stamp, **results}
    (out / "train_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return TrainResult(policy_path, metrics_path, summary)


def cmd_eval(config: ExperimentConfig, policy_path, out_dir=None) -> dict:
    """Structured evaluation summary for a trained policy checkpoint: its
    sampled return and its normalized KL to the expert; tabular runs add the
    exact return and the occupancy reverse KL to the expert."""
    bundle = get_env(config.env, config.gamma, config.expert_tau)
    expert = bundle.expert()

    def check(got, want):
        if got != want:
            raise ValueError(f"{policy_path}: policy is for (states, actions) {got}, "
                             f"but env {config.env} has {want}")

    if bundle.kind == "tabular":
        mdp = bundle.mdp
        policy, _ = load_softmax_policy(policy_path)
        check(policy.logits.shape, (mdp.n_states, mdp.n_actions))
        occ = occupancy_measure(mdp, policy)
        exact = {"exact_env_return": float((occ.rho * mdp.reward).sum()),
                 "occupancy_reverse_kl": reverse_kl_occupancy(occ, occupancy_measure(mdp, expert))}
        episode_len = config.rollout_len
    else:
        env = bundle.env
        policy, _ = load_gaussian_policy(policy_path)
        check((policy.state_dim, policy.action_dim), (env.state_dim, env.action_dim))
        exact, episode_len = {}, env.spec.episode_len
    mean, stderr, _ = evaluate_return(policy, bundle.dynamics,
                                      n_episodes=config.eval_episodes, seed=config.seed)
    norm_kl = evaluate_policy_kl(policy, expert, bundle.dynamics, config.n_eval_states,
                                 seed=config.seed, episode_len=episode_len)
    summary = {"env_return_mean": float(mean), "env_return_stderr": float(stderr),
               "normalized_kl": float(norm_kl),
               "config_hash": config.hash(), "seed": config.seed,
               "checkpoint": str(policy_path), **exact}
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
