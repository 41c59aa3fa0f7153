"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line and asserting at its stated tolerance and runtime budget.

Criteria 1-6 and 11 are exact-computation checks of the analysis; 7-8 are the
density-estimation targets; 9-10 run the pipeline end to end on the gridworld
fixture (criterion 10 ablates the MI reward weight on the energy-model
variant, whose Lipschitz-bounded density makes the trend observable at desk
scale).
"""
import math
import time

import numpy as np

from graph_reference import QuadraticEnergy, made_mask_max_fd, quadratic_hvp
from ndilab.config import ExperimentConfig
from ndilab.density import MadeConfig, SsmConfig, ebm_fit, made_fit
from ndilab.envs import get_env
from ndilab.imitation import exact_discounted_return
from ndilab.mdp import SoftmaxPolicy
from ndilab.occupancy import occupancy_measure, reverse_kl_occupancy
from ndilab.pipeline import run_full_pipeline
from ndilab.verify import (
    verify_coordinate_ascent,
    verify_corollary1,
    verify_lemma1,
    verify_lemma2,
    verify_nwj,
    verify_theorem1,
    verify_theorem2,
)


def report(number: int, name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_1_entropy_concavity(self):
        t0 = time.monotonic()
        result = verify_lemma1(n=1000)
        elapsed = time.monotonic() - t0
        ok = result.passed and elapsed < 5.0
        report(1, "entropy concavity", ok,
               f"{result.n_checks} randomized density pairs, "
               f"{len(result.violations)} violations at 1e-12, {elapsed:.2f}s")

    def test_criterion_2_conditional_entropy_identity(self):
        t0 = time.monotonic()
        result = verify_lemma2(n_mdps=20, max_t=30)
        elapsed = time.monotonic() - t0
        ok = result.passed and elapsed < 10.0
        report(2, "injective conditional-entropy identity", ok,
               f"20 random injective MDPs, t=1..30, "
               f"{len(result.violations)} violations at 1e-10, {elapsed:.2f}s")

    def test_criterion_3_corrected_entropy_lower_bound(self):
        result = verify_theorem1(n=50)
        ok = result.passed and len(result.expected_failures) == 1
        report(3, "constant-corrected entropy bound", ok,
               f"50 random triples at 1e-8, optimal critic dominates 10 random "
               f"critics per fixture; literal inequality fails on the 1-state "
               f"fixture as documented ({len(result.violations)} violations)")

    def test_criterion_4_variational_mi_bound(self):
        result = verify_nwj(n=1000)
        ok = result.passed
        report(4, "variational MI bound", ok,
               f"1000 joint/critic pairs: bound <= MI at 1e-12, equality at the "
               f"optimal critic within 1e-9 ({len(result.violations)} violations)")

    def test_criterion_5_gradient_identity(self):
        t0 = time.monotonic()
        result = verify_theorem2(n=5, rel_tol=1e-4)
        elapsed = time.monotonic() - t0
        ok = result.passed and elapsed < 60.0
        report(5, "gradient identity", ok,
               f"5 random 3-state/2-action injective MDPs with random critics, "
               f"FD (eps=1e-5) vs exact PG rel L2 < 1e-4, {elapsed:.2f}s")

    def test_criterion_6_distribution_matching_bound(self):
        result = verify_corollary1(n=50)
        report(6, "corrected distribution-matching bound", result.passed,
               f"50 random policy pairs at 1e-8 "
               f"({len(result.violations)} violations)")

    def test_criterion_7_made_density(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        rho = 0.8
        cov = np.array([[1.0, rho], [rho, 1.0]])
        X = rng.standard_normal((11_000, 2)) @ np.linalg.cholesky(cov).T
        train, held = X[:10_000], X[10_000:]
        model, _ = made_fit(train, MadeConfig(hidden=(64, 64), n_components=5,
                                              epochs=150, batch_size=256, lr=2e-3,
                                              seed=0))
        Zh = model.standardizer.transform(held)
        model_ll = float(model.log_density_batch(Zh).mean())
        inv, logdet = np.linalg.inv(cov), float(np.log(np.linalg.det(cov)))
        true_ll = float((-0.5 * np.einsum("bi,ij,bj->b", Zh, inv, Zh)
                         - 0.5 * logdet - math.log(2 * math.pi)).mean())
        gap = abs(model_ll - true_ll)
        mask_fd = max(made_mask_max_fd(model, x) for x in rng.normal(size=(5, 2)))
        elapsed = time.monotonic() - t0
        ok = gap < 0.1 and mask_fd < 1e-9 and elapsed < 120.0
        report(7, "autoregressive density", ok,
               f"held-out gap {gap:.4f} nat (< 0.1), mask sensitivity "
               f"{mask_fd:.2e} (< 1e-9), {elapsed:.1f}s")

    def test_criterion_8_ebm_score_matching(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10_000, 2))
        model, _ = ebm_fit(X, SsmConfig(n_slices=1, batch_size=256, epochs=80,
                                        lr=2e-3, seed=0, hidden=(64, 64)))
        test = rng.standard_normal((500, 2))
        Z = model.standardizer.transform(test)
        scores = model.value_and_input_grad(Z)[1]
        cos = float(np.mean((scores * -Z).sum(axis=1)
                            / (np.linalg.norm(scores, axis=1)
                               * np.linalg.norm(Z, axis=1) + 1e-12)))

        # FD Hessian-vector products (ssm_loss's fd_hvp) against the analytic
        # value on quadratics
        A = np.diag([1.0, 2.0, 0.5, 1.5, 0.7])
        quad = QuadraticEnergy(A)
        hvp_err = 0.0
        for _ in range(20):
            x, v = rng.normal(size=5), rng.normal(size=5)
            hvp_err = max(hvp_err, abs(quadratic_hvp(quad, x, v) - (-v @ A @ v)))

        # Hutchinson trace estimate on the 5-D quadratic within 3 stderr
        vs = rng.standard_normal((4000, 5))
        samples = np.array([quadratic_hvp(quad, np.zeros(5), v) for v in vs])
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        trace_gap = abs(samples.mean() - (-A.trace()))
        elapsed = time.monotonic() - t0
        ok = cos >= 0.95 and hvp_err < 1e-6 and trace_gap < 3 * stderr
        report(8, "energy model via sliced score matching", ok,
               f"score cosine {cos:.4f} (>= 0.95), FD-HVP error {hvp_err:.2e} "
               f"(< 1e-6), trace gap {trace_gap:.3f} vs 3*SE {3 * stderr:.3f}, "
               f"{elapsed:.1f}s")

    def test_criterion_9_end_to_end_gridworld(self):
        bundle = get_env("grid-5x5", 0.9)
        expert_return = exact_discounted_return(bundle.mdp, bundle.expert())
        rho_e = occupancy_measure(bundle.mdp, bundle.expert())
        uniform = SoftmaxPolicy.uniform(bundle.mdp.n_states, bundle.mdp.n_actions)
        kl_uniform = reverse_kl_occupancy(occupancy_measure(bundle.mdp, uniform), rho_e)

        details = []
        ok = True
        for seed in range(5):
            t0 = time.monotonic()
            cfg = ExperimentConfig(env="grid-5x5", seed=seed,
                                   out_dir=f"/tmp/ndilab_accept9/seed{seed}",
                                   n_demo_trajectories=1, density_kind="made",
                                   density_epochs=150, rl_iterations=20,
                                   lambda_pi_mode="fixed", lambda_pi=0.05,
                                   lambda_f=0.005)
            summary = run_full_pipeline(cfg)
            elapsed = time.monotonic() - t0
            rev_kl = summary["occupancy_reverse_kl"]
            ratio = summary["exact_env_return"] / expert_return
            seed_ok = (rev_kl <= 0.1 * kl_uniform and ratio >= 0.95
                       and elapsed < 300.0)
            ok = ok and seed_ok
            details.append(f"seed {seed}: KL {rev_kl:.2f}/{0.1 * kl_uniform:.2f}, "
                           f"return ratio {ratio:.3f}, {elapsed:.0f}s")
        report(9, "end-to-end imitation from one demonstration", ok, "; ".join(details))

    def test_criterion_10_mi_weight_ablation(self):
        kls = {}
        for lam_f in (0.005, 0.1):
            vals = []
            for seed in range(5):
                cfg = ExperimentConfig(env="grid-5x5", seed=seed,
                                       out_dir=f"/tmp/ndilab_accept10/{lam_f}_{seed}",
                                       density_kind="ebm", density_epochs=120,
                                       density_lr=2e-3, rl_iterations=20,
                                       lambda_pi_mode="fixed", lambda_pi=0.05,
                                       lambda_f=lam_f)
                vals.append(run_full_pipeline(cfg)["normalized_kl"])
            kls[lam_f] = float(np.mean(vals))
        ok = kls[0.1] > kls[0.005]
        report(10, "MI reward weight ablation", ok,
               f"mean normalized KL at 20x tuned weight {kls[0.1]:.3f} vs tuned "
               f"{kls[0.005]:.3f} (strictly worse across 5 seeds)")

    def test_criterion_11_non_adversarial_coordinate_ascent(self):
        result = verify_coordinate_ascent(n_alternations=200)
        drops = len(result.violations)
        ok = result.passed
        start, end = result.history[0], result.history[-1]
        report(11, "non-adversarial coordinate ascent", ok,
               f"200 alternations, objective {start:.4f} -> {end:.4f}, "
               f"{drops} monotonicity violations at 1e-9")
