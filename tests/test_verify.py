"""Tests for the verification suites' shared marginal schedules: coordinate
ascent builds each policy's schedule once and lemma 2 builds one schedule
per fixture, with results byte-equal to the per-call versions."""
import numpy as np
import pytest

from ndilab import mdp as mdp_module
from ndilab import occupancy, verify
from ndilab.mdp import SoftmaxPolicy, state_marginals
from ndilab.occupancy import (
    _frozen_reward_tables,
    critic_horizon,
    discounted_policy_gradient,
    occupancy_measure,
    resolve_critic_schedule,
)
from ndilab.verify import (
    coordinate_ascent_objective,
    random_injective_mdp,
    verify_coordinate_ascent,
    verify_lemma2,
)


def loop_coordinate_ascent(n_alternations=200, seed=6, step_tol=1e-9):
    """The coordinate-ascent loop that recomputes every marginal schedule:
    each critic step, objective, reward table and gradient builds its own.
    Returns (history, violations)."""
    violations = []
    rng = np.random.default_rng(seed)
    mdp = random_injective_mdp(3, 2, 0.9, rng)
    expert = SoftmaxPolicy(rng.normal(0, 1.0, size=(3, 2)))
    log_rho_e = np.log(occupancy_measure(mdp, expert).rho)
    theta = rng.normal(0, 0.5, size=(3, 2))
    T = critic_horizon(mdp, 1e-10)

    def schedule(logits):
        return state_marginals(mdp, SoftmaxPolicy(logits), T + 1)

    tables, _ = resolve_critic_schedule(mdp, schedule(theta), "optimal", 1e-10)
    objective = coordinate_ascent_objective(mdp, schedule(theta), log_rho_e, tables, T)
    history = [objective]
    step = 0.5
    for k in range(n_alternations):
        tables, _ = resolve_critic_schedule(mdp, schedule(theta), "optimal", 1e-10)
        objective_f = coordinate_ascent_objective(mdp, schedule(theta), log_rho_e, tables, T)
        if objective_f < history[-1] - step_tol:
            violations.append(
                f"alternation {k} (seed {seed}): critic step decreased objective "
                f"{history[-1]} -> {objective_f}")
        history.append(objective_f)

        rewards = _frozen_reward_tables(mdp, schedule(theta), tables, T) + log_rho_e
        grad = discounted_policy_gradient(mdp, schedule(theta), rewards, T)
        trial = step
        for _ in range(40):
            cand = theta + trial * grad
            objective_pi = coordinate_ascent_objective(mdp, schedule(cand), log_rho_e, tables, T)
            if objective_pi >= objective_f - 1e-12:
                theta = cand
                step = min(trial * 2.0, 2.0)
                break
            trial *= 0.5
        else:
            objective_pi = objective_f
        if objective_pi < history[-1] - step_tol:
            violations.append(f"alternation {k} (seed {seed}): policy step decreased objective")
        history.append(objective_pi)
    return history, violations


def counting(monkeypatch, name, modules):
    """Replace ``name`` in each module with one wrapper that counts its calls."""
    calls = []
    original = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("seed", [6, 13])
def test_coordinate_ascent_matches_the_recomputing_loop(seed):
    result = verify_coordinate_ascent(n_alternations=40, seed=seed)
    history, violations = loop_coordinate_ascent(n_alternations=40, seed=seed)
    assert len(result.history) == 81
    assert np.array(result.history).tobytes() == np.array(history).tobytes()
    assert result.violations == violations


def test_coordinate_ascent_propagates_each_policy_once(monkeypatch):
    schedules = counting(monkeypatch, "state_marginals", [mdp_module, occupancy, verify])
    objectives = counting(monkeypatch, "coordinate_ascent_objective", [verify])
    n = 25
    verify_coordinate_ascent(n_alternations=n)
    # one objective before the loop and one per critic step; the rest are
    # line-search candidates, each a new policy with its own schedule
    candidates = len(objectives) - 1 - n
    assert candidates >= n
    assert len(schedules) == 1 + candidates


def test_lemma2_builds_one_schedule_per_fixture(monkeypatch):
    calls = counting(monkeypatch, "state_marginals", [mdp_module, occupancy, verify])
    result = verify_lemma2(n_mdps=4, max_t=12, seed=3)
    assert result.n_checks == 48 and result.passed
    assert [args[2] for args in calls] == [12] * 4
