"""Tests of the benchmark harness itself, on shrunken configs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracer import TARGETS, metric_name  # noqa: E402

ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Overrides appended to the workload configs; later keys win.
SHRINK = {
    "grid-made": {"density_epochs": 10, "rl_iterations": 3, "rollouts_per_iter": 4,
                  "eval_episodes": 4, "n_eval_states": 40},
    "pointmass-ebm": {"n_demo_trajectories": 2, "density_epochs": 3, "sac_steps": 300,
                      "sac_batch": 32, "eval_every": 150, "eval_episodes": 4,
                      "n_eval_states": 40},
}


@pytest.fixture(scope="module", autouse=True)
def ndilab_loaded():
    worker.set_up("grid-made")
    worker.set_up("verify-all")


def shrunken_runner(workload: str, tmp_path: Path) -> worker.Runner:
    text = (ROOT / worker.PIPELINE_CONFIGS[workload]).read_text()
    text += "".join(f"{k} = {v}\n" for k, v in SHRINK[workload].items())
    config_path = tmp_path / f"{workload}.cfg"
    config_path.write_text(text)
    return worker.Runner(workload, config_path, tmp_path / "runs")


@pytest.mark.parametrize("workload", ["grid-made", "pointmass-ebm"])
def test_traced_pipeline_outputs_match_untraced(workload, tmp_path):
    runner = shrunken_runner(workload, tmp_path)
    plain, traced, tracer, _ = worker.traced_pair(runner, seed=3)
    assert not plain.problems and not traced.problems
    assert {"model.ckpt", "policy.ckpt", "metrics.csv"} <= set(plain.fingerprint)
    assert plain.fingerprint == traced.fingerprint
    assert tracer.stats["pipeline.cmd_train"][0] == 1


def test_traced_verify_outputs_match_untraced(tmp_path, monkeypatch):
    from ndilab import verify
    monkeypatch.setattr(verify, "SUITE_NAMES", ("lemma1", "theorem1", "nwj"))
    runner = worker.Runner("verify-all", None, tmp_path)
    plain, traced, tracer, _ = worker.traced_pair(runner, seed=5)
    assert not plain.problems and not traced.problems
    assert plain.fingerprint == traced.fingerprint
    assert tracer.stats["verify.verify_theorem1"][0] == 1
    assert tracer.stats["autodiff.backward"][0] == 0


def test_call_counts_repeat_exactly(tmp_path):
    runner = shrunken_runner("grid-made", tmp_path)
    counts = []
    for _ in range(2):
        _, _, tracer, _ = worker.traced_pair(runner, seed=1)
        counts.append({name: stat[0] for name, stat in tracer.stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["imitation.RbfCritic.value"] > 0


def test_tracer_restores_every_binding():
    from ndilab import imitation, pipeline
    before = (pipeline.reward_f, imitation.RbfCritic.__dict__["value"])
    with worker.Tracer():
        assert pipeline.reward_f is not before[0]
        assert imitation.reward_f is pipeline.reward_f
    assert (pipeline.reward_f, imitation.RbfCritic.__dict__["value"]) == before


def test_self_time_excludes_wrapped_callees(tmp_path):
    runner = shrunken_runner("grid-made", tmp_path)
    _, _, tracer, _ = worker.traced_pair(runner, seed=2)
    calls, total, self_s = tracer.stats["pipeline.cmd_train"]
    assert 0 < self_s < total
    assert tracer.stats["imitation.reward_f"][2] < tracer.stats["imitation.reward_f"][1]


def test_layer_metric_names_match_benchmark_json(tmp_path):
    runner = shrunken_runner("grid-made", tmp_path)
    metrics = worker.layer_metrics([worker.traced_pair(runner, seed=0)])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert {metric_name(m, q) + ".calls" for m, q in TARGETS} <= set(declared)


def copy_checkout(dest: Path, with_program: bool) -> None:
    """What a checkout of the repository holds for the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    dirs = list(BENCHMARK["paths"]) + (["src", "configs"] if with_program else [])
    for path in dirs:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def test_run_prints_every_end_to_end_metric(tmp_path):
    copy_checkout(tmp_path, with_program=True)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "grid-made", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_program_sources(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "grid-made", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
