"""The one-rollout-path rule: only ``mdp.py`` calls ``sample_trajectory``.
Every other module rolls its episodes, tabular or continuous, through one
``sample_trajectories`` call, so no caller keeps a per-kind or per-episode
rollout loop of its own."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ndilab").glob("*.py"))


def single_rollout_calls(path):
    """Lines of every call to a function named ``sample_trajectory`` in one
    file, called by bare name or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "sample_trajectory":
                yield node.lineno


def test_every_source_file_is_checked():
    assert {"mdp.py", "imitation.py", "pipeline.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "mdp.py"], ids=lambda p: p.name)
def test_only_mdp_calls_sample_trajectory(path):
    assert [f"{path.name}:{line}" for line in single_rollout_calls(path)] == []


def test_guard_flags_both_call_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("sample_trajectory(env, pi, 5, 0)\n"
                     "mdp.sample_trajectory(env, pi, 5, 1)\n"
                     "sample_trajectories(env, pi, 5, [0, 1])\n"
                     "f = sample_trajectory\n")
    assert list(single_rollout_calls(probe)) == [1, 2]
