"""Out-of-program layer tracing for ndilab.

The tracer wraps named functions and methods of the ``ndilab`` modules from
outside the program: a module-level function is replaced in every ``ndilab``
module namespace that binds it (``pipeline`` imports ``reward_f`` by name,
``density`` imports ``backward`` and so on), and a method is replaced on its
class. ``uninstall`` puts every original object back.

Every wrapped call adds to its function's count, total time and self time
(total minus the time spent inside wrapped callees). Functions outside
``AGGREGATE_ONLY`` also record one span per call, ``(id, parent id, name,
start, end)``, kept in memory until the caller writes them out. The process
is single-threaded, so one call stack serves every wrapper.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "ndilab"

# (module, qualified name) of every traced function, grouped by layer.
TARGETS = (
    ("imitation", "reward_f"),
    ("imitation", "RbfCritic.value"),
    ("imitation", "RbfCritic.observe_pairs"),
    ("imitation", "TimestepReplayBuffer.add"),
    ("imitation", "TimestepReplayBuffer.sample"),
    ("imitation", "TimestepReplayBuffer.pooled"),
    ("imitation", "soft_policy_iteration"),
    ("imitation", "SacLearner.step"),
    ("imitation", "SacLearner.add_transition"),
    ("imitation", "evaluate_policy_kl"),
    ("imitation", "evaluate_return"),
    ("autodiff", "backward"),
    ("autodiff", "Mlp.forward"),
    ("autodiff", "adam_step"),
    ("autodiff", "Mlp.refresh_spectral_norm"),
    ("density", "made_fit"),
    ("density", "ebm_fit"),
    ("density", "ssm_loss"),
    ("density", "EbmModel.value_and_input_grad"),
    ("density", "MadeModel.log_density"),
    ("density", "MadeModel.log_density_batch"),
    ("density", "EbmModel.log_density"),
    ("occupancy", "occupancy_measure"),
    ("occupancy", "resolve_critic_schedule"),
    ("occupancy", "consecutive_state_joint"),
    ("occupancy", "optimal_critic_table"),
    ("occupancy", "saelbo"),
    ("occupancy", "saelbo_value"),
    ("occupancy", "discounted_policy_gradient"),
    ("mdp", "sample_trajectory"),
    ("mdp", "TabularMdp.policy_transition_matrix"),
    ("mdp", "state_marginals"),
    ("envs", "get_env"),
    ("envs", "soft_optimal_policy"),
    ("envs", "PointMassEnv.step"),
    ("checkpoint", "save_density_model"),
    ("checkpoint", "load_density_model"),
    ("checkpoint", "save_softmax_policy"),
    ("checkpoint", "save_gaussian_policy"),
    ("demos", "save_demos"),
    ("demos", "load_demos"),
    ("pipeline", "cmd_gen_demos"),
    ("pipeline", "cmd_fit_density"),
    ("pipeline", "cmd_train"),
    ("pipeline", "cmd_eval"),
    ("verify", "verify_lemma1"),
    ("verify", "verify_lemma2"),
    ("verify", "verify_theorem1"),
    ("verify", "verify_theorem2"),
    ("verify", "verify_corollary1"),
    ("verify", "verify_nwj"),
    ("verify", "verify_coordinate_ascent"),
)

# Phase spans: their total time is reported too, to tie layers to wall time.
PHASES = tuple(f"{m}.{q}" for m, q in TARGETS if m in ("pipeline", "verify"))

# Called 100 k times or more in one work item on some workload: counted and
# timed, but not recorded as one span per call.
AGGREGATE_ONLY = frozenset({"imitation.RbfCritic.value"})


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Counts, total and self time per traced function, plus call spans.

    Use as a context manager around the traced work; the wrappers are in
    place only inside the ``with`` block.
    """

    def __init__(self):
        self.stats = {metric_name(m, q): [0, 0.0, 0.0] for m, q in TARGETS}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _ in TARGETS}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module, qualname in TARGETS:
            name = metric_name(module, qualname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = None if name in AGGREGATE_ONLY else self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if spans is None:
                frame = [0.0, parent[1] if parent else None]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if spans is not None:
                    spans.append((frame[1], parent[1] if parent else None, name, start, end))

        return wrapper

    def write_spans(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")
