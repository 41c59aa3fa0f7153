"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

Protocol: the worker prints ``ready`` once set-up is done (``ndilab``
imported from this checkout's ``src`` and the workload config loaded), then,
unless ``--setup-only``, runs the workload closed-loop: one work item at a
time, each on the next seed, until the next item would end after
``--seconds``. The last line of its output is one JSON object with the
items, the correctness verdict and the environment.

A work item is one seed of a pipeline workload (``gen-demos``,
``fit-density``, ``train``, ``eval`` through ``ndilab.cli.main``) or one pass
of every verification suite. With ``--trace 1`` each item runs twice on the
same seed and output directory, untraced and then traced; the two outputs
must match byte for byte.
"""
from __future__ import annotations

import os

# The machine is shared and small: pin native thread pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import SpeedProbe  # noqa: E402
from tracer import PHASES, TARGETS, Tracer, metric_name  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
PIPELINE_CONFIGS = {"grid-made": "configs/grid-made.cfg",
                    "pointmass-ebm": "configs/pointmass-ebm.cfg"}
WORKLOADS = (*PIPELINE_CONFIGS, "verify-all")
PIPELINE_PHASES = ("gen-demos", "fit-density", "train", "eval")
# Files a pipeline phase writes whose size is a layer metric, by writer.
WRITTEN_FILES = {"demos.save_demos": "demos.csv",
                 "checkpoint.save_density_model": "model.ckpt",
                 "checkpoint.save_softmax_policy": "policy.ckpt",
                 "checkpoint.save_gaussian_policy": "policy.ckpt"}
FALLBACK_MESSAGE = "falling back to pooled replay sampling"
# Criterion 9 of the acceptance suite, applied to every grid-made seed.
GRID_MAX_KL_SHARE = 0.1
GRID_MIN_RETURN_RATIO = 0.95


@dataclass
class Item:
    """One work item: its timings, outputs and gate problems."""

    seed: int
    wall_s: float = math.nan
    factor: float = 1.0  # raw seconds to reference seconds, see hostspeed
    phases: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def set_up(workload: str) -> Path | None:
    """Import ndilab from this checkout and load the workload config;
    return the config path (None for verify-all)."""
    sys.path.insert(0, str(ROOT / "src"))
    import ndilab
    if Path(ndilab.__file__).resolve().parent != ROOT / "src" / "ndilab":
        raise ImportError(f"ndilab imported from {ndilab.__file__}, not from this checkout")
    if workload == "verify-all":
        import ndilab.verify  # noqa: F401
        return None
    import ndilab.cli  # noqa: F401
    import ndilab.pipeline  # noqa: F401
    from ndilab.config import load_config
    config_path = ROOT / PIPELINE_CONFIGS[workload]
    load_config(config_path)
    return config_path


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "metrics.csv":  # wallclock is the one column allowed to differ
        rows = [line.split(",") for line in data.decode().splitlines()]
        col = rows[0].index("wallclock")
        data = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows).encode()
    return hashlib.sha256(data).hexdigest()


def run_pipeline_item(config_path: Path, seed: int, out: Path) -> Item:
    """gen-demos -> fit-density -> train -> eval on one seed via the CLI."""
    from ndilab import cli
    item = Item(seed)
    start = time.perf_counter()
    for phase in PIPELINE_PHASES:
        argv = [phase, "--config", str(config_path), "--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        item.phases[phase] = time.perf_counter() - t0
        if code != 0:
            item.problems.append(f"seed {seed}: {phase} exited with {code}")
            return item
    item.wall_s = time.perf_counter() - start
    evaluation = json.loads((out / "eval_summary.json").read_text())
    train = json.loads((out / "train_summary.json").read_text())
    header, *rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
    logged = [float(cell) for row in rows for name, cell in zip(header, row)
              if name != "config_hash"]
    item.values = {"normalized_kl": evaluation["normalized_kl"],
                   "env_steps": train["env_steps"],
                   "eval": evaluation,
                   "logged": logged,
                   "sizes": {p.name: p.stat().st_size for p in out.iterdir()}}
    item.fingerprint = {p.name: _file_digest(p) for p in sorted(out.iterdir())}
    return item


def run_verify_item(seed: int) -> Item:
    """Every verification suite once; of n suites, suite i runs on fixture
    seed n * seed + i."""
    from ndilab import verify
    item = Item(seed)
    results = []
    start = time.perf_counter()
    for i, name in enumerate(verify.SUITE_NAMES):
        suite = getattr(verify, "verify_" + name.replace("-", "_"))
        t0 = time.perf_counter()
        results.append(suite(seed=len(verify.SUITE_NAMES) * seed + i))
        item.phases[name] = time.perf_counter() - t0
    item.wall_s = time.perf_counter() - start
    item.values = {"n_checks": sum(r.n_checks for r in results)}
    for r in results:
        item.problems.extend(f"seed {seed}: {r.name}: {v}" for v in r.violations)
    expected = [(r.name, e) for r in results for e in r.expected_failures]
    if len(expected) != 1 or expected[0][0] != "theorem1":
        item.problems.append(f"seed {seed}: expected one documented failure in theorem1, "
                             f"got {expected}")
    record = [(r.name, r.n_checks, r.violations, r.expected_failures,
               getattr(r, "history", None)) for r in results]
    item.fingerprint = {"suites": hashlib.sha256(repr(record).encode()).hexdigest()}
    return item


def grid_reference(config_path: Path) -> dict:
    """Expert return and uniform-policy occupancy KL for criterion 9."""
    from ndilab.config import load_config
    from ndilab.envs import get_env
    from ndilab.imitation import exact_discounted_return
    from ndilab.mdp import SoftmaxPolicy
    from ndilab.occupancy import occupancy_measure, reverse_kl_occupancy
    config = load_config(config_path)
    bundle = get_env(config.env, config.gamma)
    expert = bundle.expert()
    uniform = SoftmaxPolicy.uniform(bundle.mdp.n_states, bundle.mdp.n_actions)
    return {"expert_return": exact_discounted_return(bundle.mdp, expert),
            "kl_uniform": reverse_kl_occupancy(occupancy_measure(bundle.mdp, uniform),
                                               occupancy_measure(bundle.mdp, expert))}


def check_pipeline_item(item: Item, reference: dict | None) -> None:
    """Criterion 9 on grid-made; finite eval summary and metrics.csv everywhere."""
    if not item.values:
        return
    evaluation = item.values["eval"]
    numbers = [v for v in evaluation.values() if isinstance(v, (int, float))]
    if not all(math.isfinite(v) for v in numbers + item.values["logged"]):
        item.problems.append(f"seed {item.seed}: non-finite value in eval_summary.json "
                             f"or metrics.csv")
    if reference is not None:
        kl = evaluation["occupancy_reverse_kl"]
        ratio = evaluation["exact_env_return"] / reference["expert_return"]
        if not kl <= GRID_MAX_KL_SHARE * reference["kl_uniform"]:
            item.problems.append(f"seed {item.seed}: occupancy KL {kl} above "
                                 f"{GRID_MAX_KL_SHARE} x uniform {reference['kl_uniform']}")
        if not ratio >= GRID_MIN_RETURN_RATIO:
            item.problems.append(f"seed {item.seed}: return ratio {ratio} below "
                                 f"{GRID_MIN_RETURN_RATIO}")


class FallbackCounter(logging.Handler):
    """Counts the replay buffer's pooled-sampling fallback warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if FALLBACK_MESSAGE in record.getMessage():
            self.count += 1


class Runner:
    """Runs work items of one workload into a scratch directory."""

    def __init__(self, workload: str, config_path: Path | None, out_root: Path):
        self.workload = workload
        self.config_path = config_path
        self.out_root = out_root

    def run(self, seed: int) -> Item:
        out = self.out_root / f"seed{seed}"
        if out.exists():
            shutil.rmtree(out)
        try:
            with SpeedProbe() as probe:
                if self.workload == "verify-all":
                    item = run_verify_item(seed)
                else:
                    item = run_pipeline_item(self.config_path, seed, out)
        except Exception as err:  # a crash is a failed operation; keep measuring
            return Item(seed, problems=[f"seed {seed}: {type(err).__name__}: {err}"])
        if math.isfinite(item.wall_s):
            item.factor = probe.factor(item.wall_s)
        return item

    def check(self, items: list[Item]) -> None:
        if self.workload == "verify-all":
            return
        reference = grid_reference(self.config_path) if self.workload == "grid-made" else None
        for item in items:
            check_pipeline_item(item, reference)


def closed_loop(seed: int, seconds: float, work) -> list:
    """Call ``work(seed + k)`` for k = 0, 1, ... while the next call is
    expected to end within ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(work(seed + len(results)))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results


def summary(values: list[float]) -> dict:
    """Median, and the highest of p50/p90/p99 with at least ten samples
    beyond it (None when there are fewer than 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"value": statistics.median(ordered), "stat": "median", "n": n,
           "p": None, "p_value": None}
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            out["p"] = p
            out["p_value"] = ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
            break
    return out


def end_to_end(workload: str, items: list[Item]) -> dict:
    """Per-item figures of the untraced run, summarized; unit per metric.
    Times are in reference seconds (see hostspeed) unless named raw_."""
    done = [it for it in items if math.isfinite(it.wall_s)]
    if not done:
        return {}
    table = {"wall_s": ("s", [it.wall_s * it.factor for it in done]),
             "raw_wall_s": ("s", [it.wall_s for it in done]),
             "host_slowdown": ("ratio", [1.0 / it.factor for it in done])}
    if workload == "verify-all":
        rates = [it.values["n_checks"] / (it.wall_s * it.factor) for it in done]
        table["checks_per_s"] = ("1/s", rates)
        for name in done[0].phases:
            table[f"suite.{name}_s"] = ("s", [it.phases[name] * it.factor for it in done])
    else:
        rates = [it.values["env_steps"] / (it.phases["train"] * it.factor) for it in done]
        for phase in PIPELINE_PHASES:
            table[phase.replace("-", "_") + "_s"] = ("s", [it.phases[phase] * it.factor
                                                          for it in done])
        table["env_steps_per_s"] = ("1/s", rates)
    table["work_per_s"] = ("1/s", rates)
    report = {name: {"unit": unit, **summary(vals)} for name, (unit, vals) in table.items()}
    if workload != "verify-all":
        kls = [it.values["normalized_kl"] for it in done]
        report["normalized_kl"] = {"unit": "ratio", "value": statistics.mean(kls),
                                   "stat": "mean", "n": len(kls), "p": None, "p_value": None}
    return report


def layer_metrics(pairs: list[tuple[Item, Item, Tracer, FallbackCounter]]) -> dict:
    """Per-layer figures of a traced run.

    Counts and file sizes come from the first traced item (the workload
    seed), so they repeat exactly; times are medians over traced items, in
    reference seconds.
    """
    _, first, first_tracer, first_counter = pairs[0]
    metrics = {}
    for module, qualname in TARGETS:
        name = metric_name(module, qualname)
        metrics[f"{name}.calls"] = (first_tracer.stats[name][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(t.stats[name][2] * traced.factor
                                                       for _, traced, t, _ in pairs), "s")
        if name in PHASES:
            metrics[f"{name}.total_s"] = (statistics.median(t.stats[name][1] * traced.factor
                                                            for _, traced, t, _ in pairs), "s")
    for writer, filename in WRITTEN_FILES.items():
        written = first_tracer.stats[writer][0] > 0
        size = first.values.get("sizes", {}).get(filename, 0) if written else 0
        metrics[f"{writer}.bytes"] = (size, "B")
    metrics["imitation.replay_fallback.count"] = (first_counter.count, "count")
    metrics["trace_overhead"] = (statistics.median(
        (traced.wall_s * traced.factor) / (plain.wall_s * plain.factor)
        for plain, traced, _, _ in pairs), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced_pair(runner: Runner, seed: int):
    """The same seed untraced, then traced; outputs must match byte for byte."""
    plain = runner.run(seed)
    counter = FallbackCounter()
    logger = logging.getLogger("ndilab")
    logger.addHandler(counter)
    try:
        with Tracer() as tracer:
            traced = runner.run(seed)
    finally:
        logger.removeHandler(counter)
    if plain.fingerprint != traced.fingerprint:
        traced.problems.append(f"seed {seed}: traced outputs differ from untraced outputs")
    return plain, traced, tracer, counter


def environment(seed: int) -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    config_path = set_up(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    OUT_ROOT.mkdir(exist_ok=True)
    out_root = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, config_path, out_root)
    try:
        if args.trace:
            pairs = closed_loop(args.seed, args.seconds, lambda s: traced_pair(runner, s))
            items = [item for plain, traced, _, _ in pairs for item in (plain, traced)]
        else:
            items = closed_loop(args.seed, args.seconds, runner.run)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    runner.check(items)

    result = {"items": [{"seed": it.seed, "raw_wall_s": it.wall_s, "factor": it.factor,
                         "raw_phases": it.phases} for it in items],
              "attempted": len(items),
              "failed": sum(1 for it in items if it.problems),
              "problems": [p for it in items for p in it.problems],
              "env": environment(args.seed)}
    if args.trace:
        result["layers"] = layer_metrics(pairs)
        trace_path = OUT_ROOT / f"trace-{args.workload}.jsonl"  # latest run only: tens of MB
        pairs[0][2].write_spans(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        result["end_to_end"] = end_to_end(args.workload, items)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
