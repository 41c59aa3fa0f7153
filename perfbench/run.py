"""ndilab benchmark: end-to-end run time, imitation quality and a traced
per-module layer profile on three closed-loop workloads.

    python3 perfbench/run.py --workload grid-made --seed 0 --seconds 30 --trace 0
    python3 -m pytest -q perfbench/test_perfbench.py   # the harness's own tests

Workloads (one caller, one process, no threads, phases in sequence; each
work item uses the next seed after the workload seed):

- ``grid-made``: ``configs/grid-made.cfg`` through gen-demos, fit-density,
  train and eval; the critic-reward loop dominates ``train``.
- ``pointmass-ebm``: ``configs/pointmass-ebm.cfg``, same phases; the autodiff
  engine under the soft actor-critic update dominates ``train``.
- ``verify-all``: every verification suite; only the exact occupancy and
  MDP layers work.

A run starts work items until the next one would end after ``--seconds``
(at least one). With ``--trace 0`` it prints, by name and unit, the median
over items of every end-to-end figure of the workload (wall, phase and suite
times, env steps or checks per second, normalized KL) with the sample count,
and the highest percentile that has ten samples beyond it once there are
enough. Times are reference seconds (see ``hostspeed``); ``raw_`` figures
are plain wall clock. The JSON result carries the figures defined on every
workload: ``wall_s`` (one work item), ``setup_s`` (process start to
ndilab imported and config loaded, median of ``SETUP_SAMPLES`` fresh
interpreters, the last of which runs the workload), ``work_per_s`` (env
steps per second of train, or checks per second) and ``peak_rss_mb``.

With ``--trace 1`` each item runs untraced and then traced on the same seed;
the outputs must match byte for byte. The run reports per-layer call counts,
self times and written file sizes (see ``tracer``) and writes the spans to
``.perfbench_out/``. A run is correct when every phase exits 0, grid-made
meets acceptance criterion 9, pipeline outputs are finite and verify-all
finds no violation and exactly its one documented expected failure.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import scale_from, time_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("grid-made", "pointmass-ebm", "verify-all")
SETUP_SAMPLES = 6
SPEED_SAMPLES = 20  # calibration loops timed before each set-up
# A run must end within 180 s; the worker is stopped before that.
WORKER_TIMEOUT_S = 170.0


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` line; return it with the
    raw seconds from process start to the end of its set-up, and the factor
    to reference seconds measured just before (see hostspeed)."""
    factor = scale_from([time_loop() for _ in range(SPEED_SAMPLES)])
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup_s, factor


def fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ndilab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ndilab").is_dir():
        print(f"error: no ndilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, seconds, factor = start_worker([*common, "--setup-only"])
            proc.communicate()
            setup.append((seconds, factor))
        proc, seconds, factor = start_worker([*common, "--seed", str(args.seed), "--seconds",
                                              str(args.seconds), "--trace", str(args.trace)])
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setup.append((seconds, factor))
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("error: worker exceeded its time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    result["setup"] = [{"raw_s": s, "factor": f} for s, f in setup]
    saved = ROOT / ".perfbench_out" / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    saved.parent.mkdir(exist_ok=True)
    saved.write_text(json.dumps(result, indent=1))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"full result in {saved.relative_to(ROOT)}")
    for item in result["items"]:
        print(f"item seed={item['seed']} factor={fmt(item['factor'])} "
              f"raw_wall_s={fmt(item['raw_wall_s'])} "
              + " ".join(f"raw_{k}={fmt(v)}" for k, v in item["raw_phases"].items()))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    if args.trace:
        metrics = result["layers"]
        print(f"spans written to {result['trace_file']}")
        for name, m in metrics.items():
            print(f"{name:<52} {fmt(m['value']):>14} {m['unit']}")
    else:
        table = result["end_to_end"]
        if "wall_s" not in table:
            print("error: no work item completed", file=sys.stderr)
            return 1
        for name, values in (("setup_s", [s * f for s, f in setup]),
                             ("raw_setup_s", [s for s, _ in setup])):
            table[name] = {"unit": "s", "value": statistics.median(values),
                           "stat": "median", "n": len(values), "p": None, "p_value": None}
        table["peak_rss_mb"] = {"unit": "MB", "value": result["peak_rss_mb"], "stat": "max",
                                "n": 1, "p": None, "p_value": None}
        print(f"{'metric':<24} {'value':>12} {'stat':>7} {'n':>4} {'pct':>4} "
              f"{'pct_value':>12}  unit")
        for name, m in table.items():
            print(f"{name:<24} {fmt(m['value']):>12} {m['stat']:>7} {m['n']:>4} "
                  f"{fmt(m['p']):>4} {fmt(m['p_value']):>12}  {m['unit']}")
        metrics = {name: {"value": table[name]["value"], "unit": table[name]["unit"]}
                   for name in ("wall_s", "setup_s", "work_per_s", "peak_rss_mb")}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
