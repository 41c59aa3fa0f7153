"""Command-line front end.

Subcommands: gen-demos, fit-density, train, eval, verify.
Exit codes: 0 success, 1 usage error or bad input file (ValueError, or
any OSError such as a missing, unreadable or directory path),
2 verification failure, 3 numerical divergence or failed solve
(RuntimeError).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import load_config
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_DIVERGENCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndi",
        description="Imitation via expert occupancy density estimation plus "
                    "maximum-occupancy-entropy RL, with exact verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", type=Path, required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=None, help="override the output directory")

    add_common(sub.add_parser("gen-demos", help="roll the in-repo expert into a demo file"))
    p = sub.add_parser("fit-density", help="fit the expert occupancy density")
    add_common(p)
    p.add_argument("--demos", type=Path, default=None, help="demo file (default: <out>/demos.csv)")
    p = sub.add_parser("train", help="run maximum-occupancy-entropy RL")
    add_common(p)
    p.add_argument("--model", type=Path, default=None, help="density checkpoint (default: <out>/model.ckpt)")
    p = sub.add_parser("eval", help="evaluate a policy checkpoint")
    add_common(p)
    p.add_argument("--policy", type=Path, default=None, help="policy checkpoint (default: <out>/policy.ckpt)")
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=[*SUITE_NAMES, "all"])
    return parser


def _resolved(args):
    """The config with ``--seed`` and ``--out`` applied, checked like the file's values."""
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=str(args.out))
    return config, Path(config.out_dir)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK

    try:
        if args.command == "verify":
            failures = 0
            for result in run_suite(args.suite):
                status = "PASS" if result.passed else "FAIL"
                print(f"{status} {result.name}: {result.n_checks} checks, "
                      f"{len(result.violations)} violations")
                for violation in result.violations:
                    print(f"  violation: {violation}")
                for expected in result.expected_failures:
                    print(f"  documented expected-failure: {expected}")
                failures += len(result.violations)
            return EXIT_OK if failures == 0 else EXIT_VERIFICATION

        from . import pipeline
        config, out = _resolved(args)
        if args.command == "gen-demos":
            path = pipeline.cmd_gen_demos(config, out)
            print(f"wrote {path}")
        elif args.command == "fit-density":
            demos = args.demos or out / "demos.csv"
            path = pipeline.cmd_fit_density(config, demos, out)
            print(f"wrote {path}")
        elif args.command == "train":
            model = args.model or out / "model.ckpt"
            result = pipeline.cmd_train(config, model, out)
            print(f"wrote {result.policy_path}")
            print(json.dumps(result.summary, sort_keys=True))
        elif args.command == "eval":
            policy = args.policy or out / "policy.ckpt"
            summary = pipeline.cmd_eval(config, policy, out)
            print(json.dumps(summary, sort_keys=True, indent=1))
        return EXIT_OK
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, OverflowError, RuntimeError) as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
