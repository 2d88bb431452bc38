"""Command line entry point: train, verify, bandit-suite."""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import harness
from .agents import BanditConfig, run_bandit
from .config import parse_config
from .envs import make_quadratic_bandit


def _add_train(sub):
    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seeds", type=int)
    p.add_argument("--out")
    p.add_argument("--seed-offset", type=int, dest="seed_offset")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key")


def _add_verify(sub):
    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", choices=[*harness.SUITES, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="seeds lemma2, theorem1 and gradcheck; lemma1 is a "
                        "closed form and ignores it")
    p.add_argument("--out", help="write the line-oriented report here")


def _add_bandit(sub):
    p = sub.add_parser("bandit-suite",
                       help="single-state bandit comparison of SPG/DPG/CACLA")
    p.add_argument("--dims", default="5,50",
                   help="comma-separated action dimensions")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--episodes", type=int, default=3000)
    p.add_argument("--out", default="bandit_runs")
    p.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")


def _check_out(path, report=False):
    """Raise ValueError unless ``path`` is not empty and can be written.
    An output directory needs itself, or the nearest of its ancestors that
    exists, to be a writable directory, so that ``os.makedirs(path,
    exist_ok=True)`` can succeed.  A ``report`` file must not be a
    directory, and its parent must be a writable directory that exists."""
    what = "the report to" if report else "into"
    if not path:
        raise ValueError(f"cannot write {what} '': the path is empty")
    probe = os.path.abspath(path)
    if report:
        if os.path.isdir(probe):
            raise ValueError(f"cannot write {what} {path!r}: it is a "
                             "directory")
        probe = os.path.dirname(probe)
    else:
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK)):
        raise ValueError(f"cannot write {what} {path!r}: {probe!r} is not a "
                         "writable directory")


def cmd_train(args):
    # parse_config skips the None of a flag left unset
    overrides = {"seeds": args.seeds, "out": args.out,
                 "seed_offset": args.seed_offset}
    for item in args.set:
        if "=" not in item:
            print(f"--set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    try:
        config = parse_config(args.config, overrides)
        _check_out(config.out)
        harness.worker_cap()
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = harness.run_experiment(config)
    except harness.DivergenceError as exc:
        print(f"training diverged: {exc}; no CSV written", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def cmd_verify(args):
    try:
        if args.seed < 0:
            raise ValueError(f"need --seed >= 0, got {args.seed}")
        if args.out is not None:
            _check_out(args.out, report=True)
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    code, lines = harness.run_verification(args.suite, seed=args.seed,
                                           out=args.out)
    print("\n".join(lines))
    return code


def cmd_bandit_suite(args):
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
        if (not dims or min(dims) < 1 or args.seeds < 1
                or args.episodes < 1 or args.seed_offset < 0):
            raise ValueError("need --dims, --seeds and --episodes >= 1 "
                             "and --seed-offset >= 0")
        repeated = sorted({m for m in dims if dims.count(m) > 1})
        if repeated:
            # each dimension writes bandit_m<m>_<rule>.csv once
            raise ValueError("--dims repeats "
                             + ", ".join(map(str, repeated)))
        _check_out(args.out)
        harness.worker_cap()
    except ValueError as exc:
        print(f"bandit-suite: {exc}", file=sys.stderr)
        return 2
    stride = max(1, args.episodes // 100)
    os.makedirs(args.out, exist_ok=True)
    for m in dims:
        env = make_quadratic_bandit(m, seed=0)
        for rule in ("spg", "dpg", "cacla"):
            rngs = [np.random.default_rng(args.seed_offset + s)
                    for s in range(args.seeds)]
            arr = np.stack(harness.fan_out(functools.partial(
                run_bandit, rule, env, args.episodes, BanditConfig(),
                eval_every=stride), rngs))
            path = os.path.join(args.out, f"bandit_m{m}_{rule}.csv")
            lines = ["episode,mean,std"]
            for i in range(arr.shape[1]):
                lines.append(f"{(i + 1) * stride},{float(arr[:, i].mean())!r},"
                             f"{float(arr[:, i].std())!r}")
            harness.write_lines(path, lines)
            print(path)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="detac",
        description="deterministic-policy actor-critic toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_verify(sub)
    _add_bandit(sub)
    args = parser.parse_args(argv)
    if args.command == "train":
        return cmd_train(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_bandit_suite(args)


if __name__ == "__main__":
    sys.exit(main())
