"""Print a sha256 for every seeded output that a refactor must keep
byte-identical: the per-seed CSV of ``run_seed``, the ``run_bandit``
curves, the ``verify`` reports and the six CSVs of a small ``detac
bandit-suite`` run, which pin its mean/std over seeds.

Run it from the root of a checkout, once before a change and once after,
and diff the two outputs:

    PYTHONPATH=src python tools/output_hashes.py > before.txt

The ``run_bandit`` curves at m = 1 pin the exploration stream of a
one-dimensional action, the stream every PointMass run draws; those at
m = 5 and 50 move whenever the multi-dimensional sampler does.  Each
curve's ``run_bandit-rng`` line hashes the Generator's
``bit_generator.state`` after the call, so a change in the number of
normals a run consumes shows even when its curve keeps its bits.

The PointMass runs use the default 10000 training steps: over the first
few phases no NFAC/PeNFAC gate opens, so shorter runs can give the two
rules identical CSVs and miss a change to either.  At the default
``lr_critic`` the CACLA/CAC PointMass runs diverge within 2200 steps, so
their lines pin only those first steps; the CACLA/CAC runs at
``lr_critic=1e-5`` reach step 10000 and pin the whole incremental loop.

``run_seed`` evaluates and stops on phase ends only.  Both step counts
and the default ``eval_interval`` (1000) are multiples of every rule's
phase (500 PointMass steps and 5 bandit steps for NFAC/PeNFAC, one
episode for CACLA/CAC), so this tool cannot see where a row due
mid-phase lands; ``tests/test_harness.py::
test_run_seed_evaluates_and_stops_at_phase_ends`` pins that case.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from detac import cli, harness
from detac.agents import BanditConfig, run_bandit
from detac.config import parse_config
from detac.envs import make_quadratic_bandit

RULES = ("penfac", "nfac", "cacla", "cac")
BANDIT_RULES = ("spg", "dpg", "cacla")
SEEDS = (1, 2, 3)
POINTMASS_STEPS = 10000
BANDIT_STEPS = 3000
# a critic rate at which the CACLA/CAC PointMass runs stay finite
SLOW_CRITIC_LR = "1e-5"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def seed_csv_hash(seed, **keys):
    """The sha256 of the seed's CSV under the given config keys, or the
    message of its divergence."""
    cfg = parse_config(None, {k: str(v) for k, v in keys.items()})
    try:
        rows = harness.run_seed(cfg, seed)
    except harness.DivergenceError as exc:
        return f"DivergenceError: {exc}"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seed.csv")
        harness.write_seed_csv(path, rows)
        with open(path, "rb") as f:
            return _sha(f.read())


def bandit_suite_hash(*flags):
    """The exit status of ``detac bandit-suite`` with ``flags`` and the
    sha256 of its CSVs, each file's name and bytes in name order."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bandit-suite", *flags, "--out", tmp])
        data = b""
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as f:
                data += name.encode() + b"\n" + f.read()
    return code, _sha(data)


def main():
    for env, steps in (("pointmass", POINTMASS_STEPS),
                       ("bandit", BANDIT_STEPS)):
        for rule in RULES:
            for seed in SEEDS:
                csv = seed_csv_hash(seed, agent=rule, env=env,
                                    total_steps=steps)
                print(f"run_seed {rule} {env} steps={steps} seed={seed} "
                      f"{csv}", flush=True)
    for rule in ("cacla", "cac"):
        for seed in SEEDS:
            csv = seed_csv_hash(seed, agent=rule, env="pointmass",
                                total_steps=POINTMASS_STEPS,
                                lr_critic=SLOW_CRITIC_LR)
            print(f"run_seed {rule} pointmass steps={POINTMASS_STEPS} "
                  f"lr_critic={SLOW_CRITIC_LR} seed={seed} {csv}", flush=True)

    for m in (1, 5, 50):
        env = make_quadratic_bandit(m, seed=0)
        for rule in BANDIT_RULES:
            for seed in SEEDS:
                rng = np.random.default_rng(seed)
                curve = run_bandit(rule, env, BANDIT_STEPS, BanditConfig(),
                                   rng, eval_every=BANDIT_STEPS // 100)
                print(f"run_bandit {rule} m={m} seed={seed} "
                      f"{_sha(curve.tobytes())}", flush=True)
                state = repr(rng.bit_generator.state).encode()
                print(f"run_bandit-rng {rule} m={m} seed={seed} "
                      f"{_sha(state)}", flush=True)

    for suite in harness.SUITES:
        code, lines = harness.run_verification(suite, seed=0)
        report = ("\n".join(lines) + "\n").encode()
        print(f"verify {suite} seed=0 exit={code} {_sha(report)}", flush=True)

    flags = ("--dims", "5,50", "--seeds", "3", "--episodes", "200")
    code, csvs = bandit_suite_hash(*flags)
    print(f"bandit-suite {' '.join(flags)} exit={code} {csvs}", flush=True)


if __name__ == "__main__":
    main()
