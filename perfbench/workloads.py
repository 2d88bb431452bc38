"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, builds what the
program needs (``setup``), and then runs operations one at a time
(``run_op``).  An operation returns the work it completed, in the
workload's own unit, whether its correctness check passed, and its output
bytes.  A round is operations ``0 .. per_round - 1``; an untraced run
repeats the round, and every repeat of an operation must give the same
bytes as its first run.  ``alias`` is the name and unit under which
the run also prints the workload's rate.

``detac verify all`` is not a workload: on most seeds its gradient-check
suite prints ``pass=False`` lines (a finite-difference probe that crosses
a leaky_relu kink, relative error ~0.49), so no run of it could be
correct.  The change that fixes that check should add it back.

Import detac before this module, from the checkout's ``src`` directory.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

from detac import agents, config, envs, harness


@dataclass
class Op:
    work: float          # units of work done (0 when the check failed)
    attempted: int
    failed: int
    artifact: bytes = b""


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


class PenfacPointmass:
    """``detac train --set agent=penfac --set env=pointmass`` for one seed:
    ``harness.run_experiment`` with the AgentConfig and ExperimentConfig
    defaults (10000 training steps, an evaluation of 10 episodes every
    1000 steps).  Operation ``i`` trains seed ``seed + i``; its work is
    the seed's training env steps (evaluation steps are not counted)."""

    name = "penfac-pointmass"
    unit = "training env steps"
    alias = ("env_steps_per_s", "1/s")
    per_round = 1
    traced_seconds_per_op = 10

    def __init__(self, seed, out_dir, **overrides):
        self.seed = seed
        self.out_dir = out_dir
        self.overrides = dict(agent="penfac", env="pointmass", seeds="1",
                              **{k: str(v) for k, v in overrides.items()})

    def setup(self):
        # what one seed of run_experiment builds before it trains
        cfg = config.parse_config(None, self.overrides)
        env = harness.make_env(cfg)
        agents.make_agent(cfg.agent, env,
                          np.random.default_rng([self.seed, 0x5EED]))

    def run_op(self, i, tag="run"):
        out = os.path.join(self.out_dir, f"{tag}-{i}")
        cfg = config.parse_config(None, dict(
            self.overrides, seed_offset=str(self.seed + i), out=out))
        # run_seed builds its agent inside; keep a handle to check its
        # parameters once training ends
        made = []
        make_agent = harness.make_agent

        def keep(*args):
            made.append(make_agent(*args))
            return made[-1]

        harness.make_agent = keep
        try:
            paths = harness.run_experiment(cfg)
        finally:
            harness.make_agent = make_agent
        with open(paths[0], "rb") as f:
            csv = f.read()
        shutil.rmtree(out)

        rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
        returns = [float(v) for row in rows for v in row[2:]]
        agent = made[0]
        ok = (_finite(returns) and _finite(agent.policy.get_params())
              and _finite(agent.critic.net.get_params()))
        steps = int(rows[-1][1])
        return Op(work=steps if ok else 0, attempted=1, failed=int(not ok),
                  artifact=csv)


class BanditSuite:
    """The calls of ``detac bandit-suite --seed-offset <seed>``: run_bandit
    for spg, dpg and cacla at dims 5 and 50, 3000 episodes each, on a
    fresh Generator per (rule, dim, seed) curve.  Operation ``i`` is curve
    ``i % 6`` of seed ``seed + i // 6``; its work is the curve's training
    episodes.  A round is two seeds of the suite: rejection sampling
    makes one seed's suite cost vary by about 8%, and a second seed
    averages some of that out."""

    name = "bandit-suite"
    unit = "training episodes"
    alias = ("bandit_episodes_per_s", "1/s")
    dims = (5, 50)
    rules = ("spg", "dpg", "cacla")
    curves = len(dims) * len(rules)
    per_round = 2 * curves
    traced_seconds_per_op = 40 / per_round

    def __init__(self, seed, out_dir=None, episodes=3000):
        self.seed = seed
        self.episodes = episodes
        self.envs = {}

    def setup(self):
        self.envs = {m: envs.make_quadratic_bandit(m, seed=0)
                     for m in self.dims}

    def run_op(self, i, tag="run"):
        s, k = divmod(i, self.curves)
        m = self.dims[k // len(self.rules)]
        rule = self.rules[k % len(self.rules)]
        rng = np.random.default_rng(self.seed + s)
        curve = agents.run_bandit(rule, self.envs[m], self.episodes,
                                  agents.BanditConfig(), rng,
                                  eval_every=max(1, self.episodes // 100))
        ok = _finite(curve)
        return Op(work=self.episodes if ok else 0, attempted=1,
                  failed=int(not ok), artifact=curve.tobytes())


WORKLOADS = {w.name: w for w in (PenfacPointmass, BanditSuite)}


def traced_ops(workload, seconds):
    """Operations per pass of a traced run of ``seconds`` (the pass also
    runs untraced first): whole rounds, fixed by ``seconds`` alone, so two
    traced runs with one seed and one length count the same work."""
    rounds = int(seconds / (workload.traced_seconds_per_op
                            * workload.per_round))
    return workload.per_round * max(1, rounds)
