"""The benchmark's tracer (``perfbench/tracer.py``) rebinds detac functions
and methods by name.  The tier-1 run does not run the benchmark, so a
renamed or deleted method that the tracer wraps, or a bandit span that no
longer fires, would otherwise first show up as a failed benchmark run."""

import types
from pathlib import Path

import numpy as np

from detac import agents, envs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from the source text, so no bytecode cache is written beside it
    module = types.ModuleType("benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def test_tracer_rebinds_existing_attributes_and_restores_them():
    tracer = _load_tracer().Tracer()
    try:
        # install reads each original from its owner's namespace: a missing
        # method or function raises here
        tracer.install()
        bound = list(tracer._restore)
        for owner, attr, original in bound:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert bound
    for owner, attr, original in bound:
        assert vars(owner)[attr] is original, (owner, attr)


def test_bandit_spans_fire():
    # perfbench's bandit-suite FIRES list, less import.s, which the
    # benchmark's runner records outside the tracer
    tracer = _load_tracer().Tracer()
    env = envs.make_quadratic_bandit(5, seed=0)
    try:
        tracer.install()
        for rule in ("spg", "dpg", "cacla"):
            agents.run_bandit(rule, env, 50, agents.BanditConfig(),
                              np.random.default_rng(0))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    fires = ["policies.explore.calls", "policies.explore.accept_ratio",
             "policies.act.calls", "envs.step.calls",
             "critics.compatible_q.s", "agents.run_bandit.self_s"]
    assert [m for m in fires if not metrics[m] > 0] == []
