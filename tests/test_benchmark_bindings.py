"""The benchmark's tracer (``perfbench/tracer.py``) rebinds detac functions
and methods by name.  The tier-1 run does not run the benchmark, so a
renamed or deleted method that the tracer wraps, or a span that no longer
fires, would otherwise first show up as a failed benchmark run."""

import types
from pathlib import Path

import numpy as np

from detac import agents, envs, harness
from detac.config import parse_config
from kept_agents import kept_agents

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
                              np.random.default_rng(0), eval_every=1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    fires = ["policies.explore.calls", "policies.explore.accept_ratio",
             "policies.act.calls", "envs.step.calls",
             "critics.compatible_q.s", "agents.run_bandit.self_s"]
    assert [m for m in fires if not metrics[m] > 0] == []


def _tiny_pointmass_config():
    # two PeNFAC phases of 20 steps each
    return parse_config(None, {
        "agent": "penfac", "env": "pointmass", "pointmass_horizon": "10",
        "update_every": "2", "hidden": "8", "total_steps": "40",
        "eval_interval": "20", "eval_episodes": "2",
        "fitted_iterations": "2", "actor_iterations": "3"})


def test_run_seed_builds_its_agent_through_harness_make_agent():
    # perfbench's penfac-pointmass run_op and the acceptance 7+8 fixture
    # replace harness.make_agent to keep the agent that run_seed trains,
    # so run_seed must look it up on harness each time it runs
    config = _tiny_pointmass_config()
    with kept_agents() as calls:
        harness.run_seed(config, 0)
    ((args, agent),) = calls
    assert args[0] is config.agent
    assert len(agent.dhat_history) == 2


def test_pointmass_spans_fire():
    # perfbench's penfac-pointmass FIRES list on a tiny PeNFAC run, less
    # three kinds of metric: nets.forward.b1.calls, which only the
    # per-step CACLA/CAC paths fire; updates.gate_open_frac, which reads 0
    # until a gate opens, several phases later than this run ends; and
    # harness.csv.s, config.parse.s and import.s, which are recorded
    # outside run_seed
    config = _tiny_pointmass_config()
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        harness.run_seed(config, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    fires = ["nets.forward.bN.calls", "nets.forward.bN.rows",
             "nets.forward.flop", "nets.backward.calls", "nets.adam.s",
             "nets.set_params.calls", "policies.explore.calls",
             "policies.explore.accept_ratio", "policies.act.calls",
             "envs.step.calls", "trajectory.append.calls", "critics.fvi.s",
             "critics.lambda_returns.calls", "critics.regress.s",
             "updates.gated_direction.calls", "updates.dhat.calls",
             "agents.update_phase.calls", "agents.update_phase.self_s",
             "agents.update_phase.p50_ms", "agents.update_phase.p90_ms",
             "agents.rollout.s", "agents.eval.s", "harness.run_seed.s"]
    assert [m for m in fires if not metrics[m] > 0] == []
    # the actor loop runs inside the update_phase span, so its p50/p90
    # time the whole phase, critic fit and actor together
    ids = tracer._ids
    phase = ids["agents.update_phase"]
    orphans = []
    for span in ("updates.gated_direction", "updates.dhat"):
        for i in np.flatnonzero(np.frombuffer(tracer.name, np.int32)
                                == ids[span]):
            while i >= 0 and tracer.name[i] != phase:
                i = tracer.parent[i]
            orphans.append(i < 0)
    assert orphans and not any(orphans)
