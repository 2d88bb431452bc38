"""Tests of the benchmark itself (not collected by the repository's tier-1
run, whose test path is ``tests/``):

    python -m pytest -q perfbench

The traced runs use smaller operations than the benchmark does.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

IMPORT_SPAN = run.import_detac()

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, PER_LAYER  # noqa: E402

# the spans and counters each workload must exercise
FIRES = {
    "penfac-pointmass": [
        "nets.forward.b1.calls", "nets.forward.bN.calls",
        "nets.forward.bN.rows", "nets.forward.flop", "nets.backward.calls",
        "nets.adam.s", "nets.set_params.calls", "policies.explore.calls",
        "policies.explore.accept_ratio", "policies.act.calls",
        "envs.step.calls", "trajectory.append.calls", "critics.fvi.s",
        "critics.lambda_returns.calls", "critics.regress.s",
        "updates.gated_direction.calls", "updates.dhat.calls",
        "updates.gate_open_frac", "agents.update_phase.calls",
        "agents.update_phase.self_s", "agents.update_phase.p50_ms",
        "agents.update_phase.p90_ms", "agents.rollout.s", "agents.eval.s",
        "harness.run_seed.s", "harness.csv.s", "config.parse.s", "import.s"],
    "bandit-suite": [
        "policies.explore.calls", "policies.explore.accept_ratio",
        "policies.act.calls", "envs.step.calls", "critics.compatible_q.s",
        "agents.run_bandit.self_s", "import.s"],
}

SMALL = {
    # the critic needs six or more update phases before any gate opens
    "penfac-pointmass": dict(total_steps=4000, eval_interval=2000,
                             eval_episodes=2),
    "bandit-suite": dict(episodes=200),
}


def _workload(name, tmp_path):
    return workloads.WORKLOADS[name](3, str(tmp_path), **SMALL[name])


@pytest.fixture(scope="module", params=list(FIRES))
def traced_twice(request, tmp_path_factory):
    name = request.param
    workload = _workload(name, tmp_path_factory.mktemp(name))
    runs = [run.traced_passes(workload, workload.per_round, IMPORT_SPAN)
            for _ in range(2)]
    return name, runs


def test_every_listed_span_fires_on_its_workload(traced_twice):
    name, runs = traced_twice
    metrics = runs[0][2].metrics(0.0)
    assert [m for m in FIRES[name] if not metrics[m] > 0] == []


def test_traced_outputs_match_untraced(traced_twice):
    _name, runs = traced_twice
    for untraced, traced, _tracer, _overhead in runs:
        assert [op.failed for op in untraced + traced] == [0] * 2 * len(traced)
        assert [t.artifact for t in traced] == [u.artifact for u in untraced]


def test_counts_repeat_exactly(traced_twice):
    _name, runs = traced_twice
    first, second = (r[2].metrics(0.0) for r in runs)
    assert {m: first[m] for m in COUNT_METRICS} == \
        {m: second[m] for m in COUNT_METRICS}


def test_penfac_csv_is_the_seed_csv(tmp_path):
    workload = _workload("penfac-pointmass", tmp_path)
    csv = workload.run_op(0).artifact.decode().splitlines()
    assert csv[0] == "seed,env_steps,mean_return,returns..."
    assert [row.split(",")[1] for row in csv[1:]] == ["0", "2000", "4000"]
    assert {row.split(",")[0] for row in csv[1:]} == {"3"}


class _Fake:
    """A workload whose second operation gives new bytes on its third run."""
    per_round = 2
    alias = ("work_per_s", "1/s")

    def __init__(self):
        self.runs = []

    def setup(self):
        pass

    def run_op(self, i, tag="run"):
        self.runs.append((i, tag))
        changed = i == 1 and tag == "r2"
        return workloads.Op(work=10, attempted=1, failed=0,
                            artifact=b"new" if changed else bytes([i]))


def test_untraced_rounds_repeat_and_compare(monkeypatch):
    monkeypatch.setattr(run, "probe_setup", lambda args: 0.5)
    args = run.parse_args(["--workload", "bandit-suite", "--seed", "1",
                           "--seconds", "0"])
    fake = _Fake()
    ops, metrics, extra = run.run_untraced(args, fake)
    # a zero-second run still makes the minimum number of whole rounds
    assert fake.runs == [(0, "r0"), (1, "r0"), (0, "r1"), (1, "r1")]
    assert [op.failed for op in ops] == [0, 0, 0, 0]
    assert metrics["setup_s"] == 0.5
    assert extra["setup_ref_s"] == [0.5] * run.SETUP_SAMPLES
    medians = [statistics.median(extra["op_ref_s"][i::2]) for i in (0, 1)]
    assert metrics["work_per_s"] == 20 / sum(medians)

    monkeypatch.setattr(run, "MIN_ROUNDS", 3)
    ops, metrics, extra = run.run_untraced(args, _Fake())
    assert [op.failed for op in ops] == [0, 0, 0, 0, 0, 1]
    # the operation that failed in one round adds no work
    medians = [statistics.median(extra["op_ref_s"][i::2]) for i in (0, 1)]
    assert metrics["work_per_s"] == 10 / sum(medians)


def test_timed_leaves_out_the_kernel_and_scales_by_it():
    k = hostspeed.REF_KERNEL_S
    samples = [(0.0, k, 1.0), (3.0, 2 * k, 4.0), (6.0, 3 * k, 7.0)]
    wall, ref = run.timed(samples)
    assert wall == 4.0
    assert ref == pytest.approx(2.0 / 1.5 + 2.0 / 2.5)


def test_calibrating_samples_through_the_body_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    samples = []
    with run.calibrating(samples):
        end = time.perf_counter() + 3 * run.CALIBRATE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 4
    assert [s[0] for s in samples] == sorted(s[0] for s in samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_restores_every_binding():
    from detac import agents, critics
    from tracer import Tracer
    before = (agents.fitted_value_iteration, critics.lambda_returns,
              agents.lambda_returns,
              vars(agents.BatchActorCritic)["update_phase"])
    tracer = Tracer()
    tracer.install()
    assert agents.fitted_value_iteration is not before[0]
    assert agents.lambda_returns is critics.lambda_returns
    assert agents.lambda_returns is not before[2]
    tracer.uninstall()
    assert (agents.fitted_value_iteration, critics.lambda_returns,
            agents.lambda_returns,
            vars(agents.BatchActorCritic)["update_phase"]) == before


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_last_line_is_the_result():
    proc = _cli(run.ROOT, "--workload", "bandit-suite", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    # two rounds of two seeds' six curves, however short the run
    assert result["correct"] and result["attempted"] == 24
    assert sorted(result["metrics"]) == sorted(m for m, _, _ in run.END_TO_END)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "bandit-suite", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
