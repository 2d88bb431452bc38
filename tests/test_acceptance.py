"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The PointMass training runs (criteria 7 and 8) are shared through a
module-scoped fixture so the expensive seeds are trained once.
"""

import time

import numpy as np
import pytest
from scipy.stats import wilcoxon

from detac.agents import (AgentConfig, BanditConfig, evaluate_deterministic,
                          make_agent, run_bandit)
from detac.critics import lambda_returns
from detac.envs import PointMass, make_quadratic_bandit
from detac.harness import (GRADCHECK_SEEDS, GRADCHECK_TOL, LEMMA2_TRIALS,
                           fan_out, run_experiment, run_seed, suite_gradcheck,
                           suite_lemma2, suite_theorem1)
from detac.config import parse_config
from detac.oracle import gated_scaled_direction_1d
from detac.policies import MlpPolicy
from detac.trajectory import Trajectory
from detac.updates import DHAT_BAND, cac_direction, cacla_direction
from constant_critic import ConstantVCritic

N_SEEDS = 20
PHASES = 100
BURN_IN = 50


@pytest.fixture
def report(capsys):
    """Print one PASS/FAIL line per criterion, visible without -s."""
    def _report(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} ({name}): {status} {detail}".rstrip())
    return _report


def _train_pointmass(rule, seed):
    cfg = AgentConfig(rule=rule)
    env = PointMass()
    agent = make_agent(cfg, env, np.random.default_rng([seed, 0x5EED]))
    rng = np.random.default_rng(seed)
    for _ in range(PHASES):
        agent.run_episode(env, rng)
    mean, _ = evaluate_deterministic(agent.policy, env, 5,
                                     np.random.default_rng([seed, 0xEAA]))
    return agent.dhat_history, mean


@pytest.fixture(scope="module")
def pointmass_runs():
    """The 20 seeded PeNFAC runs, then the 20 NFAC runs, through
    ``fan_out``; ``penfac_time`` is the wall time of the PeNFAC runs."""
    t0 = time.time()
    penfac = fan_out(_train_pointmass, ["penfac"] * N_SEEDS, range(N_SEEDS))
    penfac_time = time.time() - t0
    nfac = fan_out(_train_pointmass, ["nfac"] * N_SEEDS, range(N_SEEDS))
    total_time = time.time() - t0
    return dict(penfac_dhats=[dhats for dhats, _ in penfac],
                penfac_finals=np.array([f for _, f in penfac]),
                nfac_dhats=[dhats for dhats, _ in nfac],
                nfac_finals=np.array([f for _, f in nfac]),
                penfac_time=penfac_time, total_time=total_time)


def test_acceptance_1_lemma2_identity(report):
    # the loop of ``detac verify lemma2`` on the criterion's 100 random
    # MDPs; it passes below 1e-9
    assert LEMMA2_TRIALS == 100
    t0 = time.time()
    passed, lines = suite_lemma2(seed=0)
    elapsed = time.time() - t0
    ok = passed and elapsed < 10.0
    report(1, "performance-difference identity", ok,
            f"{lines[-1]} time={elapsed:.1f}s")
    assert passed
    assert elapsed < 10.0


def test_acceptance_2_gated_ratio(report):
    t0 = time.time()
    env = make_quadratic_bandit(1, 0)
    target = float(env.target[0])
    # the deterministic gradient of the quadratic reward at theta = 0
    dpg = 2.0 * (target - 0.0)
    ratios = [gated_scaled_direction_1d(target, 0.0, sigma) / dpg
              for sigma in (0.5, 0.2, 0.1, 0.05)]
    # theta != target, so the deterministic gradient is nonzero and the
    # gated direction must be a strictly positive fraction of it
    in_range = all(0.0 < r <= 1.0 for r in ratios)
    zero = gated_scaled_direction_1d(target, target, 0.01)
    elapsed = time.time() - t0
    ok = in_range and zero == 0.0 and elapsed < 5.0
    report(2, "gated/deterministic direction ratio", ok,
            f"ratios={[round(float(r), 4) for r in ratios]} "
            f"|gated_at_opt|={abs(zero):.2e} time={elapsed:.1f}s")
    assert in_range
    assert zero == 0.0
    assert elapsed < 5.0


def test_acceptance_3_occupancy_shift_bound(report):
    t0 = time.time()
    passed, lines = suite_theorem1(seed=0)
    elapsed = time.time() - t0
    ok = passed and elapsed < 60.0
    report(3, "occupancy-shift bound 50 trials", ok,
            f"{lines[-1]} time={elapsed:.1f}s")
    assert passed
    assert lines[-1] == "satisfied=50/50 pass=True"
    assert elapsed < 60.0


def test_acceptance_4_gradient_integrity(report):
    t0 = time.time()
    # the suite's pass bound is at most the criterion's relative error of
    # 1e-4, on 20 seeded nets per architecture
    assert GRADCHECK_TOL <= 1e-4
    assert GRADCHECK_SEEDS == 20
    passed, lines = suite_gradcheck(seed=0)
    elapsed = time.time() - t0
    ok = passed and elapsed < 30.0
    report(4, "complex-step gradient checks", ok,
            f"{lines[-1]} time={elapsed:.1f}s")
    assert passed
    assert elapsed < 30.0


def test_acceptance_5_lambda_return_endpoints(report):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        critic = ConstantVCritic(float(rng.standard_normal()))
        gamma = float(rng.uniform(0.5, 0.999))
        length = int(rng.integers(1, 12))
        terminal_end = bool(rng.integers(0, 2))
        traj = Trajectory(rng.standard_normal((1, 2)), length, 1)
        for t in range(length):
            traj.append([0], t, rng.standard_normal((1, 1)),
                        [float(rng.standard_normal())],
                        rng.standard_normal((1, 2)),
                        [terminal_end and t == length - 1])
        rewards = traj.rewards[0].tolist()
        next_states = traj.states[0, 1:]
        terminals = [terminal_end and t == length - 1 for t in range(length)]

        got0 = lambda_returns(traj, critic, gamma, 0.0)
        td = np.array([r + (0.0 if d else gamma * critic.value(s2))
                       for r, s2, d in zip(rewards, next_states, terminals)])
        ok = ok and np.array_equal(got0, td)

        got1 = lambda_returns(traj, critic, gamma, 1.0)
        mc = np.empty(length)
        g = 0.0 if terminals[-1] else critic.value(next_states[-1])
        for t in range(length - 1, -1, -1):
            g = rewards[t] + (0.0 if terminals[t] else gamma * g)
            mc[t] = g
        ok = ok and np.array_equal(got1, mc)
    report(5, "lambda-return endpoints exact", ok, "100 trajectories")
    assert ok


def _bandit_final(rule, m, seed):
    return run_bandit(rule, make_quadratic_bandit(m, seed), 3000,
                      BanditConfig(), np.random.default_rng([seed, 1]),
                      eval_every=3000)[-1]


@pytest.mark.slow
def test_acceptance_6_bandit_dimension_sensitivity(report):
    t0 = time.time()
    finals = {m: {rule: np.array(fan_out(_bandit_final, [rule] * N_SEEDS,
                                         [m] * N_SEEDS, range(N_SEEDS)))
                  for rule in ("cacla", "spg", "dpg")}
              for m in (1, 50)}
    p_cacla = wilcoxon(finals[50]["cacla"], finals[50]["spg"],
                       alternative="greater").pvalue
    p_dpg = wilcoxon(finals[50]["dpg"], finals[50]["spg"],
                     alternative="greater").pvalue
    m1_ok = all(finals[1][rule].min() > -0.01
                for rule in ("cacla", "spg", "dpg"))
    elapsed = time.time() - t0
    ok = p_cacla < 0.05 and p_dpg < 0.05 and m1_ok and elapsed < 600.0
    report(6, "bandit dimension sensitivity", ok,
            f"p_cacla>spg={p_cacla:.2e} p_dpg>spg={p_dpg:.2e} "
            f"m1_worst={min(finals[1][r].min() for r in finals[1]):.4f} "
            f"time={elapsed:.0f}s")
    assert p_cacla < 0.05
    assert p_dpg < 0.05
    assert m1_ok
    assert elapsed < 600.0


def _post_burn_in(dhat_histories):
    """The d_hat of phases BURN_IN to PHASES - 1 of every seed, pooled."""
    return np.concatenate([np.asarray(h[BURN_IN:]) for h in dhat_histories])


@pytest.mark.slow
def test_acceptance_7_trust_region_containment(pointmass_runs, report):
    # the band in which adapt_beta leaves beta alone, around the agent's
    # own target
    d_target = AgentConfig().d_target
    lo, hi = d_target / DHAT_BAND, d_target * DHAT_BAND
    post = _post_burn_in(pointmass_runs["penfac_dhats"])
    frac = float(np.mean((post >= lo) & (post <= hi)))
    elapsed = pointmass_runs["penfac_time"]
    ok = frac >= 0.60 and elapsed < 900.0
    report(7, "trust-region containment", ok,
            f"in_band={frac:.2f} (need >= 0.60) phases={len(post)} "
            f"time={elapsed:.0f}s")
    assert frac >= 0.60
    assert elapsed < 900.0


@pytest.mark.slow
def test_acceptance_8_penfac_vs_nfac(pointmass_runs, capsys):
    penfac = pointmass_runs["penfac_finals"]
    nfac = pointmass_runs["nfac_finals"]
    p = wilcoxon(penfac, nfac, alternative="greater").pvalue
    elapsed = pointmass_runs["total_time"]
    hard_ok = elapsed < 1800.0
    soft_ok = p < 0.05
    status = "PASS" if soft_ok else "SOFT FAIL (reported, not a hard gate)"
    # how far each rule's phases move mu, as a trust region would see it
    dhat = {rule: np.median(_post_burn_in(pointmass_runs[f"{rule}_dhats"]))
            for rule in ("penfac", "nfac")}
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 (penfac vs nfac): {status} "
              f"penfac_mean={penfac.mean():.2f} nfac_mean={nfac.mean():.2f} "
              f"p={p:.3f} penfac_dhat_median={dhat['penfac']:.3f} "
              f"nfac_dhat_median={dhat['nfac']:.3f} time={elapsed:.0f}s")
    # the significance comparison is a soft criterion on this environment;
    # only the runtime budget is a hard gate
    assert hard_ok


@pytest.mark.slow
def test_pointmass_fixture_finals_match_run_seed(pointmass_runs):
    # the fixture's loop computes what ``detac train`` computes: run_seed's
    # evaluation after the 100th phase (100 phases of 5 episodes of 100
    # steps) is the fixture's final return, bit for bit
    jobs = [(rule, seed) for rule in ("penfac", "nfac") for seed in (0, 3)]
    configs = [parse_config(None, dict(agent=rule, env="pointmass",
                                       total_steps="50000",
                                       eval_interval="50000",
                                       eval_episodes="5"))
               for rule, _ in jobs]
    runs = fan_out(run_seed, configs, [seed for _, seed in jobs])
    for (rule, seed), rows in zip(jobs, runs):
        want = pointmass_runs[f"{rule}_finals"][seed]
        assert rows[-1][:3] == (seed, 50000, want), (rule, seed)


def test_acceptance_9_gating_property(report):
    rng = np.random.default_rng(9)
    pol = MlpPolicy(2, 2, hidden_sizes=(8,), hidden="tanh", rng=rng)
    ok = True
    for _ in range(10_000):
        s = rng.standard_normal(2)[None]
        a = rng.uniform(-1, 1, 2)[None]
        delta = float(rng.standard_normal())
        if delta > 0:
            g_cacla = cacla_direction(pol, s, a, delta)
            g_cac = cac_direction(pol, s, a, delta)
            ok = ok and np.array_equal(g_cac, delta * g_cacla)
        else:
            ok = ok and not np.any(cacla_direction(pol, s, a, delta))
            ok = ok and not np.any(cac_direction(pol, s, a, delta))
    report(9, "gating property", ok, "10000 random inputs")
    assert ok


def test_acceptance_10_reproducibility(tmp_path, monkeypatch, report):
    monkeypatch.setenv("DETAC_THREADS", "1")
    overrides = dict(agent="nfac", env="pointmass", hidden="8",
                     total_steps="60", eval_interval="20", eval_episodes="2",
                     pointmass_horizon="10", update_every="2",
                     fitted_iterations="2", actor_iterations="2", seeds="2")
    cfg_a = parse_config(None, dict(overrides, out=str(tmp_path / "a")))
    cfg_b = parse_config(None, dict(overrides, out=str(tmp_path / "b")))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    ok = True
    for name in ("seed_0.csv", "seed_1.csv", "aggregate.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        ok = ok and a == b
    report(10, "byte-identical CSVs", ok)
    assert ok
