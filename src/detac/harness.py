"""Experiment runner (seed fan-out, training/evaluation scheduling, CSV
learning curves) and the randomized verification suites."""

from __future__ import annotations

import os

import numpy as np

from .agents import evaluate_deterministic, make_agent
from .config import make_env
from .envs import random_finite_mdp
from .nets import MlpNet, gradient_check
from .oracle import (CHAIN_ACTIONS, CHAIN_STATES, LipschitzGaussianChain,
                     epsilon_smoothed, gated_scaled_direction_1d,
                     occupancy_shift_bound_check,
                     performance_difference_residual)

CSV_HEADER = "seed,env_steps,mean_return,returns..."
LEMMA2_TRIALS = 100  # random MDPs per suite_lemma2 run
THEOREM1_TRIALS = 50  # random MDPs per suite_theorem1 run
GRADCHECK_SEEDS = 20  # seeded nets per architecture in suite_gradcheck
GRADCHECK_TOL = 1e-4  # suite_gradcheck's bound on the relative error
# suite_gradcheck's nets: the PointMass policy (tanh output) and critic
# (linear output) under either hidden activation, and the default
# ``detac train env=bandit`` policy, the one default net with several
# outputs, and critic, the one default net with a single input
GRADCHECK_ARCHS = [
    *(dict(sizes=[2, 32, 32, 1], hidden=hidden, output=output)
      for hidden in ("tanh", "leaky_relu") for output in ("tanh", "linear")),
    dict(sizes=[1, 32, 32, 5], hidden="leaky_relu", output="tanh"),
    dict(sizes=[1, 32, 32, 1], hidden="leaky_relu", output="linear")]


def _fmt(x):
    return repr(float(x))


class DivergenceError(RuntimeError):
    """Training left non-finite parameters in the policy or the critic."""

    def __init__(self, seed, env_steps, net):
        super().__init__(seed, env_steps, net)
        self.seed, self.env_steps, self.net = seed, env_steps, net

    def __str__(self):
        return (f"seed {self.seed}: the {self.net} has non-finite "
                f"parameters after env step {self.env_steps}")


def _check_finite(agent, seed, env_steps):
    for name, net in (("policy", agent.policy), ("critic", agent.critic.net)):
        if not np.isfinite(net.get_params()).all():
            raise DivergenceError(seed, env_steps, name)


def run_seed(config, seed):
    """Train one seed and return the evaluation rows.

    Each ``agent.run_episode`` call is one phase, so rows land on the
    first phase end at or past each multiple of ``eval_interval``, and
    training stops at the first one at or past ``total_steps``.  Non-finite
    policy or critic parameters after a phase raise ``DivergenceError``,
    with numpy's warnings off during the phase, so it is the one report;
    evaluation episodes use their own rng stream and never feed training.
    """
    rng = np.random.default_rng(seed)
    eval_rng_seq = np.random.SeedSequence([seed, 0xE7A1])
    env = make_env(config)
    agent = make_agent(config.agent, env, np.random.default_rng([seed, 0x5EED]))

    rows = []

    def evaluate(steps):
        mean, returns = evaluate_deterministic(
            agent.policy, env, config.eval_episodes,
            np.random.default_rng(eval_rng_seq.spawn(1)[0]))
        rows.append((seed, steps, mean, returns))

    steps = 0
    evaluate(steps)
    next_eval = config.eval_interval
    while steps < config.total_steps:
        with np.errstate(all="ignore"):
            steps += agent.run_episode(env, rng)
            _check_finite(agent, seed, steps)
        if steps >= next_eval:
            evaluate(steps)
            while next_eval <= steps:
                next_eval += config.eval_interval
    return rows


def write_lines(path, lines):
    """Write ``lines`` to ``path``, each ended by "\\n" on every platform."""
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_seed_csv(path, rows):
    lines = [CSV_HEADER]
    for seed, steps, mean, returns in rows:
        cells = [str(seed), str(steps), _fmt(mean)] + [_fmt(r) for r in returns]
        lines.append(",".join(cells))
    write_lines(path, lines)


def write_aggregate_csv(path, per_seed_rows):
    """Aggregate over seeds at matching evaluation indices: mean, std and
    std / sqrt(n_seeds) of the per-seed mean returns."""
    n_rows = min(len(rows) for rows in per_seed_rows)
    lines = ["env_steps,mean,std,stderr"]
    n_seeds = len(per_seed_rows)
    for i in range(n_rows):
        steps = per_seed_rows[0][i][1]
        means = np.array([rows[i][2] for rows in per_seed_rows])
        lines.append(",".join([
            str(steps), _fmt(means.mean()), _fmt(means.std()),
            _fmt(means.std() / np.sqrt(n_seeds))]))
    write_lines(path, lines)


def worker_cap():
    """The cap on worker processes: ``DETAC_THREADS`` if set and not
    empty, else the CPU count.  Any other value than a positive integer
    raises ValueError."""
    text = os.environ.get("DETAC_THREADS")
    if not text:
        return os.cpu_count() or 1
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"DETAC_THREADS must be a positive integer, "
                         f"got {text!r}")
    return cap


def fan_out(fn, *args):
    """``list(map(fn, *args))`` over sized ``args``, in a pool of
    ``min(worker_cap(), jobs)`` worker processes when that is above 1.
    Jobs seeded by their own arguments give results that do not depend on
    the worker count; the first exception in job order is raised."""
    workers = min(worker_cap(), *map(len, args))
    if workers <= 1:
        return list(map(fn, *args))
    # imported here: a one-worker run never pays for multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *args))


def run_experiment(config):
    """Train every seed, write one CSV per seed plus an aggregate CSV.
    Returns the list of written file paths.  Nothing is written unless
    every seed trains to the end."""
    seeds = [config.seed_offset + i for i in range(config.seeds)]
    all_rows = fan_out(run_seed, [config] * len(seeds), seeds)

    os.makedirs(config.out, exist_ok=True)
    paths = []
    for seed, rows in zip(seeds, all_rows):
        path = os.path.join(config.out, f"seed_{seed}.csv")
        write_seed_csv(path, rows)
        paths.append(path)
    agg = os.path.join(config.out, "aggregate.csv")
    write_aggregate_csv(agg, all_rows)
    paths.append(agg)
    return paths


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def suite_lemma2(seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    worst = 0.0
    for i in range(LEMMA2_TRIALS):
        mdp = random_finite_mdp(4, 3, 0.9, rng)
        mu = rng.integers(0, 3, size=4)
        mu_tilde = rng.integers(0, 3, size=4)
        pi = epsilon_smoothed(mdp, mu, rng.uniform(0.05, 0.5))
        res = performance_difference_residual(mdp, mu, mu_tilde, pi)
        worst = max(worst, res)
        lines.append(f"trial={i} mu={mu.tolist()} mu_tilde={mu_tilde.tolist()} "
                     f"residual={res:.3e} pass={res < 1e-9}")
    passed = worst < 1e-9
    lines.append(f"max_residual={worst:.3e} pass={passed}")
    return passed, lines


def suite_lemma1(seed=0):
    """The gated direction against the deterministic gradient 2(t - theta)
    of the quadratic bandit with target t = 1: a (0, 1] fraction of it at
    theta = 0, and exactly 0.0 at theta = t.  The directions are closed
    forms, so ``seed`` is ignored: it is there so that ``run_verification``
    calls every suite alike."""
    lines = []
    ok = True
    target, theta = 1.0, 0.0
    dpg = 2.0 * (target - theta)
    for sigma in (0.5, 0.2, 0.1, 0.05):
        gated = gated_scaled_direction_1d(target, theta, sigma)
        ratio = gated / dpg
        # the deterministic gradient is nonzero here, so a zero ratio
        # would mean the gated direction was lost, not attenuated
        in_range = 0.0 < ratio <= 1.0
        ok = ok and in_range
        lines.append(f"sigma={sigma} gated={gated:.6f} "
                     f"deterministic={dpg:.6f} "
                     f"ratio={ratio:.6f} pass={in_range}")
    zero = gated_scaled_direction_1d(target, target, 0.01)
    zero_ok = zero == 0.0
    ok = ok and zero_ok
    lines.append(f"theta=target sigma=0.01 gated={zero:.3e} "
                 f"pass={zero_ok}")
    lines.append(f"pass={ok}")
    return ok, lines


def suite_theorem1(seed=0):
    rng = np.random.default_rng(seed)
    chain = LipschitzGaussianChain()
    lines = []
    n_ok = 0
    for i in range(THEOREM1_TRIALS):
        rewards = rng.uniform(-1.0, 1.0, size=(CHAIN_STATES, CHAIN_ACTIONS))
        mdp = chain.build_mdp(rewards)
        mu = rng.integers(0, CHAIN_ACTIONS, size=CHAIN_STATES)
        shiftmax = 3
        mu_tilde = np.clip(mu + rng.integers(-shiftmax, shiftmax + 1,
                                             size=CHAIN_STATES),
                           0, CHAIN_ACTIONS - 1)
        sigma = rng.uniform(0.05, 0.25)
        lhs, rhs, sat = occupancy_shift_bound_check(chain, mdp, mu, mu_tilde,
                                                    sigma)
        n_ok += int(sat)
        lines.append(f"trial={i} sigma={sigma:.4f} lhs={lhs:.6e} "
                     f"rhs={rhs:.6e} pass={sat}")
    passed = n_ok == THEOREM1_TRIALS
    lines.append(f"satisfied={n_ok}/{THEOREM1_TRIALS} pass={passed}")
    return passed, lines


def suite_gradcheck(seed=0):
    """Finite-difference check of every ``GRADCHECK_ARCHS`` net on
    ``GRADCHECK_SEEDS`` seeded nets; a net passes below ``GRADCHECK_TOL``."""
    lines = []
    worst = 0.0
    for arch in GRADCHECK_ARCHS:
        for s in range(GRADCHECK_SEEDS):
            rng = np.random.default_rng(seed + s)
            net = MlpNet(arch["sizes"], hidden=arch["hidden"],
                         output=arch["output"], rng=rng)
            x = rng.standard_normal((4, arch["sizes"][0]))
            err = gradient_check(net, x)
            worst = max(worst, err)
            lines.append(f"arch={arch['sizes']} hidden={arch['hidden']} "
                         f"output={arch['output']} seed={s} "
                         f"max_rel_err={err:.3e} pass={err < GRADCHECK_TOL}")
    passed = worst < GRADCHECK_TOL
    lines.append(f"max_rel_err={worst:.3e} pass={passed}")
    return passed, lines


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "theorem1": suite_theorem1,
    "gradcheck": suite_gradcheck,
}


def run_verification(name, seed=0, out=None):
    """Run one named suite (or 'all'); returns (exit_code, report lines)."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(name)
    all_lines = []
    ok = True
    for n in names:
        passed, lines = SUITES[n](seed=seed)
        all_lines.append(f"== suite {n} ==")
        all_lines.extend(lines)
        ok = ok and passed
    if out:
        write_lines(out, all_lines)
    return (0 if ok else 1), all_lines
