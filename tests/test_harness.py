import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import detac
from detac import cli, harness
from detac.agents import AgentConfig
from detac.cli import main
from detac.config import (KEYS, ExperimentConfig, make_env, parse_config,
                          read_config_file)
from detac.envs import make_quadratic_bandit
from detac.harness import (CSV_HEADER, GRADCHECK_ARCHS, DivergenceError,
                           run_seed, run_verification, suite_gradcheck,
                           suite_lemma1, suite_lemma2, write_aggregate_csv,
                           write_seed_csv)
from detac.nets import MlpNet


def _config(**kw):
    base = dict(agent=AgentConfig(rule="nfac", hidden=(8,), actor_iterations=2,
                                  fitted_iterations=2, update_every=2),
                env="pointmass",
                env_params={"goal": 0.5, "horizon": 10},
                total_steps=60, eval_interval=20, eval_episodes=2)
    base.update(kw)
    return ExperimentConfig(**base)


# -- config parsing -----------------------------------------------------------

def test_read_config_file_strips_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nagent = nfac  # trailing\n\nenv=pointmass\n")
    assert read_config_file(path) == {"agent": "nfac", "env": "pointmass"}


def test_read_config_file_rejects_bad_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("agent nfac\n")
    with pytest.raises(ValueError):
        read_config_file(path)


def test_parse_config_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("agent=nfac\nenv=pointmass\nlerning_rate=0.1\n")
    with pytest.raises(ValueError, match="lerning_rate"):
        parse_config(path)


def test_parse_config_requires_agent_and_env():
    with pytest.raises(ValueError, match="agent"):
        parse_config(None, {"env": "pointmass"})
    with pytest.raises(ValueError, match="env"):
        parse_config(None, {"agent": "nfac"})


def test_parse_config_overrides_win(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("agent=nfac\nenv=pointmass\nseeds=3\n")
    cfg = parse_config(path, {"seeds": "5", "lambda": "0.7"})
    assert cfg.seeds == 5
    assert cfg.agent.lam == 0.7
    assert cfg.agent.rule == "nfac"


def test_parse_config_bandit_env_params():
    cfg = parse_config(None, {"agent": "cacla", "env": "bandit",
                              "bandit_m": "7", "bandit_seed": "3"})
    assert cfg.env_params == {"m": 7, "seed": 3}
    # only given keys of the chosen env are passed on to its constructor
    cfg = parse_config(None, {"agent": "cacla", "env": "bandit",
                              "pointmass_goal": "0.1"})
    assert cfg.env_params == {}


# every accepted key -> (a value that is not its default, the env it needs,
# where the value lands, the value found there); the key set is pinned
# here so that renaming a dataclass field cannot silently rename a key
KEY_CASES = {
    "agent": ("nfac", "pointmass", lambda c: c.agent.rule, "nfac"),
    "env": ("bandit", "pointmass", lambda c: c.env, "bandit"),
    "gamma": ("0.5", "pointmass", lambda c: c.agent.gamma, 0.5),
    "lambda": ("0.7", "pointmass", lambda c: c.agent.lam, 0.7),
    "sigma": ("0.3", "pointmass", lambda c: c.agent.sigma, 0.3),
    "sigma_decay": ("0.9", "pointmass", lambda c: c.agent.sigma_decay, 0.9),
    "lr_actor": ("0.002", "pointmass", lambda c: c.agent.lr_actor, 0.002),
    "lr_critic": ("0.004", "pointmass", lambda c: c.agent.lr_critic, 0.004),
    "fitted_iterations": ("3", "pointmass",
                          lambda c: c.agent.fitted_iterations, 3),
    "actor_iterations": ("4", "pointmass",
                         lambda c: c.agent.actor_iterations, 4),
    "update_every": ("2", "pointmass", lambda c: c.agent.update_every, 2),
    "d_target": ("0.05", "pointmass", lambda c: c.agent.d_target, 0.05),
    "hidden": ("16, 8", "pointmass", lambda c: c.agent.hidden, (16, 8)),
    "hidden_activation": ("tanh", "pointmass",
                          lambda c: c.agent.hidden_activation, "tanh"),
    "seeds": ("3", "pointmass", lambda c: c.seeds, 3),
    "seed_offset": ("7", "pointmass", lambda c: c.seed_offset, 7),
    "total_steps": ("500", "pointmass", lambda c: c.total_steps, 500),
    "eval_interval": ("50", "pointmass", lambda c: c.eval_interval, 50),
    "eval_episodes": ("4", "pointmass", lambda c: c.eval_episodes, 4),
    "out": ("elsewhere", "pointmass", lambda c: c.out, "elsewhere"),
    "pointmass_goal": ("-0.3", "pointmass", lambda c: make_env(c).goal, -0.3),
    "pointmass_horizon": ("20", "pointmass",
                          lambda c: make_env(c).spec.horizon, 20),
    "bandit_m": ("3", "bandit", lambda c: make_env(c).target.size, 3),
    "bandit_seed": ("4", "bandit", lambda c: make_env(c).target.tolist(),
                    make_quadratic_bandit(5, 4).target.tolist()),
}


def test_config_keys_are_pinned():
    assert len(KEY_CASES) == 24
    assert set(KEYS) == set(KEY_CASES)


@pytest.mark.parametrize("key", sorted(KEY_CASES))
def test_parse_config_key_lands_on_its_field(key):
    value, env, read, expected = KEY_CASES[key]
    base = {"agent": "penfac", "env": env}
    assert read(parse_config(None, base)) != expected
    assert read(parse_config(None, {**base, key: value})) == expected


# the keys whose value is free text: every other key is converted, and a
# value its converter rejects must be reported under the key's name
FREE_TEXT_KEYS = {"agent", "env", "hidden_activation", "out"}
MALFORMED = {"hidden": "32,x"}
# values float() accepts that no setting may take ("1e400" overflows)
NON_FINITE = ["nan", "inf", "-inf", "1e400"]


@pytest.mark.parametrize("env", ["pointmass", "bandit"])
@pytest.mark.parametrize("key", sorted(set(KEY_CASES) - FREE_TEXT_KEYS))
def test_parse_config_names_the_key_of_a_malformed_value(key, env):
    # keys of the env not chosen are converted and rejected too
    for value in [MALFORMED.get(key, "abc"), *NON_FINITE]:
        with pytest.raises(ValueError, match=f"bad value for '{key}'"):
            parse_config(None, {"agent": "nfac", "env": env, key: value})


BAD_HIDDEN = ["", ",", "32,,32"]


@pytest.mark.parametrize("value", BAD_HIDDEN)
def test_parse_config_rejects_empty_hidden_item(value):
    # "" and "," used to build nets with no hidden layer, and "32,,32"
    # used to drop the empty item
    with pytest.raises(ValueError, match="bad value for 'hidden'"):
        parse_config(None, {"agent": "nfac", "env": "pointmass",
                            "hidden": value})


def test_parse_config_hidden_tuple():
    cfg = parse_config(None, {"agent": "nfac", "env": "pointmass",
                              "hidden": "16,16"})
    assert cfg.agent.hidden == (16, 16)


# agent settings that AgentConfig or the networks reject; parse_config
# builds the agent once, so each is a config error
UNBUILDABLE_AGENT = [("sigma_decay", "0"), ("sigma_decay", "2"),
                     ("hidden_activation", "relu"), ("hidden", "0"),
                     ("hidden", "32,-1"), ("actor_iterations", "0"),
                     ("actor_iterations", "-3"), ("d_target", "0"),
                     ("d_target", "-1")]


@pytest.mark.parametrize("key, value", UNBUILDABLE_AGENT)
def test_parse_config_rejects_agent_that_cannot_be_built(key, value):
    with pytest.raises(ValueError):
        parse_config(None, {"agent": "cacla", "env": "pointmass", key: value})


def test_parse_config_rejects_bad_value():
    with pytest.raises(ValueError, match="gamma"):
        parse_config(None, {"agent": "nfac", "env": "pointmass",
                            "gamma": "fast"})


@pytest.mark.parametrize("overrides", [
    {"eval_episodes": "0"}, {"eval_episodes": "-1"},
    {"pointmass_horizon": "0"}, {"pointmass_horizon": "-3"},
    {"env": "bandit", "bandit_m": "0"}, {"seed_offset": "-1"}])
def test_parse_config_rejects_runs_that_cannot_evaluate(overrides):
    with pytest.raises(ValueError):
        parse_config(None, {"agent": "nfac", "env": "pointmass", **overrides})


# -- seed runs and CSVs -------------------------------------------------------

def test_run_seed_rows_shape_and_determinism():
    cfg = _config()
    rows_a = run_seed(cfg, 3)
    rows_b = run_seed(cfg, 3)
    assert rows_a == rows_b
    # initial eval at step 0 plus one per crossed interval
    assert rows_a[0][1] == 0
    assert len(rows_a) == 4
    for seed, steps, mean, returns in rows_a:
        assert seed == 3
        assert len(returns) == cfg.eval_episodes
        assert mean == pytest.approx(np.mean(returns))


def test_run_seed_evaluates_and_stops_at_phase_ends():
    # a phase is update_every=2 episodes of 10 steps; nothing updates
    # mid-phase, so the row due at step 30 lands on the phase end at 40,
    # and training runs the whole phase that crosses total_steps
    cfg = _config(total_steps=50, eval_interval=30)
    assert [row[1] for row in run_seed(cfg, 0)] == [0, 40, 60]


def test_run_seed_rejects_bandit_only_rules():
    # no run_seed config can hold a bandit baseline: its AgentConfig
    # refuses it
    for rule in ("spg", "dpg"):
        with pytest.raises(ValueError, match="bandit-suite"):
            AgentConfig(rule=rule)


def test_write_seed_csv_layout(tmp_path):
    rows = [(1, 0, -1.5, [-1.0, -2.0]), (1, 20, -0.5, [-0.25, -0.75])]
    path = tmp_path / "seed_1.csv"
    write_seed_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,0,-1.5,-1.0,-2.0"
    assert lines[2] == "1,20,-0.5,-0.25,-0.75"


def test_write_aggregate_csv_values(tmp_path):
    per_seed = [
        [(0, 0, -1.0, []), (0, 20, -0.5, [])],
        [(1, 0, -3.0, []), (1, 20, -1.5, [])],
    ]
    path = tmp_path / "agg.csv"
    write_aggregate_csv(path, per_seed)
    lines = path.read_text().splitlines()
    assert lines[0] == "env_steps,mean,std,stderr"
    steps, mean, std, stderr = lines[1].split(",")
    assert steps == "0"
    assert float(mean) == -2.0
    assert float(std) == pytest.approx(1.0)
    assert float(stderr) == pytest.approx(1.0 / np.sqrt(2))


# -- verification suites ------------------------------------------------------

def test_suite_lemma2_passes(monkeypatch):
    monkeypatch.setattr(harness, "LEMMA2_TRIALS", 10)
    ok, lines = suite_lemma2(seed=0)
    assert ok
    assert len(lines) == 11
    assert lines[-1].startswith("max_residual=")


def test_suite_lemma1_passes():
    # the whole report of ``detac verify lemma1``, line for line
    ok, lines = suite_lemma1()
    assert ok
    assert lines == [
        "sigma=0.5 gated=0.798668 deterministic=2.000000 ratio=0.399334 "
        "pass=True",
        "sigma=0.2 gated=0.920081 deterministic=2.000000 ratio=0.460040 "
        "pass=True",
        "sigma=0.1 gated=0.960089 deterministic=2.000000 ratio=0.480045 "
        "pass=True",
        "sigma=0.05 gated=0.980051 deterministic=2.000000 ratio=0.490025 "
        "pass=True",
        "theta=target sigma=0.01 gated=0.000e+00 pass=True",
        "pass=True"]


def test_suite_lemma1_fails_on_a_zero_ratio(monkeypatch):
    # a gated direction of 0 against a nonzero deterministic gradient is
    # the vacuous pass the suite used to accept
    monkeypatch.setattr(harness, "gated_scaled_direction_1d",
                        lambda target, theta, sigma: 0.0)
    ok, lines = suite_lemma1()
    assert not ok
    assert [line.endswith("pass=False") for line in lines] == [
        True, True, True, True, False, True]
    assert lines[-1] == "pass=False"


def test_suite_gradcheck_fails_on_a_wrong_backward(monkeypatch):
    monkeypatch.setattr(harness, "GRADCHECK_SEEDS", 1)
    passed, lines = suite_gradcheck()
    assert passed
    assert len(lines) == len(GRADCHECK_ARCHS) + 1

    # a backward 1% off on every entry must fail every line
    backward = MlpNet.backward
    monkeypatch.setattr(MlpNet, "backward",
                        lambda self, g: 1.01 * backward(self, g))
    passed, lines = suite_gradcheck()
    assert not passed
    assert all("pass=False" in line for line in lines)


def test_run_verification_unknown_suite():
    with pytest.raises(KeyError):
        run_verification("lemma3")


def test_run_verification_lemma1_ignores_the_seed():
    # lemma1 checks closed forms: every seed prints the report of seed 0
    assert run_verification("lemma1", seed=5) == run_verification("lemma1")


def test_cli_verify_seed_help_names_the_suites_it_seeds(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("seeds lemma2, theorem1 and gradcheck; lemma1 is a closed form "
            "and ignores it") in help_text


def test_run_verification_writes_report(tmp_path):
    out = tmp_path / "report.txt"
    code, lines = run_verification("lemma1", out=str(out))
    assert code == 0
    assert out.read_text().splitlines() == lines


# -- CLI ----------------------------------------------------------------------

def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "lemma1"]) == 0
    out = capsys.readouterr().out
    assert "pass=True" in out


def test_cli_train_bad_config_exits_2(capsys):
    code = main(["train", "--set", "agent=nfac", "--set", "env=pointmass",
                 "--set", "bogus_key=1"])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_cli_train_malformed_set_exits_2(capsys):
    code = main(["train", "--set", "agentnfac"])
    assert code == 2


@pytest.mark.parametrize("rule", ["spg", "dpg"])
@pytest.mark.parametrize("env", ["pointmass", "bandit"])
def test_cli_train_bandit_only_rule_exits_2(tmp_path, capsys, rule, env):
    code = main(["train", "--set", f"agent={rule}", "--set", f"env={env}",
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "bandit-suite" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# each would write dimension 5's CSVs twice
REPEATED_DIMS = [["--dims", "5,5"], ["--dims", "5,50,05"]]


@pytest.mark.parametrize("flags", [["--seeds", "0"], ["--dims", "0"],
                                   ["--dims", "5,x"], ["--dims", ","],
                                   ["--episodes", "0"], ["--episodes", "-4"],
                                   ["--seed-offset", "-1"], *REPEATED_DIMS])
def test_cli_bandit_suite_bad_arguments_exit_2(tmp_path, capsys, flags):
    code = main(["bandit-suite", "--episodes", "10",
                 "--out", str(tmp_path / "bandit"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "bandit-suite" in err
    if flags in REPEATED_DIMS:
        assert "--dims repeats 5" in err
    assert not (tmp_path / "bandit").exists()


@pytest.mark.parametrize("episodes", ["0", "-1"])
def test_cli_train_without_eval_episodes_exits_2(tmp_path, capsys,
                                                 monkeypatch, episodes):
    # used to train and write 0,0,nan rows
    monkeypatch.setenv("DETAC_THREADS", "1")
    code = main(["train", "--set", "agent=nfac", "--set", "env=pointmass",
                 "--set", f"eval_episodes={episodes}",
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "config error: eval_episodes" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", UNBUILDABLE_AGENT)
def test_cli_train_unbuildable_agent_exits_2(tmp_path, capsys, monkeypatch,
                                             key, value):
    # used to raise from inside run_seed, with exit status 1
    monkeypatch.setenv("DETAC_THREADS", "1")
    code = main(["train", "--set", "agent=cacla", "--set", "env=pointmass",
                 "--set", f"{key}={value}", "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", BAD_HIDDEN)
def test_cli_train_empty_hidden_item_exits_2(tmp_path, capsys, value):
    code = main(["train", "--set", "agent=nfac", "--set", "env=pointmass",
                 "--set", f"hidden={value}", "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "config error: bad value for 'hidden'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_train_bad_detac_threads_exits_2(tmp_path):
    # "x" used to fail in int() with exit status 1; "0" and "-2" used to
    # mean 1 worker; bandit-suite used to ignore it
    src = os.path.dirname(os.path.dirname(os.path.abspath(detac.__file__)))
    out = tmp_path / "runs"
    commands = {"config error": ["train", "--set", "agent=nfac", "--set",
                                 "env=pointmass", "--set", "total_steps=0"],
                "bandit-suite": ["bandit-suite", "--episodes", "10"]}
    for prefix, command in commands.items():
        for value in ("x", "0", "-2"):
            env = dict(os.environ, DETAC_THREADS=value,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run(
                [sys.executable, "-m", "detac.cli", *command,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=60)
            assert result.returncode == 2, (value, result.stderr)
            assert (f"{prefix}: DETAC_THREADS must be a positive integer, "
                    f"got {value!r}\n") == result.stderr
            assert result.stdout == ""
            assert not out.exists()


def test_import_detac_loads_neither_logging_nor_a_process_pool():
    # both are imported where they are used: a clipped action, a pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(detac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, detac; print(sorted("
         "{'logging', 'concurrent.futures'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


SMALL_TRAIN = ["train", "--set", "agent=nfac", "--set", "env=pointmass",
               "--set", "hidden=8", "--set", "total_steps=40",
               "--set", "eval_interval=20", "--set", "eval_episodes=2",
               "--set", "pointmass_horizon=10", "--set", "update_every=2",
               "--set", "fitted_iterations=2", "--set", "actor_iterations=2",
               "--seeds", "3"]
SMALL_BANDIT_SUITE = ["bandit-suite", "--seeds", "3", "--episodes", "200"]


@pytest.mark.parametrize("argv, n_files", [(SMALL_TRAIN, 4),
                                           (SMALL_BANDIT_SUITE, 6)],
                         ids=["train", "bandit-suite"])
def test_cli_outputs_do_not_depend_on_the_worker_count(
        tmp_path, capsys, monkeypatch, argv, n_files):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DETAC_THREADS", threads)
        out = tmp_path / threads
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == n_files
    assert outputs[0] == outputs[1]


def test_cli_train_divergence_in_a_worker_exits_1_without_csv(
        tmp_path, capsys, monkeypatch):
    # seed 0 is the first job, so its error is the one reported
    monkeypatch.setenv("DETAC_THREADS", "2")
    out = tmp_path / "runs"
    code = main(["train", "--set", "agent=cacla", "--set", "env=pointmass",
                 "--seeds", "2", "--out", str(out)])
    assert code == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == ("training diverged: seed 0: the critic has non-finite "
                   "parameters after env step 1000; no CSV written\n")
    assert not out.exists()


def test_cli_train_zero_horizon_exits_2(tmp_path):
    # used to loop forever on zero-length episodes, so it runs in a
    # subprocess with a timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(detac.__file__)))
    env = dict(os.environ, DETAC_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "runs"
    result = subprocess.run(
        [sys.executable, "-m", "detac.cli", "train", "--set", "agent=cacla",
         "--set", "env=pointmass", "--set", "pointmass_horizon=0",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "config error: horizon" in result.stderr
    assert not out.exists()


def test_cli_train_dead_critic_exits_1_without_csv(tmp_path):
    # CACLA's plain-SGD critic overflows on PointMass with the defaults
    # (seed 1: non-finite after its 7th episode); it used to exit 0 and
    # write CSVs that evaluated a frozen actor.  NFAC's Adam critic with
    # the finite lr_critic=1e200 overflows in its first phase; it used to
    # stop in Adam.step with a traceback that named no seed.  The guard's
    # line is the only report: numpy's overflow warnings used to precede it
    src = os.path.dirname(os.path.dirname(os.path.abspath(detac.__file__)))
    env = dict(os.environ, DETAC_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "runs"
    for flags, seed, step in [
            (["--set", "agent=cacla", "--seed-offset", "1"], 1, 700),
            (["--set", "agent=nfac", "--set", "lr_critic=1e200",
              "--set", "total_steps=2000"], 0, 500)]:
        result = subprocess.run(
            [sys.executable, "-m", "detac.cli", "train", *flags,
             "--set", "env=pointmass", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 1, result.stderr
        assert (f"training diverged: seed {seed}: the critic has non-finite "
                f"parameters after env step {step}; no CSV written"
                in result.stderr)
        assert "RuntimeWarning" not in result.stderr, result.stderr
        assert result.stdout == ""
        assert not out.exists()


def test_divergence_error_survives_a_worker_process():
    err = pickle.loads(pickle.dumps(DivergenceError(4, 1200, "policy")))
    assert (err.seed, err.env_steps, err.net) == (4, 1200, "policy")
    assert str(err) == ("seed 4: the policy has non-finite parameters "
                        "after env step 1200")


def test_cli_train_runs_and_writes(tmp_path, capsys, monkeypatch):
    # --set seeds=1 wins over --seeds 3, as --set wins over every flag
    monkeypatch.setenv("DETAC_THREADS", "1")
    for name, seeds in [("runs", ["--seeds", "1"]),
                        ("set_wins", ["--seeds", "3", "--set", "seeds=1"])]:
        out = str(tmp_path / name)
        code = main(["train", "--set", "agent=nfac", "--set", "env=pointmass",
                     "--set", "hidden=8", "--set", "total_steps=40",
                     "--set", "eval_interval=20", "--set", "eval_episodes=2",
                     "--set", "pointmass_horizon=10",
                     "--set", "update_every=2", "--set", "fitted_iterations=2",
                     "--set", "actor_iterations=2", "--out", out, *seeds])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert os.path.join(out, "seed_0.csv") in printed
        assert sorted(os.listdir(out)) == ["aggregate.csv", "seed_0.csv"]


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("keep\n")
    return path


@pytest.mark.parametrize("sub", ["", "sub", None])
def test_cli_train_out_under_a_file_exits_2_before_training(
        a_file, capsys, monkeypatch, sub):
    # used to train every seed, then die in os.makedirs with exit status 1;
    # sub=None gives an empty --out
    monkeypatch.setattr(harness, "run_experiment",
                        lambda config: pytest.fail("trained"))
    out = {"": str(a_file), "sub": os.path.join(a_file, "sub"), None: ""}[sub]
    code = main(["train", "--set", "agent=nfac", "--set", "env=pointmass",
                 "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write into")
    assert len(err.splitlines()) == 1
    assert a_file.read_text() == "keep\n"


def test_cli_verify_report_in_a_missing_directory_exits_2(tmp_path, capsys,
                                                         monkeypatch):
    # used to run the whole suite, then raise FileNotFoundError
    monkeypatch.setattr(harness, "run_verification",
                        lambda *a, **k: pytest.fail("verified"))
    code = main(["verify", "lemma1", "--out", str(tmp_path / "no" / "r.txt")])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verify: cannot write the report to")
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("case", ["directory", "missing-parent",
                                  "parent-is-a-file", "empty"])
def test_cli_verify_out_that_cannot_be_a_report_exits_2(
        case, tmp_path, a_file, capsys, monkeypatch):
    # an empty --out used to run the suite and write no report
    monkeypatch.setattr(harness, "run_verification",
                        lambda *a, **k: pytest.fail("verified"))
    out = {"directory": str(tmp_path),
           "missing-parent": str(tmp_path / "no" / "r.txt"),
           "parent-is-a-file": os.path.join(a_file, "r.txt"),
           "empty": ""}[case]
    before = sorted(os.listdir(tmp_path))
    assert main(["verify", "lemma1", "--out", out]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("verify: cannot write the report to")
    assert len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == before
    assert a_file.read_text() == "keep\n"


@pytest.mark.parametrize("suite", [*harness.SUITES, "all"])
def test_cli_verify_negative_seed_exits_2(suite, tmp_path, capsys,
                                          monkeypatch):
    # lemma2, theorem1, gradcheck and all used to end in numpy's
    # "expected non-negative integer" traceback, and lemma1 ignored the seed
    monkeypatch.setattr(harness, "run_verification",
                        lambda *a, **k: pytest.fail("verified"))
    report = tmp_path / "r.txt"
    assert main(["verify", suite, "--seed", "-1", "--out", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "verify: need --seed >= 0, got -1\n"
    assert not report.exists()


def test_cli_bandit_suite_out_is_a_file_exits_2(a_file, capsys, monkeypatch):
    # used to raise FileExistsError from os.makedirs
    monkeypatch.setattr(cli, "run_bandit", lambda *a, **k: pytest.fail("ran"))
    code = main(["bandit-suite", "--episodes", "10", "--out", str(a_file)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bandit-suite: cannot write into")
    assert a_file.read_text() == "keep\n"
    # an empty --out used to raise FileNotFoundError
    assert main(["bandit-suite", "--episodes", "10", "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("bandit-suite: cannot write")


def test_cli_verify_offers_every_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "lemma3"])
    err = capsys.readouterr().err
    assert all(repr(name) in err for name in [*harness.SUITES, "all"])


def test_cli_bandit_suite_smoke(tmp_path, capsys):
    code = main(["bandit-suite", "--dims", "2", "--seeds", "2",
                 "--episodes", "50", "--out", str(tmp_path / "bandit")])
    assert code == 0
    path = tmp_path / "bandit" / "bandit_m2_cacla.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,mean,std"
    assert len(lines) > 1
