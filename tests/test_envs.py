import numpy as np
import pytest

from detac.envs import (EnvSpec, FiniteMdp, PointMass, QuadraticBandit,
                        make_quadratic_bandit, random_finite_mdp)


def test_envspec_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        EnvSpec(1, 1, 1.0, -1.0, 10)
    with pytest.raises(ValueError):
        EnvSpec(1, 1, 0.0, 0.0, 10)


def test_bandit_reward_at_target_is_zero():
    env = QuadraticBandit([0.3, -0.2])
    _, r, done = env.step(env.reset(), np.array([0.3, -0.2]))
    assert r == 0.0
    assert done


def test_bandit_reward_is_negative_squared_distance():
    env = QuadraticBandit([0.5])
    _, r, _ = env.step(env.reset(), np.array([0.1]))
    assert r == pytest.approx(-0.16, abs=1e-12)


def test_bandit_clips_out_of_bound_action():
    env = QuadraticBandit([0.0])
    _, r, _ = env.step(env.reset(), np.array([3.0]))
    assert r == pytest.approx(-1.0)  # clipped to 1.0


def test_bandit_rejects_nonfinite_action():
    env = QuadraticBandit([0.0])
    with pytest.raises(ValueError):
        env.step(env.reset(), np.array([np.nan]))


def test_bandit_rejects_wrong_action_dim():
    env = QuadraticBandit([0.0, 0.0])
    with pytest.raises(ValueError):
        env.step(env.reset(), np.array([0.1]))


def test_make_quadratic_bandit_target_in_box():
    for seed in range(10):
        env = make_quadratic_bandit(5, seed)
        assert env.target.shape == (5,)
        assert np.all(np.abs(env.target) <= 0.8)


def test_make_quadratic_bandit_deterministic_in_seed():
    a = make_quadratic_bandit(3, 7).target
    b = make_quadratic_bandit(3, 7).target
    assert np.array_equal(a, b)


def test_pointmass_one_step_kinematics():
    env = PointMass(goal=0.5)
    s2, r, done = env.step(np.zeros(2), np.array([1.0]))
    # vel = 0.1, pos = 0.01
    assert np.allclose(s2, [0.01, 0.1], atol=1e-15)
    assert r == pytest.approx(-(0.01 - 0.5) ** 2 - 0.01, abs=1e-12)
    assert not done


def test_pointmass_state_clipped():
    env = PointMass()
    s = np.array([2.0, 2.0])
    for _ in range(20):
        s, _, _ = env.step(s, np.array([1.0]))
    assert s[0] <= 2.0 and s[1] <= 2.0


def test_pointmass_parked_on_goal_reward():
    env = PointMass(goal=0.5)
    s = np.array([0.5, 0.0])
    _, r, _ = env.step(s, np.array([0.0]))
    assert r == 0.0


def test_finite_mdp_rejects_non_stochastic_rows():
    p = np.ones((2, 1, 2)) * 0.6
    r = np.zeros((2, 1))
    with pytest.raises(ValueError):
        FiniteMdp(p, r, np.array([1.0, 0.0]), 0.9)


def test_finite_mdp_rejects_bad_start():
    p = np.full((2, 1, 2), 0.5)
    r = np.zeros((2, 1))
    with pytest.raises(ValueError):
        FiniteMdp(p, r, np.array([0.6, 0.6]), 0.9)


def test_random_finite_mdp_rows_sum_to_one():
    mdp = random_finite_mdp(6, 4, 0.95, np.random.default_rng(3))
    assert np.allclose(mdp.transitions.sum(axis=2), 1.0, atol=1e-12)
    assert mdp.start.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(mdp.rewards) <= 1.0)
