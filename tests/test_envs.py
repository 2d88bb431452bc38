import logging

import numpy as np
import pytest

from detac.envs import (EnvSpec, FiniteMdp, PointMass, QuadraticBandit,
                        _check_action, make_quadratic_bandit,
                        random_finite_mdp)

# the bandit and the point mass draw nothing from the rng they are handed
RNG = np.random.default_rng(0)


@pytest.mark.parametrize("horizon", [0, -1])
def test_envspec_rejects_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="horizon"):
        EnvSpec(1, 1, horizon)
    with pytest.raises(ValueError, match="horizon"):
        PointMass(horizon=horizon)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _reference_pointmass_step(env, state, action):
    """PointMass.step as it was written on numpy scalars with np.clip."""
    a = np.clip(np.asarray(action, dtype=float).reshape(-1), -1.0, 1.0)
    pos, vel = float(state[0]), float(state[1])
    vel = np.clip(vel + env.DT * a[0], -env.STATE_BOUND, env.STATE_BOUND)
    pos = np.clip(pos + env.DT * vel, -env.STATE_BOUND, env.STATE_BOUND)
    reward = -(pos - env.goal) ** 2 - 0.01 * float(np.sum(a * a))
    return np.array([pos, vel]), float(reward)


def _random_transitions(n, seed):
    # about a third of the states and actions lie outside their bounds
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(n, 2)), rng.uniform(-1.5, 1.5, size=(n, 1))


def test_pointmass_step_equals_numpy_scalar_reference(caplog):
    env = PointMass(goal=0.37)
    states, actions = _random_transitions(3000, 5)
    states[:5] = [[0.37, 0.0], [2.0, 2.0], [-2.0, -2.0], [-0.0, 0.0], [0.0, -0.0]]
    actions[:5] = [[0.0], [1.0], [-1.0], [-0.0], [1e-300]]
    with caplog.at_level(logging.ERROR, logger="detac.envs"):
        for state, action in zip(states, actions):
            # one (1, 2) row per call, as the incremental agent steps
            s2, r, done = env.step(state[None], action[None], RNG)
            ref_s2, ref_r = _reference_pointmass_step(env, state, action)
            assert np.array_equal(_bits(s2[0]), _bits(ref_s2))
            assert _bits(r[0]) == _bits(ref_r) and not done[0]


def test_check_action_rejects_wrong_width_and_nonfinite():
    spec = EnvSpec(2, 2, 10)
    for bad in (np.zeros(1), np.zeros(3), np.zeros((3, 1)),
                np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            _check_action(spec, bad)
    for value in (np.nan, np.inf, -np.inf):
        action = np.array([0.0, value])
        with pytest.raises(ValueError, match="non-finite"):
            _check_action(spec, action)
        # a non-finite value next to an out-of-bounds one still raises
        action[0] = 5.0
        with pytest.raises(ValueError, match="non-finite"):
            _check_action(spec, action)
        # one non-finite row among finite rows of a batch
        rows = np.zeros((3, 2))
        rows[1] = value
        with pytest.raises(ValueError, match="non-finite"):
            _check_action(spec, rows, 3)


def test_check_action_clips_out_of_bounds_with_warning(caplog):
    spec = EnvSpec(2, 2, 10)
    for action, want in (([3.0, -0.2], [1.0, -0.2]),
                         ([0.1, -7.0], [0.1, -1.0])):
        action = np.array(action)
        original = action.copy()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="detac.envs"):
            out = _check_action(spec, action)
        assert "out of bounds" in caplog.text
        assert np.array_equal(out, want)
        assert np.array_equal(action, original)   # clipped on a copy


def test_check_action_leaves_in_bounds_values_unchanged(caplog):
    spec = EnvSpec(2, 2, 10)
    for actions in (np.array([1.0, -1.0]), np.array([0.3, -0.0]),
                    np.array([-1.0, 1e-300]), np.array([[0.25, -1.0]])):
        with caplog.at_level(logging.WARNING, logger="detac.envs"):
            out = _check_action(spec, actions)
        assert caplog.text == ""
        assert np.array_equal(_bits(out), _bits(actions).reshape(-1))
        assert np.shares_memory(out, actions)   # no copy when in bounds


def test_bandit_reward_at_target_is_zero():
    env = QuadraticBandit([0.3, -0.2])
    _, r, done = env.step(env.reset(RNG), np.array([0.3, -0.2]), RNG)
    assert r == 0.0
    assert done


def test_bandit_reward_is_negative_squared_distance():
    env = QuadraticBandit([0.5])
    _, r, _ = env.step(env.reset(RNG), np.array([0.1]), RNG)
    assert r == pytest.approx(-0.16, abs=1e-12)


def test_bandit_clips_out_of_bound_action():
    env = QuadraticBandit([0.0])
    _, r, _ = env.step(env.reset(RNG), np.array([3.0]), RNG)
    assert r == pytest.approx(-1.0)  # clipped to 1.0


def test_bandit_rejects_nonfinite_action():
    env = QuadraticBandit([0.0])
    with pytest.raises(ValueError):
        env.step(env.reset(RNG), np.array([np.nan]), RNG)


def test_bandit_rejects_wrong_action_dim():
    env = QuadraticBandit([0.0, 0.0])
    with pytest.raises(ValueError):
        env.step(env.reset(RNG), np.array([0.1]), RNG)


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
    s2, r, done = env.step(np.zeros((1, 2)), np.array([[1.0]]), RNG)
    # vel = 0.1, pos = 0.01
    assert np.allclose(s2, [[0.01, 0.1]], atol=1e-15)
    assert r[0] == pytest.approx(-(0.01 - 0.5) ** 2 - 0.01, abs=1e-12)
    assert done.tolist() == [False]


def test_pointmass_state_clipped():
    env = PointMass()
    s = np.array([[2.0, 2.0]])
    for _ in range(20):
        s, _, _ = env.step(s, np.array([[1.0]]), RNG)
    assert s[0, 0] <= 2.0 and s[0, 1] <= 2.0


def test_pointmass_parked_on_goal_reward():
    env = PointMass(goal=0.5)
    s = np.array([[0.5, 0.0]])
    _, r, _ = env.step(s, np.array([[0.0]]), RNG)
    assert r.tolist() == [0.0]


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


def test_pointmass_rows_equal_numpy_scalar_reference(caplog):
    # the 3000 transitions of the one-row reference test, as one call
    env = PointMass(goal=0.37)
    states, actions = _random_transitions(3000, 5)
    states[:5] = [[0.37, 0.0], [2.0, 2.0], [-2.0, -2.0], [-0.0, 0.0], [0.0, -0.0]]
    actions[:5] = [[0.0], [1.0], [-1.0], [-0.0], [1e-300]]
    with caplog.at_level(logging.ERROR, logger="detac.envs"):
        next_states, rewards, terminals = env.step(states, actions, RNG)
    assert next_states.shape == (3000, 2)
    assert rewards.shape == terminals.shape == (3000,)
    assert not terminals.any()
    for state, action, s2, r in zip(states, actions, next_states, rewards):
        ref_s2, ref_r = _reference_pointmass_step(env, state, action)
        assert np.array_equal(_bits(s2), _bits(ref_s2))
        assert _bits(r) == _bits(ref_r)


@pytest.mark.parametrize("m", [5, 50])
def test_bandit_rows_equal_one_state_steps(m):
    env = make_quadratic_bandit(m, 3)
    # about a third of the coordinates lie outside the box
    actions = np.random.default_rng(m).uniform(-1.5, 1.5, size=(40, m))
    actions[0] = env.target
    states = np.zeros((40, 1))
    next_states, rewards, terminals = env.step(states, actions, RNG)
    assert np.array_equal(next_states, states)
    assert terminals.dtype == bool and terminals.all()
    assert rewards[0] == 0.0
    for action, r in zip(actions, rewards):
        s2, want, done = env.step(np.zeros(1), action, RNG)
        assert _bits(r) == _bits(want) and done is True
        clipped = np.clip(action, -1.0, 1.0)
        assert r == -float(np.sum((clipped - env.target) ** 2))


@pytest.mark.parametrize("env", [PointMass(), QuadraticBandit([0.1, -0.4])],
                         ids=["pointmass", "bandit"])
def test_rows_clip_out_of_box_actions_and_reject_nonfinite(env, caplog):
    m = env.spec.action_dim
    states = np.zeros((3, env.spec.state_dim))
    inside = np.full((3, m), 0.5)
    outside = inside.copy()
    outside[1, 0] = 4.0
    clipped = outside.copy()
    clipped[1, 0] = 1.0
    with caplog.at_level(logging.WARNING, logger="detac.envs"):
        got = env.step(states, outside, RNG)
    assert "out of bounds" in caplog.text
    want = env.step(states, clipped, RNG)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert outside[1, 0] == 4.0   # clipped on a copy
    for value in (np.nan, np.inf):
        bad = outside.copy()
        bad[2, -1] = value
        with pytest.raises(ValueError, match="non-finite"):
            env.step(states, bad, RNG)
    for shape in ((2, m), (3, m + 1), (3,)):
        with pytest.raises(ValueError):
            env.step(states, np.zeros(shape), RNG)
