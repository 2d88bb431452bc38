import numpy as np
import pytest

from detac.agents import (AgentConfig, evaluate_deterministic, make_agent,
                          run_episodes)
from detac.critics import lambda_returns
from detac.envs import EnvSpec, PointMass
from detac.trajectory import Trajectory
from constant_critic import ConstantVCritic


class _ScriptedEnv:
    """Plays ``rewards`` in order whatever the action, then ends the
    episode; the state is the step index.  ``step`` takes (n, 1) states
    and (n, 1) actions, one transition per row, or one (1,) state."""

    def __init__(self, rewards, horizon):
        self.rewards = rewards
        self.spec = EnvSpec(state_dim=1, action_dim=1, horizon=horizon)

    def reset(self, rng):
        return np.zeros(1)

    def step(self, state, action, rng=None):
        states = np.asarray(state, dtype=float)
        if states.ndim == 1:
            s2, r, done = self.step(states[None], np.reshape(action, (1, 1)))
            return s2[0], float(r[0]), bool(done[0])
        t = states[:, 0].astype(int)
        return (states + 1.0, np.array(self.rewards)[t],
                t + 1 == len(self.rewards))


class _ZeroPolicy:
    def act(self, states):
        return np.zeros((len(states), 1))


def test_append_and_len():
    batch = Trajectory([[0.0], [1.0]], 3, 1)
    assert batch.lengths.tolist() == [0, 0]
    batch.append([0, 1], 0, [[0.1], [0.2]], [1.0, -2.0], [[0.5], [1.5]],
                 [False, True])
    batch.append([0], 1, [[0.3]], [0.5], [[0.7]], [False])
    assert batch.lengths.tolist() == [2, 1]
    assert batch.terminal.tolist() == [False, True]
    assert batch.states[:, :3, 0].tolist() == [[0.0, 0.5, 0.7],
                                              [1.0, 1.5, 0.0]]
    assert batch.actions[0, :2, 0].tolist() == [0.1, 0.3]
    assert batch.rewards[:, :2].tolist() == [[1.0, 0.5], [-2.0, 0.0]]


def test_episode_return_is_undiscounted_sum():
    env = _ScriptedEnv([1.0, -2.0, 0.5], horizon=5)
    mean, returns = evaluate_deterministic(
        _ZeroPolicy(), env, 2, np.random.default_rng(0))
    assert returns == [-0.5, -0.5]
    assert all(type(r) is float for r in returns)
    assert mean == -0.5


def test_arrays_preserve_order_and_shape():
    batch = Trajectory([[0.0, 1.0], [5.0, 6.0]], 2, 1)
    batch.append([0, 1], 0, [[0.3], [0.4]], [0.0, 1.0],
                 [[0.1, 0.9], [5.1, 5.9]], [False, True])
    batch.append([0], 1, [[-0.3]], [2.0], [[0.2, 0.8]], [False])
    states = batch.per_step(batch.states)
    assert states.shape == (3, 2)
    # episode 0's two steps, then episode 1's one step
    assert states.tolist() == [[0.0, 1.0], [0.1, 0.9], [5.0, 6.0]]
    assert batch.per_step(batch.states[:, 1:]).tolist() == [
        [0.1, 0.9], [0.2, 0.8], [5.1, 5.9]]
    assert batch.per_step(batch.actions).shape == (3, 1)
    assert batch.per_step(batch.rewards).tolist() == [0.0, 2.0, 1.0]


def test_horizon_cut_leaves_terminal_false():
    zeros = _ZeroPolicy().act
    batch = run_episodes(zeros, PointMass(horizon=3), 2,
                         np.random.default_rng(0))
    assert batch.lengths.tolist() == [3, 3]
    assert batch.terminal.tolist() == [False, False]
    # an episode that ends on the horizon's last step is terminal
    batch = run_episodes(zeros, _ScriptedEnv([1.0, 2.0, 3.0], horizon=3), 1,
                         np.random.default_rng(0))
    assert batch.lengths.tolist() == [3] and batch.terminal.tolist() == [True]
    # the horizon cut bootstraps from the final state; the terminal does not
    critic = ConstantVCritic(10.0)
    cut = run_episodes(zeros, _ScriptedEnv([1.0, 2.0, 3.0], horizon=2), 1,
                       np.random.default_rng(0))
    assert cut.terminal.tolist() == [False]
    assert lambda_returns(cut, critic, 0.5, 1.0).tolist() == [
        1.0 + 0.5 * (2.0 + 0.5 * 10.0), 2.0 + 0.5 * 10.0]
    assert lambda_returns(batch, critic, 0.5, 1.0).tolist()[-1] == 3.0


def test_zero_length_episode_raises():
    batch = Trajectory([[0.0], [0.0]], 2, 1)
    batch.append([0], 0, [[0.1]], [1.0], [[1.0]], [False])
    with pytest.raises(ValueError):
        lambda_returns(batch, ConstantVCritic(0.0), 0.9, 0.5)
    agent = make_agent(AgentConfig(rule="nfac", hidden=(4,)), PointMass(),
                       np.random.default_rng(0))
    with pytest.raises(ValueError):
        agent.update_phase(Trajectory(np.zeros((0, 2)), 1, 1))
