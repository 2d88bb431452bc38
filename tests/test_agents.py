import copy
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import detac
from detac.agents import (AgentConfig, BanditConfig, BatchActorCritic,
                          IncrementalActorCritic, evaluate_deterministic,
                          make_agent, run_bandit, run_episodes)
from detac.critics import fitted_value_iteration, lambda_returns
from detac.envs import (EnvSpec, PointMass, QuadraticBandit,
                        make_quadratic_bandit)
from detac.policies import MlpPolicy
from detac.trajectory import Trajectory
from detac.updates import (adapt_beta, batch_gated_direction,
                           policy_distance_dhat)
from constant_critic import ConstantVCritic


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(rule="unknown")
    with pytest.raises(ValueError):
        AgentConfig(gamma=1.0)
    with pytest.raises(ValueError):
        AgentConfig(lam=1.5)
    with pytest.raises(ValueError):
        AgentConfig(update_every=0)
    with pytest.raises(ValueError):
        AgentConfig(fitted_iterations=0)
    # every range check fails on NaN
    for name in ("gamma", "lam", "sigma", "lr_actor", "lr_critic",
                 "d_target"):
        with pytest.raises(ValueError):
            AgentConfig(**{name: float("nan")})
    # sigma must be positive, and a learning rate of 0 is allowed
    rates = "need sigma > 0 and learning rates >= 0"
    for bad in ({"sigma": 0.0}, {"sigma": -0.1}, {"lr_actor": -1e-4},
                {"lr_critic": -1e-3}):
        with pytest.raises(ValueError, match=rates):
            AgentConfig(**bad)
    assert AgentConfig(lr_actor=0.0, lr_critic=0.0).lr_actor == 0.0


def test_agent_config_checks_sigma_decay():
    # each agent scales its exploration sigma by sigma_decay once per
    # phase, so the config owns the check: a factor in (0, 1]
    for bad in (0.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="sigma_decay"):
            AgentConfig(sigma_decay=bad)
    assert AgentConfig(sigma_decay=1.0).sigma_decay == 1.0


def _sequential_episode(act, env, rng):
    """One episode, one one-row ``act`` and one one-row ``env.step`` per
    step, kept in per-step lists: the reference for the lockstep
    ``run_episodes``."""
    ep = SimpleNamespace(states=[], actions=[], rewards=[], next_states=[],
                         terminals=[])
    state = env.reset(rng)
    for _ in range(env.spec.horizon):
        action = act(state[None])[0]
        next_states, rewards, terminals = env.step(
            state[None], np.reshape(action, (1, -1)), rng)
        next_state, reward, terminal = (next_states[0], float(rewards[0]),
                                        bool(terminals[0]))
        for field, value in zip(("states", "actions", "rewards",
                                 "next_states", "terminals"),
                                (state, action, reward, next_state, terminal)):
            getattr(ep, field).append(value)
        state = next_state
        if terminal:
            break
    return ep


def _assert_same_episode(batch, i, want):
    """Row ``i`` of a ``Trajectory`` holds the episode ``want``, bit for
    bit."""
    k = len(want.rewards)
    assert batch.lengths[i] == k
    assert np.array_equal(batch.states[i, :k], want.states)
    assert np.array_equal(batch.states[i, 1:k + 1], want.next_states)
    assert np.array_equal(batch.actions[i, :k], want.actions)
    assert batch.rewards[i, :k].tolist() == want.rewards
    # only the last step of an episode can be terminal
    assert not any(want.terminals[:-1])
    assert batch.terminal[i] == want.terminals[-1]


def _assert_same_batch(got, want):
    assert got.lengths.tolist() == want.lengths.tolist()
    assert got.terminal.tolist() == want.terminal.tolist()
    for field in ("states", "actions", "rewards"):
        assert np.array_equal(got.per_step(getattr(got, field)),
                              want.per_step(getattr(want, field)))


def test_run_episode_respects_horizon_and_terminal():
    def zeros(states):
        return np.zeros((len(states), 1))

    env = PointMass(horizon=7)
    batch = run_episodes(zeros, env, 3, np.random.default_rng(0))
    assert batch.lengths.tolist() == [7, 7, 7]
    assert not batch.terminal.any()
    bandit = QuadraticBandit([0.0])
    batch = run_episodes(zeros, bandit, 1, np.random.default_rng(0))
    assert batch.lengths.tolist() == [1]
    assert batch.terminal.tolist() == [True]
    for n in (0, -1):
        with pytest.raises(ValueError):
            run_episodes(zeros, env, n, np.random.default_rng(0))


def test_evaluate_deterministic_does_not_change_policy():
    pol = MlpPolicy(2, 1, hidden_sizes=(4,), hidden="tanh",
                    rng=np.random.default_rng(0))
    env = PointMass(horizon=10)
    before = pol.get_params().copy()
    mean, returns = evaluate_deterministic(pol, env, 3,
                                           np.random.default_rng(0))
    assert np.array_equal(pol.get_params(), before)
    assert len(returns) == 3
    assert mean == pytest.approx(np.mean(returns))


def _episode_loop_returns(policy, env, n_episodes, rng):
    """evaluate_deterministic as a loop of single episodes: the reference
    for the lockstep form."""
    return [float(sum(_sequential_episode(policy.act, env, rng).rewards))
            for _ in range(n_episodes)]


# a 10-row matmul rounds differently from a 1-row one; 1e-12 is far above
# float64 roundoff over 100 steps and far below any change in behaviour
EVAL_RTOL = 1e-12


def _assert_lockstep_matches_loop(policy, env, n_episodes, seed=5):
    mean, returns = evaluate_deterministic(policy, env, n_episodes,
                                           np.random.default_rng(seed))
    want = _episode_loop_returns(policy, env, n_episodes,
                                 np.random.default_rng(seed))
    assert len(returns) == n_episodes
    assert all(type(r) is float for r in returns)
    np.testing.assert_allclose(returns, want, rtol=EVAL_RTOL, atol=0)
    assert mean == float(np.mean(returns))
    return returns


class _StaggeredEnv:
    """Test-side env whose episodes end at different steps: the start state
    is a countdown drawn by ``reset``; ``step`` draws nothing, so the
    lockstep form resets every episode from the same stream as the loop.
    ``step`` takes (n, 1) states and (n, 1) actions, one transition per
    row, or one (1,) state and its action as one row."""

    def __init__(self, horizon):
        self.spec = EnvSpec(state_dim=1, action_dim=1, horizon=horizon)

    def reset(self, rng):
        return np.array([float(rng.integers(1, 2 * self.spec.horizon))])

    def step(self, state, action, rng=None):
        states = np.asarray(state, dtype=float)
        if states.ndim == 1:
            s2, r, done = self.step(states[None], np.reshape(action, (1, 1)))
            return s2[0], float(r[0]), bool(done[0])
        left = states - 1.0
        rewards = -(np.asarray(action)[:, 0] - 0.3) ** 2 * states[:, 0]
        return left, rewards, left[:, 0] <= 0.0


def test_lockstep_evaluation_pointmass_policy():
    rng = np.random.default_rng(2)
    pol = MlpPolicy(2, 1, hidden_sizes=(32, 32), hidden="leaky_relu",
                    rng=rng)
    pol.set_params(pol.get_params()
                   + 0.3 * rng.standard_normal(pol.num_params))
    returns = _assert_lockstep_matches_loop(pol, PointMass(goal=0.5), 10)
    assert returns[0] != 0.0


def test_lockstep_evaluation_quadratic_bandit():
    env = make_quadratic_bandit(3, 1)
    pol = MlpPolicy(1, 3, hidden_sizes=(8,), hidden="tanh",
                    rng=np.random.default_rng(3))
    returns = _assert_lockstep_matches_loop(pol, env, 4)
    assert len(set(returns)) == 1 and returns[0] < 0.0


def test_lockstep_evaluation_masks_finished_episodes():
    env = _StaggeredEnv(horizon=8)
    pol = MlpPolicy(1, 1, hidden_sizes=(8,), hidden="tanh",
                    rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    lengths = [len(_sequential_episode(pol.act, env, rng).rewards)
               for _ in range(12)]
    # some end early at different steps, some run into the horizon
    assert len(set(lengths)) > 3 and max(lengths) == 8 and min(lengths) < 8
    _assert_lockstep_matches_loop(pol, env, 12)


class _RowPolicy:
    """A greedy policy that works row by row, so a batched call computes
    the same bits as single calls."""

    def act(self, states):
        return np.tanh(0.3 * np.asarray(states) - 0.5)


def test_run_episodes_equals_sequential_loop():
    # the episodes end at steps 1 to 8, or run into the horizon
    act = _RowPolicy().act
    env = _StaggeredEnv(horizon=8)
    seen = []
    batch = run_episodes(act, env, 40, np.random.default_rng(5),
                         on_step=lambda *step: seen.append(step))
    rng = np.random.default_rng(5)
    want = [_sequential_episode(act, env, rng) for _ in range(40)]
    assert sorted({len(ep.rewards) for ep in want}) == list(range(1, 9))
    assert batch.lengths.tolist() == [len(ep.rewards) for ep in want]
    assert batch.terminal.tolist() == [bool(ep.terminals[-1]) for ep in want]
    assert not all(batch.terminal)
    for i, ep in enumerate(want):
        _assert_same_episode(batch, i, ep)
    # the per-step rows, in episode order, are the loop's steps end to end
    for rows, field in ((batch.states, "states"),
                        (batch.states[:, 1:], "next_states"),
                        (batch.actions, "actions")):
        want_rows = np.array([x for ep in want for x in getattr(ep, field)])
        assert np.array_equal(batch.per_step(rows), want_rows)
    assert (batch.per_step(batch.rewards).tolist()
            == [r for ep in want for r in ep.rewards])
    # and the evaluation returns are the loop's reward sums, bit for bit
    _, returns = evaluate_deterministic(_RowPolicy(), env, 40,
                                        np.random.default_rng(5))
    assert returns == [float(sum(ep.rewards)) for ep in want]
    # on_step sees each time step once, as arrays of the running rows in
    # episode order: every transition, in (t, i) order
    assert [len(step[0]) for step in seen] == [
        sum(t < len(ep.rewards) for ep in want) for t in range(8)]
    for step in seen:
        assert len({len(rows) for rows in step}) == 1
    seen = [(state, action, reward, next_state, terminal)
            for states, actions, rewards, next_states, terminals in seen
            for state, action, reward, next_state, terminal in zip(
                states, actions, rewards.tolist(), next_states,
                terminals.tolist())]
    order = [(t, i) for t in range(8) for i in range(40)
             if t < len(want[i].rewards)]
    assert len(seen) == len(order)
    for (t, i), (state, action, reward, next_state, terminal) in zip(order,
                                                                     seen):
        assert np.array_equal(state, want[i].states[t])
        assert np.array_equal(action, want[i].actions[t])
        assert np.array_equal(next_state, want[i].next_states[t])
        assert reward == want[i].rewards[t]
        assert terminal == want[i].terminals[t]


class _CountdownEnv(_StaggeredEnv):
    """``_StaggeredEnv`` with the given start countdowns, one per reset, in
    order: episode i ends after ``starts[i]`` steps."""

    def __init__(self, starts, horizon):
        super().__init__(horizon)
        self.starts = list(starts)

    def reset(self, rng):
        return np.array([float(self.starts.pop(0))])


def test_run_episodes_hands_act_the_running_rows_in_order():
    # no episode ends at step 0, so steps 0 and 1 run every row; the first
    # ends at step 1, and from step 2 on the running rows are a subset
    starts = [3, 2, 5, 4, 2, 6]
    seen = []

    def act(states):
        seen.append(states.copy())
        return 0.1 * states

    batch = run_episodes(act, _CountdownEnv(starts, horizon=5), len(starts),
                         np.random.default_rng(0))
    running = [[i for i, k in enumerate(starts) if t < k] for t in range(5)]
    assert [len(s) for s in seen] == [len(rows) for rows in running]
    for t, (states, rows) in enumerate(zip(seen, running)):
        assert states[:, 0].tolist() == [starts[i] - t for i in rows]
        assert np.array_equal(batch.actions[rows, t], 0.1 * states)
    assert batch.lengths.tolist() == [min(k, 5) for k in starts]
    assert batch.terminal.tolist() == [k <= 5 for k in starts]
    for i, k in enumerate(starts):
        length = min(k, 5)
        assert batch.states[i, :length + 1, 0].tolist() == [
            k - t for t in range(length + 1)]
        assert not batch.actions[i, length:].any()


def test_lockstep_evaluation_single_episode():
    pol = MlpPolicy(2, 1, hidden_sizes=(8,), hidden="tanh",
                    rng=np.random.default_rng(6))
    _assert_lockstep_matches_loop(pol, PointMass(horizon=30), 1)
    pol = MlpPolicy(1, 1, hidden_sizes=(8,), hidden="tanh",
                    rng=np.random.default_rng(7))
    _assert_lockstep_matches_loop(pol, _StaggeredEnv(horizon=5), 1)


def test_evaluate_deterministic_rejects_no_episodes():
    pol = MlpPolicy(2, 1, hidden_sizes=(4,), hidden="tanh",
                    rng=np.random.default_rng(0))
    for n in (0, -1):
        with pytest.raises(ValueError):
            evaluate_deterministic(pol, PointMass(horizon=5), n,
                                   np.random.default_rng(0))


def test_incremental_agent_rejects_batch_rules():
    # the rule is checked before the policy is read
    with pytest.raises(ValueError):
        IncrementalActorCritic(None, ConstantVCritic(), AgentConfig(rule="nfac"))


def test_batch_agent_rejects_incremental_rules():
    with pytest.raises(ValueError):
        BatchActorCritic(None, ConstantVCritic(), AgentConfig(rule="cacla"))


def test_incremental_cacla_improves_on_bandit():
    # one-state problem: positive TD errors pull mu toward the target
    env = QuadraticBandit([0.4])
    cfg = AgentConfig(rule="cacla", gamma=0.0, sigma=0.3,
                      lr_actor=0.1, lr_critic=0.2)
    pol = MlpPolicy(1, 1, hidden_sizes=(4,), hidden="tanh",
                    rng=np.random.default_rng(0))
    agent = IncrementalActorCritic(pol, ConstantVCritic(lr=0.2), cfg)
    rng = np.random.default_rng(0)
    for _ in range(500):
        agent.run_episode(env, rng)
    assert abs(pol.act(np.zeros((1, 1)))[0, 0] - 0.4) < 0.1


def test_incremental_agent_sigma_anneals_per_episode():
    env = QuadraticBandit([0.0])
    cfg = AgentConfig(rule="cacla", gamma=0.0, sigma=0.4, sigma_decay=0.5)
    pol = MlpPolicy(1, 1, hidden_sizes=(4,), hidden="tanh",
                    rng=np.random.default_rng(0))
    agent = IncrementalActorCritic(pol, ConstantVCritic(lr=1e-3), cfg)
    rng = np.random.default_rng(1)
    agent.run_episode(env, rng)
    agent.run_episode(env, rng)
    assert agent.exploration.sigma == pytest.approx(0.1)


def _incremental_reference(agent, env, rng, episodes):
    """``IncrementalActorCritic.run_episode`` in the three-pass order it
    replaced: per step V(s') and V(s) as two one-row ``values`` calls,
    then the actor's direction and step, then the critic's step from a
    third forward and a backward on ``[s]``."""
    policy, critic, cfg = agent.policy, agent.critic, agent.config
    for _ in range(episodes):
        state = env.reset(rng)
        for _ in range(env.spec.horizon):
            action = agent.exploration.act(policy.act(state[None]), rng)[0]
            next_states, rewards, terminals = env.step(
                state[None], action[None], rng)
            next_state = next_states[0]
            reward, terminal = float(rewards[0]), bool(terminals[0])
            bootstrap = (0.0 if terminal
                         else cfg.gamma * critic.values([next_state]).item())
            delta = reward + bootstrap - critic.values([state]).item()
            if delta > 0:
                direction = batch_gated_direction(
                    policy, policy.act([state]), action[None], [delta],
                    scale_by_delta=False)
                if cfg.rule == "cac":
                    direction = delta * direction
                if np.any(direction):
                    policy.set_params(policy.get_params()
                                      + cfg.lr_actor * direction)
            critic.net.forward([state])
            grad = critic.net.backward(np.ones((1, 1)))
            critic.net.set_params(critic.net.get_params()
                                  + cfg.lr_critic * delta * grad)
            state = next_state
            if terminal:
                break
        agent.exploration.sigma *= cfg.sigma_decay


# each env and the episodes over which some gates open: 200 steps of
# PointMass and 100 of the bandit
INCREMENTAL_ENVS = {
    "pointmass": (lambda: PointMass(horizon=20), 10),
    "bandit": (lambda: make_quadratic_bandit(2, 0), 100),
}


@pytest.mark.parametrize("env_name", INCREMENTAL_ENVS)
@pytest.mark.parametrize("rule", ["cacla", "cac"])
def test_incremental_agent_matches_three_pass_reference_bit_for_bit(
        rule, env_name):
    make_env, episodes = INCREMENTAL_ENVS[env_name]
    env = make_env()
    cfg = AgentConfig(rule=rule, hidden=(8,), lr_actor=0.01, lr_critic=0.03,
                      sigma_decay=0.99)
    agent = make_agent(cfg, env, np.random.default_rng(3))
    ref = copy.deepcopy(agent)
    start = agent.policy.get_params()
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(episodes):
        agent.run_episode(env, rng)
    _incremental_reference(ref, env, ref_rng, episodes)
    got, want = agent.policy.get_params(), ref.policy.get_params()
    assert np.all(np.isfinite(got)) and not np.array_equal(got, start)
    assert got.tobytes() == want.tobytes()
    assert (agent.critic.net.get_params().tobytes()
            == ref.critic.net.get_params().tobytes())
    assert agent.exploration.sigma == ref.exploration.sigma != cfg.sigma
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("env_name, forwards", [("pointmass", 2),
                                                ("bandit", 1)])
def test_incremental_step_makes_two_critic_forwards_and_one_backward(
        env_name, forwards):
    # per step V(s') and V(s), and the backward reads the V(s) pass; a
    # terminal step, every bandit step, reads no V(s')
    env = INCREMENTAL_ENVS[env_name][0]()
    agent = make_agent(AgentConfig(rule="cacla", hidden=(8,)), env,
                       np.random.default_rng(3))
    calls = _count_calls(agent.critic.net, "forward")
    backward_calls = _count_calls(agent.critic.net, "backward")
    steps = agent.run_episode(env, np.random.default_rng(4))
    assert len(calls) == forwards * steps
    assert len(backward_calls) == steps


def test_batch_agent_updates_only_every_n_episodes():
    cfg = AgentConfig(rule="nfac", update_every=3, hidden=(8,),
                      actor_iterations=2, fitted_iterations=2)
    env = PointMass(horizon=10)
    rng = np.random.default_rng(2)
    agent = make_agent(cfg, env, np.random.default_rng(3))
    w0 = agent.critic.net.get_params().copy()
    fits = []
    update_phase = agent.update_phase
    agent.update_phase = lambda batch: (fits.append(batch),
                                        update_phase(batch))
    assert agent.run_episode(env, rng) == 3 * 10
    # one call rolls out update_every episodes and updates once; the
    # critic always regresses in a phase, the gated actor may not move
    assert len(fits) == 1 and len(fits[0].lengths) == 3
    assert not np.array_equal(agent.critic.net.get_params(), w0)


def test_batch_agent_phase_episodes_come_from_pre_update_policy():
    cfg = AgentConfig(rule="penfac", update_every=3, hidden=(8,),
                      actor_iterations=3, fitted_iterations=20,
                      lr_critic=0.05, sigma_decay=0.5)
    env = PointMass(horizon=10)
    rng = np.random.default_rng(8)
    agent = make_agent(cfg, env, np.random.default_rng(9))
    phases = []
    update_phase = agent.update_phase
    agent.update_phase = lambda batch: (phases.append(batch),
                                        update_phase(batch))
    for _ in range(3):
        # replay the phase on a copy of the agent and of the rng, taken
        # before the phase
        before = copy.deepcopy(agent)
        replay = copy.deepcopy(rng)
        want = run_episodes(
            lambda s: before.exploration.act(before.policy.act(s), replay),
            env, cfg.update_every, replay)
        # one call runs the phase and returns its step count, and the
        # update learns from the replayed batch
        assert agent.run_episode(env, rng) == want.lengths.sum()
        _assert_same_batch(phases[-1], want)
        # the phase consumed the rng exactly as the replay did
        assert rng.bit_generator.state == replay.bit_generator.state
        assert agent.exploration.sigma == before.exploration.sigma / 2
    # the test sees real updates: the policy has moved since the start
    assert not np.array_equal(agent.policy.get_params(),
                              make_agent(cfg, env, np.random.default_rng(9))
                              .policy.get_params())


def test_batch_agent_hands_out_each_episode_step_count():
    # a phase's episodes end at different steps; _StaggeredEnv's lengths
    # follow from the reset draws, which come first in the phase's stream
    cfg = AgentConfig(rule="nfac", update_every=6, hidden=(4,),
                      actor_iterations=1, fitted_iterations=1)
    env = _StaggeredEnv(horizon=8)
    agent = make_agent(cfg, env, np.random.default_rng(0))
    replay = np.random.default_rng(1)
    want = [min(int(env.reset(replay)[0]), 8) for _ in range(6)]
    assert len(set(want)) > 1
    assert sum(want) != cfg.update_every * 8
    assert agent.run_episode(env, np.random.default_rng(1)) == sum(want)


def test_penfac_tracks_dhat_and_adapts_beta():
    cfg = AgentConfig(rule="penfac", update_every=2, hidden=(8,),
                      actor_iterations=2, fitted_iterations=2)
    env = PointMass(horizon=10)
    rng = np.random.default_rng(4)
    agent = make_agent(cfg, env, np.random.default_rng(5))
    for _ in range(2):
        agent.run_episode(env, rng)
    assert len(agent.dhat_history) == 2
    assert all(d >= 0 for d in agent.dhat_history)
    assert 1e-6 <= agent.beta <= 1e6


def test_penfac_dhat_measures_against_pre_phase_policy():
    # d_hat compares with the policy as it stood before the phase, state
    # by state; the critic is fitted hard enough that some advantages are
    # positive and the actor moves
    cfg = AgentConfig(rule="penfac", update_every=2, hidden=(8,),
                      actor_iterations=3, fitted_iterations=20,
                      lr_critic=0.05)
    env = PointMass(horizon=10)
    rng = np.random.default_rng(6)
    agent = make_agent(cfg, env, np.random.default_rng(7))
    batch = run_episodes(
        lambda s: agent.exploration.act(agent.policy.act(s), rng), env, 2, rng)
    states = batch.per_step(batch.states)
    before = copy.deepcopy(agent.policy)
    agent.update_phase(batch)
    after = agent.policy
    assert not np.array_equal(after.get_params(), before.get_params())
    expected = sum(np.linalg.norm(before.act([s]) - after.act([s]))
                   for s in states) / np.sqrt(len(states))
    assert abs(agent.dhat_history[-1] - expected) < 1e-12


@pytest.mark.parametrize("rule, seed", [
    *(pytest.param("penfac", seed, id=str(seed)) for seed in (1, 2, 3)),
    *(pytest.param("nfac", seed, id=f"nfac-{seed}") for seed in (1, 2, 3))])
def test_penfac_dhat_is_the_whole_move_of_its_phase(rule, seed):
    # the trust region covers everything a phase changes: with the default
    # agent, d_hat is the distance between mu on the phase's states before
    # update_phase and after it, bit for bit, in phases where no gate
    # opens (d_hat = 0) and in phases where the actor moves.  NFAC has no
    # trust region, and records the same distance
    env = PointMass()
    agent = make_agent(AgentConfig(rule=rule), env,
                       np.random.default_rng([seed, 0x5EED]))
    update_phase = agent.update_phase
    moved = []

    def checked(batch):
        states = batch.per_step(batch.states)
        mu_before = agent.policy.act(states)
        update_phase(batch)
        want = policy_distance_dhat(mu_before, agent.policy.act(states))
        got = agent.dhat_history[-1]
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
            got, want)
        moved.append(want > 0.0)

    agent.update_phase = checked
    rng = np.random.default_rng(seed)
    for _ in range(20):
        agent.run_episode(env, rng)
    assert len(agent.dhat_history) == 20
    assert set(moved) == {False, True}


class _FixedValueCritic:
    """V(s) = c on every state, and fitting leaves it there: with c far
    above (below) every lambda-return, no (every) advantage is positive."""

    def __init__(self, c):
        self.c = c

    def values(self, states):
        return np.full(len(states), self.c)

    def regress(self, states, targets):
        pass


def _update_phase_all_directions(agent, batch):
    """``update_phase`` with a forward and a direction on every actor
    iteration, zero or not, and a forward for d_hat, which both rules
    record; PeNFAC adapts beta only when the first direction is
    nonzero."""
    cfg = agent.config
    states = batch.per_step(batch.states)
    penfac = cfg.rule == "penfac"
    mu_old = agent.policy.act(states)
    fitted_value_iteration(agent.critic, batch, cfg.gamma, cfg.lam,
                           cfg.fitted_iterations)
    actions = batch.per_step(batch.actions)
    advantages = (lambda_returns(batch, agent.critic, cfg.gamma, cfg.lam)
                  - agent.critic.values(states))
    beta = agent.beta if penfac else 0.0
    directions = []
    for _ in range(cfg.actor_iterations):
        g = batch_gated_direction(agent.policy, agent.policy.act(states),
                                  actions, advantages, scale_by_delta=penfac,
                                  mu_old=mu_old, beta=beta)
        directions.append(g)
        agent.policy.set_params(agent.actor_adam.step(
            agent.policy.get_params(), g, ascent=True))
    d_hat = policy_distance_dhat(mu_old, agent.policy.act(states))
    agent.dhat_history.append(d_hat)
    if penfac and directions[0].any():
        agent.beta = adapt_beta(agent.beta, d_hat, cfg.d_target)


def _count_calls(obj, method):
    """Record every call of ``obj.method`` in the returned list."""
    calls, original = [], getattr(obj, method)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(obj, method, counted)
    return calls


def _actor_state_bytes(agent):
    adam = agent.actor_adam
    return (agent.policy.get_params().tobytes(), adam.v.tobytes(), adam.t,
            np.array(agent.dhat_history, dtype=float).tobytes(),
            np.float64(agent.beta).tobytes())


@pytest.mark.parametrize("rule", ["penfac", "nfac"])
def test_update_phase_rejects_an_empty_batch_before_any_state_moves(rule):
    # lambda_returns owns the empty-batch check; by the time it raises, only
    # the mu_old forward on 0 rows, which both rules run, has run
    cfg = AgentConfig(rule=rule, hidden=(8,))
    agent = make_agent(cfg, PointMass(horizon=10), np.random.default_rng(5))
    critic = agent.critic

    def state():
        return (_actor_state_bytes(agent), critic.net.get_params().tobytes(),
                critic.adam.v.tobytes(), critic.adam.t)

    before = state()
    with pytest.raises(ValueError, match="empty batch"):
        agent.update_phase(Trajectory(np.zeros((0, 2)), 10, 1))
    assert state() == before


@pytest.mark.parametrize("rule", ["penfac", "nfac"])
def test_update_phase_stops_directions_at_zero_bit_for_bit(rule, monkeypatch):
    # a phase with no positive advantage computes one direction, all zero,
    # and takes one Adam step; its other steps only decay v and advance t.
    # The closed phase after the open one starts from a nonzero Adam state,
    # so a zero-direction step that moved the policy would show there
    cfg = AgentConfig(rule=rule, update_every=2, hidden=(8,),
                      actor_iterations=6, fitted_iterations=2)
    env = PointMass(horizon=10)
    policy = MlpPolicy(2, 1, hidden_sizes=cfg.hidden,
                       hidden=cfg.hidden_activation,
                       rng=np.random.default_rng(3))
    agent = BatchActorCritic(policy, _FixedValueCritic(0.0), cfg)
    reference = copy.deepcopy(agent)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return batch_gated_direction(*args, **kwargs)

    monkeypatch.setattr(detac.agents, "batch_gated_direction", counted)
    steps = _count_calls(agent.actor_adam, "step")
    forwards = _count_calls(agent.policy, "forward")
    rng = np.random.default_rng(4)
    for value, want_calls in ((1e3, 1), (-1e3, cfg.actor_iterations),
                              (1e3, 1)):
        batch = run_episodes(
            lambda s: agent.exploration.act(agent.policy.act(s), rng), env,
            cfg.update_every, rng)
        agent.critic.c = reference.critic.c = value
        calls.clear()
        steps.clear()
        forwards.clear()
        agent.update_phase(batch)
        _update_phase_all_directions(reference, batch)
        assert len(calls) == want_calls
        assert len(steps) == want_calls
        # the one mu_old forward serves the first direction, each nonzero
        # direction's step is followed by one forward, the last of which
        # serves d_hat, and a policy that never moved needs no more
        want_forwards = 1 if want_calls == 1 else want_calls + 1
        assert len(forwards) == want_forwards
        assert _actor_state_bytes(agent) == _actor_state_bytes(reference)
    assert agent.actor_adam.t == 3 * cfg.actor_iterations
    closed, opened, closed_again = agent.dhat_history
    assert closed == 0.0 and closed_again == 0.0 and opened > 0.0


def test_penfac_closed_phase_keeps_beta_and_open_phase_adapts_it():
    # a phase whose first direction is zero never moves the policy: it
    # records d_hat = 0.0 and leaves beta alone.  An open phase adapts beta
    # on its d_hat, which here lies outside the band, so beta moves
    cfg = AgentConfig(rule="penfac", update_every=2, hidden=(8,),
                      actor_iterations=3, fitted_iterations=2)
    env = PointMass(horizon=10)
    policy = MlpPolicy(2, 1, hidden_sizes=cfg.hidden,
                       hidden=cfg.hidden_activation,
                       rng=np.random.default_rng(3))
    agent = BatchActorCritic(policy, _FixedValueCritic(0.0), cfg)
    rng = np.random.default_rng(4)
    for value, opened in ((1e3, False), (-1e3, True), (1e3, False)):
        batch = run_episodes(
            lambda s: agent.exploration.act(agent.policy.act(s), rng), env,
            cfg.update_every, rng)
        agent.critic.c = value
        beta = agent.beta
        agent.update_phase(batch)
        d_hat = agent.dhat_history[-1]
        if opened:
            want = adapt_beta(beta, d_hat, cfg.d_target)
            assert d_hat > 0.0
            assert agent.beta == want != beta
        else:
            assert d_hat == 0.0
            assert agent.beta == beta
    assert len(agent.dhat_history) == 3


def test_nfac_update_is_deterministic_given_batch():
    # same seeds, same episodes: parameters must match bit for bit
    def run(seed):
        cfg = AgentConfig(rule="nfac", update_every=2, hidden=(8,),
                          actor_iterations=3, fitted_iterations=3)
        env = PointMass(horizon=10)
        agent = make_agent(cfg, env, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        for _ in range(2):
            agent.run_episode(env, rng)
        return agent.policy.get_params()

    assert np.array_equal(run(7), run(7))


@pytest.mark.parametrize("rule", ["cacla", "nfac"])
def test_nan_state_is_stopped_at_env_step(rule):
    # no policy scans its input: a NaN state gives a NaN action, and the
    # env's action check rejects it
    class NanStart(PointMass):
        def reset(self, rng):
            return np.full(2, np.nan)

    env = NanStart(horizon=5)
    agent = make_agent(AgentConfig(rule=rule, hidden=(4,), update_every=1),
                       env, np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-finite action"):
        agent.run_episode(env, np.random.default_rng(1))
    with pytest.raises(ValueError, match="non-finite action"):
        evaluate_deterministic(agent.policy, env, 2, np.random.default_rng(2))


def test_run_bandit_rejects_unknown_rule():
    env = QuadraticBandit([0.0])
    with pytest.raises(ValueError):
        run_bandit("nfac", env, 10, BanditConfig(), np.random.default_rng(0),
                   eval_every=1)


@pytest.mark.parametrize("episodes, eval_every",
                         [(0, 1), (-1, 1), (10, 0), (10, -1)])
def test_run_bandit_rejects_bad_counts_before_any_draw(episodes, eval_every):
    # object() has no standard_normal: any draw would raise AttributeError
    env = make_quadratic_bandit(2, 0)
    with pytest.raises(ValueError, match="episodes >= 1 and eval_every >= 1"):
        run_bandit("cacla", env, episodes, BanditConfig(), object(),
                   eval_every=eval_every)


@pytest.mark.parametrize("rule", ["cacla", "spg", "dpg"])
def test_run_bandit_learns_1d(rule):
    env = make_quadratic_bandit(1, 3)
    curve = run_bandit(rule, env, 3000, BanditConfig(),
                       np.random.default_rng(0), eval_every=100)
    assert curve.shape == (30,)
    assert curve[-1] > -0.01
    assert np.all(curve <= 0.0)


def test_run_bandit_curve_is_deterministic_in_seed():
    env = make_quadratic_bandit(2, 5)
    a = run_bandit("cacla", env, 200, BanditConfig(), np.random.default_rng(9),
                   eval_every=1)
    b = run_bandit("cacla", env, 200, BanditConfig(), np.random.default_rng(9),
                   eval_every=1)
    assert np.array_equal(a, b)


def test_run_bandit_runs_without_scipy():
    # src/ depends on numpy alone; scipy is a test-only dependency.  The
    # package root, the harness and the CLI import without it, and the
    # bandit loop and a verification suite run
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import numpy as np, detac\n"
            "import detac.cli, detac.harness\n"
            "curve = detac.run_bandit('spg', detac.make_quadratic_bandit(2, 0),"
            " 1, detac.BanditConfig(), np.random.default_rng(0), eval_every=1)\n"
            "assert curve.shape == (1,)\n"
            "code, lines = detac.harness.run_verification('lemma1')\n"
            "assert code == 0, lines\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(detac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


class _CountingEnv:
    """Records the rows of every ``step`` call of the env it wraps."""

    def __init__(self, env):
        self.env = env
        self.spec = env.spec
        self.rows = []

    def reset(self, rng):
        return self.env.reset(rng)

    def step(self, states, actions, rng):
        assert np.ndim(states) == 2 and np.ndim(actions) == 2
        self.rows.append(len(states))
        return self.env.step(states, actions, rng)


def test_run_episodes_makes_one_env_step_per_time_step():
    def act(states):
        return np.tanh(0.3 * np.asarray(states)[:, :1] - 0.5)

    env = _CountingEnv(PointMass(horizon=7))
    batch = run_episodes(act, env, 3, np.random.default_rng(0))
    assert env.rows == [3] * 7 and batch.lengths.tolist() == [7, 7, 7]
    # episodes that end early leave the rows of later calls
    env = _CountingEnv(_StaggeredEnv(horizon=8))
    batch = run_episodes(act, env, 40, np.random.default_rng(5))
    lengths = batch.lengths
    assert env.rows == [int((lengths > t).sum()) for t in range(8)]
    assert len(env.rows) == lengths.max()
    # CACLA/CAC roll out one episode: one row per call
    env = _CountingEnv(PointMass(horizon=5))
    run_episodes(act, env, 1, np.random.default_rng(0),
                 on_step=lambda *step: None)
    assert env.rows == [1] * 5
