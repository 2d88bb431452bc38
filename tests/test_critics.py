import numpy as np
import pytest

from detac.critics import (CompatibleQCritic, MlpVCritic,
                           fitted_value_iteration, lambda_returns)
from detac.policies import LinearPolicy
from detac.trajectory import Trajectory
from constant_critic import ConstantVCritic
from jacobian_reference import jacobian, linear_policy, toward


class TabularVCritic:
    """Exact table over integer states; a regression pass solves the least
    squares fit in closed form (per-state mean of the targets)."""

    def __init__(self, n_states):
        self.v = np.zeros(n_states)

    def values(self, states):
        idx = np.asarray(states).reshape(len(states), -1)[:, 0].astype(int)
        return self.v[idx]

    def regress(self, states, targets):
        idx = np.asarray(states).reshape(len(states), -1)[:, 0].astype(int)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        for s in np.unique(idx):
            self.v[s] = targets[idx == s].mean()


def _batch(episodes):
    """A ``Trajectory`` of episodes given as ``(first_state, steps,
    terminal)``, ``steps`` a list of ``(reward, next_state)``; one
    ``append`` per time step over the episodes still running, as
    ``run_episodes`` fills it."""
    horizon = max(len(steps) for _, steps, _ in episodes)
    first = [s0 for s0, _, _ in episodes]
    batch = Trajectory(np.reshape(first, (len(first), -1)), horizon, 1)
    for t in range(horizon):
        rows = [i for i, (_, steps, _) in enumerate(episodes)
                if t < len(steps)]
        batch.append(rows, t, np.zeros((len(rows), 1)),
                     [episodes[i][1][t][0] for i in rows],
                     [episodes[i][1][t][1] for i in rows],
                     [episodes[i][2] and t == len(episodes[i][1]) - 1
                      for i in rows])
    return batch


def _make_traj(rewards, terminal=False, n_state_dims=1):
    rng = np.random.default_rng(0)
    steps = [(r, rng.standard_normal(n_state_dims)) for r in rewards]
    return _batch([(rng.standard_normal(n_state_dims), steps, terminal)])


def _td_critic(lr=1e-3):
    return MlpVCritic(2, hidden_sizes=(8,), hidden="leaky_relu", lr=lr,
                      rng=np.random.default_rng(4))


def _td_rows(seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((1, 2)), float(rng.standard_normal()),
            rng.standard_normal((1, 2)))


def test_td_step_delta_matches_values_bit_for_bit():
    # delta = r + gamma V(s') - V(s) from the pre-step values, and r - V(s)
    # at a terminal
    for seed in range(20):
        for terminal in (False, True):
            critic = _td_critic()
            s, r, s2 = _td_rows(seed)
            v, v2 = critic.values(s).item(), critic.values(s2).item()
            want = r + (0.0 if terminal else 0.9 * v2) - v
            delta = critic.td_step(s, r, s2, terminal, 0.9)
            assert np.float64(delta).tobytes() == np.float64(want).tobytes()


def test_td_step_terminal_drops_next_value():
    # a terminal step never reads V(s'): a next state of the wrong width
    # would raise in the forward
    critic = _td_critic()
    s, r, _ = _td_rows(0)
    calls = []
    forward = critic.net.forward
    critic.net.forward = lambda x: calls.append(x) or forward(x)
    delta = critic.td_step(s, r, np.zeros((1, 5)), True, 0.9)
    assert len(calls) == 1 and calls[0] is s
    assert delta == r - _td_critic().values(s).item()


def test_td_step_moves_parameters_as_a_separate_pass():
    # v + lr delta grad V(s), grad V(s) from its own forward and backward
    for seed in range(20):
        critic, ref = _td_critic(lr=0.01), _td_critic(lr=0.01)
        s, r, s2 = _td_rows(seed)
        delta = critic.td_step(s, r, s2, False, 0.9)
        ref.net.forward(s)
        grad = ref.net.backward(np.ones((1, 1)))
        want = ref.net.get_params() + 0.01 * delta * grad
        assert critic.net.get_params().tobytes() == want.tobytes()


def test_lambda_zero_returns_are_one_step_targets():
    critic = ConstantVCritic(2.0)
    traj = _make_traj([1.0, -1.0, 0.5])
    targets = lambda_returns(traj, critic, 0.9, 0.0)
    expected = np.array([1.0, -1.0, 0.5]) + 0.9 * 2.0
    assert np.allclose(targets, expected, atol=1e-12)


def test_lambda_one_returns_are_monte_carlo_plus_tail():
    critic = ConstantVCritic(3.0)
    rewards = [1.0, 2.0, 4.0]
    traj = _make_traj(rewards)
    gamma = 0.5
    targets = lambda_returns(traj, critic, gamma, 1.0)
    # horizon cut: discounted reward sum plus gamma^3 * V(s_T)
    g2 = 4.0 + gamma * 3.0
    g1 = 2.0 + gamma * g2
    g0 = 1.0 + gamma * g1
    assert np.allclose(targets, [g0, g1, g2], atol=1e-12)


def test_lambda_one_terminal_is_pure_monte_carlo():
    critic = ConstantVCritic(100.0)  # tail value must not leak in
    traj = _make_traj([1.0, 2.0, 4.0], terminal=True)
    targets = lambda_returns(traj, critic, 0.5, 1.0)
    assert np.allclose(targets, [1.0 + 0.5 * (2.0 + 0.5 * 4.0),
                                 2.0 + 0.5 * 4.0, 4.0], atol=1e-12)


def test_lambda_returns_match_weighted_nstep_sum():
    # independent oracle: G^lam_t = (1-lam) sum_n lam^(n-1) G^(n)_t with the
    # final n-step return taking the remaining lam mass
    critic = TabularVCritic(10)
    critic.v = np.random.default_rng(1).standard_normal(10)
    rng = np.random.default_rng(2)
    traj = _batch([(np.array([0]), [(float(rng.standard_normal()),
                                      np.array([t + 1])) for t in range(5)],
                     False)])
    gamma, lam = 0.9, 0.4
    rewards = traj.rewards[0]
    next_v = critic.values(traj.states[0, 1:])
    horizon = len(rewards)

    def n_step(t, n):
        g = sum(gamma ** k * rewards[t + k] for k in range(n))
        return g + gamma ** n * next_v[t + n - 1]

    expected = np.empty(horizon)
    for t in range(horizon):
        n_max = horizon - t
        g = sum((1 - lam) * lam ** (n - 1) * n_step(t, n)
                for n in range(1, n_max))
        g += lam ** (n_max - 1) * n_step(t, n_max)
        expected[t] = g
    got = lambda_returns(traj, critic, gamma, lam)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_lambda_returns_batch_is_concatenation_of_episodes():
    # each episode restarts the recursion from its own last next state:
    # a horizon cut bootstraps, a terminal adds no tail, and nothing flows
    # across an episode boundary
    critic = TabularVCritic(20)
    critic.v = np.random.default_rng(3).standard_normal(20)
    rng = np.random.default_rng(4)
    episodes = [(np.array([rng.integers(20)]),
                 [(float(rng.standard_normal()), np.array([rng.integers(20)]))
                  for _ in range(length)], terminal_end)
                for length, terminal_end in ((4, False), (1, True), (6, True),
                                             (3, False))]
    batch = _batch(episodes)
    for lam in (0.0, 0.6, 1.0):
        got = lambda_returns(batch, critic, 0.9, lam)
        singles = np.concatenate(
            [lambda_returns(_batch([ep]), critic, 0.9, lam)
             for ep in episodes])
        assert np.array_equal(got, singles)


def _numpy_lambda_returns(batch, critic, gamma, lam):
    """The recursion on numpy arrays and scalars, as lambda_returns ran it
    before it moved to Python floats."""
    lengths = batch.lengths.tolist()
    next_values = critic.values(np.concatenate(
        [batch.states[i, 1:k + 1] for i, k in enumerate(lengths)]))
    rewards = np.concatenate(
        [batch.rewards[i, :k] for i, k in enumerate(lengths)])
    last = [t == k - 1 for k in lengths for t in range(k)]
    terminals = [bool(done) and t == k - 1
                 for done, k in zip(batch.terminal, lengths) for t in range(k)]
    targets = np.empty(len(rewards))
    for t in range(len(rewards) - 1, -1, -1):
        if last[t]:
            g_next = next_values[t]
        if terminals[t]:
            tail = 0.0
        else:
            tail = gamma * ((1 - lam) * next_values[t] + lam * g_next)
        targets[t] = rewards[t] + tail
        g_next = targets[t]
    return targets


def test_lambda_returns_equal_numpy_recursion_bitwise():
    # the same IEEE operations on Python floats: no tolerance
    rng = np.random.default_rng(11)
    critic = MlpVCritic(2, hidden_sizes=(8,), hidden="tanh", lr=1e-3, rng=rng)
    batch = _batch([(rng.standard_normal(2),
                     [(float(rng.standard_normal() * 10.0),
                       rng.standard_normal(2)) for _ in range(length)],
                     terminal_end)
                    for length, terminal_end in ((7, False), (1, True),
                                                 (12, True), (5, False))])
    # a terminal step's target is r + 0.0, which turns -0.0 into +0.0
    batch.rewards[1, 0] = -0.0
    for lam in (0.0, 0.3, 0.9, 1.0):
        got = lambda_returns(batch, critic, 0.99, lam)
        want = _numpy_lambda_returns(batch, critic, 0.99, lam)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_lambda_returns_inputs_never_go_stale():
    # the inputs a Trajectory builds for lambda_returns are kept between
    # calls: two critics on one batch each get their own targets, and a
    # batch that grows after a call gets targets for its new steps
    rng = np.random.default_rng(12)
    episodes = [(rng.standard_normal(2),
                 [(float(rng.standard_normal() * 5.0), rng.standard_normal(2))
                  for _ in range(length)], terminal_end)
                for length, terminal_end in ((6, False), (2, True),
                                             (9, True), (4, False))]
    batch = _batch(episodes)
    critics = [MlpVCritic(2, hidden_sizes=(8,), hidden="tanh", lr=1e-3,
                          rng=rng) for _ in range(2)]
    for lam in (0.0, 0.7, 1.0):
        for critic in (*critics, *critics):
            got = lambda_returns(batch, critic, 0.95, lam)
            want = _numpy_lambda_returns(batch, critic, 0.95, lam)
            assert got.tobytes() == want.tobytes()
            singles = np.concatenate(
                [_numpy_lambda_returns(_batch([ep]), critic, 0.95, lam)
                 for ep in episodes])
            assert got.tobytes() == singles.tobytes()
    grown = Trajectory(np.zeros((2, 2)), 3, 1)
    for t in range(3):
        grown.append(slice(None), t, np.zeros((2, 1)), rng.standard_normal(2),
                     rng.standard_normal((2, 2)), np.array([False, t == 2]))
        got = lambda_returns(grown, critics[0], 0.95, 0.7)
        want = _numpy_lambda_returns(grown, critics[0], 0.95, 0.7)
        assert len(got) == 2 * (t + 1)
        assert got.tobytes() == want.tobytes()


def test_lambda_returns_rejects_bad_inputs():
    critic = ConstantVCritic(0.0)
    traj = _make_traj([1.0])
    step = [(1.0, np.zeros(1))]
    # no episode, a 0-length episode, and a 0-length episode after a
    # 1-step one
    for batch in (Trajectory(np.zeros((0, 1)), 1, 1),
                  _batch([(np.zeros(1), [], False)]),
                  _batch([(np.zeros(1), step, False),
                          (np.zeros(1), [], False)])):
        with pytest.raises(ValueError):
            lambda_returns(batch, critic, 0.9, 0.5)
    with pytest.raises(ValueError):
        lambda_returns(traj, critic, 0.9, 1.5)


def test_tabular_critic_regress_is_per_state_mean():
    critic = TabularVCritic(3)
    states = np.array([0, 1, 0, 2, 1, 0])
    targets = np.array([1.0, 4.0, 2.0, 9.0, 6.0, 3.0])
    critic.regress(states, targets)
    assert critic.v[0] == pytest.approx(2.0)
    assert critic.v[1] == pytest.approx(5.0)
    assert critic.v[2] == pytest.approx(9.0)


def test_constant_critic_regress_is_global_mean():
    critic = ConstantVCritic()
    critic.regress(None, np.array([1.0, 2.0, 6.0]))
    assert critic.v == pytest.approx(3.0)
    assert critic.value(42) == pytest.approx(3.0)


def test_mlp_critic_regression_reduces_loss():
    rng = np.random.default_rng(7)
    critic = MlpVCritic(2, hidden_sizes=(16,), hidden="tanh", lr=1e-2,
                        rng=rng)
    states = rng.standard_normal((32, 2))
    targets = np.sin(states[:, 0]) + 0.5 * states[:, 1]
    loss0 = np.mean((critic.values(states) - targets) ** 2)
    for _ in range(500):
        critic.regress(states, targets)
    loss1 = np.mean((critic.values(states) - targets) ** 2)
    assert loss1 < 0.1 * loss0


@pytest.mark.parametrize("n_targets", [1, 3, 5])
def test_mlp_critic_regress_rejects_a_target_count_unequal_to_the_states(
        n_targets):
    # one target for four rows must not be broadcast to every row
    critic = MlpVCritic(2, hidden_sizes=(8,), hidden="tanh", lr=1e-3,
                        rng=np.random.default_rng(3))
    params = critic.net.get_params()
    with pytest.raises(ValueError, match="equal length"):
        critic.regress(np.zeros((4, 2)), np.ones(n_targets))
    assert np.array_equal(critic.net.get_params(), params)


def test_mlp_critic_td_step_moves_value_toward_target():
    critic = MlpVCritic(1, hidden_sizes=(8,), hidden="tanh", lr=0.01,
                        rng=np.random.default_rng(2))
    s = np.array([[0.5]])
    before = critic.values(s).item()
    # a terminal reward 1 above V(s): delta = 1
    delta = critic.td_step(s, before + 1.0, None, True, 0.9)
    assert delta == pytest.approx(1.0)
    assert critic.values(s).item() > before


def test_fitted_value_iteration_tabular_matches_dp():
    # 2-state chain under a fixed behavior: exact policy evaluation
    # V = (I - gamma P)^{-1} r, sampled densely so the tabular fit is exact
    gamma = 0.9
    p = np.array([[0.5, 0.5], [0.0, 1.0]])
    r = np.array([1.0, 0.0])
    v_exact = np.linalg.solve(np.eye(2) - gamma * p, r)

    rng = np.random.default_rng(0)
    episodes = []
    for _ in range(300):
        steps = []
        s = 0
        for _t in range(40):
            s2 = int(rng.choice(2, p=p[s]))
            steps.append((r[s], np.array([s2])))
            s = s2
        episodes.append((np.array([0]), steps, False))
    trajs = _batch(episodes)
    critic = TabularVCritic(2)
    fitted_value_iteration(critic, trajs, gamma, 1.0, n_iterations=30)
    assert np.max(np.abs(critic.v - v_exact)) < 0.15


def test_fitted_value_iteration_rejects_bad_args():
    critic = ConstantVCritic()
    with pytest.raises(ValueError):
        fitted_value_iteration(critic, Trajectory(np.zeros((0, 1)), 1, 1),
                               0.9, 0.9, 10)
    with pytest.raises(ValueError):
        fitted_value_iteration(critic, _make_traj([1.0], terminal=True),
                               0.9, 0.9, 0)


def test_compatible_q_identity_at_mean():
    # Q(s, mu(s)) equals psi(s)^T v bit-exactly because the advantage
    # feature vanishes at a = mu(s)
    pol = linear_policy(np.array([0.2, -0.3]))
    critic = CompatibleQCritic(2)
    critic.w = np.array([0.7, -0.4])
    critic.v = 1.3
    feat = toward(pol, None, pol.act(None))
    assert not np.any(feat)
    assert critic.q(feat) == critic.value(None) == 1.3


def test_compatible_q_grad_a_is_jacobian_transpose_w():
    pol = LinearPolicy(2)
    critic = CompatibleQCritic(2)
    critic.w = np.array([0.5, -1.5])
    g = critic.grad_a(None)
    assert np.array_equal(g, jacobian(pol, None) @ critic.w)
    # a copy: a caller's step on it leaves the critic alone
    g += 1.0
    assert np.array_equal(critic.w, [0.5, -1.5])


def _reference_theta(rng, m):
    """Random theta with coordinates inside the box, on it and beyond it
    (so that mu = clip(theta) sits on a bound)."""
    theta = rng.uniform(-0.9, 0.9, m)
    theta[rng.random(m) < 0.3] = 1.0
    theta[rng.random(m) < 0.3] = -1.0
    theta[rng.random(m) < 0.1] = 1.5
    return theta


@pytest.mark.parametrize("m", [1, 5, 50])
def test_compatible_q_matches_the_jacobian_form_bit_for_bit(m):
    # on the features (a - mu)^T J of the test-side Jacobian, every output
    # and every updated parameter agrees byte for byte with the general
    # compatible form (a - mu)^T J w + v, v held as a 1-vector
    rng = np.random.default_rng(m)
    for _ in range(200):
        pol = linear_policy(_reference_theta(rng, m))
        critic = CompatibleQCritic(m)
        w, v = rng.standard_normal(m), rng.standard_normal(1)
        critic.w, critic.v = w.copy(), float(v[0])
        action = np.clip(pol.act(None) + 0.3 * rng.standard_normal(m), -1, 1)
        # some coordinates exactly at the mean, where the feature is 0
        hit = rng.random(m) < 0.2
        action[hit] = pol.act(None)[hit]
        target, lr = 3.0 * rng.standard_normal(), rng.uniform(0.001, 0.5)

        feat = toward(pol, None, action)
        q_ref = float(feat @ w + v[0])
        assert np.float64(critic.q(feat)).tobytes() == \
            np.float64(q_ref).tobytes()
        assert critic.value(None) == v[0]
        assert critic.grad_a(None).tobytes() == \
            (jacobian(pol, None) @ w).tobytes()

        err = target - (feat @ w + v[0])
        critic.sgd_fit_step(feat, target, lr)
        assert critic.w.tobytes() == (w + lr * err * feat).tobytes()
        assert type(critic.v) is float
        assert np.float64(critic.v).tobytes() == (v + lr * err).tobytes()


def _ridge_fit(critic, policy, states, actions, targets, ridge=1e-6):
    """Reference least squares of (w, v) on the stacked compatible
    features [(a - mu(s))^T J_mu(s), 1]."""
    x = np.stack([np.append(toward(policy, s, a), 1.0)
                  for s, a in zip(states, actions)])
    sol = np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]),
                          x.T @ np.asarray(targets, dtype=float))
    critic.w, critic.v = sol[:-1], float(sol[-1])


def test_compatible_q_fit_recovers_linear_model():
    # targets generated exactly by the compatible form are recovered
    rng = np.random.default_rng(9)
    pol = linear_policy(np.array([0.1, 0.2]))
    true_w = np.array([0.8, -0.6])
    true_v = 0.4
    actions = pol.act(None) + 0.3 * rng.standard_normal((40, 2))
    targets = [(a - pol.act(None)) @ true_w + true_v for a in actions]
    critic = CompatibleQCritic(2)
    _ridge_fit(critic, pol, [None] * 40, actions, targets)
    assert np.max(np.abs(critic.w - true_w)) < 1e-4
    assert abs(critic.v - true_v) < 1e-4


def test_compatible_q_sgd_converges_to_fit():
    rng = np.random.default_rng(3)
    pol = linear_policy(np.array([0.0]))
    true_w, true_v = 2.0, -1.0
    critic = CompatibleQCritic(1)
    for _ in range(4000):
        a = 0.4 * rng.standard_normal(1)
        target = a[0] * true_w + true_v
        critic.sgd_fit_step(toward(pol, None, a), target, lr=0.05)
    assert abs(critic.w[0] - true_w) < 0.05
    assert abs(critic.v - true_v) < 0.05


def test_compatible_q_gradcheck():
    # grad_a Q at mu should match finite differences of q in the action
    rng = np.random.default_rng(4)
    pol = linear_policy(np.array([0.3, -1.0, 0.8]))
    critic = CompatibleQCritic(3)
    critic.w = rng.standard_normal(3)
    critic.v = float(rng.standard_normal())
    mu = pol.act(None)
    g = critic.grad_a(None)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (critic.q(toward(pol, None, mu + e))
              - critic.q(toward(pol, None, mu - e))) / (2 * h)
        assert abs(g[i] - fd) < 1e-8
