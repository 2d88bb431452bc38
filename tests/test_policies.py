import numpy as np
import pytest

from detac.policies import GaussianExploration, LinearPolicy, MlpPolicy


def _fd_jacobian(policy, state, h=1e-6):
    theta = policy.get_params()
    mu0 = np.asarray(policy.act(state), dtype=float).reshape(-1)
    jac = np.empty((mu0.size, theta.size))
    for j in range(theta.size):
        bumped = theta.copy()
        bumped[j] += h
        policy.set_params(bumped)
        jac[:, j] = (np.asarray(policy.act(state)).reshape(-1) - mu0) / h
    policy.set_params(theta)
    return jac


def test_mlp_policy_action_in_bounds():
    rng = np.random.default_rng(0)
    pol = MlpPolicy(2, 3, hidden_sizes=(8,), rng=rng)
    for _ in range(20):
        a = pol.act(rng.standard_normal(2) * 5)
        assert np.all(np.abs(a) < 1.0)


def test_mlp_policy_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    pol = MlpPolicy(2, 2, hidden_sizes=(6,), rng=rng)
    state = rng.standard_normal(2)
    jac = pol.jacobian(state)
    fd = _fd_jacobian(pol, state)
    assert np.max(np.abs(jac - fd)) < 1e-5


def test_mlp_policy_backward_batch_matches_jacobian_sum():
    rng = np.random.default_rng(6)
    pol = MlpPolicy(2, 2, hidden_sizes=(5,), rng=rng)
    states = rng.standard_normal((4, 2))
    upstream = rng.standard_normal((4, 2))
    pol.act_batch(states)
    g_batch = pol.backward_batch(upstream)
    g_ref = np.zeros(pol.n_params)
    for s, u in zip(states, upstream):
        g_ref += u @ pol.jacobian(s)
    assert np.max(np.abs(g_batch - g_ref)) < 1e-10


def test_linear_policy_act_is_theta():
    pol = LinearPolicy(3, theta=np.array([0.1, -0.4, 0.9]))
    assert np.array_equal(pol.act(), [0.1, -0.4, 0.9])


def test_linear_policy_clips_to_bounds():
    pol = LinearPolicy(1, theta=np.array([1.7]))
    assert pol.act()[0] == 1.0


def test_linear_policy_jacobian_is_identity():
    pol = LinearPolicy(4)
    assert np.array_equal(pol.jacobian(), np.eye(4))


def test_gaussian_exploration_stays_in_bounds():
    pol = LinearPolicy(2, theta=np.array([0.95, -0.95]))
    expl = GaussianExploration(pol, sigma=0.5)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = expl.act(None, rng)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_gaussian_exploration_moments():
    # interior mean, small sigma: truncation is negligible, so the sample
    # mean and std should match the nominal Gaussian
    pol = LinearPolicy(1, theta=np.array([0.0]))
    expl = GaussianExploration(pol, sigma=0.1)
    rng = np.random.default_rng(8)
    samples = np.array([expl.act(None, rng)[0] for _ in range(20000)])
    assert abs(samples.mean()) < 0.005
    assert abs(samples.std() - 0.1) < 0.005


def test_gaussian_exploration_anneal():
    expl = GaussianExploration(LinearPolicy(1), sigma=0.4, decay=0.5)
    expl.anneal()
    expl.anneal()
    assert expl.sigma == pytest.approx(0.1)


def test_gaussian_exploration_rejects_bad_sigma():
    with pytest.raises(ValueError):
        GaussianExploration(LinearPolicy(1), sigma=0.0)
    with pytest.raises(ValueError):
        GaussianExploration(LinearPolicy(1), sigma=0.1, decay=0.0)


def test_policies_reject_nonfinite_state():
    pol = MlpPolicy(2, 1, hidden_sizes=(4,))
    with pytest.raises(ValueError):
        pol.act(np.array([np.inf, 0.0]))
