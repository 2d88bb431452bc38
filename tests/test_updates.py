import copy

import numpy as np
import pytest

from detac.agents import BanditConfig, run_bandit
from detac.critics import CompatibleQCritic
from detac.envs import make_quadratic_bandit
from detac.nets import MlpNet
from detac.policies import GaussianExploration, LinearPolicy, MlpPolicy
from detac.updates import (TrustRegionState, adapt_beta,
                           batch_gated_direction, cac_direction,
                           cacla_direction, policy_distance_dhat)
from jacobian_reference import jacobian, linear_policy, toward


def spg_direction(policy, sigma, state, action, advantage):
    """Reference single-sample likelihood-ratio gradient for the Gaussian
    policy: A(s,a) (a - mu(s))^T J_mu(s) / sigma^2."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return (advantage / sigma ** 2) * toward(policy, state, action)


def dpg_direction(policy, state, grad_a):
    """Reference chain rule through the critic's action gradient at
    a = mu(s)."""
    return np.asarray(grad_a, float).reshape(-1) @ jacobian(policy, state)


def bandit_reference(rule, env, episodes, config, rng):
    """run_bandit's loop, evaluated every episode, with each actor step
    taken from a reference direction: spg_direction, dpg_direction, or
    ``toward`` behind CACLA's gate."""
    policy = LinearPolicy(env.spec.action_dim)
    exploration = GaussianExploration(config.sigma)
    critic = CompatibleQCritic(policy.action_dim)
    state = env.reset(rng)
    v, lr, curve = 0.0, config.lr_actor, []
    for _ in range(episodes):
        action = exploration.act(policy.theta, rng)
        _, reward, _ = env.step(state, action, rng)
        if rule == "cacla":
            delta = reward - v
            v += config.lr_critic * delta
            if delta > 0:
                policy.theta += lr * toward(policy, state, action)
        else:
            critic.sgd_fit_step(toward(policy, state, action), reward,
                                config.lr_critic)
            if rule == "dpg":
                g = dpg_direction(policy, state, critic.grad_a(state))
            else:
                adv = (critic.q(toward(policy, state, action))
                       - critic.value(state))
                g = spg_direction(policy, exploration.sigma, state, action,
                                  adv)
            policy.theta += lr * g
            lr = max(config.lr_actor_min, lr * config.lr_actor_decay)
        policy.theta = np.clip(policy.theta, policy.low, policy.high)
        exploration.sigma = max(config.sigma_min,
                                exploration.sigma * config.sigma_decay)
        curve.append(-float(np.sum((policy.act(state) - env.target) ** 2)))
    return np.asarray(curve)


def old_form_bandit(rule, env, episodes, config, rng):
    """run_bandit as it ran while the compatible critic held the policy,
    evaluated every episode: each feature from ``toward``, the baseline v
    a 1-vector, and SPG's step on a second a - mu."""
    policy = LinearPolicy(env.spec.action_dim)
    exploration = GaussianExploration(config.sigma)
    w, v = np.zeros(policy.action_dim), np.zeros(1)
    state = env.reset(rng)
    sigma, baseline, lr, curve = config.sigma, 0.0, config.lr_actor, []
    for _ in range(episodes):
        action = exploration.act(policy.theta, rng)
        _, reward, _ = env.step(state, action, rng)
        if rule == "cacla":
            delta = reward - baseline
            baseline += config.lr_critic * delta
            if delta > 0:
                policy.theta += lr * (action - policy.theta)
        else:
            feat = toward(policy, None, action)
            err = reward - (feat @ w + v[0])
            w += config.lr_critic * err * feat
            v += config.lr_critic * err
            if rule == "dpg":
                g = w.copy()
            else:
                adv = (float(toward(policy, None, action) @ w + v[0])
                       - float(v[0]))
                g = adv * (action - policy.act(state)) / sigma ** 2
            policy.theta += lr * g
            lr = max(config.lr_actor_min, lr * config.lr_actor_decay)
        policy.theta = np.minimum(np.maximum(policy.theta, policy.low),
                                  policy.high)
        sigma = max(config.sigma_min, sigma * config.sigma_decay)
        exploration.sigma = sigma
        curve.append(-float(np.sum((policy.act(state) - env.target) ** 2)))
    return np.asarray(curve)


def penfac_actor_gradient(policy, snapshot, states, actions, advantages, beta):
    """Per-sample reference for the PeNFAC direction:

        g = mean_t [ H(A_t) A_t (a_t - mu(s_t))^T J_mu(s_t)
                     - 2 beta (mu(s_t) - mu_old(s_t))^T J_mu(s_t) ]

    with mu_old read from the ``snapshot`` policy and J_mu the reference
    Jacobian, one state at a time.
    """
    g = np.zeros(policy.n_params)
    for s, a, adv in zip(states, actions, advantages):
        if adv > 0:
            g += adv * toward(policy, s, a)
        drift = policy.act([s])[0] - snapshot.act([s])[0]
        g -= 2.0 * beta * (drift @ jacobian(policy, s))
    return g / len(states)


# the bandit's one state, as one (1, 1) row
BANDIT_STATE = np.zeros((1, 1))


def test_cacla_gate_closed_on_nonpositive_delta():
    pol = MlpPolicy(1, 2, hidden_sizes=(5,), hidden="tanh",
                    rng=np.random.default_rng(0))
    for delta in (0.0, -0.5, -100.0):
        g = cacla_direction(pol, BANDIT_STATE, np.array([[0.3, 0.3]]), delta)
        assert g.shape == (pol.n_params,)
        assert np.all(g == 0.0)


def test_cacla_moves_toward_action():
    # g = (a - mu)^T J, so a small step along g shrinks ||a - mu|| at the
    # rate ||g||^2
    pol = MlpPolicy(1, 2, hidden_sizes=(5,), hidden="tanh",
                    rng=np.random.default_rng(1))
    a = np.array([[0.5, 0.5]])
    gap = np.linalg.norm(a - pol.act(BANDIT_STATE))
    g = cacla_direction(pol, BANDIT_STATE, a, delta=1.0)
    assert np.any(g)
    pol.set_params(pol.get_params() + 1e-3 * g)
    assert np.linalg.norm(a - pol.act(BANDIT_STATE)) < gap


def test_cac_is_delta_times_cacla():
    rng = np.random.default_rng(0)
    pol = MlpPolicy(2, 2, hidden_sizes=(5,), hidden="tanh", rng=rng)
    s = rng.standard_normal(2)[None]
    a = rng.uniform(-1, 1, 2)[None]
    for delta in (0.3, 2.7):
        g_cacla = cacla_direction(pol, s, a, delta)
        g_cac = cac_direction(pol, s, a, delta)
        assert np.array_equal(g_cac, delta * g_cacla)


GATED_POLICIES = {
    "mlp-2-32-32-1": lambda rng: MlpPolicy(2, 1, (32, 32), hidden="leaky_relu",
                                           rng=rng),
    "mlp-1-32-32-5": lambda rng: MlpPolicy(1, 5, (32, 32), hidden="leaky_relu",
                                           rng=rng),
}


@pytest.mark.parametrize("name", GATED_POLICIES)
def test_gated_directions_match_reference_jacobian_form(name):
    # one backward pass of (a - mu) against the row-by-row Jacobian: equal
    # up to rounding, within 1e-14 of the largest entry (measured: 2.0e-16)
    rng = np.random.default_rng(21)
    pol = GATED_POLICIES[name](rng)
    state_dim = pol.net.layer_sizes[0]
    for _ in range(200):
        s = rng.standard_normal(state_dim)
        a = rng.uniform(-1, 1, pol.net.layer_sizes[-1])
        delta = rng.exponential()
        ref = toward(pol, s, a)
        tol = 1e-14 * np.max(np.abs(ref))
        g_cacla = cacla_direction(pol, s[None], a[None], delta)
        g_cac = cac_direction(pol, s[None], a[None], delta)
        assert np.max(np.abs(g_cacla - ref)) <= tol
        assert np.max(np.abs(g_cac - delta * ref)) <= delta * tol


def test_cacla_direction_makes_one_backward_pass(monkeypatch):
    calls = []
    backward = MlpNet.backward

    def counted(net, grad_out):
        calls.append(np.shape(grad_out))
        return backward(net, grad_out)

    monkeypatch.setattr(MlpNet, "backward", counted)
    rng = np.random.default_rng(22)
    pol = GATED_POLICIES["mlp-1-32-32-5"](rng)
    cacla_direction(pol, rng.standard_normal(1)[None],
                    rng.uniform(-1, 1, 5)[None], 0.5)
    assert calls == [(1, 5)]


def test_spg_direction_formula():
    pol = linear_policy(np.array([0.2]))
    a = np.array([0.5])
    g = spg_direction(pol, 0.5, None, a, advantage=2.0)
    assert g[0] == pytest.approx(2.0 * 0.3 / 0.25, abs=1e-12)


def test_spg_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        spg_direction(LinearPolicy(1), 0.0, None, np.zeros(1), 1.0)


def test_dpg_direction_is_grad_a_through_jacobian():
    pol = LinearPolicy(3)
    grad_a = np.array([0.1, -0.7, 2.0])
    g = dpg_direction(pol, None, grad_a)
    assert np.array_equal(g, grad_a)


def test_dpg_matches_finite_difference_of_q_in_params():
    # with Q(s, a) fixed, d/dtheta Q(s, mu_theta(s)) via finite differences
    rng = np.random.default_rng(5)
    pol = MlpPolicy(2, 1, hidden_sizes=(4,), hidden="tanh", rng=rng)
    s = rng.standard_normal(2)
    w = np.array([1.3])  # Q(s, a) = w . a

    g = dpg_direction(pol, s, w)
    theta = pol.get_params()
    h = 1e-6
    fd = np.empty_like(theta)
    for j in range(theta.size):
        bumped = theta.copy()
        bumped[j] += h
        pol.set_params(bumped)
        up = float(w @ pol.act([s])[0])
        bumped[j] -= 2 * h
        pol.set_params(bumped)
        down = float(w @ pol.act([s])[0])
        fd[j] = (up - down) / (2 * h)
    pol.set_params(theta)
    assert np.max(np.abs(g - fd)) < 1e-5


def test_policy_distance_single_state():
    assert policy_distance_dhat([[0.0]], [[0.3]]) == pytest.approx(0.3)
    # per-state Euclidean norm over sqrt(m): (3, 4) has norm 5
    assert policy_distance_dhat([[0.0, 0.0]], [[0.3, 0.4]]) \
        == pytest.approx(0.5 / np.sqrt(2))


def test_policy_distance_scales_with_sqrt_count():
    old = np.zeros((4, 1))
    new = np.full((4, 1), 0.2)
    d1 = policy_distance_dhat(old[:1], new[:1])
    d4 = policy_distance_dhat(old, new)
    # sum of L identical norms over sqrt(L): grows as sqrt(L)
    assert d4 == pytest.approx(2.0 * d1)


def test_policy_distance_rejects_empty():
    with pytest.raises(ValueError):
        policy_distance_dhat(np.zeros((0, 1)), np.zeros((0, 1)))


@pytest.mark.parametrize("old_shape, new_shape", [
    ((5, 1), (5,)), ((5,), (5, 1)), ((5, 1), (1, 1)), ((1, 1), (5, 1)),
    ((5, 2), (5, 1)), ((5, 2), (2,)), ((4, 1), (5, 1)), ((5, 0), (5, 0))])
def test_policy_distance_rejects_unequal_or_empty_shapes(old_shape,
                                                          new_shape):
    # a (5, 1) against a (5,) would broadcast to a 5 x 5 difference
    with pytest.raises(ValueError):
        policy_distance_dhat(np.zeros(old_shape), np.ones(new_shape))


def test_adapt_beta_dead_zone_and_doubling():
    trust = TrustRegionState(d_target=0.03, beta=1.0)
    assert adapt_beta(trust, 0.03) == 1.0          # inside the band
    assert adapt_beta(trust, 0.1) == 2.0           # too far: double
    assert adapt_beta(trust, 0.001) == 1.0         # too close: halve
    assert adapt_beta(trust, 0.001) == 0.5


def test_adapt_beta_clamps():
    trust = TrustRegionState(d_target=0.03, beta=1e6)
    assert adapt_beta(trust, 1.0) == 1e6
    trust = TrustRegionState(d_target=0.03, beta=1e-6)
    assert adapt_beta(trust, 0.0) == 1e-6


def test_penfac_gradient_matches_finite_difference_of_objective():
    # objective: mean_t [ H(A_t) A_t (a_t . mu) ... ] is awkward to state in
    # closed form, so check the batched PeNFAC direction against FD of the
    # surrogate
    #   L(theta) = mean_t [ w_t (-0.5 ||a_t - mu(s_t)||^2)
    #                       - beta ||mu(s_t) - mu_old(s_t)||^2 ]
    # whose gradient equals the penfac direction with w_t = max(A_t, 0)
    rng = np.random.default_rng(11)
    pol = MlpPolicy(2, 2, hidden_sizes=(5,), hidden="tanh", rng=rng)
    snap = copy.deepcopy(pol)
    snap.set_params(snap.get_params() + 0.05 * rng.standard_normal(pol.n_params))
    states = rng.standard_normal((6, 2))
    actions = rng.uniform(-1, 1, (6, 2))
    advs = rng.standard_normal(6)
    beta = 0.7

    g = batch_gated_direction(pol, states, actions, advs, scale_by_delta=True,
                              mu_old=snap.act(states), beta=beta)

    def surrogate(theta):
        pol.set_params(theta)
        total = 0.0
        for s, a, adv in zip(states, actions, advs):
            mu = pol.act([s])[0]
            w = max(adv, 0.0)
            total += -0.5 * w * np.sum((a - mu) ** 2)
            total -= beta * np.sum((mu - snap.act([s])[0]) ** 2)
        return total / len(states)

    theta0 = pol.get_params()
    h = 1e-6
    fd = np.empty_like(theta0)
    for j in range(theta0.size):
        up = theta0.copy(); up[j] += h
        dn = theta0.copy(); dn[j] -= h
        fd[j] = (surrogate(up) - surrogate(dn)) / (2 * h)
    pol.set_params(theta0)
    assert np.max(np.abs(g - fd)) < 1e-5


def test_penfac_zero_beta_reduces_to_mean_cac():
    rng = np.random.default_rng(12)
    pol = MlpPolicy(2, 1, hidden_sizes=(4,), hidden="tanh", rng=rng)
    states = rng.standard_normal((5, 2))
    actions = rng.uniform(-1, 1, (5, 1))
    advs = rng.standard_normal(5)
    g = batch_gated_direction(pol, states, actions, advs, scale_by_delta=True,
                              mu_old=pol.act(states), beta=0.0)
    ref = np.zeros(pol.n_params)
    for s, a, adv in zip(states, actions, advs):
        if adv > 0:
            ref += adv * toward(pol, s, a)
    assert np.allclose(g, ref / 5, atol=1e-12)


def test_penfac_rejects_length_mismatch():
    # (1, m) actions and one advantage would broadcast silently over two states
    pol = MlpPolicy(2, 1, hidden_sizes=(4,), hidden="tanh",
                    rng=np.random.default_rng(0))
    states = np.zeros((2, 2))
    with pytest.raises(ValueError):
        batch_gated_direction(pol, states, np.zeros((1, 1)), [1.0],
                              scale_by_delta=True)
    with pytest.raises(ValueError):
        batch_gated_direction(pol, states[:0], np.zeros((0, 1)), [],
                              scale_by_delta=True)


def test_batch_gated_direction_matches_per_sample_loops():
    rng = np.random.default_rng(13)
    pol = MlpPolicy(2, 2, hidden_sizes=(6,), hidden="tanh", rng=rng)
    snap = copy.deepcopy(pol)
    snap.set_params(snap.get_params() + 0.02 * rng.standard_normal(pol.n_params))
    states = rng.standard_normal((7, 2))
    actions = rng.uniform(-1, 1, (7, 2))
    advs = rng.standard_normal(7)

    g_batch = batch_gated_direction(pol, states, actions, advs,
                                    scale_by_delta=True,
                                    mu_old=snap.act(states), beta=0.4)
    g_loop = penfac_actor_gradient(pol, snap, states, actions, advs, 0.4)
    assert np.max(np.abs(g_batch - g_loop)) < 1e-10

    g_batch = batch_gated_direction(pol, states, actions, advs,
                                    scale_by_delta=False)
    g_loop = np.zeros(pol.n_params)
    for s, a, adv in zip(states, actions, advs):
        if adv > 0:
            g_loop += toward(pol, s, a)
    assert np.max(np.abs(g_batch - g_loop / 7)) < 1e-10


def test_batch_gated_direction_keeps_the_gate_closed_at_exactly_zero():
    # H(0) = 0 for either zero: without the TD scaling the weight is the
    # gate itself, so zero advantages must give an all-zero direction
    rng = np.random.default_rng(17)
    pol = MlpPolicy(2, 2, hidden_sizes=(5,), hidden="tanh", rng=rng)
    states = rng.standard_normal((3, 2))
    actions = np.array([[0.9, -0.9], [-0.8, 0.7], [0.5, 0.5]])
    g = batch_gated_direction(pol, states, actions, [0.0, -0.0, 0.0],
                              scale_by_delta=False)
    assert g.shape == (pol.n_params,) and not g.any()
    # not vacuous: the smallest positive advantage opens its row's gate
    assert batch_gated_direction(pol, states, actions, [0.0, -0.0, 5e-324],
                                 scale_by_delta=False).any()


@pytest.mark.parametrize("rule", ["spg", "dpg", "cacla"])
def test_run_bandit_matches_reference_directions(rule):
    # run_bandit writes the SPG and DPG steps inline; they must agree with
    # the reference directions the rules are defined by
    env = make_quadratic_bandit(5, 0)
    got = run_bandit(rule, env, 300, BanditConfig(), np.random.default_rng(1),
                     eval_every=1)
    want = bandit_reference(rule, env, 300, BanditConfig(),
                            np.random.default_rng(1))
    assert got[-1] > got[0]
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("m", [1, 5, 50])
@pytest.mark.parametrize("rule", ["spg", "dpg", "cacla"])
def test_run_bandit_is_the_old_form_byte_for_byte(rule, m):
    # run_bandit builds each episode's feature once, as a - theta, and
    # keeps the critic's v a float; every curve value keeps its bits.  It
    # reads its normals from block draws, and leaves the Generator where
    # the reference loop's per-call draws do; at m = 50 the run reads
    # past the first block
    env = make_quadratic_bandit(m, 0)
    for seed in (1, 2):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = run_bandit(rule, env, 300, BanditConfig(), rng, eval_every=1)
        want = old_form_bandit(rule, env, 300, BanditConfig(), ref)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class _StepRaises:
    """A bandit whose ``step`` raises on its ``k``-th call."""

    def __init__(self, env, k):
        self.env, self.k, self.spec = env, k, env.spec
        self.target = env.target

    def reset(self, rng):
        return self.env.reset(rng)

    def step(self, state, action, rng):
        self.k -= 1
        if not self.k:
            raise RuntimeError("step failed")
        return self.env.step(state, action, rng)


@pytest.mark.parametrize("m", [5, 50])
@pytest.mark.parametrize("rule", ["spg", "dpg", "cacla"])
def test_run_bandit_leaves_the_per_call_rng_state_when_it_raises(rule, m):
    # the stream closes in a finally: after an episode raises, the
    # Generator is where per-call draws leave it, on the first episode,
    # within the first block and, at m = 50, past it
    env = make_quadratic_bandit(m, 0)
    for k in (1, 40, 250):
        rng, ref = np.random.default_rng(k), np.random.default_rng(k)
        with pytest.raises(RuntimeError, match="step failed"):
            run_bandit(rule, _StepRaises(env, k), 300, BanditConfig(), rng,
                       eval_every=1)
        with pytest.raises(RuntimeError, match="step failed"):
            old_form_bandit(rule, _StepRaises(env, k), 300, BanditConfig(),
                            ref)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("rule", ["spg", "dpg", "cacla"])
def test_run_bandit_keeps_theta_in_the_box_before_every_episode(rule,
                                                                monkeypatch):
    # theta is clipped once at construction and projected after each step
    # that moves it, so every episode explores around a mean in the box.
    # At lr_actor <= 1 CACLA's step keeps theta between theta and a; at
    # 1.5 it overshoots a, so every rule's projection has something to clip
    seen = []
    explore = GaussianExploration.act

    def checked(self, mu, rng):
        assert np.all(np.abs(mu) <= 1.0), mu
        seen.append(np.any(np.abs(mu) == 1.0))
        return explore(self, mu, rng)

    monkeypatch.setattr(GaussianExploration, "act", checked)
    for config in (BanditConfig(), BanditConfig(lr_actor=1.5)):
        for m in (1, 5, 50):
            seen.clear()
            run_bandit(rule, make_quadratic_bandit(m, 0), 300, config,
                       np.random.default_rng(1), eval_every=1)
            assert len(seen) == 300
            if m == 50 and config.lr_actor == 1.5:
                # the check is not vacuous: theta sits on a bound
                assert sum(seen) > 100
