import numpy as np
import pytest
from scipy.integrate import quad

from detac.envs import make_quadratic_bandit, random_finite_mdp
from detac.oracle import (CHAIN_ACTIONS, CHAIN_LIPSCHITZ, CHAIN_STATES,
                          LipschitzGaussianChain, dp_solve, epsilon_smoothed,
                          gated_scaled_direction_1d,
                          occupancy_shift_bound_check,
                          performance_difference_residual, policy_matrix)


def performance_j(mdp, policy):
    """Reference: the start-weighted performance of ``policy``."""
    return dp_solve(mdp, policy).j


def bandit_exact_advantage(target, theta, sigma):
    """A(a) = R(a) - E_pi[R] for the quadratic bandit under Gaussian
    exploration around theta; closed form thanks to Gaussian moments."""
    def advantage(a):
        a = np.atleast_1d(np.asarray(a, float))
        t = np.atleast_1d(np.asarray(target, float))
        th = np.atleast_1d(np.asarray(theta, float))
        return (-np.sum((a - t) ** 2) + np.sum((th - t) ** 2)
                + a.size * sigma ** 2)
    return advantage


def deterministic_gradient_1d(target, theta):
    """The quadratic reward's exact action gradient at a = theta."""
    return 2.0 * (target - theta)


def _gaussian_density(a, theta, sigma):
    return np.exp(-0.5 * ((a - theta) / sigma) ** 2) / (
        sigma * np.sqrt(2 * np.pi))


def spg_inner_integral_1d(target, theta, sigma):
    """Reference: scipy quad of the ungated likelihood-ratio inner integral
    over theta +- 12 sigma; the Gaussian mass outside is below 1e-32."""
    adv = bandit_exact_advantage(target, theta, sigma)

    def f(a):
        return _gaussian_density(a, theta, sigma) * adv(a) * (a - theta) / (
            sigma ** 2)

    return quad(f, theta - 12 * sigma, theta + 12 * sigma, points=[theta],
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def test_policy_matrix_from_indices():
    mdp = random_finite_mdp(3, 2, 0.9, np.random.default_rng(0))
    mat = policy_matrix(mdp, np.array([1, 0, 1]))
    assert np.array_equal(mat, [[0, 1], [1, 0], [0, 1]])


def test_policy_matrix_rejects_wrong_shape():
    mdp = random_finite_mdp(3, 2, 0.9, np.random.default_rng(0))
    with pytest.raises(ValueError):
        policy_matrix(mdp, np.ones((2, 2)))


def test_dp_solve_two_state_chain_by_hand():
    # state 0 -> state 1 (reward 1), state 1 absorbing (reward 0)
    # V(1) = 0, V(0) = 1
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 1] = 1.0
    r = np.array([[1.0], [0.0]])
    from detac.envs import FiniteMdp
    mdp = FiniteMdp(p, r, np.array([1.0, 0.0]), 0.9)
    sol = dp_solve(mdp, np.array([0, 0]))
    assert np.allclose(sol.v, [1.0, 0.0], atol=1e-12)
    assert sol.j == pytest.approx(1.0)
    # occupancy from start state 0: 1 at state 0, geometric tail at state 1
    assert sol.occupancy[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.occupancy[1] == pytest.approx(0.9 / 0.1, abs=1e-9)


def test_dp_solve_matches_value_iteration():
    mdp = random_finite_mdp(5, 3, 0.9, np.random.default_rng(4))
    pi = np.array([0, 2, 1, 0, 2])
    sol = dp_solve(mdp, pi)
    # independent oracle: plain value iteration
    v = np.zeros(5)
    for _ in range(2000):
        q = mdp.rewards + mdp.gamma * mdp.transitions @ v
        v = q[np.arange(5), pi]
    assert np.max(np.abs(sol.v - v)) < 1e-10
    assert np.allclose(sol.advantage, sol.q - sol.v[:, None], atol=1e-12)


def test_occupancy_sums_to_discount_series():
    mdp = random_finite_mdp(6, 2, 0.85, np.random.default_rng(5))
    sol = dp_solve(mdp, np.zeros(6, dtype=int))
    assert sol.occupancy.sum() == pytest.approx(1.0 / (1.0 - 0.85), abs=1e-9)


def test_performance_j_is_occupancy_weighted_reward():
    mdp = random_finite_mdp(4, 2, 0.9, np.random.default_rng(6))
    pi = np.array([1, 0, 1, 0])
    sol = dp_solve(mdp, pi)
    r_pi = mdp.rewards[np.arange(4), pi]
    assert performance_j(mdp, pi) == pytest.approx(sol.occupancy @ r_pi, abs=1e-9)


def test_epsilon_smoothed_rows_are_distributions():
    mdp = random_finite_mdp(4, 3, 0.9, np.random.default_rng(7))
    pi = epsilon_smoothed(mdp, np.array([0, 1, 2, 0]), 0.3)
    assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(pi >= 0.3 / 3 - 1e-15)
    assert pi[0, 0] == pytest.approx(0.7 + 0.1)


def test_performance_difference_identity_random_mdps():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mdp = random_finite_mdp(4, 3, 0.9, rng)
        mu = rng.integers(0, 3, size=4)
        mu_tilde = rng.integers(0, 3, size=4)
        pi = epsilon_smoothed(mdp, mu, rng.uniform(0.05, 0.5))
        res = performance_difference_residual(mdp, mu, mu_tilde, pi)
        assert res < 1e-9


def test_bandit_exact_advantage_zero_mean_under_policy():
    # E_pi[A] = 0 by construction; check by quadrature
    adv = bandit_exact_advantage(0.4, theta=0.1, sigma=0.3)
    f = lambda a: adv(a) * _gaussian_density(a, 0.1, 0.3)
    assert quad(f, 0.1 - 10 * 0.3, 0.1 + 10 * 0.3, epsabs=1e-12,
                limit=200)[0] == pytest.approx(0.0, abs=1e-10)


def test_spg_integral_equals_deterministic_gradient():
    # for the quadratic reward the ungated likelihood-ratio integral equals
    # the deterministic gradient exactly
    for theta, target, sigma in [(0.0, 0.5, 0.3), (-0.4, 0.2, 0.1),
                                 (0.0, 0.2191, 0.05), (0.7, -0.3, 0.01)]:
        spg = spg_inner_integral_1d(target, theta, sigma)
        dpg = deterministic_gradient_1d(target, theta)
        assert spg == pytest.approx(dpg, rel=1e-9)


def _quad_gated(target, theta, sigma):
    """scipy quad of the gated integrand over the support of A > 0."""
    adv = bandit_exact_advantage(target, theta, sigma)
    radius = np.sqrt((theta - target) ** 2 + sigma ** 2)

    def f(a):
        return (_gaussian_density(a, theta, sigma) * max(adv(a), 0.0)
                * (a - theta) / sigma ** 2)

    lo, hi = target - radius, target + radius
    return quad(f, lo, hi, points=[theta] if lo < theta < hi else None,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("sigma", [0.5, 0.2, 0.1, 0.05])
@pytest.mark.parametrize("target", [
    # acceptance 2's bandit target: integrating over theta +- 8 sigma gave
    # 0.0 at sigma 0.5 and 0.2 and was 0.18% off at sigma 0.1
    float(make_quadratic_bandit(1, 0).target[0]),
    # suite_lemma1's: a support 40 sigma wide at sigma 0.05
    1.0])
def test_gated_direction_matches_quad(target, sigma):
    got = gated_scaled_direction_1d(target, 0.0, sigma)
    want = _quad_gated(target, 0.0, sigma)
    assert want > 0.09
    assert abs(got - want) <= 1e-13 * abs(want)


def test_gated_direction_ratio_in_unit_interval():
    ratios = [gated_scaled_direction_1d(0.5, 0.0, sigma)
              / deterministic_gradient_1d(0.5, 0.0)
              for sigma in (0.5, 0.2, 0.1, 0.05)]
    # a nonzero deterministic gradient needs a strictly positive ratio
    assert all(0.0 < r <= 1.0 for r in ratios)
    # shrinking exploration keeps the gated direction a strict attenuation
    assert all(r < 1.0 for r in ratios)


def test_gated_direction_zero_at_optimum():
    # both directions vanish at theta = target, the gated one exactly
    assert deterministic_gradient_1d(0.3, 0.3) == 0.0
    assert gated_scaled_direction_1d(0.3, 0.3, 0.01) == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_gated_direction_ratio_strictly_inside_unit_interval_on_grid(sign):
    # every pair of target - theta = sign * gap and sigma on one grid
    sigmas = np.geomspace(1e-3, 2.0, 40)
    for gap in sigmas:
        target = 0.2 + sign * gap
        ratios = [gated_scaled_direction_1d(target, 0.2, sigma)
                  / deterministic_gradient_1d(target, 0.2)
                  for sigma in sigmas]
        assert all(0.0 < r < 1.0 for r in ratios), (target, ratios)
        assert all(gated_scaled_direction_1d(target, target, s) == 0.0
                   for s in sigmas)


def test_gated_direction_sign_matches_gradient():
    # theta below target: move up; above: move down
    for target in (0.5, -0.5):
        gated = gated_scaled_direction_1d(target, 0.0, 0.2)
        assert np.sign(gated) == np.sign(deterministic_gradient_1d(target, 0.0))
        assert gated != 0.0


def test_chain_transition_rows_sum_to_one():
    chain = LipschitzGaussianChain()
    for s in (0, 20, 40):
        for a in (-1.0, 0.0, 0.73):
            row = chain.transition_row(s, a)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0)


def test_chain_transitions_are_the_normalized_rows_bit_for_bit():
    # built once per chain; build_mdp shares the tensor read-only
    chain = LipschitzGaussianChain()
    n, k = CHAIN_STATES, CHAIN_ACTIONS
    p = np.empty((n, k, n))
    for s in range(n):
        for a in range(k):
            p[s, a] = chain.transition_row(s, chain.actions[a])
            p[s, a] /= p[s, a].sum()
    assert chain.transitions.shape == p.shape
    assert chain.transitions.tobytes() == p.tobytes()
    mdp = chain.build_mdp(np.zeros((n, k)))
    assert mdp.transitions is chain.transitions
    with pytest.raises(ValueError):
        mdp.transitions[0, 0, 0] = 1.0


def test_chain_lipschitz_bound_on_rows():
    # L1 distance between rows for nearby actions obeys L |a1 - a2|
    chain = LipschitzGaussianChain()
    rng = np.random.default_rng(9)
    for _ in range(50):
        s = rng.integers(0, CHAIN_STATES)
        a1, a2 = rng.uniform(-1, 1, size=2)
        l1 = np.abs(chain.transition_row(s, a1)
                    - chain.transition_row(s, a2)).sum()
        assert l1 <= CHAIN_LIPSCHITZ * abs(a1 - a2) + 1e-12


def test_chain_smoothed_policy_rows_normalized():
    chain = LipschitzGaussianChain()
    pi = chain.smoothed_policy(np.zeros(CHAIN_STATES), 0.2)
    assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)


def _chain_instance(chain, seed):
    """Random rewards, a deterministic policy mu and a shifted mu~ within
    three action cells of it, as action indices."""
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(-1, 1, size=(CHAIN_STATES, CHAIN_ACTIONS))
    mu = rng.integers(0, CHAIN_ACTIONS, size=CHAIN_STATES)
    mu_tilde = np.clip(mu + rng.integers(-3, 4, size=CHAIN_STATES),
                       0, CHAIN_ACTIONS - 1)
    return chain.build_mdp(rewards), mu, mu_tilde


def test_occupancy_shift_bound_holds():
    chain = LipschitzGaussianChain()
    mdp, mu, mu_tilde = _chain_instance(chain, 10)
    lhs, rhs, ok = occupancy_shift_bound_check(chain, mdp, mu, mu_tilde, 0.1)
    assert ok
    assert lhs >= 0 and rhs > 0


@pytest.mark.parametrize("seed, negative_max", [(10, False), (12, True)])
def test_occupancy_shift_bound_terms_match_theorem_1(seed, negative_max):
    # lhs = |(d^mu~ - d^pi) . A^pi(., mu~)| and
    # rhs = max|A^pi| L / (1 - gamma) (max_s |mu~ - mu| + 2 sigma / sqrt(2 pi)),
    # recomputed term by term; on seed 12 max|A^pi| is a negative
    # advantage, so eps = max A^pi would give a smaller rhs there
    chain = LipschitzGaussianChain()
    mdp, mu, mu_tilde = _chain_instance(chain, seed)
    sigma = 0.1
    pi = chain.smoothed_policy(chain.actions[mu], sigma)
    sol_pi, sol_tilde = dp_solve(mdp, pi), dp_solve(mdp, mu_tilde)
    adv = sol_pi.advantage
    assert (-adv.min() > adv.max()) == negative_max
    at_tilde = adv[np.arange(CHAIN_STATES), mu_tilde]
    want_lhs = abs((sol_tilde.occupancy - sol_pi.occupancy) @ at_tilde)
    shift = (np.max(np.abs(chain.actions[mu_tilde] - chain.actions[mu]))
             + 2.0 * sigma / np.sqrt(2.0 * np.pi))
    want_rhs = (np.max(np.abs(adv)) * CHAIN_LIPSCHITZ
                / (1.0 - mdp.gamma) * shift)
    lhs, rhs, ok = occupancy_shift_bound_check(chain, mdp, mu, mu_tilde, sigma)
    assert lhs == pytest.approx(want_lhs, rel=1e-12, abs=0)
    assert rhs == pytest.approx(want_rhs, rel=1e-12, abs=0)
    assert ok == (want_lhs <= want_rhs)


def test_occupancy_shift_bound_rejects_large_shift():
    chain = LipschitzGaussianChain()
    rewards = np.zeros((CHAIN_STATES, CHAIN_ACTIONS))
    mdp = chain.build_mdp(rewards)
    mu = np.zeros(CHAIN_STATES, dtype=int)
    mu_tilde = np.full(CHAIN_STATES, CHAIN_ACTIONS - 1, dtype=int)
    with pytest.raises(ValueError):
        occupancy_shift_bound_check(chain, mdp, mu, mu_tilde, 0.5)
