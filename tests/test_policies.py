import numpy as np
import pytest

from detac.policies import (MAX_ATTEMPTS, GaussianExploration, LinearPolicy,
                            MlpPolicy)
from jacobian_reference import jacobian


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
    jac = jacobian(pol, state)
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
        g_ref += u @ jacobian(pol, s)
    assert np.max(np.abs(g_batch - g_ref)) < 1e-10


def test_linear_policy_act_is_theta():
    pol = LinearPolicy(3, theta=np.array([0.1, -0.4, 0.9]))
    assert np.array_equal(pol.act(), [0.1, -0.4, 0.9])


def test_linear_policy_clips_to_bounds():
    pol = LinearPolicy(1, theta=np.array([1.7]))
    assert pol.act()[0] == 1.0


def test_linear_policy_clip_matches_np_clip_bits():
    # act() clips with maximum/minimum instead of np.clip: the same bits for
    # signed zeros, values on and beyond the bounds, infinities and NaN
    theta = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0),
                      np.nextafter(-1.0, -2.0), 0.5, -0.25, 3.0, -7.5,
                      np.inf, -np.inf, np.nan, -np.nan])
    rng = np.random.default_rng(11)
    for t in (theta, rng.uniform(-2.0, 2.0, 50)):
        pol = LinearPolicy(len(t), theta=t)
        got = pol.act()
        assert got.dtype == np.float64
        assert got.tobytes() == np.clip(t, -1.0, 1.0).tobytes()
        # a fresh array: writing to it leaves theta alone
        got[:] = 0.25
        assert pol.theta.tobytes() == t.tobytes()


def test_linear_policy_jacobian_is_identity():
    pol = LinearPolicy(4)
    assert np.array_equal(jacobian(pol, None), np.eye(4))
    # so backward_batch, the vector-Jacobian product, sums the upstream rows
    upstream = np.array([[0.1, -2.0, 0.5, 3.0], [1.5, 0.25, -0.75, 0.0]])
    pol.act_batch(np.zeros((2, 1)))
    assert np.array_equal(pol.backward_batch(upstream), upstream.sum(axis=0))
    assert np.array_equal(pol.backward_batch(upstream[:1]), upstream[0])


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


def _one_action_sampler(exploration, state, rng):
    """The single-state sampler as a plain loop: redraw the whole action
    until it lies in the box, clip the last draw after MAX_ATTEMPTS."""
    mu = np.asarray(exploration.policy.act(state), dtype=float).reshape(-1)
    for _ in range(MAX_ATTEMPTS):
        a = mu + exploration.sigma * rng.standard_normal(mu.size)
        if ((a >= exploration.low) & (a <= exploration.high)).all():
            return a
    return np.clip(a, exploration.low, exploration.high)


class _MeanIsState:
    """Test-side policy whose deterministic action is the state itself."""

    action_dim = 3

    def act(self, state):
        return np.asarray(state, dtype=float)

    def act_batch(self, states):
        return np.asarray(states, dtype=float)


def _three_means_near_bounds(m):
    """Means at +-0.97 on three coordinates: at m = 50 and sigma 0.6 most
    candidates are rejected, and most calls end in the clip."""
    theta = np.zeros(m)
    theta[[7, 23, 41]] = [0.97, -0.97, 0.97]
    return theta


@pytest.mark.parametrize("make", [
    lambda: (LinearPolicy(4, theta=[0.95, -0.9, 0.2, 1.0]), None),
    lambda: (LinearPolicy(20, theta=np.ones(20)), None),   # always clipped
    lambda: (MlpPolicy(2, 3, hidden_sizes=(8,),
                       rng=np.random.default_rng(1)), np.array([2.0, -1.0])),
    lambda: (LinearPolicy(50, theta=_three_means_near_bounds(50)), None)])
def test_single_state_exploration_draws_the_one_action_stream(make):
    policy, state = make()
    exploration = GaussianExploration(policy, sigma=0.6)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(300):
        got = exploration.act(state, rng)
        want = _one_action_sampler(exploration, state, ref)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_batched_exploration_redraws_only_rejected_rows():
    # rows near a bound are often rejected; the last row, with a mean six
    # sigma outside, never fits and is clipped
    means = np.array([[0.0, 0.1, -0.2], [0.97, -0.97, 0.9],
                      [0.3, 0.99, 0.0], [-0.95, 0.0, 0.95], [4.0, 0.0, 0.0]])
    sigma = 0.5
    exploration = GaussianExploration(_MeanIsState(), sigma)
    for seed in range(20):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        got = exploration.act(means, rng)
        # replay: one first draw for all rows, then one block per round of
        # the rows still outside, in row order
        want = means + sigma * replay.standard_normal(means.shape)
        draws = np.ones(len(means), dtype=int)
        first = want.copy()
        outside = [i for i in range(len(means))
                   if not np.all(np.abs(want[i]) <= 1.0)]
        while outside and draws[outside[0]] < MAX_ATTEMPTS:
            block = means[outside] + sigma * replay.standard_normal(
                (len(outside), 3))
            want[outside] = block
            draws[outside] += 1
            outside = [i for i, row in zip(outside, block)
                       if not np.all(np.abs(row) <= 1.0)]
        want[outside] = np.clip(want[outside], -1.0, 1.0)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == replay.bit_generator.state
        # rows accepted on the first draw keep it
        kept = draws == 1
        assert np.array_equal(got[kept], first[kept])
        assert draws[-1] == MAX_ATTEMPTS and np.all(np.abs(got) <= 1.0)
    assert kept.any() and (draws[:-1] > 1).any()


class _ScriptedNormals:
    """An rng with only ``standard_normal``, as a draw-counting wrapper
    has: it hands out the scripted candidates in order."""

    def __init__(self, candidates):
        self.candidates = [np.asarray(z, dtype=float) for z in candidates]
        self.calls = 0

    def standard_normal(self, size):
        assert np.prod(size) == self.candidates[self.calls].size
        z = self.candidates[self.calls].reshape(size)
        self.calls += 1
        return z


# mean (0.5, -0.25, 0.0) and sigma 0.5: a = mu + 0.5 z is exact for these z
_MU = np.array([0.5, -0.25, 0.0])
_JUST_OVER = 1.0 + 2.0 ** -51          # 0.5 + 0.5 z = 1.0000000000000002
_REJECTED = [[0.0, np.nan, 0.0],       # NaN fails the box test
             [_JUST_OVER, 0.0, 0.0],   # out at the largest |mu| only
             [0.0, 0.0, 2.5],          # out at the smallest |mu| only
             [0.0, -2.0, 0.0]]         # out at the middle one only
_ON_BOUNDS = [1.0, -1.5, 2.0]          # a = (1.0, -1.0, 1.0) exactly


@pytest.mark.parametrize("state", [_MU, _MU[None]], ids=["state", "row"])
@pytest.mark.parametrize("candidates, calls, want", [
    (_REJECTED + [_ON_BOUNDS], 5, [1.0, -1.0, 1.0]),
    # accepted on the last draw of the budget
    ((_REJECTED * 25)[:MAX_ATTEMPTS - 1] + [[0.4, -0.5, 0.1]] + [[0.0] * 3],
     MAX_ATTEMPTS, [0.7, -0.5, 0.05]),
    # never accepted: the 100th candidate is clipped, no 101st is drawn
    ((_REJECTED * 25)[:MAX_ATTEMPTS - 1] + [[3.0, -4.0, _JUST_OVER]]
     + [[0.0] * 3], MAX_ATTEMPTS, [1.0, -1.0, 0.5 + 2.0 ** -52])],
    ids=["on-bounds", "accepted-last", "clipped"])
def test_one_row_redraws_test_each_coordinate_on_exact_floats(
        state, candidates, calls, want):
    exploration = GaussianExploration(_MeanIsState(), sigma=0.5)
    rng = _ScriptedNormals(candidates)
    got = exploration.act(state, rng)
    assert got.shape == np.shape(state)
    assert np.array_equal(got.reshape(-1), want)
    assert rng.calls == calls


@pytest.mark.parametrize("bad", [0, 1])
@pytest.mark.parametrize("z", _REJECTED, ids=["nan", "over-largest",
                                              "over-smallest", "over-middle"])
def test_batched_exploration_accepts_a_block_only_when_every_row_fits(
        bad, z):
    # the first block is accepted on one test of its largest |a_j|; a NaN
    # or one coordinate just outside, in either row, sends that row alone
    # to a redraw
    exploration = GaussianExploration(_MeanIsState(), sigma=0.5)
    first = [_ON_BOUNDS, _ON_BOUNDS]
    first[bad] = z
    rng = _ScriptedNormals([first, [[0.4, -0.5, 0.1]]])
    got = exploration.act(np.stack([_MU, _MU]), rng)
    assert rng.calls == 2
    assert np.array_equal(got[1 - bad], [1.0, -1.0, 1.0])
    assert np.array_equal(got[bad], [0.7, -0.5, 0.05])
    rng = _ScriptedNormals([[_ON_BOUNDS, [0.4, -0.5, 0.1]]])
    got = exploration.act(np.stack([_MU, _MU]), rng)
    assert rng.calls == 1
    assert np.array_equal(got, [[1.0, -1.0, 1.0], [0.7, -0.5, 0.05]])


def test_gaussian_exploration_anneal():
    expl = GaussianExploration(LinearPolicy(1), sigma=0.4, decay=0.5)
    expl.anneal()
    expl.anneal()
    assert expl.sigma == pytest.approx(0.1)


def test_gaussian_exploration_rejects_bad_sigma():
    with pytest.raises(ValueError):
        GaussianExploration(LinearPolicy(1), sigma=0.0)
    with pytest.raises(ValueError):
        GaussianExploration(LinearPolicy(1), sigma=np.nan)
    with pytest.raises(ValueError):
        GaussianExploration(LinearPolicy(1), sigma=0.1, decay=0.0)
