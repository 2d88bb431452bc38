import numpy as np
import pytest
from scipy.stats import kstest, truncnorm

from detac.agents import BanditConfig
from detac.envs import make_quadratic_bandit
from detac import policies
from detac.policies import (MAX_ATTEMPTS, NORMAL_BLOCK, GaussianExploration,
                            LinearPolicy, MlpPolicy, NormalStream)
from jacobian_reference import jacobian, linear_policy


def _fd_jacobian(policy, state, h=1e-6):
    theta = policy.get_params()
    mu0 = np.asarray(policy.act([state]), dtype=float).reshape(-1)
    jac = np.empty((mu0.size, theta.size))
    for j in range(theta.size):
        bumped = theta.copy()
        bumped[j] += h
        policy.set_params(bumped)
        jac[:, j] = (np.asarray(policy.act([state])).reshape(-1) - mu0) / h
    policy.set_params(theta)
    return jac


def test_mlp_policy_action_in_bounds():
    rng = np.random.default_rng(0)
    pol = MlpPolicy(2, 3, hidden_sizes=(8,), hidden="tanh", rng=rng)
    for _ in range(20):
        a = pol.act([rng.standard_normal(2) * 5])
        assert np.all(np.abs(a) < 1.0)


def test_mlp_policy_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4)
    pol = MlpPolicy(2, 2, hidden_sizes=(6,), hidden="tanh", rng=rng)
    state = rng.standard_normal(2)
    jac = jacobian(pol, state)
    fd = _fd_jacobian(pol, state)
    assert np.max(np.abs(jac - fd)) < 1e-5


def test_mlp_policy_backward_matches_jacobian_sum():
    rng = np.random.default_rng(6)
    pol = MlpPolicy(2, 2, hidden_sizes=(5,), hidden="tanh", rng=rng)
    states = rng.standard_normal((4, 2))
    upstream = rng.standard_normal((4, 2))
    pol.act(states)
    g_batch = pol.backward(upstream)
    g_ref = np.zeros(pol.num_params)
    for s, u in zip(states, upstream):
        g_ref += u @ jacobian(pol, s)
    assert np.max(np.abs(g_batch - g_ref)) < 1e-10


def test_linear_policy_act_is_theta():
    pol = LinearPolicy(3)
    assert pol.theta.tobytes() == np.zeros(3).tobytes()
    pol.theta = np.array([0.1, -0.4, 0.9])
    got = pol.act(np.zeros(1))
    assert np.array_equal(got, [0.1, -0.4, 0.9])
    # a fresh array: writing to it leaves theta alone
    got[:] = 0.25
    assert np.array_equal(pol.theta, [0.1, -0.4, 0.9])


def test_linear_policy_jacobian_is_identity():
    pol = LinearPolicy(4)
    assert np.array_equal(jacobian(pol, None), np.eye(4))


def test_gaussian_exploration_stays_in_bounds():
    mu = np.array([0.95, -0.95])
    expl = GaussianExploration(sigma=0.5)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = expl.act(mu, rng)
        assert np.all(a >= -1.0) and np.all(a <= 1.0)


def test_gaussian_exploration_moments():
    # interior mean, small sigma: truncation is negligible, so the sample
    # mean and std should match the nominal Gaussian
    mu = np.array([0.0])
    expl = GaussianExploration(sigma=0.1)
    rng = np.random.default_rng(8)
    samples = np.array([expl.act(mu, rng)[0] for _ in range(20000)])
    assert abs(samples.mean()) < 0.005
    assert abs(samples.std() - 0.1) < 0.005


def _coordinate_sampler(exploration, means, rng):
    """The sampler as plain loops: one first draw for every coordinate,
    then rounds that redraw the coordinates still outside the box with one
    ``standard_normal(k)`` call, in C order; the last of MAX_ATTEMPTS draws
    is clipped.  Also returns each coordinate's number of draws."""
    means = np.asarray(means, dtype=float)
    mu = means.reshape(-1)
    a = (means + exploration.sigma * rng.standard_normal(means.shape)).ravel()
    draws = np.ones(a.size, dtype=int)
    outside = [j for j in range(a.size) if not abs(a[j]) <= 1.0]
    while outside and draws[outside[0]] < MAX_ATTEMPTS:
        for j, z_j in zip(outside, rng.standard_normal(len(outside))):
            a[j] = mu[j] + exploration.sigma * z_j
            draws[j] += 1
        outside = [j for j in outside if not abs(a[j]) <= 1.0]
    a[outside] = np.clip(a[outside], -1.0, 1.0)
    return a.reshape(means.shape), draws.reshape(means.shape)


def _one_action_sampler(exploration, mean, rng):
    """The whole-action sampler as a plain loop: redraw the whole action
    until it lies in the box, clip the last draw after MAX_ATTEMPTS."""
    mu = np.asarray(mean, dtype=float).reshape(-1)
    for _ in range(MAX_ATTEMPTS):
        a = mu + exploration.sigma * rng.standard_normal(mu.size)
        if ((a >= exploration.low) & (a <= exploration.high)).all():
            return a
    return np.clip(a, exploration.low, exploration.high)


def _row_block_sampler(exploration, means, rng):
    """The whole-row batch sampler: one first draw for all rows, then one
    ``(k, m)`` block per round of the k rows still outside, in row order;
    a row still outside after MAX_ATTEMPTS draws is clipped."""
    sigma = exploration.sigma
    a = means + sigma * rng.standard_normal(means.shape)
    outside = [i for i in range(len(means)) if not np.all(np.abs(a[i]) <= 1.0)]
    for _ in range(MAX_ATTEMPTS - 1):
        if not outside:
            break
        block = means[outside] + sigma * rng.standard_normal(
            (len(outside), means.shape[1]))
        a[outside] = block
        outside = [i for i, row in zip(outside, block)
                   if not np.all(np.abs(row) <= 1.0)]
    a[outside] = np.clip(a[outside], -1.0, 1.0)
    return a


def _three_means_near_bounds(m):
    """Means at +-0.97 on three coordinates: at m = 50 and sigma 0.6 most
    whole candidates are rejected, as a whole-row redraw would see them."""
    theta = np.zeros(m)
    theta[[7, 23, 41]] = [0.97, -0.97, 0.97]
    return theta


@pytest.mark.parametrize("make", [
    lambda: (linear_policy([0.95, -0.9, 0.2, 1.0]), None),
    lambda: (linear_policy(np.ones(20)), None),
    lambda: (MlpPolicy(2, 3, hidden_sizes=(8,), hidden="tanh",
                       rng=np.random.default_rng(1)), np.array([[2.0, -1.0]])),
    lambda: (linear_policy(_three_means_near_bounds(50)), None)])
def test_single_state_exploration_draws_the_one_action_stream(make):
    policy, state = make()
    exploration = GaussianExploration(sigma=0.6)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(300):
        got = exploration.act(policy.act(state), rng)
        want, _ = _coordinate_sampler(exploration, policy.act(state), ref)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("m", [5, 50])
@pytest.mark.parametrize("sigma", [BanditConfig().sigma,
                                   BanditConfig().sigma_min],
                         ids=["start", "floor"])
def test_exploration_at_the_bandit_target_draws_the_coordinate_stream(
        m, sigma):
    # the means bandit-suite converges to, at its start and floor sigma
    target = make_quadratic_bandit(m, 0).target
    exploration = GaussianExploration(sigma)
    rng, ref = np.random.default_rng(m), np.random.default_rng(m)
    redrawn = 0
    for _ in range(300):
        got = exploration.act(target, rng)
        want, draws = _coordinate_sampler(exploration, target, ref)
        assert got.tobytes() == want.tobytes()
        redrawn += int(draws.max() > 1)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert redrawn > 0


def test_batched_exploration_redraws_only_rejected_rows():
    # rows near a bound are often rejected; the first coordinate of the
    # last row, with a mean six sigma outside, never fits and is clipped
    means = np.array([[0.0, 0.1, -0.2], [0.97, -0.97, 0.9],
                      [0.3, 0.99, 0.0], [-0.95, 0.0, 0.95], [4.0, 0.0, 0.0]])
    sigma = 0.5
    exploration = GaussianExploration(sigma)
    for seed in range(20):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        got = exploration.act(means, rng)
        first = means + sigma * np.random.default_rng(seed).standard_normal(
            means.shape)
        want, draws = _coordinate_sampler(exploration, means, replay)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == replay.bit_generator.state
        # coordinates accepted on the first draw keep it, in rejected rows
        # too
        kept = draws == 1
        assert got[kept].tobytes() == first[kept].tobytes()
        assert draws[-1, 0] == MAX_ATTEMPTS and got[-1, 0] == 1.0
        assert np.all(np.abs(got) <= 1.0)
    assert (kept & (draws > 1).any(axis=1, keepdims=True)).any()
    assert (draws[:-1] > 1).any()


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
_REDRAWN = [0.4, -0.5, 0.1]            # a = (0.7, -0.5, 0.05)
# coordinate 2 stays out for the rounds between the first draw and the last
_STILL_OUT = [[2.5], [np.nan], [-2.0 - 2.0 ** -51]] * 33


@pytest.mark.parametrize("mean", [_MU, _MU[None]], ids=["state", "row"])
@pytest.mark.parametrize("candidates, calls, want", [
    # all three out, then the last two out (coordinates 0 and 1 land on a
    # bound), then coordinate 2 alone lands on its bound
    ([[_JUST_OVER, np.nan, 2.5], [1.0, -1.5, 3.0], [2.0]], 3,
     [1.0, -1.0, 1.0]),
    # coordinate 2 is accepted on the last draw of the budget
    ([[_JUST_OVER, np.nan, 2.5], [0.4, -0.5, -2.5]]
     + _STILL_OUT[:MAX_ATTEMPTS - 3] + [[0.1], [0.0]],
     MAX_ATTEMPTS, [0.7, -0.5, 0.05]),
    # coordinates 0 and 1 never fit: their 100th draws are clipped, no
    # 101st is drawn; coordinate 2 keeps its first draw
    ([[np.nan, -4.0, _JUST_OVER]]
     + [[_JUST_OVER, np.nan], [3.0, -4.0]] * ((MAX_ATTEMPTS - 2) // 2)
     + [[_JUST_OVER, -4.0], [0.0, 0.0]],
     MAX_ATTEMPTS, [1.0, -1.0, 0.5 + 2.0 ** -52])],
    ids=["on-bounds", "accepted-last", "clipped"])
def test_one_row_redraws_test_each_coordinate_on_exact_floats(
        mean, candidates, calls, want):
    exploration = GaussianExploration(sigma=0.5)
    rng = _ScriptedNormals(candidates)
    got = exploration.act(mean, rng)
    assert got.shape == np.shape(mean)
    assert np.array_equal(got.reshape(-1), want)
    assert rng.calls == calls


@pytest.mark.parametrize("bad", [0, 1])
@pytest.mark.parametrize("z", _REJECTED, ids=["nan", "over-largest",
                                              "over-smallest", "over-middle"])
def test_batched_exploration_accepts_a_block_only_when_every_row_fits(
        bad, z):
    # the first block is accepted on one test of its largest |a_j|; a NaN
    # or one coordinate just outside, in either row, sends that coordinate
    # alone to a redraw
    exploration = GaussianExploration(sigma=0.5)
    first = [_ON_BOUNDS, _ON_BOUNDS]
    first[bad] = z
    j = [k for k in range(3) if not abs(_MU[k] + 0.5 * z[k]) <= 1.0]
    rng = _ScriptedNormals([first, [_REDRAWN[k] for k in j]])
    got = exploration.act(np.stack([_MU, _MU]), rng)
    assert rng.calls == 2 and len(j) == 1
    assert np.array_equal(got[1 - bad], [1.0, -1.0, 1.0])
    want = _MU.copy()
    want[j] = np.array([0.7, -0.5, 0.05])[j]
    assert np.array_equal(got[bad], want)
    rng = _ScriptedNormals([[_ON_BOUNDS, _REDRAWN]])
    got = exploration.act(np.stack([_MU, _MU]), rng)
    assert rng.calls == 1
    assert np.array_equal(got, [[1.0, -1.0, 1.0], [0.7, -0.5, 0.05]])


@pytest.mark.parametrize("rows", [None, 1, 2], ids=["state", "row", "rows"])
@pytest.mark.parametrize("path", ["first-draw", "redraw", "clip"])
def test_exploration_never_writes_its_mean(rows, path):
    # run_bandit passes theta itself as the mean, so no path may write to
    # it or hand back an action that shares its memory
    mean = _MU.copy() if rows is None else np.stack([_MU] * rows)
    n = mean.size
    candidates = {
        "first-draw": [_REDRAWN * (n // 3)],
        "redraw": [[_JUST_OVER, np.nan, 2.5] * (n // 3), _REDRAWN * (n // 3)],
        # a = mu + 2 is outside the box on every coordinate, every time
        "clip": [[4.0] * n] * MAX_ATTEMPTS}[path]
    given = mean.tobytes()
    rng = _ScriptedNormals(candidates)
    got = GaussianExploration(sigma=0.5).act(mean, rng)
    assert rng.calls == len(candidates)
    assert mean.tobytes() == given
    assert not np.shares_memory(got, mean)
    assert np.array_equal(got.reshape(-1, 3),
                          np.broadcast_to(np.ones(3) if path == "clip"
                                          else [0.7, -0.5, 0.05], (n // 3, 3)))


def test_exploration_samples_the_truncated_normal_in_fifty_dims():
    # whole-row rejection at this mean and sigma uses up its draw budget on
    # most calls and leaves about a tenth of the coordinates clipped onto a
    # bound; a per-coordinate redraw puts none there and every coordinate's marginal passes a KS test against the
    # one-dimensional truncated normal.  The floor is a 5% test over the
    # 50 coordinates, Bonferroni-corrected.
    mu, sigma = _three_means_near_bounds(50), 0.6
    exploration = GaussianExploration(sigma)
    rng = np.random.default_rng(1)
    samples = np.array([exploration.act(mu, rng) for _ in range(4000)])
    assert not np.any(np.abs(samples) == 1.0)
    p = [kstest(samples[:, j], truncnorm((-1.0 - mu[j]) / sigma,
                                         (1.0 - mu[j]) / sigma,
                                         loc=mu[j], scale=sigma).cdf).pvalue
         for j in range(50)]
    assert min(p) > 0.05 / 50


@pytest.mark.parametrize("means", [
    [0.97], [-0.99], [0.0], [4.0], [np.nan],
    [[0.97]], [[4.0]],
    [[0.0], [0.97], [-0.99], [0.9], [-0.95]],
    [[0.99], [4.0], [-0.97], [-3.0], [0.5], [1.0]]],
    ids=["state", "state-near-low", "state-centre", "state-outside",
         "state-nan", "row", "row-outside", "batch", "batch-outside"])
def test_one_dimensional_exploration_keeps_the_whole_row_stream(means):
    # with one action dimension a coordinate is a row: the values and the
    # generator state are those of the whole-row redraw loops, clipped
    # draws included, so one-dimensional runs keep their outputs
    means = np.array(means)
    exploration = GaussianExploration(sigma=0.6)
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            got = exploration.act(means, rng)
            if means.ndim == 2:
                want = _row_block_sampler(exploration, means, ref)
            else:
                want = _one_action_sampler(exploration, means, ref)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_gaussian_exploration_rejects_bad_sigma():
    with pytest.raises(ValueError):
        GaussianExploration(sigma=0.0)
    with pytest.raises(ValueError):
        GaussianExploration(sigma=np.nan)


def _normal_sizes(rng, block):
    """Int and shape-tuple sizes, empty ones included, that cross many
    block boundaries, with one size larger than ``block``."""
    sizes = []
    for _ in range(200):
        kind = rng.integers(4)
        if kind == 0:
            sizes.append(int(rng.integers(0, 12)))
        elif kind == 1:
            sizes.append((int(rng.integers(1, 12)),))
        elif kind == 2:
            sizes.append((int(rng.integers(1, 4)), int(rng.integers(0, 5))))
        else:
            sizes.append((2, 1, int(rng.integers(1, 4))))
    sizes.insert(100, block + 3)
    return sizes


@pytest.mark.parametrize("block", [7, NORMAL_BLOCK])
def test_normal_stream_serves_the_per_call_stream(block, monkeypatch):
    # slices of block draws are the values of per-call draws, and close()
    # leaves the Generator where per-call draws leave it
    monkeypatch.setattr(policies, "NORMAL_BLOCK", block)
    for seed in range(5):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        normals = NormalStream(rng)
        sizes = _normal_sizes(np.random.default_rng(100 + seed), block)
        if block == NORMAL_BLOCK:
            # cross a real block boundary after the large size too
            sizes += [(50,)] * 200
        for size in sizes:
            got = normals.standard_normal(size)
            want = twin.standard_normal(size)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        normals.close()
        assert rng.bit_generator.state == twin.bit_generator.state
        # the stream starts again from there, and closes again
        assert (normals.standard_normal(3).tobytes()
                == twin.standard_normal(3).tobytes())
        normals.close()
        normals.close()
        assert rng.bit_generator.state == twin.bit_generator.state


def test_normal_stream_close_before_any_draw_leaves_the_generator():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    NormalStream(rng).close()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("size", [0, 3, (4,), (2, 3)])
def test_normal_stream_returns_read_only_views(size):
    normals = NormalStream(np.random.default_rng(0))
    normals.standard_normal(5)
    z = normals.standard_normal(size)
    assert not z.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        z[...] = 0.0


@pytest.mark.parametrize("method", ["uniform", "normal", "integers",
                                    "random", "standard_exponential",
                                    "choice", "permutation"])
def test_normal_stream_has_no_other_draw_method(method):
    # another distribution's draw would be taken out of the stream's order
    with pytest.raises(AttributeError):
        getattr(NormalStream(np.random.default_rng(0)), method)
