import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from detac.critics import MlpVCritic
from detac.nets import (ACTIVATIONS, LEAKY_SLOPE, Adam, MlpNet, _column_sum,
                        _leaky_pattern, _leaky_relu, gradient_check)
from detac.policies import MlpPolicy
from detac.updates import batch_gated_direction


def test_forward_zero_weights_tanh_output_is_zero():
    net = MlpNet([3, 4, 2], hidden="tanh", output="tanh",
                 rng=np.random.default_rng(0))
    net.set_params(np.zeros(net.num_params))
    out = net.forward(np.array([[0.7, -1.2, 3.0]]))
    assert np.all(out == 0.0)


def test_forward_identity_single_linear_layer():
    net = MlpNet([2, 2], hidden="tanh", output="linear",
                 rng=np.random.default_rng(0))
    flat = np.concatenate([np.eye(2).ravel(), np.zeros(2)])
    net.set_params(flat)
    out = net.forward(np.array([[0.2, -0.3]]))
    assert np.allclose(out, [0.2, -0.3], atol=1e-15)


def test_forward_matches_straight_line_reimplementation():
    # independently coded matrix-multiply chain
    rng = np.random.default_rng(42)
    net = MlpNet([3, 5, 2], hidden="tanh", output="tanh", rng=rng)
    x = rng.standard_normal(3)
    w1, b1 = net.weights[0], net.biases[0]
    w2, b2 = net.weights[1], net.biases[1]
    expected = np.tanh(np.tanh(x @ w1 + b1) @ w2 + b2)
    assert np.allclose(net.forward([x]), expected, atol=1e-12)


def test_leaky_relu_equals_where_form_bitwise():
    tiny = np.finfo(float).smallest_subnormal
    x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310,
                  -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny,
                  np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 1e308,
                  -1e308])
    x = np.concatenate([x, np.random.default_rng(0).standard_normal(1000)])
    where_form = np.where(x > 0, x, LEAKY_SLOPE * x)
    got = ACTIVATIONS["leaky_relu"](x)
    assert np.array_equal(got.view(np.uint64), where_form.view(np.uint64))


def test_leaky_relu_output_is_positive_exactly_where_its_input_is():
    # backward builds leaky_relu's derivative from the output's sign
    tiny = np.finfo(float).smallest_subnormal
    z = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf, np.nan, -np.nan,
                  1.0, -1.0, 1e-300, -1e-300, 1e308, -1e308])
    z = np.concatenate([z, np.random.default_rng(1).standard_normal(1000)])
    assert np.array_equal(_leaky_relu(z) > 0, z > 0)


def test_param_count_matches_layer_sizes():
    net = MlpNet([4, 8, 8, 2], hidden="tanh", output="linear",
                 rng=np.random.default_rng(0))
    assert net.num_params == (4 + 1) * 8 + (8 + 1) * 8 + (8 + 1) * 2


def test_forward_rejects_dimension_mismatch():
    net = MlpNet([3, 2], hidden="tanh", output="linear",
                 rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 4)))


@pytest.mark.parametrize("shape", [(3,), (), (1, 1, 3)])
def test_forward_accepts_only_rows(shape):
    # one input is one row: a (3,) state is not read as a batch of one
    net = MlpNet([3, 2], hidden="tanh", output="linear",
                 rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        net.forward(np.zeros(shape))


@pytest.mark.parametrize("shape", [(2,), (), (1, 1, 2)])
def test_backward_accepts_only_the_output_shape(shape):
    net = MlpNet([3, 2], hidden="tanh", output="linear",
                 rng=np.random.default_rng(0))
    net.forward(np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        net.backward(np.ones(shape))


def test_tanh_output_stays_inside_unit_box():
    rng = np.random.default_rng(7)
    net = MlpNet([2, 16, 3], hidden="tanh", output="tanh", rng=rng)
    for _ in range(50):
        out = net.forward([rng.standard_normal(2) * 10])
        assert np.all(np.abs(out) < 1.0)


def test_forward_pure_in_eval_mode():
    # forward keeps its ``training`` keyword and ignores it: no layer acts
    # otherwise in training
    rng = np.random.default_rng(5)
    net = MlpNet([2, 8, 1], hidden="tanh", output="linear", rng=rng)
    x = rng.standard_normal((3, 2))
    a = net.forward(x, training=False)
    b = net.forward(x, training=True)
    assert a.tobytes() == b.tobytes() == net.forward(x).tobytes()


def test_backward_zero_upstream_gives_zero_gradient():
    net = MlpNet([2, 4, 1], hidden="tanh", output="linear",
                 rng=np.random.default_rng(1))
    net.forward(np.ones((3, 2)))
    grad = net.backward(np.zeros((3, 1)))
    assert np.all(grad == 0.0)


def test_backward_scalar_tanh_analytic():
    # f(theta) = tanh(theta * x) at theta=0, x=1: df/dtheta = sech^2(0) = 1
    net = MlpNet([1, 1], hidden="tanh", output="tanh",
                 rng=np.random.default_rng(0))
    net.set_params(np.zeros(2))
    net.forward(np.array([[1.0]]))
    grad = net.backward(np.array([[1.0]]))
    assert grad[0] == pytest.approx(1.0, abs=1e-12)  # weight
    assert grad[1] == pytest.approx(1.0, abs=1e-12)  # bias


def test_backward_requires_cached_forward():
    net = MlpNet([2, 1], hidden="tanh", output="linear",
                 rng=np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        net.backward(np.ones((1, 1)))


@pytest.mark.parametrize("hidden", ["tanh", "leaky_relu"])
@pytest.mark.parametrize("output", ["linear", "tanh"])
def test_gradient_check_seeded_nets(hidden, output):
    rng = np.random.default_rng(123)
    net = MlpNet([3, 6, 4, 2], hidden=hidden, output=output, rng=rng)
    err = gradient_check(net, rng.standard_normal((5, 3)))
    assert err < 1e-4


@pytest.mark.parametrize("output", ["linear", "tanh"])
def test_gradient_check_probe_across_leaky_relu_kink(output):
    # a second-layer pre-activation of this net lies 7.1e-6 from the kink,
    # inside the default step h=1e-5: the plain central difference at
    # parameter 677 has the wrong sign (relative error 1.0)
    rng = np.random.default_rng(32)
    net = MlpNet([2, 32, 32, 1], hidden="leaky_relu", output=output, rng=rng)
    x = rng.standard_normal((4, 2))
    assert gradient_check(net, x) < 1e-4


def test_adam_zero_gradient_is_identity():
    adam = Adam(3, alpha=0.1)
    params = np.array([1.0, -2.0, 0.5])
    new = adam.step(params, np.zeros(3))
    assert np.array_equal(new, params)
    assert adam.t == 1


def test_adam_first_step_bias_correction():
    # beta1=0 => m_hat = g; v_hat = g^2; step = -alpha g / (|g| + eps)
    adam = Adam(1, alpha=0.1)
    new = adam.step(np.array([0.0]), np.array([0.5]))
    assert new[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_minimizes_quadratic():
    # scripted reference loop on f(theta) = theta^2 from theta = 1
    adam = Adam(1, alpha=0.01)
    theta = np.array([1.0])
    for _ in range(100):
        theta = adam.step(theta, 2.0 * theta)
    assert abs(theta[0]) < 0.5


def test_adam_ascent_flag_flips_direction():
    down = Adam(1, alpha=0.1)
    up = Adam(1, alpha=0.1)
    g = np.array([0.3])
    assert down.step(np.zeros(1), g)[0] == pytest.approx(
        -up.step(np.zeros(1), g, ascent=True)[0])


def _backward_with_full_chain(net, grad_out):
    """MlpNet.backward as first written: the activation derivative
    recomputed from the pre-activation, and an input gradient for every
    layer, the first included.  The reference for the trimmed form; it
    reads only each layer's input from the net's latest pass, and
    recomputes the pre-activation z = x W + b from it."""
    post = net._cache
    grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
    n_layers = len(net.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    g = grad_out
    for k in reversed(range(n_layers)):
        name = net.output if k == n_layers - 1 else net.hidden
        z = post[k] @ net.weights[k] + net.biases[k]
        if name == "tanh":
            t = np.tanh(z)
            d = 1.0 - t * t
        elif name == "leaky_relu":
            d = np.where(z > 0, 1.0, LEAKY_SLOPE)
        else:
            d = np.ones_like(z)
        gz = g * d
        grads_w[k] = post[k].T @ gz
        grads_b[k] = gz.sum(axis=0)
        g = gz @ net.weights[k].T
    return np.concatenate([p for gw, gb in zip(grads_w, grads_b)
                           for p in (gw.ravel(), gb)])


@pytest.mark.parametrize("arch", [
    dict(sizes=[2, 32, 32, 1], hidden="leaky_relu", output="tanh"),
    dict(sizes=[2, 16, 16, 1], hidden="tanh", output="linear"),
    dict(sizes=[3, 8, 2], hidden="tanh", output="tanh")])
def test_backward_bitwise_equals_full_chain(arch):
    rng = np.random.default_rng(11)
    net = MlpNet(arch["sizes"], hidden=arch["hidden"], output=arch["output"],
                 rng=rng)
    net.set_params(net.get_params() + 0.5 * rng.standard_normal(
        net.num_params))
    for rows in (1, 7):
        x = 2.0 * rng.standard_normal((rows, arch["sizes"][0]))
        upstream = rng.standard_normal((rows, arch["sizes"][-1]))
        net.forward(x)
        assert np.array_equal(net.backward(upstream),
                              _backward_with_full_chain(net, upstream))


def test_leaky_relu_units_at_exactly_zero_count_as_off():
    # zero input rows against +-0 biases put first-layer pre-activations
    # at +-0.0, where the derivative is the slope and the unit is off
    rng = np.random.default_rng(12)
    net = MlpNet([2, 8, 8, 1], hidden="leaky_relu", output="tanh", rng=rng)
    net.biases[0][:4] = [0.0, -0.0, 0.0, -0.0]
    net.biases[1][:2] = [0.0, -0.0]
    x = rng.standard_normal((6, 2))
    x[::2] = 0.0
    upstream = rng.standard_normal((6, 1))
    net.forward(x)
    z0 = x @ net.weights[0] + net.biases[0]
    z1 = _leaky_relu(z0) @ net.weights[1] + net.biases[1]
    assert np.any(z0 == 0.0)
    assert all(np.array_equal(on, z > 0)
               for on, z in zip(_leaky_pattern(net), (z0, z1)))
    assert np.array_equal(net.backward(upstream),
                          _backward_with_full_chain(net, upstream))


@pytest.mark.parametrize("rows", [1, 5, 500])
def test_width_one_layer_input_gradient_is_the_matmul_bitwise(rows):
    # the width-1 output layer's input gradient is an outer product.
    # Upstream rows of +-0, +-inf and NaN against weights of +-0 give
    # -0.0, inf and NaN products; the bits must be those of gz @ W.T, which
    # a broadcast gz * W.T misses on the -0.0 ones.  The net keeps that
    # gradient scaled in place by tanh' of the hidden layer, a product
    # that keeps the sign of every zero
    rng = np.random.default_rng(rows)
    net = MlpNet([3, 6, 1], hidden="tanh", output="linear", rng=rng)
    net.weights[1][:, 0] = [0.5, -0.0, 0.0, -2.0, 1e-310, -3.0]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1e-300]
    x = rng.standard_normal((rows, 3))
    broadcast_differs = False
    for shift in range(len(special)):
        upstream = rng.standard_normal((rows, 1))
        upstream[::2, 0] = np.resize(np.roll(special, shift),
                                     len(upstream[::2]))
        net.forward(x)
        hidden = np.tanh(x @ net.weights[0] + net.biases[0])
        with np.errstate(invalid="ignore"):
            grad = net.backward(upstream)
            want = upstream @ net.weights[1].T
            reference = _backward_with_full_chain(net, upstream)
            scaled = want * (1.0 - hidden * hidden)
            broadcast = upstream * net.weights[1].T * (1.0 - hidden * hidden)
        assert net._work(rows)["g"][0].tobytes() == scaled.tobytes()
        assert grad.tobytes() == reference.tobytes()
        broadcast_differs |= broadcast.tobytes() != scaled.tobytes()
    assert broadcast_differs


def _default_policy_net(seed=0):
    # the net MlpPolicy builds with the AgentConfig defaults on PointMass
    return MlpNet([2, 32, 32, 1], hidden="leaky_relu", output="tanh",
                  rng=np.random.default_rng(seed))


def test_held_outputs_survive_later_passes():
    # forward reuses its work arrays; what it hands out is a fresh array
    rng = np.random.default_rng(21)
    net = _default_policy_net()
    x = rng.standard_normal((500, 2))
    held = net.forward(x)
    one = net.forward(x[:1])
    want_held, want_one = held.copy(), one.copy()
    for rows in (500, 5, 800, 1):
        net.forward(rng.standard_normal((rows, 2)))
        net.backward(rng.standard_normal((rows, 1)))
    assert np.array_equal(held, want_held)
    assert np.array_equal(one, want_one)


def test_backward_after_passes_at_other_batch_sizes_equals_fresh_net():
    rng = np.random.default_rng(22)
    used, fresh = _default_policy_net(3), _default_policy_net(3)
    for rows in (500, 5, 800):
        used.forward(rng.standard_normal((rows, 2)))
        used.backward(rng.standard_normal((rows, 1)))
    x = rng.standard_normal((500, 2))
    upstream = rng.standard_normal((500, 1))
    got_out = used.forward(x)
    got = used.backward(upstream)
    want_out = fresh.forward(x)
    want = fresh.backward(upstream)
    assert np.array_equal(got_out, want_out)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a second backward of the same pass gives the same gradient
    assert np.array_equal(used.backward(upstream), got)


def test_backward_rejects_a_gradient_of_another_batch_size():
    net = _default_policy_net()
    net.forward(np.ones((5, 2)))
    with pytest.raises(ValueError):
        net.backward(np.ones((4, 1)))
    net.set_params(net.get_params())
    with pytest.raises(RuntimeError):
        net.backward(np.ones((5, 1)))


def test_pickle_carries_no_work_arrays():
    net = _default_policy_net()
    size = len(pickle.dumps(net))
    net.forward(np.ones((2000, 2)))
    assert len(pickle.dumps(net)) == size
    # the copy builds its own work arrays
    copy = pickle.loads(pickle.dumps(net))
    x = np.random.default_rng(24).standard_normal((7, 2))
    assert np.array_equal(copy.forward(x), net.forward(x))
    assert np.array_equal(copy.backward(np.ones((7, 1))),
                          net.backward(np.ones((7, 1))))


def test_work_arrays_hold_two_per_row_arrays_per_layer_and_a_scratch():
    # after a 500-row pass, the net holds each layer's output, the gradient
    # at each hidden layer's output and one scratch as wide as the widest
    # layer: (32 + 32 + 1 + 32 + 32 + 32) 500 floats, 644,000 B.  One
    # more (500, 32) array would exceed the bound
    rng = np.random.default_rng(27)
    x = rng.standard_normal((500, 2))
    upstream = rng.standard_normal((500, 1))
    net = _default_policy_net()
    widths = net.layer_sizes[1:]
    bound = 500 * 8 * (2 * sum(widths) + max(widths))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net.forward(x)
        net.backward(upstream)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a few KB of views and lists on top of the arrays' data
    assert held < bound + 16 * 1024


def _peak_bytes(fn):
    """Peak memory traced while ``fn`` runs, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# A steady-state pass at L = 500 rows reuses the net's work arrays and its
# flat gradient vector, so what it allocates is the callers' (500, 1)
# outputs and gradients and the flat parameter vectors handed out: a peak
# of 82 KB for the actor step and 74 KB for the critic regression (Python
# 3.11, numpy 2.4; 99 KB and 93 KB with per-layer parameter arrays).
# Allocating every per-row array afresh peaked at 1221 KB and 1018 KB.  One (500, 32) float
# array is 125 KiB, so the bound fails if even one of them is allocated
# again per pass.
ALLOC_BOUND = 200 * 1024


def test_steady_state_actor_step_allocates_few_per_row_arrays():
    rng = np.random.default_rng(25)
    policy = MlpPolicy(2, 1, hidden_sizes=(32, 32), hidden="leaky_relu",
                       rng=rng)
    adam = Adam(policy.n_params, alpha=1e-4)
    states = rng.standard_normal((500, 2))
    actions = rng.uniform(-1, 1, (500, 1))
    advantages = rng.standard_normal(500)
    mu_old = policy.act(states)

    def step():
        g = batch_gated_direction(policy, states, actions, advantages,
                                  scale_by_delta=True, mu_old=mu_old,
                                  beta=0.5)
        policy.set_params(adam.step(policy.get_params(), g, ascent=True))

    step()
    assert _peak_bytes(step) < ALLOC_BOUND


def test_steady_state_critic_regression_allocates_few_per_row_arrays():
    rng = np.random.default_rng(26)
    critic = MlpVCritic(2, hidden_sizes=(32, 32), hidden="leaky_relu",
                        lr=1e-3, rng=rng)
    states = rng.standard_normal((500, 2))
    targets = rng.standard_normal(500)
    critic.regress(states, targets)
    assert _peak_bytes(lambda: critic.regress(states, targets)) < ALLOC_BOUND


def _layer_arrays(net):
    return [*net.weights, *net.biases]


def _layout_reference(net):
    """The flat parameter vector built from the layer arrays, in the
    documented order."""
    return np.concatenate([p for w, b in zip(net.weights, net.biases)
                           for p in (w.ravel(), b)])


def test_layer_arrays_are_views_of_the_flat_vector():
    rng = np.random.default_rng(30)
    net = MlpNet([2, 8, 4, 1], hidden="leaky_relu", output="tanh", rng=rng)
    assert all(np.shares_memory(a, net._flat) for a in _layer_arrays(net))
    assert sum(a.size for a in _layer_arrays(net)) == net.num_params
    assert np.array_equal(net.get_params(), _layout_reference(net))
    theta = rng.standard_normal(net.num_params)
    net.set_params(theta)
    assert all(np.shares_memory(a, net._flat) for a in _layer_arrays(net))
    assert np.array_equal(_layout_reference(net), theta)
    # what get_params hands out is a copy: changing it leaves the net alone
    x = rng.standard_normal((3, 2))
    out = net.forward(x)
    held = net.get_params()
    held += 1.0
    assert np.array_equal(net.get_params(), theta)
    assert np.array_equal(net.forward(x), out)
    # and so is what set_params takes
    theta += 1.0
    assert np.array_equal(net.forward(x), out)
    for shape in ((net.num_params + 1,), (net.num_params - 1,),
                  (1, net.num_params)):
        with pytest.raises(ValueError):
            net.set_params(np.zeros(shape))
    assert np.array_equal(net.forward(x), out)


@pytest.mark.parametrize("duplicate", [
    lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy],
    ids=["pickle", "deepcopy"])
def test_copies_bind_their_views_to_their_own_vector(duplicate):
    rng = np.random.default_rng(31)
    net = _default_policy_net(4)
    net.forward(rng.standard_normal((20, 2)))
    x = rng.standard_normal((6, 2))
    out = net.forward(x)
    dup = duplicate(net)
    assert all(np.shares_memory(a, dup._flat) for a in _layer_arrays(dup))
    assert not any(np.shares_memory(a, net._flat)
                   for a in _layer_arrays(dup))
    assert np.array_equal(dup.forward(x), out)
    dup.set_params(dup.get_params() + 0.1)
    assert not np.array_equal(dup.forward(x), out)
    assert np.array_equal(net.forward(x), out)
    # the copy's gradient has its own flat vector too
    up = rng.standard_normal((6, 1))
    want = net.backward(up)
    dup.backward(up)
    assert np.array_equal(net.backward(up), want)


def test_successive_backward_results_do_not_alias():
    # update_phase keeps the latest direction across actor iterations
    rng = np.random.default_rng(32)
    net = _default_policy_net(5)
    x = rng.standard_normal((9, 2))
    net.forward(x)
    first = net.backward(rng.standard_normal((9, 1)))
    kept = first.copy()
    second = net.backward(rng.standard_normal((9, 1)))
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)
    net.forward(rng.standard_normal((40, 2)))
    net.backward(rng.standard_normal((40, 1)))
    assert np.array_equal(first, kept)


def _adam_reference(state, params, grad, ascent):
    """Adam.step as first written, on a dict of m, v and t, with fresh
    arrays at every operation."""
    beta1, beta2, eps = 0.0, 0.999, 1e-8
    grad = np.asarray(grad, dtype=float)
    if ascent:
        grad = -grad
    state["t"] += 1
    state["m"] = beta1 * state["m"] + (1 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1 - beta2) * grad * grad
    m_hat = state["m"] / (1 - beta1 ** state["t"])
    v_hat = state["v"] / (1 - beta2 ** state["t"])
    return params - state["alpha"] * m_hat / (np.sqrt(v_hat) + eps)


def _check_adam_against_reference(alpha, params, steps):
    """Run a fresh ``Adam`` and the reference side by side over ``steps``,
    a list of (grad, ascent) pairs, and compare params, v and t after
    every step."""
    n = len(params)
    adam = Adam(n, alpha=alpha)
    ref = {"m": np.zeros(n), "v": np.zeros(n), "t": 0, "alpha": alpha}
    want = params.copy()
    for grad, ascent in steps:
        grad_bytes = grad.tobytes()
        arg, before = params, params.tobytes()
        params = adam.step(arg, grad, ascent=ascent)
        want = _adam_reference(ref, want, grad, ascent)
        # the argument is left as it was, and the result is a new array
        assert arg.tobytes() == before
        assert not np.shares_memory(params, arg)
        assert params.tobytes() == want.tobytes()
        assert adam.v.tobytes() == ref["v"].tobytes()
        assert adam.t == ref["t"]
        assert grad.tobytes() == grad_bytes


def test_adam_step_equals_the_reference_formula_bitwise():
    # the reference keeps the first moment that beta1 = 0 makes the
    # gradient itself; Adam does not, and its step may differ from the
    # reference's only in the sign of a zero step
    rng = np.random.default_rng(33)
    n = 40
    steps = []
    for i, ascent in enumerate([False, True, True, False, True, False,
                                True]):
        grad = rng.standard_normal(n) * np.exp(rng.uniform(-20, 5, n))
        if i == 3:
            grad[:] = 0.0
        grad[::7] = 0.0
        steps.append((grad, ascent))
    _check_adam_against_reference(3e-3, rng.standard_normal(n), steps)
    # exact +0.0 parameters (every bias starts there) under +0.0 and -0.0
    # gradient entries, ascent and descent: the sign of a zero step never
    # shows on the parameters that training reaches
    n = 24
    for _ in range(200):
        params = rng.standard_normal(n)
        zero_params = rng.random(n) < 0.4
        params[zero_params] = 0.0
        steps = []
        for _ in range(8):
            grad = rng.standard_normal(n) * np.exp(rng.uniform(-20, 5, n))
            # the +0.0 parameters see only zero gradients, so they stay
            zero = zero_params | (rng.random(n) < 0.3)
            if rng.random() < 0.15:
                zero[:] = True
            grad[zero] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zero]
            steps.append((grad, bool(rng.random() < 0.5)))
        _check_adam_against_reference(float(np.exp(rng.uniform(-9, -2))),
                                      params, steps)


def test_column_sum_equals_sum_over_rows_bitwise():
    rng = np.random.default_rng(35)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    for trial in range(300):
        n = int(rng.integers(1, 1100))
        w = 1 if trial % 4 == 0 else int(rng.integers(2, 70))
        a = rng.standard_normal((n, w)) * np.exp(rng.uniform(-30, 30, (n, 1)))
        if trial % 3 == 0:
            idx = rng.integers(0, a.size, 4)
            a.flat[idx] = rng.choice(special, 4)
        if trial % 5 == 0:
            a[:] = -0.0
        for arr in (a, np.asfortranarray(a), a[::2]):
            with np.errstate(invalid="ignore"):
                want = arr.sum(axis=0)
                out = np.empty(w)
                assert _column_sum(arr, out=out) is out
                assert out.tobytes() == want.tobytes()
                assert _column_sum(arr).tobytes() == want.tobytes()


def test_adam_idle_equals_zero_gradient_steps_bitwise():
    # after one step on an all-zero (+-0) gradient, further zero steps only
    # decay v and advance t; the parameters hold -0.0 entries, where a sign
    # of zero could show
    rng = np.random.default_rng(37)
    n = 30
    stepped, idled = Adam(n, alpha=1e-2), Adam(n, alpha=1e-2)
    params = rng.standard_normal(n)
    params[::5] = -0.0
    for _ in range(3):
        grad = rng.standard_normal(n)
        params = stepped.step(params, grad, ascent=True)
        idled.step(params, grad, ascent=True)
    params[::5] = -0.0
    zero = np.zeros(n)
    zero[::2] = -0.0
    want = stepped.step(params, zero, ascent=True)
    got = idled.step(params, zero, ascent=True)
    for _ in range(6):
        want = stepped.step(want, zero, ascent=True)
    idled.idle(6)
    assert got.tobytes() == want.tobytes()
    assert idled.v.tobytes() == stepped.v.tobytes()
    assert idled.t == stepped.t == 10
