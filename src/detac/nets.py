"""Dense MLP with manual backpropagation and Adam.

Everything here operates on a single flat parameter vector so that optimizers
and policy-update rules can treat a network as a point in R^n.  No autodiff
dependency: gradients are written by hand and validated against the
complex step (see ``gradient_check``).  Values are not scanned for
NaN or inf: ``harness.run_seed`` checks the parameters after each phase.
"""

from __future__ import annotations

import numpy as np

HIDDEN_ACTIVATIONS = ("tanh", "leaky_relu")
OUTPUT_ACTIVATIONS = ("linear", "tanh")

LEAKY_SLOPE = 0.01


def _leaky_relu(x, out=None, scratch=None):
    # max(x, slope * x) is x for x > 0 and slope * x otherwise, the same
    # bits as np.where(x > 0, x, slope * x) at a lower cost; the product
    # goes to ``scratch`` and the result to ``out``, which may be ``x``
    y = np.multiply(LEAKY_SLOPE, x, out=scratch)
    return np.maximum(x, y, out=out)


# activation(x, out=None, scratch=None), by name; in place when out is x
ACTIVATIONS = {"tanh": lambda x, out=None, scratch=None: np.tanh(x, out=out),
               "leaky_relu": _leaky_relu,
               "linear": lambda x, out=None, scratch=None: x}


def _column_sum(a, out=None):
    """``a.sum(axis=0)`` of an (n, w) array, bit for bit.

    On a C-ordered array of width w >= 2, ``sum(axis=0)`` adds the rows
    one after another, and so does ``einsum("ij->j")``, at about half the
    cost.  For w = 1 the reduction runs down one contiguous column, where
    numpy sums pairwise and einsum does not: that case, and any array
    that is not C-ordered, keeps ``np.add.reduce``, the reduction behind
    ``sum``."""
    if a.shape[1] == 1 or not a.flags.c_contiguous:
        return np.add.reduce(a, axis=0, out=out)
    return np.einsum("ij->j", a, out=out)


class MlpNet:
    """Fully connected network, its initial weights drawn from ``rng``.

    All parameters live in one flat vector: (W, b) per layer in order,
    W of shape (n_in, n_out) row-major and b of shape (n_out,).
    ``weights[k]`` and ``biases[k]`` are views into that vector, so
    ``get_params`` and ``set_params`` are one copy each, and
    ``backward`` writes every layer's gradient into the same layout of a
    second flat vector.

    ``forward`` and ``backward`` write every per-row array into work
    arrays that only grow, to the largest batch seen, and are reused by
    later passes: each layer's output, the gradient at each hidden
    layer's output, and one scratch array.  ``forward`` hands out a fresh
    copy of its output, and ``backward`` reads the outputs of the latest
    ``forward`` and hands out a fresh copy of its gradient.
    """

    def __init__(self, layer_sizes, hidden, output, *, rng):
        if len(layer_sizes) < 2 or any(int(n) <= 0 for n in layer_sizes):
            raise ValueError("layer_sizes must be >= 2 positive integers")
        if hidden not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden activation must be one of {HIDDEN_ACTIVATIONS}")
        if output not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"output activation must be one of {OUTPUT_ACTIVATIONS}")
        self.layer_sizes = [int(n) for n in layer_sizes]
        self.hidden = hidden
        self.output = output

        sizes = self.layer_sizes
        size = sum((n_in + 1) * n_out
                   for n_in, n_out in zip(sizes[:-1], sizes[1:]))
        self._flat = np.zeros(size)
        self._bind()
        for w in self.weights:
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        self._cache = None
        self._arrays = None
        self._views = None

    def _layout(self, flat):
        """Views of a flat vector in the parameter layout: the per-layer
        W and b lists."""
        weights, biases, i = [], [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[i:i + n_in * n_out].reshape(n_in, n_out))
            i += n_in * n_out
            biases.append(flat[i:i + n_out])
            i += n_out
        return weights, biases

    def _bind(self):
        """Point the parameter views into ``_flat``, and the gradient views
        into a fresh flat gradient vector."""
        self.weights, self.biases = self._layout(self._flat)
        self._grad = np.empty_like(self._flat)
        self._grad_w, self._grad_b = self._layout(self._grad)

    # the views into the flat vectors, rebuilt by ``_bind``
    _VIEWS = ("weights", "biases", "_grad", "_grad_w", "_grad_b")

    def __getstate__(self):
        # a copy or a pickle carries the flat parameter vector, but neither
        # its views, the latest pass nor the work arrays, and rebuilds the
        # views
        state = dict(vars(self), _cache=None, _arrays=None, _views=None)
        for key in self._VIEWS:
            del state[key]
        return state

    def __setstate__(self, state):
        vars(self).update(state)
        self._bind()

    # -- parameter vector ---------------------------------------------------

    @property
    def num_params(self):
        return self._flat.size

    def get_params(self):
        return self._flat.copy()

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self._flat.shape:
            raise ValueError(f"expected {self.num_params} parameters, got {flat.shape}")
        np.copyto(self._flat, flat)
        self._cache = None

    # -- work arrays ----------------------------------------------------------

    def _work(self, n):
        """The first ``n`` rows of every work array, by name: ``h``, each
        layer's output; ``g``, the gradient at each hidden layer's output,
        scaled in place by the activation's derivative; and ``d``, an
        (n, width) view per layer of one scratch as wide as the widest
        layer.  The arrays are reallocated only for a batch larger than any
        before; the views of the latest batch size are kept."""
        if self._views is None or len(self._views["h"][0]) != n:
            widths = self.layer_sizes[1:]
            if self._arrays is None or len(self._arrays["h"][0]) < n:
                self._arrays = {
                    "h": [np.empty((n, w)) for w in widths],
                    "g": [np.empty((n, w)) for w in widths[:-1]],
                    "d": np.empty(n * max(widths)),
                }
            h, g, d = self._arrays.values()
            self._views = {"h": [a[:n] for a in h], "g": [a[:n] for a in g],
                           "d": [d[:n * w].reshape(n, w) for w in widths]}
        return self._views

    # -- forward / backward -------------------------------------------------

    def forward(self, x, training=False):
        """Run the network on the rows of an (n, d) batch; one input is one
        row.

        Keeps the intermediate activations in the work arrays so that
        ``backward`` can be called with an (n, m) upstream gradient; the
        returned (n, m) output is a fresh array.  ``training`` is accepted
        and ignored: no layer acts otherwise in training, and the
        benchmark's tracer, which wraps ``forward``, passes it on.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"expected an (n, {self.layer_sizes[0]}) input, got shape "
                f"{x.shape}")

        work = self._work(len(x))
        last = len(self.weights) - 1
        act = ACTIVATIONS[self.hidden]
        h = x
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            # x W + b, and then the activation, in the layer's output
            h = np.matmul(h, w, out=work["h"][k])
            h += b
            if k == last:
                act = ACTIVATIONS[self.output]
            act(h, h, work["d"][k])
        # every layer's input, and the last layer's output
        self._cache = [x, *work["h"]]
        return h.copy()

    def backward(self, grad_out):
        """Backpropagate an upstream gradient through the latest forward
        pass.

        ``grad_out`` holds d(loss)/d(output) per batch row, in the (n, m)
        shape of the output; the return value is d(loss)/d(params) as one
        fresh flat vector (summed over the batch), in the layout of
        ``get_params``.
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        post = self._cache
        grad_out = np.asarray(grad_out, dtype=float)
        if grad_out.shape != post[-1].shape:
            raise ValueError(
                f"expected an upstream gradient of the output's shape "
                f"{post[-1].shape}, got shape {grad_out.shape}")

        work = self._work(len(grad_out))
        last = len(self.weights) - 1
        g = grad_out
        for k in reversed(range(last + 1)):
            name = self.output if k == last else self.hidden
            if name != "linear":
                h, d = post[k + 1], work["d"][k]
                if name == "tanh":
                    # tanh' = 1 - tanh^2, from the layer's output
                    np.multiply(h, h, out=d)
                    np.subtract(1.0, d, out=d)
                else:
                    # leaky_relu' = where(z > 0, 1, slope), built as
                    # (h > 0) (1 - slope) + slope: exactly 1 or slope, at a
                    # fraction of the cost of np.where.  h > 0 exactly
                    # where z > 0, at +-0, subnormals, +-inf and NaN too
                    np.greater(h, 0, out=d)
                    d *= 1.0 - LEAKY_SLOPE
                    d += LEAKY_SLOPE
                # the gradient at x W + b: g times the derivative, in place
                # in g, or in the scratch for the caller's grad_out
                g = np.multiply(g, d, out=d if k == last else g)
            np.matmul(post[k].T, g, out=self._grad_w[k])
            _column_sum(g, out=self._grad_b[k])
            if k > 0:
                # the input gradient of the first layer is never used
                w, out = self.weights[k], work["g"][k - 1]
                if w.shape[1] == 1:
                    # an (n, 1) @ (1, width) outer product at half
                    # matmul's cost: einsum, like matmul, computes 0 + a b,
                    # so a -0.0 product comes out +0.0, where g * w.T
                    # would keep the -0.0
                    g = np.einsum("i,j->ij", g[:, 0], w[:, 0], out=out)
                else:
                    g = np.matmul(g, w.T, out=out)
        return self._grad.copy()

# Adam's second-moment decay and denominator guard.  There is no momentum
# (beta1 = 0), so the bias-corrected first moment is the gradient itself
ADAM_BETA2, ADAM_EPS = 0.999, 1e-8


class Adam:
    """Adam without momentum for one flat parameter vector.

    The second moment ``v`` is updated in place, and ``step`` computes in
    two work vectors of the same size."""

    def __init__(self, size, alpha):
        self.v = np.zeros(size)
        self.t = 0
        self.alpha = alpha
        self._buffers = (np.empty(size), np.empty(size))

    def step(self, params, grad, ascent=False):
        """One Adam update; returns the new parameter vector and leaves
        ``params`` as it is.

        ``grad`` is interpreted as a descent gradient unless ``ascent`` is
        set; the step is then added, where the textbook form negates
        ``grad`` and subtracts, which differs only in a zero step's sign.
        """
        grad = np.asarray(grad, dtype=float)
        if grad.shape != self.v.shape:
            raise ValueError("gradient shape does not match optimizer state")
        step, tmp = self._buffers
        self.t += 1
        # v = beta2 v + (1 - beta2) grad grad, with the operations of that
        # expression in their order; its bits do not depend on grad's sign
        v = np.multiply(ADAM_BETA2, self.v, out=self.v)
        np.multiply(1 - ADAM_BETA2, grad, out=tmp)
        tmp *= grad
        v += tmp
        # alpha grad / (sqrt(v_hat) + eps), with v_hat = v / (1 - beta2^t)
        np.divide(v, 1 - ADAM_BETA2 ** self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.multiply(grad, self.alpha, out=step)
        step /= tmp
        return params + step if ascent else params - step

    def idle(self, count):
        """``count`` more steps on an all-zero gradient, right after a
        ``step`` on one.  That step left the parameters at a fixed point:
        its parameter step is +-0, and (1 - beta2) g^2 adds +0 to v.  Each
        further step therefore only decays v and advances t, the same bits
        as ``step``."""
        for _ in range(count):
            self.v *= ADAM_BETA2
        self.t += count


def _reference_activation(name, z):
    """Activation ``name`` of a real or complex array.  leaky_relu branches
    on the real part, as ``backward`` does; ``np.maximum`` would compare
    complex numbers by their imaginary parts at a real part of +-0."""
    if name == "tanh":
        return np.tanh(z)
    if name == "leaky_relu":
        return np.where(z.real > 0, z, LEAKY_SLOPE * z)
    return z


def gradient_check(net, x):
    """Max relative error between the analytic gradient and the complex
    step on the rows of a small (n, d) batch ``x``.

    The implied scalar loss is sum(upstream * net(x)), with a fixed
    upstream: standard normals from ``default_rng(0)``, one per output.

    d(loss)/d(theta_i) = Im loss(theta + i h e_i) / h with h = 1e-30 has
    no subtractive cancellation, so it is exact to rounding.  A reference
    forward, read from ``weights`` and ``biases``, takes every coordinate
    of layer k at once on a leading axis, the layers before k real.  Its
    real part must match ``net.forward(x)``: the relative difference
    counts as an error too.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("gradient_check needs at least one input row")
    upstream = np.random.default_rng(0).standard_normal(
        (n, net.layer_sizes[-1]))
    h = 1e-30

    out = net.forward(x)
    analytic = net.backward(upstream)

    names = [net.hidden] * (len(net.weights) - 1) + [net.output]
    numeric, drift = [], 0.0
    layer_in = x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        width = w.shape[1]
        # d(pre-activation)/d(W[a, j], b[j]) per row, in the flat layout
        rows = np.hstack([layer_in, np.ones((n, 1))])
        dz = np.einsum("na,jl->ajnl", rows, np.eye(width))
        z = layer_in @ w + b
        c = _reference_activation(names[k],
                                  (z + 1j * h * dz).reshape(-1, width))
        for w2, b2, name in zip(net.weights[k + 1:], net.biases[k + 1:],
                                names[k + 1:]):
            c = _reference_activation(name, c @ w2 + b2)
        c = c.reshape(-1, *out.shape)
        numeric.append(np.einsum("pnm,nm->p", c.imag, upstream) / h)
        drift = max(drift, float(np.max(np.abs(c.real - out))))
        layer_in = _reference_activation(names[k], z)
    numeric = np.concatenate(numeric)

    # floor the denominator at a fraction of the gradient's scale, so that
    # entries whose true derivative is exactly zero (e.g. the weights of
    # an input that is zero on every row) are judged against roundoff, not
    # against 1e-8
    floor = max(1e-8, 1e-4 * float(np.max(np.abs(analytic)
                                           + np.abs(numeric))))
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    err = float(np.max(np.abs(analytic - numeric) / scale))
    return max(err, drift / max(1e-8, float(np.max(np.abs(out)))))
