"""Deterministic policy representations and the Gaussian exploration wrapper.

All policies expose a common surface: ``act(state)`` returns the
deterministic action, ``act_batch(states)`` one action per row,
``backward_batch(upstream)`` the parameter gradient of
sum_t upstream_t . mu(s_t) over the rows of the last ``act_batch`` call
(one vector-Jacobian product), and ``get_params``/``set_params`` move the
parameter point.  No state is scanned for NaN or inf: a non-finite state
gives a non-finite action, which ``env.step`` rejects.
"""

from __future__ import annotations

import numpy as np

from .envs import ACTION_BOUND
from .nets import MlpNet

MAX_ATTEMPTS = 100


class MlpPolicy:
    """MLP policy with tanh output, so actions stay inside [-1, 1] bounds."""

    def __init__(self, state_dim, action_dim, hidden_sizes=(32, 32),
                 hidden="tanh", rng=None):
        sizes = [state_dim, *hidden_sizes, action_dim]
        self.net = MlpNet(sizes, hidden=hidden, output="tanh", rng=rng)
        self.action_dim = action_dim

    @property
    def n_params(self):
        return self.net.num_params

    def get_params(self):
        return self.net.get_params()

    def set_params(self, flat):
        self.net.set_params(flat)

    def act(self, state):
        return self.net.forward(state)

    def act_batch(self, states):
        return self.net.forward(np.atleast_2d(states))

    def backward_batch(self, upstream):
        """Parameter gradient of sum_t upstream_t . mu(s_t) for the last
        ``act_batch`` call."""
        return self.net.backward(upstream)


class LinearPolicy:
    """State-independent policy mu(.) = theta; the bandit representation."""

    def __init__(self, action_dim, theta=None):
        self.action_dim = action_dim
        self.low = np.full(action_dim, -ACTION_BOUND)
        self.high = np.full(action_dim, ACTION_BOUND)
        self.theta = (np.zeros(action_dim) if theta is None
                      else np.asarray(theta, dtype=float).copy())

    @property
    def n_params(self):
        return self.action_dim

    def get_params(self):
        return self.theta.copy()

    def set_params(self, flat):
        self.theta = np.asarray(flat, dtype=float).reshape(self.action_dim).copy()

    def act(self, state=None):
        # np.clip's bits, NaN and signed zeros included, without its wrapper
        return np.minimum(np.maximum(self.theta, self.low), self.high)

    def act_batch(self, states):
        return np.tile(self.act(), (len(np.atleast_2d(states)), 1))

    def backward_batch(self, upstream):
        """Parameter gradient of sum_t upstream_t . mu(s_t): with J = I, the
        sum of the upstream rows."""
        return np.sum(upstream, axis=0)


class GaussianExploration:
    """Isotropic truncated Gaussian around a deterministic policy.

    Samples are redrawn until they fall inside the action box (at most
    ``MAX_ATTEMPTS`` times, then clipped), which keeps the wrapper total
    with means arbitrarily close to a bound.
    """

    def __init__(self, policy, sigma, decay=1.0):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        self.policy = policy
        self.sigma = float(sigma)
        self.low = np.full(policy.action_dim, -ACTION_BOUND)
        self.high = np.full(policy.action_dim, ACTION_BOUND)
        self.decay = float(decay)

    def act(self, states, rng):
        """One exploratory action for a state of shape ``(d,)`` (or
        ``None``, for a state-free policy), or one per row for a batch of
        shape ``(n, d)``.

        Every row draws its first sample, then each round redraws the rows
        still outside the box as one ``(k, action_dim)`` block in row
        order, up to ``MAX_ATTEMPTS`` draws per row; a row still outside
        after that is clipped.  A single row whose first sample is
        rejected redraws in ``_redraw_row``, which draws the stream of a
        loop that redraws a single action until it fits.
        """
        sigma = self.sigma
        if np.ndim(states) != 2:
            mu = self.policy.act(states)
            a = mu + sigma * rng.standard_normal(mu.shape)
            # the box test on the largest |a_j|; a NaN is that maximum
            if np.maximum.reduce(np.abs(a)) <= ACTION_BOUND:
                return a
            return self._redraw_row(mu, rng)
        mu = self.policy.act_batch(states)
        a = mu + sigma * rng.standard_normal(mu.shape)
        # the whole block on its largest |a_j|; a NaN is that maximum
        if np.maximum.reduce(np.abs(a), axis=None) <= ACTION_BOUND:
            return a
        # per row, whether |a| <= ACTION_BOUND holds everywhere (NaN fails)
        inside = np.logical_and.reduce(np.abs(a) <= ACTION_BOUND,
                                       axis=1).tolist()
        if len(a) == 1:
            return self._redraw_row(mu[0], rng)[None]
        rows = [i for i, ok in enumerate(inside) if not ok]
        mu_out = mu[rows]
        for _ in range(MAX_ATTEMPTS - 1):
            draw = mu_out + sigma * rng.standard_normal(mu_out.shape)
            inside = np.logical_and.reduce(np.abs(draw) <= ACTION_BOUND,
                                           axis=1).tolist()
            if any(inside):
                a[rows] = draw
                still_out = [not ok for ok in inside]
                rows = [i for i, out in zip(rows, still_out) if out]
                if not rows:
                    break
                mu_out, draw = mu_out[still_out], draw[still_out]
        else:
            a[rows] = np.clip(draw, self.low, self.high)
        return a

    def _redraw_row(self, mu, rng):
        """The redraws of one row whose first sample was rejected.

        Each candidate is one ``standard_normal(m)`` call, the values and
        generator state of a ``(1, m)`` block, and is tested on Python
        floats: ``abs(mu_j + sigma * z_j)`` rounds as numpy's separate
        multiply, add and abs do, and NaN fails the test.  The coordinates
        are tested largest |mu_j| first, so a rejected candidate usually
        fails at its first one; only the accepted candidate becomes an
        array.  The last of ``MAX_ATTEMPTS`` draws in all is clipped.
        """
        sigma = self.sigma
        order = (-np.abs(mu)).argsort(kind="stable").tolist()
        pairs = [(j, mu.item(j)) for j in order]
        draw, m = rng.standard_normal, len(pairs)
        for _ in range(MAX_ATTEMPTS - 1):
            z = draw(m)
            for j, mu_j in pairs:
                if not abs(mu_j + sigma * z.item(j)) <= ACTION_BOUND:
                    break
            else:
                return mu + sigma * z
        return np.minimum(np.maximum(mu + sigma * z, self.low), self.high)

    def anneal(self):
        self.sigma *= self.decay
