"""Deterministic policy representations and the Gaussian exploration wrapper.

``MlpPolicy`` is the policy of the PointMass agents.  ``act(states)``
returns one action for a state of shape ``(d,)`` and one per row for a
batch of shape ``(n, d)``, and ``backward_batch(upstream)`` returns the
parameter gradient of sum_t upstream_t . mu(s_t) over the rows of the
latest ``act`` call (one vector-Jacobian product).  ``LinearPolicy`` is
not a general policy: it holds the bandit's theta, which ``run_bandit``
moves directly, and ``act`` returns a copy of theta.  Theta lies in the
action box: the constructor clips it once, and ``run_bandit`` projects it
after every step that moves it.  No state is scanned for NaN or inf: a
non-finite state gives a non-finite action, which ``env.step`` rejects.
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

    def act(self, states):
        return self.net.forward(states)

    def backward_batch(self, upstream):
        """Parameter gradient of sum_t upstream_t . mu(s_t) for the latest
        ``act`` call."""
        return self.net.backward(upstream)


class LinearPolicy:
    """The bandit's state-independent mean mu(.) = theta, theta in the box."""

    def __init__(self, action_dim, theta=None):
        self.action_dim = action_dim
        self.low = np.full(action_dim, -ACTION_BOUND)
        self.high = np.full(action_dim, ACTION_BOUND)
        # np.clip's bits, NaN and signed zeros included, without its wrapper
        self.theta = (np.zeros(action_dim) if theta is None
                      else np.minimum(np.maximum(
                          np.asarray(theta, dtype=float), self.low),
                          self.high))

    def act(self, state=None):
        return self.theta.copy()


class GaussianExploration:
    """Isotropic truncated Gaussian around a deterministic policy.

    The action box is a product of intervals and the noise is isotropic,
    so the truncated Gaussian is a product of one-dimensional truncated
    normals, and each coordinate is redrawn on its own until it falls
    inside the box.  A coordinate still outside after ``MAX_ATTEMPTS``
    draws is clipped, which keeps the wrapper total.  With the mean inside
    the box and sigma at most 1 (the defaults are sqrt(0.2) and 0.3), each
    draw fits with probability above 0.47, so in practice only a NaN or a
    mean outside the box reaches the clip.

    The first draw is one vectorized sample over all coordinates.  The
    redraw rounds touch a few coordinates each, so they run on Python
    floats, as ``PointMass.step`` does: a numpy call on a handful of
    elements costs more than the scalar work it does.  Python's ``+`` and
    ``*`` on floats are the IEEE binary64 operations numpy's elementwise
    ``add`` and ``multiply`` perform, so the values are those of the
    vectorized rounds, bit for bit.
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
        """One exploratory action per action the policy's ``act(states)``
        returns: one for a state of shape ``(d,)`` (or ``None``, for the
        state-free ``LinearPolicy``), one per row for a batch of shape
        ``(n, d)``.

        All coordinates draw their first sample, then each round makes one
        ``standard_normal(k)`` call for the k coordinates still outside
        the box, in C order; a coordinate keeps its first draw inside.
        With one action dimension a coordinate is a row, so this is the
        stream of a loop that redraws whole actions until they fit.
        """
        sigma = self.sigma
        mu = self.policy.act(states)
        a = mu + sigma * rng.standard_normal(mu.shape)
        abs_a = np.abs(a)
        # the box test on the largest |a_j|; a NaN is that maximum
        if np.maximum.reduce(abs_a, axis=None) <= ACTION_BOUND:
            return a
        # a and abs_a are C-contiguous, so flat is a view of a and the
        # indices are in C order; |a_j| <= ACTION_BOUND fails for a NaN too
        flat, means = a.reshape(-1), mu.reshape(-1).tolist()
        out = (~(abs_a.reshape(-1) <= ACTION_BOUND)).nonzero()[0].tolist()
        for _ in range(MAX_ATTEMPTS - 1):
            still = []
            for j, z in zip(out, rng.standard_normal(len(out)).tolist()):
                x = means[j] + sigma * z
                flat[j] = x
                if not abs(x) <= ACTION_BOUND:
                    still.append(j)
            out = still
            if not out:
                return a
        flat[out] = np.minimum(np.maximum(flat[out], -ACTION_BOUND),
                               ACTION_BOUND)
        return a

    def anneal(self):
        self.sigma *= self.decay
