"""Deterministic policy representations and the Gaussian exploration sampler.

``MlpPolicy`` is the policy of the PointMass agents: an ``MlpNet`` with a
tanh output, whose ``act(states)`` is its ``forward``, one action per row
of an ``(n, d)`` batch of states.  ``LinearPolicy`` is
not a general policy: it holds the bandit's theta, which ``run_bandit``
moves directly, and ``act`` returns a copy of theta.  Theta starts at
zero, inside the action box, and ``run_bandit`` projects it after every
step that moves it.  ``GaussianExploration`` holds no policy:
its ``act(mu, rng)`` samples around the mean it is given, and each
learner scales its ``sigma``.  No state is scanned for NaN or inf: a
non-finite state gives a non-finite action, which ``env.step`` rejects.

``NormalStream(rng)`` serves ``rng``'s ``standard_normal`` stream from
blocks of ``NORMAL_BLOCK`` values: the values are those of per-call draws,
bit for bit, and after ``close()`` the Generator's ``bit_generator.state``
is the one per-call draws leave.  ``run_bandit`` explores through one.
"""

from __future__ import annotations

import math

import numpy as np

from .envs import ACTION_BOUND
from .nets import MlpNet

MAX_ATTEMPTS = 100
# normals per block draw of a NormalStream: 64 KB of float64
NORMAL_BLOCK = 8192


class MlpPolicy(MlpNet):
    """MLP policy with tanh output, so actions stay inside [-1, 1] bounds."""

    def __init__(self, state_dim, action_dim, hidden_sizes, hidden, *, rng):
        super().__init__([state_dim, *hidden_sizes, action_dim], hidden,
                         "tanh", rng=rng)

    def act(self, states):
        return self.forward(states)


class LinearPolicy:
    """The bandit's mean mu(.) = theta: zero at first, kept in the box."""

    def __init__(self, action_dim):
        self.action_dim = action_dim
        self.low = np.full(action_dim, -ACTION_BOUND)
        self.high = np.full(action_dim, ACTION_BOUND)
        self.theta = np.zeros(action_dim)

    def act(self, state):
        return self.theta.copy()


class GaussianExploration:
    """Isotropic truncated Gaussian around a given mean.

    The action box is a product of intervals and the noise is isotropic,
    so the truncated Gaussian is a product of one-dimensional truncated
    normals, and each coordinate is redrawn on its own until it falls
    inside the box.  A coordinate still outside after ``MAX_ATTEMPTS``
    draws is clipped, which keeps the sampler total.  With the mean inside
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

    # the box; perfbench's exploration span tests each action against it
    low, high = -ACTION_BOUND, ACTION_BOUND

    def __init__(self, sigma):
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)

    def act(self, mu, rng):
        """One exploratory action around each mean: one for a mean of
        shape ``(m,)``, one per row for means of shape ``(n, m)``.  The
        mean is only read, never written.

        All coordinates draw their first sample, then each round makes one
        ``standard_normal(k)`` call for the k coordinates still outside
        the box, in C order; a coordinate keeps its first draw inside.
        With one action dimension a coordinate is a row, so this is the
        stream of a loop that redraws whole actions until they fit.
        """
        sigma = self.sigma
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


class NormalStream:
    """A Generator's ``standard_normal`` stream, served from block draws.

    ``Generator.standard_normal(n)`` gives the values of n successive
    single draws and leaves the Generator where they leave it, so slices
    of a drawn block are the values of per-call draws, bit for bit; one
    slice costs less than one call.  Only the Generator runs ahead of the
    values read, and ``close()`` moves it back: it restores the state saved
    before the latest block draw and redraws the fresh values read since.

    A refill keeps the unread tail of the block and draws at least
    ``NORMAL_BLOCK`` fresh values after it.  The stream has no other draw
    method, so code that asks it for another distribution fails with an
    AttributeError instead of drawing out of order.
    """

    __slots__ = ("rng", "_block", "_pos", "_end", "_tail", "_state")

    def __init__(self, rng):
        self.rng = rng
        self._block, self._pos, self._end, self._tail = np.empty(0), 0, 0, 0
        self._state = None

    def standard_normal(self, size):
        """The next ``size`` values, ``size`` an int or a shape tuple, as a
        read-only view of the block."""
        shaped = isinstance(size, tuple)
        start = self._pos
        stop = start + (math.prod(size) if shaped else size)
        if stop > self._end:
            self._refill(stop - start)
            start, stop = 0, stop - start
        self._pos = stop
        z = self._block[start:stop]
        return z.reshape(size) if shaped and len(size) > 1 else z

    def _refill(self, n):
        """Start a new block: the unread tail, then at least
        ``NORMAL_BLOCK`` fresh values and at least ``n`` values in all."""
        # with the tail copied out, the old block is freed before the new
        # one is made unless a caller still holds a view of it
        tail = self._block[self._pos:].copy()
        self._block = None
        k = len(tail)
        block = np.empty(k + max(NORMAL_BLOCK, n - k))
        block[:k] = tail
        self._state = self.rng.bit_generator.state
        self.rng.standard_normal(out=block[k:])
        block.flags.writeable = False
        self._block, self._pos, self._end, self._tail = block, 0, len(block), k

    def close(self):
        """Leave the Generator where per-call draws would have left it and
        empty the stream, so a later draw starts a block from there."""
        state, fresh = self._state, self._pos - self._tail
        self._block, self._pos, self._end, self._tail = np.empty(0), 0, 0, 0
        self._state = None
        if state is not None:
            # each refill serves more values than its tail holds, so
            # fresh > 0; the block is gone before the redraw is made
            self.rng.bit_generator.state = state
            self.rng.standard_normal(fresh)
