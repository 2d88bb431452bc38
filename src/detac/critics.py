"""Value-function learning: the TD(0) step, lambda-returns, fitted value
iteration, and the compatible-feature Q critic used by the SPG/DPG
baselines.

The state-value critic ``MlpVCritic`` takes (n, d) state rows:
``values(states)``, ``regress(states, targets)`` (one fitting pass toward
fixed targets) and ``td_step``, one TD(0) step on a (1, d) transition.
``CompatibleQCritic`` reads compatible features a - mu instead of states.
"""

from __future__ import annotations

import numpy as np

from .nets import Adam, MlpNet


class MlpVCritic:
    """MLP state-value function; each regression pass is one full-batch
    Adam step on the squared error, so repeated fitted iterations drive the
    fit.  ``rng`` draws the net's initial weights."""

    def __init__(self, state_dim, hidden_sizes, hidden, lr, *, rng):
        self.net = MlpNet([state_dim, *hidden_sizes, 1], hidden, "linear",
                          rng=rng)
        self.adam = Adam(self.net.num_params, lr)

    def values(self, states):
        return self.net.forward(states)[:, 0]

    def regress(self, states, targets):
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if len(targets) != len(states):
            raise ValueError("states and targets must have equal length")
        pred = self.net.forward(states)
        upstream = (2.0 / len(targets)) * (pred - targets[:, None])
        grad = self.net.backward(upstream)
        self.net.set_params(self.adam.step(self.net.get_params(), grad))

    def td_step(self, state, reward, next_state, terminal, gamma):
        """delta = r + gamma V(s') (1 - terminal) - V(s) on (1, d) rows,
        V(s') first and none at a terminal, then v <- v + lr delta grad V(s)
        from the V(s) pass, at the critic's own rate.  Returns delta."""
        bootstrap = 0.0 if terminal else gamma * self.values(next_state).item()
        delta = reward + bootstrap - self.values(state).item()
        grad = self.net.backward(np.ones((1, 1)))
        self.net.set_params(self.net.get_params()
                            + self.adam.alpha * delta * grad)
        return delta


def lambda_returns(batch, critic, gamma, lam):
    """Backward-recursive lambda-return targets for a ``Trajectory`` of
    episodes, concatenated in episode order.

    G_t = r_t + gamma [(1 - lam) V(s_{t+1}) + lam G_{t+1}], with each
    episode's recursion seeded by V(s_T) so a horizon cut bootstraps and a
    true terminal contributes no tail value.  One critic call covers the
    next states of the whole batch; the rest of the inputs, the batch's
    ``reversed_steps``, are built once for every call on it.
    """
    if not len(batch.lengths) or not batch.lengths.all():
        raise ValueError("empty batch or 0-length episode")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    next_states, rewards, episodes = batch.reversed_steps()
    # V(s'), last step first, and (1 - lam) V(s') as one numpy multiply:
    # the IEEE product of each pair, as on Python floats.  The recursion
    # runs on Python floats, episode by episode: numpy's IEEE operations,
    # 0.29 ms per 5x100-phase call against 1.20 on (n,) vectors
    values = critic.values(next_states)[::-1]
    tails = ((1 - lam) * values).tolist()
    targets = []
    append = targets.append
    start = 0
    for length, terminal in episodes:
        stop = start + length
        if terminal:
            # no tail value: r + 0.0, which turns -0.0 into +0.0
            g = rewards[start] + 0.0
            append(g)
            first = start + 1
        else:
            # a horizon cut bootstraps from V(s_T)
            g = values.item(start)
            first = start
        for r, tail in zip(rewards[first:stop], tails[first:stop]):
            g = r + gamma * (tail + lam * g)
            append(g)
        start = stop
    targets.reverse()
    return np.array(targets)


def fitted_value_iteration(critic, batch, gamma, lam, n_iterations):
    """Repeatedly recompute lambda-return targets with the current critic
    and take one regression pass toward them."""
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    states = batch.per_step(batch.states)
    for _ in range(n_iterations):
        critic.regress(states, lambda_returns(batch, critic, gamma, lam))
    return critic


class CompatibleQCritic:
    """Q(s, a) = (a - mu)^T w + v for the state-free ``LinearPolicy``.

    Its J_mu = I, so the compatible features (a - mu(s))^T J_mu(s) of
    Silver et al. (2014) are a - mu, which the caller passes as ``feat``:
    grad_a Q = w, and Q(s, mu) = v, one constant held as a float.
    """

    def __init__(self, action_dim):
        self.w = np.zeros(action_dim)
        self.v = 0.0

    def q(self, feat):
        return float(feat @ self.w + self.v)

    def value(self, state):
        return self.v

    def grad_a(self, state):
        return self.w.copy()

    def sgd_fit_step(self, feat, target, lr):
        """One stochastic gradient step on the squared Bellman residual."""
        err = target - float(feat @ self.w + self.v)
        self.w += lr * err * feat
        self.v += lr * err
