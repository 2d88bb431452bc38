"""Episode store shared by the rollout, the critic and the agents."""

from __future__ import annotations

import numpy as np


class Trajectory:
    """The ``n`` episodes of one lockstep rollout, as arrays.

    ``states`` (n, H + 1, d) holds each row's visited states, then the
    state its episode ended in; ``actions`` (n, H, m) and ``rewards``
    (n, H) fill the first ``lengths[i]`` steps of row i.  ``terminal[i]``
    is True when the env ended episode i; a horizon cut leaves it False so
    that value targets bootstrap from the final state.
    """

    def __init__(self, first_states, horizon, action_dim):
        first_states = np.asarray(first_states, dtype=float)
        n = len(first_states)
        self.states = np.zeros((n, horizon + 1, first_states.shape[1]))
        self.states[:, 0] = first_states
        self.actions = np.zeros((n, horizon, action_dim))
        self.rewards = np.zeros((n, horizon))
        self.lengths = np.zeros(n, dtype=int)
        self.terminal = np.zeros(n, dtype=bool)
        self._reversed = None

    def append(self, rows, t, actions, rewards, next_states, terminals):
        """Record time step ``t`` of the episodes ``rows`` (distinct
        indices, or a slice), which must all have ``t`` steps so far, as
        in a lockstep rollout.  The other arguments are arrays with one
        entry per row."""
        self.actions[rows, t] = actions
        self.rewards[rows, t] = rewards
        self.states[rows, t + 1] = next_states
        self.terminal[rows] = terminals
        self.lengths[rows] = t + 1
        self._reversed = None

    def per_step(self, array):
        """The ``array[i, t]`` with ``t < lengths[i]`` of an (n, >= H, ...)
        array, such as ``states[:, 1:]``, stacked in episode order."""
        horizon = self.rewards.shape[1]
        return array[:, :horizon][np.arange(horizon) < self.lengths[:, None]]

    def reversed_steps(self):
        """What a backward recursion over the steps reads: the (L, d) next
        states in episode order, then, from the last step to the first,
        the rewards as one list of Python floats and a ``(length,
        terminal)`` pair per episode.  Built on the first call and kept
        until the next ``append``."""
        if self._reversed is None:
            self._reversed = (
                self.per_step(self.states[:, 1:]),
                self.per_step(self.rewards)[::-1].tolist(),
                list(zip(self.lengths[::-1].tolist(),
                         self.terminal[::-1].tolist())))
        return self._reversed
