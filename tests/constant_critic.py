"""Test-side critic double: a value function with a single parameter.

``detac`` has no use for it (``run_bandit``'s CACLA baseline is a plain
float); the tests use it wherever a critic with a known, state-free value
makes the expected numbers easy to write down.
"""

import numpy as np


class ConstantVCritic:
    """Single-parameter value function: V(s) = v for every state."""

    def __init__(self, v0=0.0, lr=0.0):
        self.v = float(v0)
        self.lr = lr

    def value(self, state):
        return self.v

    def values(self, states):
        return np.full(len(states), self.v)

    def regress(self, states, targets):
        self.v = float(np.mean(targets))

    def td_step(self, state, reward, next_state, terminal, gamma):
        """The TD(0) step of ``MlpVCritic.td_step``; grad V = 1."""
        delta = reward + (0.0 if terminal else gamma * self.v) - self.v
        self.v += self.lr * delta
        return delta
