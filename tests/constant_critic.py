"""Test-side critic double: a value function with a single parameter.

``detac`` has no use for it (``run_bandit``'s CACLA baseline is a plain
float); the tests use it wherever a critic with a known, state-free value
makes the expected numbers easy to write down.
"""

import numpy as np


class ConstantVCritic:
    """Single-parameter value function: V(s) = v for every state."""

    def __init__(self, v0=0.0):
        self.v = float(v0)

    def value(self, state):
        return self.v

    def values(self, states):
        return np.full(len(states), self.v)

    def regress(self, states, targets):
        self.v = float(np.mean(targets))

    def td_update(self, state, delta, lr):
        self.v += lr * delta
