"""Test-side reference Jacobian of a policy's action w.r.t. its parameters.

``detac`` computes every gated direction as one vector-Jacobian product:
``batch_gated_direction`` runs one backward pass through the policy's
forward that its caller ran.  The per-sample oracles in the tests build
the full Jacobian instead, one forward and one backward per row and
action dimension, so that they do not share that code path.
``linear_policy(theta)`` builds the bandit's ``LinearPolicy`` at a given
theta.
"""

import numpy as np

from detac.policies import LinearPolicy, MlpPolicy


def linear_policy(theta):
    """A ``LinearPolicy`` whose theta is ``theta`` clipped into the action
    box, where ``run_bandit`` keeps it."""
    policy = LinearPolicy(len(theta))
    policy.theta = np.clip(np.asarray(theta, dtype=float), -1.0, 1.0)
    return policy


def jacobian(policy, state):
    """The (action_dim x num_params) derivative of mu(state): the identity
    for the state-free ``LinearPolicy`` (mu = theta), and for an
    ``MlpPolicy`` a one-row forward and a unit-vector backward pass per
    action dimension."""
    if isinstance(policy, LinearPolicy):
        return np.eye(policy.action_dim)
    if not isinstance(policy, MlpPolicy):
        raise TypeError(f"no reference Jacobian for {type(policy).__name__}")
    action_dim = policy.layer_sizes[-1]
    jac = np.empty((action_dim, policy.num_params))
    for i in range(action_dim):
        policy.forward([state])
        one_hot = np.zeros((1, action_dim))
        one_hot[0, i] = 1.0
        jac[i] = policy.backward(one_hot)
    return jac


def toward(policy, state, action):
    """(a - mu(s))^T J(s), with the reference ``jacobian``."""
    mu = np.asarray(policy.act([state]), float).reshape(-1)
    return (np.asarray(action, float).reshape(-1) - mu) @ jacobian(policy,
                                                                   state)
