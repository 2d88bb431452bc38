"""Policy-update rules as pure functions from (policy, critic, data) to a
direction in parameter space.

All directions use the ascent convention theta <- theta + alpha * g, so the
gated rules (which the source formulation writes as descent on (mu(s) - a))
come out here as movement toward the sampled action.  No direction is
scanned for NaN or inf: ``harness.run_seed`` checks the parameters it moves
after every phase.
"""

from __future__ import annotations

import numpy as np

BETA_START = 1.0
BETA_MIN = 1e-6
BETA_MAX = 1e6
# adapt_beta leaves beta alone while d_hat lies in
# [d_target / DHAT_BAND, d_target * DHAT_BAND]
DHAT_BAND = 1.5


def cacla_direction(policy, state, action, delta):
    """Move a (1, d) state row toward its (1, m) action row iff the TD
    error is positive; H(0) = 0, so a zero advantage produces no update.
    An open gate runs the policy's forward on the row, then a one-row
    ``batch_gated_direction`` with weight 1: (a - mu(s))^T J_mu(s) from
    one forward and one backward pass."""
    if delta > 0:
        return batch_gated_direction(policy, policy.act(state), action,
                                     [delta], scale_by_delta=False)
    return np.zeros(policy.num_params)


def cac_direction(policy, state, action, delta):
    """Gated move toward the action, scaled by the positive TD error."""
    if delta > 0:
        return delta * cacla_direction(policy, state, action, delta)
    return np.zeros(policy.num_params)


def policy_distance_dhat(mu_old, mu):
    """d_hat = (1 / sqrt(m L)) sum_s ||mu_old(s) - mu(s)||_2 over the L
    gathered states (a sqrt(L)-scaled sum, not an average), from the
    (L, m) actions of the pre-update and the current policy."""
    mu_old, mu = np.asarray(mu_old, float), np.asarray(mu, float)
    if mu_old.ndim != 2 or mu_old.size == 0 or mu_old.shape != mu.shape:
        raise ValueError("expected two non-empty (L, m) arrays of actions")
    diff = mu_old - mu
    n_states, m = diff.shape
    return float(np.linalg.norm(diff, axis=1).sum() / np.sqrt(m * n_states))


def adapt_beta(beta, d_hat, d_target):
    """The penalty coefficient after a phase that moved the policy
    ``d_hat``: beta halved/doubled when that is too little/too much
    relative to ``d_target``, then clipped to [BETA_MIN, BETA_MAX]."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if d_hat < d_target / DHAT_BAND:
        beta /= 2.0
    elif d_hat > d_target * DHAT_BAND:
        beta *= 2.0
    return float(np.clip(beta, BETA_MIN, BETA_MAX))


def batch_gated_direction(policy, mu, actions, advantages, scale_by_delta,
                          mu_old=None, beta=0.0):
    """Mean gated direction over a batch, from one backward pass:

        g = mean_t [ w_t (a_t - mu(s_t)) - 2 beta (mu(s_t) - mu_old_t) ]^T J_mu(s_t)

    where w_t = H(A_t), times A_t when ``scale_by_delta`` (the CAC/PeNFAC
    scaling).  ``mu`` is the (L, m) output of the policy's latest forward
    pass, with its parameters unchanged since: the backward reads that
    pass.  ``actions`` is (L, m); ``mu_old`` holds the pre-update policy's
    actions on the same states and is a constant (no gradient flows
    through it), read only when ``beta != 0.0``.  Ascent convention.
    """
    advantages = np.asarray(advantages, dtype=float)
    if not len(mu) == len(actions) == len(advantages):
        raise ValueError("mu, actions and advantages must have equal length")
    if not len(mu):
        raise ValueError("empty batch")
    gate = (advantages > 0).astype(float)
    weight = gate * advantages if scale_by_delta else gate
    upstream = weight[:, None] * (actions - mu)
    if beta != 0.0:
        upstream -= 2.0 * beta * (mu - mu_old)
    return policy.backward(upstream) / len(mu)
