"""Policy-update rules as pure functions from (policy, critic, data) to a
direction in parameter space.

All directions use the ascent convention theta <- theta + alpha * g, so the
gated rules (which the source formulation writes as descent on (mu(s) - a))
come out here as movement toward the sampled action.  No direction is
scanned for NaN or inf: ``harness.run_seed`` checks the parameters it moves
after every phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA_MIN = 1e-6
BETA_MAX = 1e6
# adapt_beta leaves beta alone while d_hat lies in
# [d_target / DHAT_BAND, d_target * DHAT_BAND]
DHAT_BAND = 1.5


@dataclass
class TrustRegionState:
    """Adaptive penalty coefficient and the distance it steers toward."""

    d_target: float
    beta: float = 1.0


def cacla_direction(policy, state, action, delta):
    """Move toward the sampled action iff its TD error is positive;
    H(0) = 0, so a zero advantage produces no update.  An open gate is a
    one-row ``batch_gated_direction`` with weight 1: (a - mu(s))^T J_mu(s)
    from one forward and one backward pass."""
    if delta > 0:
        return batch_gated_direction(
            policy, [state], np.asarray(action, float).reshape(1, -1), [delta],
            scale_by_delta=False)
    return np.zeros(policy.n_params)


def cac_direction(policy, state, action, delta):
    """Gated move toward the action, scaled by the positive TD error."""
    if delta > 0:
        return delta * cacla_direction(policy, state, action, delta)
    return np.zeros(policy.n_params)


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


def adapt_beta(trust, d_hat):
    """Halve/double the penalty coefficient when the policy moved too
    little/too much relative to the target distance."""
    if trust.beta <= 0:
        raise ValueError("beta must be positive")
    if d_hat < trust.d_target / DHAT_BAND:
        trust.beta /= 2.0
    elif d_hat > trust.d_target * DHAT_BAND:
        trust.beta *= 2.0
    trust.beta = float(np.clip(trust.beta, BETA_MIN, BETA_MAX))
    return trust.beta


def batch_gated_direction(policy, states, actions, advantages,
                          scale_by_delta, mu_old=None, beta=0.0, mu=None):
    """Mean gated direction over a batch, with one forward/backward pass:

        g = mean_t [ w_t (a_t - mu(s_t)) - 2 beta (mu(s_t) - mu_old_t) ]^T J_mu(s_t)

    where w_t = H(A_t), times A_t when ``scale_by_delta`` (the CAC/PeNFAC
    scaling).  ``states`` and ``actions`` are (L, n) and (L, m) arrays;
    ``mu_old`` holds the pre-update policy's actions on ``states`` and is
    a constant (no gradient flows through it).  Ascent convention.

    ``mu``, when given, must be the output of the policy's latest
    ``act(states)``, with its parameters unchanged since: the
    forward is then skipped and the backward reads that pass.
    """
    advantages = np.asarray(advantages, dtype=float)
    if not len(states) == len(actions) == len(advantages):
        raise ValueError("states, actions and advantages must have equal length")
    if not len(states):
        raise ValueError("empty batch")
    if mu is None:
        mu = policy.act(states)
    gate = (advantages > 0).astype(float)
    weight = gate * advantages if scale_by_delta else gate
    upstream = weight[:, None] * (actions - mu)
    if mu_old is not None and beta != 0.0:
        upstream -= 2.0 * beta * (mu - mu_old)
    return policy.backward_batch(upstream) / len(states)
