"""Exact dynamic programming over tabular MDPs, a closed-form bandit
integral, and the numerical verification checks built on them:

* value/advantage/occupancy solutions by direct linear solves,
* the performance-difference identity relating two deterministic policies
  through a stochastic smoothing of the first,
* the gated TD-scaled direction on the 1-D quadratic bandit in closed form
  (its ratio to the deterministic gradient 2 (t - theta) lies in (0, 1]),
* the occupancy-shift bound for Lipschitz transition kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import FiniteMdp


# ---------------------------------------------------------------------------
# dynamic programming
# ---------------------------------------------------------------------------

@dataclass
class DpSolution:
    v: np.ndarray          # state values
    q: np.ndarray          # action values
    advantage: np.ndarray  # q - v
    occupancy: np.ndarray  # discounted state distribution, sums to 1/(1-gamma)
    j: float               # T0-weighted performance


def policy_matrix(mdp, policy):
    """Accept a deterministic action index per state or a full stochastic
    matrix; return the (n, k) stochastic matrix."""
    policy = np.asarray(policy)
    if policy.ndim == 1:
        mat = np.zeros((mdp.n_states, mdp.n_actions))
        mat[np.arange(mdp.n_states), policy.astype(int)] = 1.0
        return mat
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError("policy matrix has wrong shape")
    return policy.astype(float)


def dp_solve(mdp, policy):
    """Exact solution of the evaluation equations for a fixed policy."""
    pi = policy_matrix(mdp, policy)
    n = mdp.n_states
    p_pi = np.einsum("sa,san->sn", pi, mdp.transitions)
    r_pi = np.einsum("sa,sa->s", pi, mdp.rewards)
    eye = np.eye(n)
    v = np.linalg.solve(eye - mdp.gamma * p_pi, r_pi)
    q = mdp.rewards + mdp.gamma * mdp.transitions @ v
    adv = q - v[:, None]
    occupancy = np.linalg.solve(eye - mdp.gamma * p_pi.T, mdp.start)
    j = float(mdp.start @ v)
    return DpSolution(v=v, q=q, advantage=adv, occupancy=occupancy, j=j)


def performance_difference_residual(mdp, mu, mu_tilde, pi):
    """Residual of the two-term performance-difference identity.

    J(mu~) should equal J(mu) plus the occupancy-weighted advantage of the
    smoothed policy pi against mu, plus the mu~-occupancy-weighted advantage
    of mu~ against pi.  Occupancies are the unnormalized discounted
    distributions.
    """
    sol_mu = dp_solve(mdp, mu)
    sol_pi = dp_solve(mdp, pi)
    sol_tilde = dp_solve(mdp, mu_tilde)
    pi_mat = policy_matrix(mdp, pi)

    term_pi = float(np.sum(sol_pi.occupancy[:, None] * pi_mat * sol_mu.advantage))
    mu_tilde = np.asarray(mu_tilde).astype(int)
    term_tilde = float(sol_tilde.occupancy
                       @ sol_pi.advantage[np.arange(mdp.n_states), mu_tilde])
    return abs(sol_tilde.j - (sol_mu.j + term_pi + term_tilde))


def epsilon_smoothed(mdp, mu, epsilon):
    """Stochastic smoothing of a deterministic tabular policy."""
    mat = policy_matrix(mdp, mu) * (1 - epsilon)
    mat += epsilon / mdp.n_actions
    return mat


# ---------------------------------------------------------------------------
# gated direction vs deterministic gradient on the 1-D quadratic bandit
# ---------------------------------------------------------------------------

def gated_scaled_direction_1d(target, theta, sigma):
    """Closed form of the gated, TD-scaled inner integral (ascent
    convention, with the 1/sigma^2 likelihood-ratio factor):

        (1/sigma^2) int N(a; theta, sigma^2) A(a) H(A(a)) (a - theta) da

    With d = target - theta and x = (a - theta) / sigma, A = sigma^2 (1 -
    x^2) + 2 sigma d x is positive exactly on [lo, hi] with lo hi = -1, and
    the integral is int_lo^hi (sigma (x - x^3) + 2 d x^2) phi(x) dx, whose
    moments follow from x phi = -phi'.  It is odd in d, so it is taken at
    |d|, where hi = (|d| + r) / sigma does not cancel; at d = 0 it is 0.0.
    """
    d, sigma = float(target) - float(theta), float(sigma)
    hi = (abs(d) + math.hypot(d, sigma)) / sigma
    lo = -1.0 / hi
    phi_lo, phi_hi = (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                      for x in (lo, hi))
    m0 = 0.5 * (math.erf(hi / math.sqrt(2.0)) - math.erf(lo / math.sqrt(2.0)))
    m1 = phi_lo - phi_hi
    m2 = m0 + lo * phi_lo - hi * phi_hi
    m3 = 2.0 * m1 + lo * lo * phi_lo - hi * hi * phi_hi
    return math.copysign(sigma * (m1 - m3) + 2.0 * abs(d) * m2, d)


# ---------------------------------------------------------------------------
# occupancy-shift bound on a Gaussian chain
# ---------------------------------------------------------------------------

# the chain of ``suite_theorem1``: states and actions on grids over
# [-1, 1], the kernel's gain and noise scale, the discount, and the
# kernel's L1 Lipschitz constant in the action (see the class docstring)
CHAIN_STATES, CHAIN_ACTIONS = 41, 21
CHAIN_GAIN, CHAIN_TAU, CHAIN_GAMMA = 0.3, 0.4, 0.9
CHAIN_LIPSCHITZ = 2.0 * CHAIN_GAIN / (CHAIN_TAU * np.sqrt(2.0 * np.pi))


class LipschitzGaussianChain:
    """1-D state grid with kernel s' ~ Normal(s + gain * a, tau^2), binned
    onto the grid with tail mass absorbed by the edge cells (rows sum to 1
    exactly).  Its sizes and constants are the ``CHAIN_*`` values.

    Binning a distribution cannot increase total-variation distance, so the
    L1 Lipschitz constant of the continuous kernel carries over:
    sum_{s'} |T(s'|s,a1) - T(s'|s,a2)| <= L |a1 - a2| with
    L = 2 gain / (tau sqrt(2 pi)), which also bounds every single entry.
    """

    def __init__(self):
        self.grid = np.linspace(-1.0, 1.0, CHAIN_STATES)
        self.actions = np.linspace(-1.0, 1.0, CHAIN_ACTIONS)
        width = self.grid[1] - self.grid[0]
        self.edges = np.concatenate(
            [[-np.inf], self.grid[:-1] + width / 2, [np.inf]])
        # only the rewards differ between the MDPs ``build_mdp`` makes, so
        # they all share one read-only (n, k, n) transition tensor
        rows = np.array([[self.transition_row(s, a) for a in self.actions]
                         for s in range(self.grid.size)])
        self.transitions = rows / rows.sum(axis=2, keepdims=True)
        self.transitions.flags.writeable = False

    def transition_row(self, state_idx, action):
        """Distribution over next grid states for a (possibly off-grid)
        continuous action."""
        mean = self.grid[state_idx] + CHAIN_GAIN * float(action)
        z = (self.edges - mean) / (CHAIN_TAU * np.sqrt(2.0))
        cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in z]))
        return np.diff(cdf)

    def build_mdp(self, rewards):
        """Tabular MDP over (state grid x action grid), uniform start."""
        start = np.full(CHAIN_STATES, 1.0 / CHAIN_STATES)
        return FiniteMdp(self.transitions, rewards, start, CHAIN_GAMMA)

    def smoothed_policy(self, mu_actions, sigma):
        """Discretized Gaussian policy over the action grid, centered at the
        deterministic action per state."""
        mu_actions = np.asarray(mu_actions, float)
        logits = -0.5 * ((self.actions[None, :] - mu_actions[:, None]) / sigma) ** 2
        weights = np.exp(logits)
        return weights / weights.sum(axis=1, keepdims=True)


def occupancy_shift_bound_check(chain, mdp, mu_idx, mu_tilde_idx, sigma):
    """Check that the occupancy-shift error of the smoothed-policy
    approximation stays below the Lipschitz bound.

    lhs: |sum_s d^{mu~}(s) A^pi(s, mu~(s)) - sum_s d^pi(s) A^pi(s, mu~(s))|
    rhs: eps L / (1 - gamma) * (max_s |mu~(s) - mu(s)| + 2 m sigma / sqrt(2 pi))

    Occupancies are the unnormalized discounted distributions and
    eps = max |A^pi|.  Requires the shift term to be < 1 (the regime in
    which the one-step bound dominates).
    """
    mu_idx = np.asarray(mu_idx, dtype=int)
    mu_tilde_idx = np.asarray(mu_tilde_idx, dtype=int)
    mu_a = chain.actions[mu_idx]
    mu_tilde_a = chain.actions[mu_tilde_idx]
    m = 1
    shift = float(np.max(np.abs(mu_tilde_a - mu_a))) + \
        2.0 * m * sigma / np.sqrt(2.0 * np.pi)
    if shift >= 1.0:
        raise ValueError("policies/exploration too far apart for the bound "
                         f"(shift term {shift:.3f} >= 1)")

    pi = chain.smoothed_policy(mu_a, sigma)
    sol_pi = dp_solve(mdp, pi)
    sol_tilde = dp_solve(mdp, mu_tilde_idx)
    a_at_tilde = sol_pi.advantage[np.arange(mdp.n_states), mu_tilde_idx]
    lhs = abs(float((sol_tilde.occupancy - sol_pi.occupancy) @ a_at_tilde))

    eps = float(np.max(np.abs(sol_pi.advantage)))
    rhs = eps * CHAIN_LIPSCHITZ / (1.0 - mdp.gamma) * shift
    return lhs, rhs, lhs <= rhs
