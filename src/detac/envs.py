"""Desk-scale environments: single-state quadratic bandits, a 1-D point-mass
control task, and tabular finite MDPs used by the exact solvers.

The bandit and the point mass are stateless objects: ``reset(rng)`` returns
a start state and ``step(states, actions, rng)`` makes one transition per
row, from (n, d) states and (n, m) actions to ``(next_states, rewards,
terminals)`` of shapes (n, d), (n,) and (n,).  The bandit's ``step`` also
takes one (d,) state and its (m,) action, and then returns ``(next_state,
reward, terminal)`` as an array, a float and a bool.
Episode horizons are enforced by the caller (see ``EnvSpec.horizon``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# every env's actions live in the box [-ACTION_BOUND, ACTION_BOUND]^m
ACTION_BOUND = 1.0


@dataclass
class EnvSpec:
    state_dim: int
    action_dim: int
    horizon: int

    def __post_init__(self):
        if self.action_dim < 1:
            raise ValueError("action_dim must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def _check_action(spec, action, n=None):
    """``action`` as a float array of shape (action_dim,), or of shape
    (n, action_dim) when ``n`` rows are given.  A wrong shape or a
    non-finite value raises; values outside the action box are clipped
    with a warning, and only then is the action copied."""
    a = np.asarray(action, dtype=float)
    if n is None:
        a = a.reshape(-1)
    shape = (spec.action_dim,) if n is None else (n, spec.action_dim)
    if a.shape != shape:
        raise ValueError(f"action has shape {a.shape}, expected {shape}")
    # one comparison on the largest magnitude, without ndarray.all's Python
    # wrapper: maximum propagates NaN, so NaN and +-inf fail it too
    if not np.maximum.reduce(np.abs(a), axis=None) <= ACTION_BOUND:
        if not np.isfinite(a).all():
            raise ValueError("non-finite action")
        import logging  # imported here: only a clipped action pays for it
        logging.getLogger(__name__).warning(
            "action out of bounds, clipping: %s", a)
        a = np.clip(a, -ACTION_BOUND, ACTION_BOUND)
    return a


class QuadraticBandit:
    """One state, horizon one, reward -||a - a*||^2, maximized at a*."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float).reshape(-1)
        m = self.target.size
        self.spec = EnvSpec(state_dim=1, action_dim=m, horizon=1)

    def reset(self, rng):
        return np.zeros(1)

    def step(self, state, action, rng):
        if np.ndim(state) == 1:
            # np.sum's own pairwise add.reduce, without its Python wrapper
            d = _check_action(self.spec, action) - self.target
            return np.zeros(1), -float(np.add.reduce(d ** 2)), True
        a = _check_action(self.spec, action, len(state))
        rewards = -np.sum((a - self.target) ** 2, axis=-1)
        return np.zeros((len(a), 1)), rewards, np.ones(len(a), dtype=bool)


def make_quadratic_bandit(m=5, seed=0):
    """Bandit with the target drawn uniformly in [-0.8, 0.8]^m."""
    if m < 1:
        raise ValueError("action dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return QuadraticBandit(rng.uniform(-0.8, 0.8, size=m))


class PointMass:
    """1-D double integrator: drive the position to a goal with small effort.

    State is (position, velocity), both clipped to [-2, 2]; the action is a
    bounded acceleration.  Reward is -(position - goal)^2 - 0.01 ||a||^2,
    so returns are never positive and the optimum is to park on the goal.
    """

    DT = 0.1
    STATE_BOUND = 2.0

    def __init__(self, goal=0.5, horizon=100):
        self.goal = float(goal)
        self.spec = EnvSpec(state_dim=2, action_dim=1, horizon=horizon)

    def reset(self, rng):
        return np.zeros(2)

    def step(self, states, actions, rng):
        n = len(states)
        u = _check_action(self.spec, actions, n).ravel().tolist()
        bound, dt, goal = self.STATE_BOUND, self.DT, self.goal
        # row by row on Python floats: a lockstep step has a few rows, far
        # fewer than pay for numpy's per-call cost.  Each + and * is the
        # IEEE operation numpy makes; the clip's two comparisons keep a NaN
        # as np.minimum(np.maximum(x, -bound), bound) does; the reward's **
        # is libm's pow, whose bits numpy's x * x and np.power do not
        # always match
        flat, rewards = [], []
        for (pos, vel), a in zip(np.asarray(states, dtype=float).tolist(), u):
            vel += dt * a
            vel = -bound if vel < -bound else bound if vel > bound else vel
            pos += dt * vel
            pos = -bound if pos < -bound else bound if pos > bound else pos
            flat += (pos, vel)
            rewards.append(-(pos - goal) ** 2 - 0.01 * (a * a))
        return (np.array(flat).reshape(n, 2), np.array(rewards),
                np.zeros(n, dtype=bool))


class FiniteMdp:
    """Tabular MDP with discrete actions, used as an exact oracle target.

    ``transitions[s, a]`` is a distribution over next states, ``rewards[s, a]``
    a scalar, ``start`` the initial-state distribution.
    """

    def __init__(self, transitions, rewards, start, gamma):
        self.transitions = np.asarray(transitions, dtype=float)
        self.rewards = np.asarray(rewards, dtype=float)
        self.start = np.asarray(start, dtype=float)
        self.gamma = float(gamma)
        n, k, n2 = self.transitions.shape
        if n != n2 or self.rewards.shape != (n, k) or self.start.shape != (n,):
            raise ValueError("inconsistent MDP shapes")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        row_sums = self.transitions.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 (tol 1e-12)")
        if np.any(self.transitions < 0) or np.any(self.transitions > 1):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if abs(self.start.sum() - 1.0) > 1e-12 or np.any(self.start < 0):
            raise ValueError("start distribution must be a distribution")
        self.n_states = n
        self.n_actions = k


def random_finite_mdp(n_states, n_actions, gamma, rng):
    """Dense random MDP with Dirichlet rows and uniform rewards in [-1, 1]."""
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    p /= p.sum(axis=2, keepdims=True)
    r = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    t0 = rng.dirichlet(np.ones(n_states))
    t0 /= t0.sum()
    return FiniteMdp(p, r, t0, gamma)
