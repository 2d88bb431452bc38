"""Learning loops: incremental CACLA/CAC, batch NFAC/PeNFAC, and the
single-state bandit baselines (SPG, DPG, CACLA with a one-parameter critic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critics import (CompatibleQCritic, MlpVCritic, fitted_value_iteration,
                      lambda_returns)
from .nets import Adam
from .policies import (GaussianExploration, LinearPolicy, MlpPolicy,
                       NormalStream)
from .trajectory import Trajectory
from .updates import (BETA_START, adapt_beta, batch_gated_direction,
                      cac_direction, cacla_direction, policy_distance_dhat)

RULES = ("cacla", "cac", "nfac", "penfac")


@dataclass
class AgentConfig:
    rule: str = "penfac"
    gamma: float = 0.99
    lam: float = 0.9
    sigma: float = np.sqrt(0.2)
    sigma_decay: float = 1.0
    lr_actor: float = 1e-4
    lr_critic: float = 1e-3
    fitted_iterations: int = 10
    actor_iterations: int = 30
    update_every: int = 5
    d_target: float = 0.03
    hidden: tuple = (32, 32)
    hidden_activation: str = "leaky_relu"

    def __post_init__(self):
        if self.rule in ("spg", "dpg"):
            raise ValueError(f"{self.rule} is a bandit baseline; use the "
                             "bandit-suite command instead of train")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0 <= self.lam <= 1:
            raise ValueError("lambda must lie in [0, 1]")
        if not (self.sigma > 0 and self.lr_actor >= 0 and self.lr_critic >= 0):
            raise ValueError("need sigma > 0 and learning rates >= 0")
        if not 0 < self.sigma_decay <= 1:
            raise ValueError("sigma_decay must lie in (0, 1]")
        if self.update_every < 1:
            raise ValueError("update_every must be >= 1")
        if self.fitted_iterations < 1 or self.actor_iterations < 1:
            raise ValueError("fitted_iterations and actor_iterations must "
                             "be >= 1")
        if not self.d_target > 0:
            raise ValueError("d_target must be positive")


def run_episodes(act, env, n, rng, on_step=None):
    """Roll ``n`` episodes in lockstep and return them as one
    ``Trajectory``.

    All ``n`` episodes are reset from ``rng`` first.  Each time step then
    makes one ``act(states)`` call, one ``env.step`` and one
    ``Trajectory.append`` on the rows of the episodes still running, in
    episode order, and then one ``on_step(states, actions, rewards,
    next_states, terminals)`` on those rows, when given; an episode leaves
    the batch when the env reports it terminal.  With ``n > 1`` the draws
    of ``act`` and ``env.step`` from ``rng`` interleave across the
    episodes, so the episodes equal those of one-at-a-time rollouts only
    when neither draws from ``rng``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    batch = Trajectory([env.reset(rng) for _ in range(n)], env.spec.horizon,
                       env.spec.action_dim)
    # every row, as a slice, until the first episode ends; after that an
    # index array of the rows still running
    live = slice(None)
    for t in range(env.spec.horizon):
        states = batch.states[live, t]
        actions = act(states)
        next_states, rewards, terminals = env.step(states, actions, rng)
        batch.append(live, t, actions, rewards, next_states, terminals)
        if on_step is not None:
            on_step(states, actions, rewards, next_states, terminals)
        if terminals.any():
            live = np.arange(n)[live][~terminals]
            if not len(live):
                break
    return batch


def evaluate_deterministic(policy, env, n_episodes, rng):
    """Play the greedy policy for ``n_episodes`` episodes through
    ``run_episodes``, one ``policy.act(states)`` on the running rows per
    time step, and return the mean and the list of episode returns.  The
    resets and env steps draw from ``rng``; interactions stay out of any
    training data."""
    batch = run_episodes(policy.act, env, n_episodes, rng)
    returns = [float(sum(r[:k].tolist()))
               for r, k in zip(batch.rewards, batch.lengths)]
    return float(np.mean(returns)), returns


class IncrementalActorCritic:
    """Per-step CACLA/CAC: a TD(0) critic step at the critic's own rate,
    and a gated actor step toward the exploratory action."""

    def __init__(self, policy, critic, config):
        if config.rule not in ("cacla", "cac"):
            raise ValueError("incremental agent supports the cacla/cac rules")
        self.policy = policy
        self.critic = critic
        self.config = config
        self.exploration = GaussianExploration(config.sigma)

    def run_episode(self, env, rng):
        """Play and learn from one episode, this rule's whole phase;
        returns its step count."""
        batch = run_episodes(
            lambda s: self.exploration.act(self.policy.act(s), rng), env, 1,
            rng, on_step=self._learn)
        self.exploration.sigma *= self.config.sigma_decay
        return int(batch.lengths[0])

    def _learn(self, states, actions, rewards, next_states, terminals):
        # td_step reads only the critic; the direction, the policy and delta
        cfg = self.config
        delta = self.critic.td_step(states, rewards.item(), next_states,
                                    terminals.item(), cfg.gamma)
        direction = (cac_direction if cfg.rule == "cac"
                     else cacla_direction)(self.policy, states, actions, delta)
        if np.any(direction):
            self.policy.set_params(self.policy.get_params()
                                   + cfg.lr_actor * direction)


class BatchActorCritic:
    """NFAC/PeNFAC: gather episodes under the exploratory policy, then fit
    the critic by fitted value iteration and take several Adam steps on the
    gated actor direction (TD-scaled and trust-region-penalized for
    PeNFAC)."""

    def __init__(self, policy, critic, config):
        if config.rule not in ("nfac", "penfac"):
            raise ValueError("batch agent supports the nfac/penfac rules")
        self.policy = policy
        self.critic = critic
        self.config = config
        self.exploration = GaussianExploration(config.sigma)
        self.actor_adam = Adam(policy.num_params, alpha=config.lr_actor)
        # PeNFAC's penalty coefficient, adapted after each phase that moves
        # the policy, and both rules' d_hat per phase
        self.beta = BETA_START
        self.dhat_history = []

    def run_episode(self, env, rng):
        """Run one phase and return its env steps: roll out
        ``update_every`` episodes in lockstep under the exploratory policy,
        run ``update_phase`` on them, then anneal the exploration."""
        batch = run_episodes(
            lambda s: self.exploration.act(self.policy.act(s), rng), env,
            self.config.update_every, rng)
        self.update_phase(batch)
        self.exploration.sigma *= self.config.sigma_decay
        return int(batch.lengths.sum())

    def update_phase(self, batch):
        """Fit the critic on ``batch`` by fitted value iteration, then run
        ``actor_phase`` on its advantages, lambda-returns minus V."""
        cfg = self.config
        states = batch.per_step(batch.states)
        fitted_value_iteration(self.critic, batch, cfg.gamma, cfg.lam,
                               cfg.fitted_iterations)
        advantages = (lambda_returns(batch, self.critic, cfg.gamma, cfg.lam)
                      - self.critic.values(states))
        self.actor_phase(states, batch.per_step(batch.actions), advantages)

    def actor_phase(self, states, actions, advantages):
        """The actor's phase on given per-step ``states``, ``actions`` and
        ``advantages``: Adam steps on the gated direction, then d_hat into
        ``dhat_history`` and, for PeNFAC, beta adapted if the policy moved."""
        cfg = self.config
        penfac = cfg.rule == "penfac"
        # mu is the policy's latest forward, the pass each direction's
        # backward reads; mu_old keeps the pre-update actions
        mu = mu_old = self.policy.act(states)
        beta = self.beta if penfac else 0.0
        for i in range(cfg.actor_iterations):
            g = batch_gated_direction(self.policy, mu, actions, advantages,
                                      scale_by_delta=penfac, mu_old=mu_old,
                                      beta=beta)
            self.policy.set_params(self.actor_adam.step(
                self.policy.get_params(), g, ascent=True))
            if not g.any():
                # an all-zero direction is a fixed point: Adam took a +-0
                # step, and mu depends on the parameters alone, so mu
                # stays, every later direction is the same zero, and its
                # steps only decay v and advance t
                self.actor_adam.idle(cfg.actor_iterations - 1 - i)
                break
            mu = self.policy.act(states)

        # mu is still mu_old only when the first direction was zero, so the
        # policy never moved: d_hat is 0.0, and beta stays, as PPO's
        # adaptive-KL rule adapts only after an update
        d_hat = policy_distance_dhat(mu_old, mu)
        self.dhat_history.append(d_hat)
        if penfac and mu is not mu_old:
            self.beta = adapt_beta(self.beta, d_hat, cfg.d_target)


def make_agent(config, env, rng):
    """Build the policy/critic pair matching the rule and environment."""
    state_dim = env.spec.state_dim
    action_dim = env.spec.action_dim
    policy = MlpPolicy(state_dim, action_dim, hidden_sizes=config.hidden,
                       hidden=config.hidden_activation, rng=rng)
    critic = MlpVCritic(state_dim, hidden_sizes=config.hidden,
                        hidden=config.hidden_activation, lr=config.lr_critic,
                        rng=rng)
    if config.rule in ("cacla", "cac"):
        return IncrementalActorCritic(policy, critic, config)
    return BatchActorCritic(policy, critic, config)


# ---------------------------------------------------------------------------
# single-state bandit baselines
# ---------------------------------------------------------------------------

@dataclass
class BanditConfig:
    sigma: float = 0.3
    sigma_decay: float = 0.999
    sigma_min: float = 0.15
    lr_actor: float = 0.02
    lr_actor_decay: float = 0.999
    lr_actor_min: float = 0.002
    lr_critic: float = 0.1


def run_bandit(rule, env, episodes, config, rng, eval_every):
    """One-state quadratic-bandit training loop.

    SPG and DPG learn a compatible-feature Q critic; CACLA keeps a single
    baseline value, a float moved toward each reward.  Returns the
    deterministic-policy reward measured every ``eval_every`` episodes
    (evaluations are analytic and consume no environment samples).

    Once the arguments are checked and ``env.reset(rng)`` has run, the
    exploration and ``env.step`` get a ``NormalStream`` over ``rng``, which
    serves only ``standard_normal``: the values of per-call draws, taken
    from block draws.  When the call returns or raises, ``rng`` is where
    per-call draws leave it.
    """
    if rule not in ("spg", "dpg", "cacla"):
        raise ValueError(f"unsupported bandit rule {rule!r}")
    if episodes < 1 or eval_every < 1:
        raise ValueError(f"need episodes >= 1 and eval_every >= 1, got "
                         f"{episodes} and {eval_every}")
    policy = LinearPolicy(env.spec.action_dim)
    low, high = policy.low, policy.high
    exploration = GaussianExploration(config.sigma)
    state = env.reset(rng)

    q_critic = (CompatibleQCritic(policy.action_dim) if rule in ("spg", "dpg")
                else None)
    baseline = 0.0

    lr = config.lr_actor
    curve = []
    # closed in a finally, so rng ends in the per-call state on a raise too
    normals = NormalStream(rng)
    try:
        for episode in range(episodes):
            # theta is in the box, and act only reads its mean
            action = exploration.act(policy.theta, normals)
            _, reward, _ = env.step(state, action, normals)

            if rule == "cacla":
                delta = reward - baseline
                baseline += config.lr_critic * delta
                # a closed gate leaves theta where it is, inside the box
                step = lr * (action - policy.theta) if delta > 0 else None
            else:
                # the compatible feature a - mu: theta stays in the box, so
                # mu is theta
                feat = action - policy.theta
                q_critic.sgd_fit_step(feat, reward, config.lr_critic)
                if rule == "dpg":
                    g = q_critic.grad_a(state)
                else:
                    adv = q_critic.q(feat) - q_critic.value(state)
                    g = adv * feat / exploration.sigma ** 2
                step = lr * g
                # the gated rule's step vanishes near the optimum on its own;
                # the critic-driven steps keep a noise floor, so only they get
                # the annealed rate
                lr = max(config.lr_actor_min, lr * config.lr_actor_decay)
            if step is not None:
                # projected step: an unbounded theta would blow up the
                # compatible features once the exploration mean leaves the box
                policy.theta = np.minimum(np.maximum(policy.theta + step, low),
                                          high)

            exploration.sigma = max(config.sigma_min,
                                    exploration.sigma * config.sigma_decay)

            if (episode + 1) % eval_every == 0:
                a_det = policy.act(state)
                curve.append(-float(np.sum((a_det - env.target) ** 2)))
    finally:
        normals.close()
    return np.asarray(curve)
