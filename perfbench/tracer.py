"""In-memory spans around detac's public functions, and the per-module
metrics derived from them.

``Tracer.install()`` rebinds each traced function or method to a wrapper
that records a span (name, start, end, parent) and, for a few boundaries,
a counter (rows, flops, normal draws, open gates).
Functions are rebound in every detac module that holds them, because
``from .x import y`` gives the caller its own binding: wrapping only the
defining module would record nothing for those callers.
``Tracer.uninstall()`` puts the originals back.  ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("nets.forward.b1.calls", "count", "lower"),
    ("nets.forward.b1.s", "s", "lower"),
    ("nets.forward.bN.calls", "count", "lower"),
    ("nets.forward.bN.rows", "count", "lower"),
    ("nets.forward.bN.s", "s", "lower"),
    ("nets.forward.flop", "computed_flop", "lower"),
    ("nets.backward.calls", "count", "lower"),
    ("nets.backward.s", "s", "lower"),
    ("nets.adam.s", "s", "lower"),
    ("nets.set_params.calls", "count", "lower"),
    ("nets.set_params.s", "s", "lower"),
    ("policies.explore.calls", "count", "lower"),
    ("policies.explore.s", "s", "lower"),
    ("policies.explore.accept_ratio", "ratio", "higher"),
    ("policies.act.calls", "count", "lower"),
    ("policies.act.s", "s", "lower"),
    ("envs.step.calls", "count", "lower"),
    ("envs.step.s", "s", "lower"),
    ("trajectory.append.calls", "count", "lower"),
    ("trajectory.append.s", "s", "lower"),
    ("critics.fvi.s", "s", "lower"),
    ("critics.lambda_returns.calls", "count", "lower"),
    ("critics.lambda_returns.s", "s", "lower"),
    ("critics.regress.s", "s", "lower"),
    ("critics.compatible_q.s", "s", "lower"),
    ("updates.gated_direction.calls", "count", "lower"),
    ("updates.gated_direction.s", "s", "lower"),
    ("updates.dhat.calls", "count", "lower"),
    ("updates.dhat.s", "s", "lower"),
    ("updates.gate_open_frac", "ratio", "higher"),
    ("agents.update_phase.calls", "count", "lower"),
    ("agents.update_phase.self_s", "s", "lower"),
    ("agents.update_phase.p50_ms", "ms", "lower"),
    ("agents.update_phase.p90_ms", "ms", "lower"),
    ("agents.rollout.s", "s", "lower"),
    ("agents.eval.s", "s", "lower"),
    ("agents.run_bandit.self_s", "s", "lower"),
    ("harness.run_seed.s", "s", "lower"),
    ("harness.csv.s", "s", "lower"),
    ("config.parse.s", "s", "lower"),
    ("import.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# metrics that count work; for a fixed seed they repeat exactly
COUNT_METRICS = [name for name, unit, _ in PER_LAYER
                 if unit in ("count", "computed_flop")] + [
    "policies.explore.accept_ratio", "updates.gate_open_frac"]


class _CountingRng:
    """Passes normal draws through to the wrapped Generator and counts
    them, so the random stream is the one the program would consume."""

    __slots__ = ("rng", "draws")

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        return self.rng.standard_normal(*args, **kwargs)


class Tracer:
    """Spans kept in flat arrays (about 24 bytes each) until the run ends."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")   # 1 when an ancestor has the same name
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._depth = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.nested.append(self._depth[nid] > 0)
        self._depth[nid] += 1
        stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def record(self, name, start, end):
        """Add a span measured outside the wrappers (the import)."""
        i = self.open(self.name_id(name))
        self.start[i] = start
        self.close(i)
        self.end[i] = end

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def spanned(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    # -- installing ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, wrap):
        """``wrap`` is a span name or a function that builds the wrapper."""
        return self.spanned(wrap, fn) if isinstance(wrap, str) else wrap(fn)

    def _method(self, cls, attr, wrap):
        self._set(cls, attr, self._wrap(vars(cls)[attr], wrap))

    def _function(self, module, attr, wrap):
        """Rebind ``module.attr`` in every loaded detac module that holds
        the same function object."""
        fn = getattr(module, attr)
        new = self._wrap(fn, wrap)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if (mod_name == "detac" or mod_name.startswith("detac.")) \
                    and vars(mod).get(attr) is fn:
                self._set(mod, attr, new)

    def install(self):
        from detac import (agents, config, critics, envs, harness, nets,
                           policies, trajectory, updates)

        self._method(nets.MlpNet, "forward", self._forward)
        self._method(nets.MlpNet, "backward", "nets.backward")
        self._method(nets.MlpNet, "set_params", "nets.set_params")
        self._method(nets.Adam, "step", "nets.adam")

        self._method(policies.GaussianExploration, "act", self._explore)
        self._method(policies.MlpPolicy, "act", "policies.act")
        self._method(policies.LinearPolicy, "act", "policies.act")

        self._method(envs.PointMass, "step", "envs.step")
        self._method(envs.QuadraticBandit, "step", "envs.step")
        self._method(trajectory.Trajectory, "append", "trajectory.append")

        self._function(critics, "fitted_value_iteration", "critics.fvi")
        self._function(critics, "lambda_returns", "critics.lambda_returns")
        self._method(critics.MlpVCritic, "regress", "critics.regress")
        for attr in ("sgd_fit_step", "q", "value", "grad_a"):
            self._method(critics.CompatibleQCritic, attr,
                         "critics.compatible_q")

        self._function(updates, "batch_gated_direction", self._gated)
        self._function(updates, "policy_distance_dhat", "updates.dhat")

        self._method(agents.BatchActorCritic, "update_phase",
                     "agents.update_phase")
        self._method(agents.BatchActorCritic, "run_episode",
                     "agents.train_episode")
        self._function(agents, "evaluate_deterministic", "agents.eval")
        self._function(agents, "run_bandit", "agents.run_bandit")

        self._function(harness, "run_seed", "harness.run_seed")
        self._function(harness, "write_seed_csv", "harness.csv")
        self._function(harness, "write_aggregate_csv", "harness.csv")

        self._function(config, "parse_config", "config.parse")

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- wrappers that also count ---------------------------------------------

    def _forward(self, fn):
        b1, bn = self.name_id("nets.forward.b1"), self.name_id("nets.forward.bN")

        @functools.wraps(fn)
        def forward(net, x, training=False):
            shape = np.shape(x)
            rows = 1 if len(shape) == 1 else shape[0]
            i = self.open(b1 if rows == 1 else bn)
            try:
                return fn(net, x, training=training)
            finally:
                self.close(i)
                sizes = net.layer_sizes
                self.add("forward.flop", 2 * rows * sum(
                    n_in * n_out for n_in, n_out in zip(sizes, sizes[1:])))
                if rows != 1:
                    self.add("forward.bN.rows", rows)
        return forward

    def _explore(self, fn):
        nid = self.name_id("policies.explore")

        @functools.wraps(fn)
        def act(exploration, state, rng):
            counting = _CountingRng(rng)
            i = self.open(nid)
            try:
                a = fn(exploration, state, counting)
            finally:
                self.close(i)
            self.add("explore.draws", counting.draws)
            # the clipped fallback puts a coordinate exactly on a bound
            self.add("explore.accepted", int(np.all(
                (a > exploration.low) & (a < exploration.high))))
            return a
        return act

    def _gated(self, fn):
        nid = self.name_id("updates.gated_direction")

        @functools.wraps(fn)
        def gated(policy, states, actions, advantages, *args, **kwargs):
            adv = np.asarray(advantages, dtype=float)
            self.add("gate.open", int(np.count_nonzero(adv > 0)))
            self.add("gate.total", adv.size)
            i = self.open(nid)
            try:
                return fn(policy, states, actions, advantages, *args, **kwargs)
            finally:
                self.close(i)
        return gated

    # -- reading ------------------------------------------------------------

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))

    def metrics(self, overhead_frac):
        """Every per-layer metric of PER_LAYER, by name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time

        def mask(span):
            nid = self._ids.get(span)
            return name == (-1 if nid is None else nid)

        def calls(span):
            return int(np.count_nonzero(mask(span)))

        def seconds(span):
            # outermost spans only, so a recursive call is not counted twice
            return float(dur[mask(span) & ~nested].sum())

        def self_seconds(span):
            return float(self_time[mask(span)].sum())

        def ratio(num, den):
            den = self.counters.get(den, 0)
            return self.counters.get(num, 0) / den if den else 0.0

        phases = dur[mask("agents.update_phase")] * 1e3
        in_episode = np.zeros(dur.size, dtype=bool)
        in_episode[has_parent] = mask("agents.train_episode")[parent[has_parent]]
        phase_in_episode = float(
            dur[mask("agents.update_phase") & in_episode].sum())

        special = {
            "nets.forward.bN.rows": self.counters.get("forward.bN.rows", 0),
            "nets.forward.flop": self.counters.get("forward.flop", 0),
            "policies.explore.accept_ratio": ratio("explore.accepted",
                                                   "explore.draws"),
            "updates.gate_open_frac": ratio("gate.open", "gate.total"),
            "agents.update_phase.self_s": self_seconds("agents.update_phase"),
            "agents.update_phase.p50_ms":
                float(np.percentile(phases, 50)) if phases.size else 0.0,
            "agents.update_phase.p90_ms":
                float(np.percentile(phases, 90)) if phases.size else 0.0,
            "agents.rollout.s":
                seconds("agents.train_episode") - phase_in_episode,
            "agents.run_bandit.self_s": self_seconds("agents.run_bandit"),
            "trace.overhead_frac": float(overhead_frac),
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in special:
                out[metric] = special[metric]
            else:
                # "<span>.calls" or "<span>.s"
                span, kind = metric.rsplit(".", 1)
                out[metric] = {"calls": calls, "s": seconds}[kind](span)
        return out
