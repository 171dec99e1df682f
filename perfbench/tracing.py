"""Outside-in tracer. It wraps the package's public functions at every module
attribute that binds them and its methods at their class attributes, so the
program itself is not changed. Spans (name, start, end, parent) and counts
are kept in memory; `layer_metrics` turns them into the per-layer metrics
and `save` writes the spans out.

A layer's self time is its span's duration minus the durations of its
direct child spans (spans nest, because the program is single-threaded).
Process-pool workers fork from the traced parent; they drop the wrappers
at fork, so for `sweep --jobs 2` the figures cover the parent only.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import time
from array import array
from collections import Counter

import numpy as np

ENV_NAMES = (
    "link_adaptation",
    "power_control",
    "beamforming",
    "scheduling",
    "energy_saving",
    "handover",
    "admission_control",
)

# (defining module, function, span name): wrapped wherever a loaded
# occam_rrm module binds the function, including imports done lazily
# inside function bodies, which read the defining module's attribute.
SPAN_FUNCTIONS = (
    ("occam_rrm.core", "run_episode", "core.run_episode"),
    ("occam_rrm.core", "metrics_summary", "core.metrics_summary"),
    ("occam_rrm.static_opt", "water_fill", "static_opt.water_fill"),
    ("occam_rrm.planning", "mpc_plan", "planning.mpc_plan"),
    ("occam_rrm.planning", "value_iteration", "planning.value_iteration"),
    ("occam_rrm.planning", "q_learning", "planning.q_learning"),
    ("occam_rrm.bandits", "bo_beam_tracker", "bandits.bo_beam_tracker"),
    ("occam_rrm.tuning", "evaluate_policy", "tuning.evaluate_policy"),
    ("occam_rrm.tuning", "bo_tune", "tuning.bo_tune"),
    ("occam_rrm.experiments", "run_experiment", "experiments.run_experiment"),
)

# Called too often, or too cheaply, for a span; counted only.
# MpcEnergyAgent binds es_transition when it is built, so the tracer must be
# installed before any agent exists.
COUNT_FUNCTIONS = (
    ("occam_rrm.envs", "make_env", "envs.make_env_calls"),
    ("occam_rrm.envs.energy", "es_transition", "envs.es_transition_calls"),
)

# Tracers installed in this process. A forked pool worker removes their
# wrappers so it runs untraced, as the docstring promises.
_INSTALLED: list = []


def _uninstall_after_fork():
    for tracer in list(_INSTALLED):
        tracer.uninstall()


os.register_at_fork(after_in_child=_uninstall_after_fork)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original value)
        self._call = self._recorder()

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self):
        """call(nid, fn, args, kwargs): run fn inside a span, with the span
        arrays bound locally to keep the per-call cost small."""
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def call(nid, fn, args, kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return call

    def span(self, name: str, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(nid, fn, args, kwargs)

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _env_step(self, fn):
        ids = {}

        @functools.wraps(fn)
        def step(env, action):
            nid = ids.get(env.name)
            if nid is None:
                nid = ids[env.name] = self._name_id(f"envs.step.{env.name}")
            return self._call(nid, fn, (env, action), {})

        return step

    def _to_csv(self, fn):
        csv_id = self._name_id("core.to_csv")
        pickle_id = self._name_id("experiments.transfer_pickle")

        def round_trip(log):
            blob = pickle.dumps(log)
            pickle.loads(blob)
            self.counts["experiments.transfer_bytes"] += len(blob)

        @functools.wraps(fn)
        def to_csv(log, path):
            # The cost a process pool would pay to ship this log back,
            # computed here as its own span so no layer's self time holds it.
            self._call(pickle_id, round_trip, (log,), {})
            return self._call(csv_id, fn, (log, path), {})

        return to_csv

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding site. Import every occam_rrm module first, so
        that none binds an original after this."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "occam_rrm" or n.startswith("occam_rrm.")]
        for wrap, table in ((self.span, SPAN_FUNCTIONS), (self.count, COUNT_FUNCTIONS)):
            for mod_name, fn_name, name in table:
                fn = getattr(sys.modules[mod_name], fn_name)
                wrapper = wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapper)

        from occam_rrm import agents, bandits, core, experiments
        from occam_rrm.envs.base import RrmEnv

        self._set(RrmEnv, "step", self._env_step(RrmEnv.step))
        self._set(core.EpisodeLog, "to_csv", self._to_csv(core.EpisodeLog.to_csv))
        self._set(bandits.GpSurrogate, "posterior",
                  self.span("bandits.posterior", bandits.GpSurrogate.posterior))
        self._set(bandits.GpSurrogate, "add", self.count("bandits.gp_adds", bandits.GpSurrogate.add))
        from_dict = experiments.ExperimentConfig.__dict__["from_dict"].__func__
        self._set(experiments.ExperimentConfig, "from_dict",
                  classmethod(self.span("experiments.config", from_dict)))
        for cls in vars(agents).values():
            if isinstance(cls, type) and cls.__module__ == agents.__name__ and "act" in vars(cls):
                self._set(cls, "act", self.span("agents.act", cls.act))
        _INSTALLED.append(self)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    # ------------------------------------------------------------ results

    def _arrays(self):
        nid = np.asarray(self.name_ids, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return nid, dur, dur - child

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> (value, unit)."""
        nid, dur, self_time = self._arrays()

        def mask(*names):
            ids = [self._ids[n] for n in names if n in self._ids]
            return np.isin(nid, ids)

        def calls(name):
            return int(mask(name).sum())

        def total(name, values=dur):
            return float(values[mask(name)].sum())

        step_names = [n for n in self.names if n.startswith("envs.step.")]
        step = mask(*step_names)
        act_us = dur[mask("agents.act")] * 1e6
        mpc_ms = dur[mask("planning.mpc_plan")] * 1e3
        tail_q = _tail_percentile(len(act_us))

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) and q else 0.0

        out = {
            "core.run_episode_calls": (calls("core.run_episode"), "count"),
            "core.run_episode_self_s": (total("core.run_episode", self_time), "s"),
            "core.to_csv_calls": (calls("core.to_csv"), "count"),
            "core.to_csv_s": (total("core.to_csv"), "s"),
            "core.metrics_summary_s": (total("core.metrics_summary"), "s"),
            "envs.step_calls": (int(step.sum()), "count"),
            "envs.step_s": (float(dur[step].sum()), "s"),
        }
        for env in ENV_NAMES:
            d = dur[mask(f"envs.step.{env}")]
            out[f"envs.{env}.step_us"] = (float(d.mean() * 1e6) if len(d) else 0.0, "us")
        out.update({
            "envs.make_env_calls": (self.counts["envs.make_env_calls"], "count"),
            "envs.es_transition_calls": (self.counts["envs.es_transition_calls"], "count"),
            "agents.act_calls": (len(act_us), "count"),
            "agents.act_self_s": (total("agents.act", self_time), "s"),
            "agents.act_p50_us": (pct(act_us, 50), "us"),
            "agents.act_p99_us": (pct(act_us, tail_q), "us"),
            "agents.act_tail_percentile": (tail_q, "%"),
            "static_opt.water_fill_calls": (calls("static_opt.water_fill"), "count"),
            "static_opt.water_fill_s": (total("static_opt.water_fill"), "s"),
            "planning.mpc_plan_calls": (len(mpc_ms), "count"),
            "planning.mpc_plan_self_s": (total("planning.mpc_plan", self_time), "s"),
            "planning.mpc_plan_ms_p50": (pct(mpc_ms, 50), "ms"),
            "planning.value_iteration_s": (total("planning.value_iteration"), "s"),
            "planning.q_learning_self_s": (total("planning.q_learning", self_time), "s"),
            "bandits.posterior_calls": (calls("bandits.posterior"), "count"),
            "bandits.posterior_s": (total("bandits.posterior"), "s"),
            "bandits.gp_adds": (self.counts["bandits.gp_adds"], "count"),
            "bandits.bo_beam_tracker_self_s": (total("bandits.bo_beam_tracker", self_time), "s"),
            "tuning.evaluate_policy_calls": (calls("tuning.evaluate_policy"), "count"),
            "tuning.evaluate_policy_s": (total("tuning.evaluate_policy"), "s"),
            "tuning.bo_tune_self_s": (total("tuning.bo_tune", self_time), "s"),
            "experiments.config_s": (total("experiments.config"), "s"),
            "experiments.run_experiment_calls": (calls("experiments.run_experiment"), "count"),
            "experiments.transfer_bytes": (self.counts["experiments.transfer_bytes"], "B"),
            "experiments.transfer_pickle_s": (total("experiments.transfer_pickle"), "s"),
            "trace.spans": (len(dur), "count"),
        })
        return out

    def save(self, path):
        nid, dur, self_time = self._arrays()
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=nid,
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            self_time=self_time,
            count_names=np.asarray(sorted(self.counts)),
            count_values=np.asarray([self.counts[k] for k in sorted(self.counts)]),
        )


def _tail_percentile(n: int) -> int:
    """The highest of p99, p90, p50 with at least ten samples beyond it."""
    for q in (99, 90, 50):
        if n * (100 - q) >= 1000:
            return q
    return 0
