"""Adapters wiring solver primitives to environment interfaces, so every
technique runs through run_episode interchangeably."""

from __future__ import annotations

import operator

import numpy as np

from .bandits import (
    BetaPosterior,
    beta_update,
    illa_select,
    olla_state,
    olla_step,
    thompson_select,
)
from .core import EpisodeLog, run_episode
from .envs.beamforming import SERVE_BEST, BeamAction
from .envs.types import AdmissionState
from .errors import ConfigError
from .planning import DeterministicModel, Predictor, mpc_plan
from .rules import (DppState, EsThresholds, MroParams, PfState, dpp_action, es_policy,
                    mro_policy, pf_select, trunk_admit)
from .static_opt import water_fill


# ---------------------------------------------------------------- link adaptation

class IllaOllaAgent:
    """Lookup-table MCS choice corrected by the ACK/NACK offset loop."""

    def __init__(self, lookup, step_up: float = 0.01, target_bler: float = 0.1):
        self.lookup = np.asarray(lookup, dtype=float)
        self.initial = olla_state(step_up, target_bler)

    def reset(self, seed):
        self.state = self.initial

    def act(self, obs):
        if obs.ack is not None:
            self.state = olla_step(self.state, obs.ack)
        return illa_select(obs.sinr_report, self.state.offset, self.lookup)


class ThompsonMcsAgent:
    """Per-MCS Beta posteriors over ACK probability; picks the throughput
    maximizer under sampled success rates."""

    def __init__(self, rates):
        self.rates = np.asarray(rates, dtype=float)

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        self.posteriors = [BetaPosterior() for _ in self.rates]
        self.last = None

    def act(self, obs):
        if obs.ack is not None and self.last is not None:
            self.posteriors[self.last] = beta_update(self.posteriors[self.last], obs.ack)
        self.last = thompson_select(self.posteriors, self.rates, self.rng)
        return self.last


class FixedMcsAgent:
    def __init__(self, mcs: int):
        self.mcs = int(mcs)

    def act(self, obs):
        return self.mcs


# ---------------------------------------------------------------- power control

class WaterFillAgent:
    def act(self, obs):
        return water_fill(obs["gains"], obs["noise"], obs["total_power"]).powers


class UniformPowerAgent:
    def act(self, obs):
        n = len(obs["gains"])
        return np.full(n, obs["total_power"] / n)


# ---------------------------------------------------------------- scheduling

class PfAgent:
    """Proportional fairness riding the env's own throughput EWMA."""

    def __init__(self, ewma_alpha: float = 0.1):
        self.ewma_alpha = float(ewma_alpha)

    def act(self, obs):
        state = PfState(np.maximum(obs["avg_throughput"], 1e-6), self.ewma_alpha)
        return pf_select(obs["spectral_eff"], state)


class RoundRobinAgent:
    def reset(self, seed):
        self.turn = -1

    def act(self, obs):
        self.turn += 1
        return self.turn % len(obs["spectral_eff"])


class MaxRateAgent:
    def act(self, obs):
        return int(np.argmax(obs["spectral_eff"]))


# ---------------------------------------------------------------- energy saving

OFF_SENTINEL = -1


class DppEnergyAgent:
    """Drift-plus-penalty over resource subsets: the queue is the backlog,
    service is the capacity each subset would deliver next step, the penalty
    is its energy draw."""

    def __init__(self, env, v_weight: float = 0.0):
        self.actions = env.all_actions()
        self.capacity = env.capacity
        self.power_draw = env.power_draw
        self.delay = env.activation_delay
        self.v_weight = float(v_weight)

    def act(self, obs):
        status = obs["status"]

        def service(subset):
            cap = 0.0
            for r in subset:
                s = status[r]
                ready = (s == 0) or (s == 1) or (s == OFF_SENTINEL and self.delay == 0)
                if ready:
                    cap += self.capacity[r]
            return cap

        scored = [([service(sub)], sum(self.power_draw[r] for r in sub)) for sub in self.actions]
        state = DppState(np.array([obs["backlog"] + obs["traffic"]]), self.v_weight)
        return self.actions[dpp_action(state, scored)]


class MinEnergyAgent:
    """Degenerate greedy comparator: never spends energy."""

    def act(self, obs):
        return ()


class EsThresholdAgent:
    """Keeps the smallest active set whose projected utilization sits inside
    the threshold band; activates resources in index order."""

    def __init__(self, env, thresholds: EsThresholds):
        self.thresholds = thresholds
        self.n = env.n_resources
        self.fleet_capacity = float(np.sum(env.capacity))

    def act(self, obs):
        demand = obs["backlog"] + obs["traffic"]
        load = min(demand / self.fleet_capacity, 1.0)
        k = es_policy(load, self.thresholds, self.n)
        return tuple(range(k))


class MpcEnergyAgent:
    """Receding-horizon planner over the exact energy-saving dynamics with a
    forecast traffic trajectory."""

    def __init__(self, env, predictor: Predictor, horizon: int = 5, discount: float = 1.0):
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        self.predictor = predictor
        self.horizon = horizon
        self.discount = float(discount)
        actions = env.all_actions()
        capacity, draw, delay = env.capacity, env.power_draw, env.activation_delay
        qos_threshold, qos_weight = env.qos_threshold, env.qos_weight
        energy_weight = env.energy_weight

        from .envs.energy import es_transition

        def step(state, subset, traffic):
            status, backlog = state
            status2, backlog2, energy, _ = es_transition(
                status, backlog, subset, traffic, capacity, draw, delay
            )
            violation = float(backlog2 > qos_threshold)
            reward = -energy_weight * energy - qos_weight * violation
            return (status2, backlog2), reward

        self.model = DeterministicModel(actions=lambda s: actions, step=step)

    def act(self, obs):
        traj = self.predictor.predict(obs, self.horizon)
        state = (tuple(obs["status"]), float(obs["backlog"]))
        return mpc_plan(
            self.model, state, self.horizon, exo_trajectory=traj, discount=self.discount
        )


def es_oracle_predictor(env) -> Predictor:
    """Perfect traffic forecast reading the env's seeded trajectory. The env
    must be reset so its traffic stream exists; ES observations carry the
    step index."""
    return Predictor(lambda obs, k: [env.traffic_at(obs["t"] + i) for i in range(k)])


def es_persistence_predictor() -> Predictor:
    return Predictor(lambda obs, k: [obs["traffic"]] * k)


# ---------------------------------------------------------------- handover

class MroAgent:
    def __init__(self, params: MroParams):
        self.params = params

    def act(self, obs):
        return mro_policy(obs, self.params)


class GreedyHoAgent:
    """Chases the best instantaneous measurement; the noise-sensitive
    baseline MRO parameters exist to beat."""

    def act(self, obs):
        best = int(np.argmax(obs.rsrp_neighbors))
        if obs.rsrp_neighbors[best] > obs.rsrp_serving:
            return int(obs.neighbor_cells[best]) + 1
        return 0


# ---------------------------------------------------------------- admission

class TrunkAgent:
    def __init__(self, env, thresholds):
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.demands = [c["demand"] for c in env.classes]
        if len(self.thresholds) != len(self.demands):
            raise ConfigError("one threshold per priority class required")

    def act(self, obs):
        rule = []
        for cls, demand in enumerate(self.demands):
            st = AdmissionState(
                capacity=obs["capacity"], used=obs["used"], pending_request=(cls, demand)
            )
            rule.append(1 if trunk_admit(st, self.thresholds) else 0)
        return tuple(rule)


class AcceptAllAgent:
    def __init__(self, n_classes: int):
        self.rule = tuple([1] * n_classes)

    def act(self, obs):
        return self.rule


# ---------------------------------------------------------------- tabular policies

class TablePolicyAgent:
    """Greedy play from a per-state action table (value iteration or
    Q-learning output) on an enumerable env."""

    def __init__(self, env, policy):
        self.state_index = env.state_index
        self.actions = env.action_list()
        self.policy = np.asarray(policy, dtype=int)

    def act(self, obs):
        return self.actions[self.policy[self.state_index(obs)]]


# ---------------------------------------------------------------- beam trackers

class FullScanAgent:
    """Measures every beam every step and serves the best: the exhaustive
    baseline with accuracy exactly 1."""

    def __init__(self, env):
        self.action = BeamAction(measure=tuple(range(env.n_beams)), serve=SERVE_BEST)

    def act(self, obs):
        return self.action


class KnnTrackerAgent:
    """Nearest-neighbor historical predictor: each beam's RSRP is predicted
    by its most recent measurement (1-NN in time); the budget cycles through
    beams round-robin and the freshest picture's argmax is served."""

    def __init__(self, env, budget_per_step: int):
        self.budget = operator.index(budget_per_step)
        if self.budget < 1:
            raise ConfigError("budget_per_step must be >= 1")
        self.env = env

    def reset(self, seed):
        self.last_seen = np.full(self.env.n_beams, -np.inf)
        self.cursor = 0

    def act(self, obs):
        n = self.env.n_beams
        chosen = tuple((self.cursor + i) % n for i in range(min(self.budget, n)))
        self.cursor = (self.cursor + self.budget) % n
        for b, rsrp in self.env.measure(chosen).items():
            self.last_seen[b] = rsrp
        return BeamAction(measure=chosen, serve=int(np.argmax(self.last_seen)))


def full_scan_tracker(env, horizon: int = 100, seed: int = 0) -> EpisodeLog:
    """One episode of FullScanAgent."""
    return run_episode(env, FullScanAgent(env), horizon=horizon, seed=seed)


def knn_beam_tracker(env, budget_per_step: int, horizon: int = 100, seed: int = 0) -> EpisodeLog:
    """One episode of KnnTrackerAgent."""
    return run_episode(env, KnnTrackerAgent(env, budget_per_step), horizon=horizon, seed=seed)
