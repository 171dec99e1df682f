"""Agents: each reads an environment's observations, keeps its own running
state, and calls a decision rule from rules, bandits, static_opt or planning,
so every technique runs through run_episode interchangeably. An agent's
constructor is the one definition of its parameters: their defaults and
range checks live there, and the rules take plain numbers."""

from __future__ import annotations

import numpy as np

from . import planning
from .bandits import _illa_pick, _thompson_pick
from .config import as_count, as_real, as_reals
from .core import EpisodeLog, run_episode
from .envs.beamforming import SERVE_BEST, BeamAction
from .envs.energy import OFF, es_transition_batch
from .errors import ConfigError
from .planning import DeterministicModel, mpc_plan
from .rules import dpp_action, es_policy, mro_policy, pf_select, trunk_admit
from .static_opt import water_fill


# ---------------------------------------------------------------- link adaptation

class IllaOllaAgent:
    """Lookup-table MCS choice corrected by the ACK/NACK offset loop.

    ACKs arrive with probability 1 - target_bler and push the offset up by
    step_up; NACKs pull it down by step_down = step_up * (1 - target_bler) /
    target_bler, so the expected drift vanishes exactly at the target.
    """

    def __init__(self, lookup, step_up: float, target_bler: float):
        target_bler = as_real(target_bler, "target_bler", gt=0, lt=1)
        lookup = as_reals(lookup, "lookup")  # checked once, here
        if np.any(np.diff(lookup) <= 0):
            raise ConfigError("lookup thresholds must be strictly increasing")
        self.lookup = lookup.tolist()
        self.step_up = as_real(step_up, "step_up", gt=0)
        self.step_down = as_real(self.step_up * (1.0 - target_bler) / target_bler,
                                 "step_down = step_up * (1 - target_bler) / target_bler", gt=0)

    def reset(self, seed):
        self.offset = 0.0

    def act(self, obs):
        if obs.ack is not None:
            self.offset += self.step_up if obs.ack else -self.step_down
        return _illa_pick(obs.sinr_report, self.offset, self.lookup)


class ThompsonMcsAgent:
    """Per-MCS Beta(alpha, beta) posteriors over ACK probability, starting
    uniform; picks the throughput maximizer under sampled success rates."""

    def __init__(self, rates):
        self.rates = as_reals(rates, "rates", ge=0).tolist()  # checked once, here

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        self.alpha = [1.0] * len(self.rates)
        self.beta = [1.0] * len(self.rates)
        self.last = None

    def act(self, obs):
        if obs.ack is not None and self.last is not None:
            if obs.ack:
                self.alpha[self.last] += 1.0
            else:
                self.beta[self.last] += 1.0
        self.last = _thompson_pick(self.alpha, self.beta, self.rates, self.rng)
        return self.last


class FixedMcsAgent:
    def __init__(self, mcs: int):
        self.mcs = as_count(mcs, "mcs", 0)

    def act(self, obs):
        return self.mcs


# ---------------------------------------------------------------- power control

class WaterFillAgent:
    """Water-filling on the observed gains. Block-fading gains hold for a
    whole coherence interval, so the last allocation, kept read-only, is
    reused while (gains, noise, total_power) are unchanged."""

    def __init__(self):
        self._inputs = None

    def act(self, obs):
        gains, noise, total_power = obs["gains"], obs["noise"], obs["total_power"]
        inputs = (np.asarray(gains, dtype=float).tobytes(), noise, total_power)
        if inputs != self._inputs:
            self._powers = water_fill(gains, noise, total_power).powers
            self._powers.flags.writeable = False
            self._inputs = inputs
        return self._powers


class UniformPowerAgent:
    def act(self, obs):
        n = len(obs["gains"])
        return np.full(n, obs["total_power"] / n)


# ---------------------------------------------------------------- scheduling

class PfAgent:
    """Proportional fairness riding the env's own throughput EWMA, which the
    env keeps at or above EWMA_FLOOR."""

    def act(self, obs):
        return pf_select(obs["spectral_eff"], obs["avg_throughput"])


class RoundRobinAgent:
    def reset(self, seed):
        self.turn = -1

    def act(self, obs):
        self.turn += 1
        return self.turn % len(obs["spectral_eff"])


class MaxRateAgent:
    def act(self, obs):
        return int(np.asarray(obs["spectral_eff"]).argmax())


# ---------------------------------------------------------------- energy saving


class DppEnergyAgent:
    """Drift-plus-penalty over resource subsets: the queue is the backlog,
    service is the capacity each subset would deliver next step, the penalty
    is its energy draw, fixed per subset and so summed once."""

    def __init__(self, env, v_weight: float = 0.0):
        self.v_weight = as_real(v_weight, "v_weight", ge=0)
        self.actions = env.all_actions()
        self.capacity = env.capacity.tolist()
        self.penalties = [float(sum(env.power_draw[r] for r in sub)) for sub in self.actions]
        self.delay = env.activation_delay

    def act(self, obs):
        ready = [s == 0 or s == 1 or (s == OFF and self.delay == 0) for s in obs["status"]]
        scored = []
        for subset, penalty in zip(self.actions, self.penalties):
            cap = 0.0
            for r in subset:
                if ready[r]:
                    cap += self.capacity[r]
            scored.append(([cap], penalty))
        queue = [obs["backlog"] + obs["traffic"]]
        return self.actions[dpp_action(queue, scored, self.v_weight)]


class MinEnergyAgent:
    """Degenerate greedy comparator: never spends energy."""

    def act(self, obs):
        return ()


class EsThresholdAgent:
    """Keeps the smallest active set whose projected utilization sits inside
    the threshold band; activates resources in index order."""

    def __init__(self, env, lower: float = 0.3, upper: float = 0.9):
        if not (0.0 <= lower < upper <= 1.0):
            raise ConfigError("need 0 <= lower < upper <= 1")
        self.lower, self.upper = lower, upper
        self.n = env.n_resources
        self.fleet_capacity = float(np.sum(env.capacity))
        if not self.fleet_capacity > 0:
            raise ConfigError("es-thresholds needs a positive total capacity")

    def act(self, obs):
        demand = obs["backlog"] + obs["traffic"]
        load = min(demand / self.fleet_capacity, 1.0)
        k = es_policy(load, self.lower, self.upper, self.n)
        return tuple(range(k))


class MpcEnergyAgent:
    """Receding-horizon planner over the exact energy-saving dynamics with a
    forecast traffic trajectory. A planning state is the row (status...,
    backlog); each depth is stepped with es_transition_batch. `forecast(obs,
    k)` gives the traffic of the next k steps."""

    def __init__(self, env, forecast, horizon: int = 5, discount: float = 1.0):
        self.horizon = as_count(horizon, "horizon", 1)
        # each depth holds at least one state, so a longer forecast, which
        # the forecaster would build first, can never plan
        if self.horizon > planning.MPC_NODE_BUDGET:
            raise ConfigError(
                f"horizon {horizon} is over the node budget {planning.MPC_NODE_BUDGET}; "
                "reduce the horizon"
            )
        self.forecast = forecast
        self.discount = as_real(discount, "discount")
        actions = env.all_actions()
        step = es_transition_batch(actions, env.capacity, env.power_draw, env.activation_delay)
        qos_threshold, qos_weight = env.qos_threshold, env.qos_weight
        energy_weight = env.energy_weight

        def expand(rows, traffic):
            status, backlog, energy, _ = step(rows[:, :-1], rows[:, -1], traffic)
            violation = (backlog > qos_threshold).astype(float)
            rewards = -energy_weight * energy - qos_weight * violation
            children = np.concatenate((status, backlog[:, :, None]), axis=2)
            parent = np.repeat(np.arange(len(rows)), len(actions))
            return parent, rewards.ravel(), children.reshape(-1, rows.shape[1])

        self.model = DeterministicModel(actions=lambda s: actions, expand=expand)

    def act(self, obs):
        traj = self.forecast(obs, self.horizon)
        state = (*obs["status"], float(obs["backlog"]))
        return mpc_plan(
            self.model, state, self.horizon, exo_trajectory=traj, discount=self.discount
        )


def es_oracle_predictor(env):
    """Perfect traffic forecast reading the env's seeded trajectory. The env
    must be reset so its traffic stream exists; ES observations carry the
    step index."""
    return lambda obs, k: [env.traffic_at(obs["t"] + i) for i in range(k)]


def es_persistence_predictor():
    """Forecast that the current traffic persists."""
    return lambda obs, k: [obs["traffic"]] * k


# ---------------------------------------------------------------- handover

class MroAgent:
    """Time-to-trigger handover on the env's exceed counts; the env applies
    the hysteresis when it counts."""

    def __init__(self, time_to_trigger: int = 3):
        self.time_to_trigger = as_count(time_to_trigger, "time_to_trigger", 1)

    def act(self, obs):
        return mro_policy(obs, self.time_to_trigger)


class GreedyHoAgent:
    """Chases the best instantaneous measurement; the noise-sensitive
    baseline MRO parameters exist to beat."""

    def act(self, obs):
        rsrp = obs.rsrp_neighbors  # the first best neighbor wins; no neighbor stays
        best = max(range(len(rsrp)), key=rsrp.__getitem__, default=None)
        if best is not None and rsrp[best] > obs.rsrp_serving:
            return int(obs.neighbor_cells[best]) + 1
        return 0


# ---------------------------------------------------------------- admission

class TrunkAgent:
    """Trunk reservation: class k (rank 0 is the highest priority) is
    admitted while the bandwidth left after it covers thresholds[k]."""

    def __init__(self, env, thresholds):
        self.demands = [c["demand"] for c in env.classes]
        self.thresholds = as_reals(thresholds, "thresholds", (len(self.demands),), ge=0)
        # rank 0 = highest priority = smallest reserve, so entries grow with rank
        if np.any(np.diff(self.thresholds) < 0):
            raise ConfigError("thresholds must not decrease with priority rank")

    def act(self, obs):
        free = float(obs["capacity"]) - float(obs["used"])
        return tuple(
            1 if trunk_admit(free, demand, reserve) else 0
            for demand, reserve in zip(self.demands, self.thresholds)
        )


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
        self.budget = as_count(budget_per_step, "budget_per_step", 1)
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
