"""Stochastic decision rules and parameterized expert policies: proportional
fairness, drift-plus-penalty, trunk reservation, mobility-robustness handover,
and threshold-based energy saving. All are pure functions over explicit state;
update helpers return new state objects."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs.scheduling import EWMA_FLOOR
from .envs.types import AdmissionState, MroObservation
from .errors import ConfigError

STAY = 0


# ---------------------------------------------------------------- proportional fairness

@dataclass(frozen=True)
class PfState:
    avg_throughput: np.ndarray
    ewma_alpha: float

    def __post_init__(self):
        object.__setattr__(
            self, "avg_throughput", np.asarray(self.avg_throughput, dtype=float)
        )
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ConfigError("ewma_alpha must lie in (0, 1]")
        if np.any(self.avg_throughput < EWMA_FLOOR):
            raise ConfigError(f"avg_throughput entries must be >= {EWMA_FLOOR}")


def pf_select(spectral_eff, s: PfState) -> int:
    """User with the best current-rate-to-average ratio; ties take the lowest
    index. Scaling every average by a common factor cannot change the pick."""
    eff = np.asarray(spectral_eff, dtype=float)
    if eff.shape != s.avg_throughput.shape or eff.size == 0:
        raise ConfigError("need one spectral efficiency per user")
    return int(np.argmax(eff / s.avg_throughput))


# ---------------------------------------------------------------- drift plus penalty

@dataclass(frozen=True)
class DppState:
    queues: np.ndarray
    v_weight: float

    def __post_init__(self):
        object.__setattr__(self, "queues", np.asarray(self.queues, dtype=float))
        if np.any(self.queues < 0):
            raise ConfigError("queues must be nonnegative")
        if self.v_weight < 0:
            raise ConfigError("v_weight must be nonnegative")


def dpp_action(s: DppState, actions) -> int:
    """Argmin of v_weight * penalty - sum(queue * service) over the offered
    actions. Arrivals are action-independent, so they drop out of the drift
    term. Ties take the lowest index."""
    if len(actions) == 0:
        raise ConfigError("actions must be nonempty")
    best, best_score = 0, np.inf
    for i, (service, penalty) in enumerate(actions):
        service = np.asarray(service, dtype=float)
        if service.shape != s.queues.shape:
            raise ConfigError(f"action {i}: service vector shape mismatch")
        score = s.v_weight * float(penalty) - float(s.queues @ service)
        if score < best_score:
            best, best_score = i, score
    return best


# ---------------------------------------------------------------- trunk reservation

def trunk_admit(state: AdmissionState, thresholds) -> bool:
    """Accept the pending request iff the bandwidth left after admitting it
    still exceeds the reservation threshold of its priority class (rank 0 is
    the highest priority and gets the smallest reserve)."""
    thresholds = np.asarray(thresholds, dtype=float)
    # rank 0 = highest priority = smallest reserve, so entries grow with rank
    if np.any(np.diff(thresholds) < 0):
        raise ConfigError("thresholds must not decrease with priority rank")
    if np.any(thresholds < 0):
        raise ConfigError("thresholds must be nonnegative")
    if state.pending_request is None:
        raise ConfigError("no pending request to admit")
    priority, demand = state.pending_request
    if not 0 <= priority < len(thresholds):
        raise ConfigError(f"priority {priority} outside threshold table")
    return bool(state.capacity - state.used - demand >= thresholds[priority])


# ---------------------------------------------------------------- handover (MRO)

@dataclass(frozen=True)
class MroParams:
    hysteresis: float = 3.0
    time_to_trigger: int = 3

    def __post_init__(self):
        if self.hysteresis < 0:
            raise ConfigError("hysteresis must be nonnegative")
        if self.time_to_trigger < 1:
            raise ConfigError("time_to_trigger must be >= 1")


def mro_policy(obs: MroObservation, p: MroParams) -> int:
    """Hand over once a neighbor's exceed count strictly surpasses the
    time-to-trigger; among qualifying neighbors, the best-RSRP one wins.
    Returns the env action encoding: 0 stays, cell k maps to k + 1."""
    counts = np.asarray(obs.exceed_count)
    qualifying = np.flatnonzero(counts > p.time_to_trigger)
    if len(qualifying) == 0:
        return STAY
    rsrp = np.asarray(obs.rsrp_neighbors, dtype=float)
    slot = qualifying[np.argmax(rsrp[qualifying])]
    return int(obs.neighbor_cells[slot]) + 1


# ---------------------------------------------------------------- energy saving

@dataclass(frozen=True)
class EsThresholds:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower < self.upper <= 1.0):
            raise ConfigError("need 0 <= lower < upper <= 1")


def es_policy(load: float, t: EsThresholds, n_resources: int) -> int:
    """Smallest active-set size whose projected utilization falls inside the
    threshold band; failing that, the smallest size keeping utilization under
    the upper threshold; failing that, everything on.

    `load` is offered demand as a fraction of full-fleet capacity, so k active
    resources see utilization load * n_resources / k.
    """
    if not (0.0 <= load <= 1.0):
        raise ConfigError("load must lie in [0, 1]")
    if n_resources < 1:
        raise ConfigError("n_resources must be >= 1")

    def util(k):
        if k == 0:
            return 0.0 if load == 0.0 else np.inf
        return load * n_resources / k

    for k in range(n_resources + 1):
        if t.lower <= util(k) <= t.upper:
            return k
    for k in range(n_resources + 1):
        if util(k) <= t.upper:
            return k
    return n_resources
