"""Stochastic decision rules and parameterized expert policies: proportional
fairness, drift-plus-penalty, trunk reservation, mobility-robustness handover,
and threshold-based energy saving. All are pure functions of plain numbers
and arrays; the agents that call them check their parameters once, when they
are built."""

from __future__ import annotations

import numpy as np

from .envs.types import MroObservation
from .errors import ConfigError

STAY = 0


# ---------------------------------------------------------------- proportional fairness

def pf_select(spectral_eff, avg_throughput) -> int:
    """User with the best current-rate-to-average ratio; ties take the lowest
    index. Scaling every average by a common factor cannot change the pick."""
    eff = np.asarray(spectral_eff, dtype=float)
    avg = np.asarray(avg_throughput, dtype=float)
    if eff.shape != avg.shape or eff.size == 0:
        raise ConfigError("need one spectral efficiency per user")
    return int(np.argmax(eff / avg))


# ---------------------------------------------------------------- drift plus penalty

def dpp_action(queues, actions, v_weight: float) -> int:
    """Argmin of v_weight * penalty - sum(queue * service) over the offered
    (service, penalty) actions. Arrivals are action-independent, so they drop
    out of the drift term. Ties take the lowest index.

    With one queue, a service given as a one-entry list or tuple is scored
    on Python floats: the dot product is then a single product, so the
    scores are those of the vector form, bit for bit."""
    if len(actions) == 0:
        raise ConfigError("actions must be nonempty")
    queues = np.asarray(queues, dtype=float)
    queue = float(queues[0]) if queues.shape == (1,) else None
    best, best_score = 0, np.inf
    for i, (service, penalty) in enumerate(actions):
        if queue is not None and isinstance(service, (list, tuple)) and len(service) == 1:
            drift = queue * float(service[0])
        else:
            service = np.asarray(service, dtype=float)
            if service.shape != queues.shape:
                raise ConfigError(f"action {i}: service vector shape mismatch")
            drift = float(queues @ service)
        score = v_weight * float(penalty) - drift
        if score < best_score:
            best, best_score = i, score
    return best


# ---------------------------------------------------------------- trunk reservation

def trunk_admit(free: float, demand: float, reserve: float) -> bool:
    """Accept a request iff the bandwidth left after admitting it, out of the
    `free` bandwidth, still covers the `reserve` of its priority class."""
    return bool(free - demand >= reserve)


# ---------------------------------------------------------------- handover (MRO)

def mro_policy(obs: MroObservation, time_to_trigger) -> int:
    """Hand over once a neighbor's exceed count strictly surpasses the
    time-to-trigger; among qualifying neighbors, the best-RSRP one wins, the
    first on a tie. The per-neighbor fields may be sequences or arrays.
    Returns the env action encoding: 0 stays, cell k maps to k + 1."""
    qualifying = [slot for slot, count in enumerate(obs.exceed_count) if count > time_to_trigger]
    if not qualifying:
        return STAY
    slot = max(qualifying, key=obs.rsrp_neighbors.__getitem__)
    return int(obs.neighbor_cells[slot]) + 1


# ---------------------------------------------------------------- energy saving

def es_policy(load: float, lower: float, upper: float, n_resources: int) -> int:
    """Smallest active-set size whose projected utilization falls inside the
    band [lower, upper]; failing that, the smallest size keeping utilization
    under `upper`; failing that, everything on.

    `load` is offered demand as a fraction of full-fleet capacity, so k active
    resources see utilization load * n_resources / k.
    """
    if not (0.0 <= load <= 1.0):
        raise ConfigError("load must lie in [0, 1]")

    def util(k):
        if k == 0:
            return 0.0 if load == 0.0 else np.inf
        return load * n_resources / k

    for k in range(n_resources + 1):
        if lower <= util(k) <= upper:
            return k
    for k in range(n_resources + 1):
        if util(k) <= upper:
            return k
    return n_resources
