"""Energy saving: choose which resources (carriers, antennas) to power.
Freshly activated resources draw power immediately but serve traffic only
after an activation delay, so saving energy too aggressively costs QoS when
load rises. Traffic feeds an aggregate backlog queue."""

from __future__ import annotations

import numpy as np

from ..config import as_count, as_real, as_reals, check_keys
from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS, scalars
from .base import RrmEnv

OFF = -1


_DEFAULT_TRAFFIC = {
    "kind": "sinusoid",
    "base": 1.5,
    "amplitude": 1.2,
    "period": 200,
    "noise_std": 0.1,
}


def _index(x) -> int:
    if isinstance(x, (bool, np.bool_)):
        raise TypeError(f"{x!r} is a mask entry, not a resource index")
    return int(x)


def normalize_subset(action, n: int) -> tuple:
    """Canonical subset action: sorted tuple of distinct resource indices,
    from an iterable of indices. A boolean entry, as in a mask, is refused."""
    try:
        idx = sorted({_index(x) for x in action})
    except (TypeError, ValueError) as exc:
        raise InvalidActionError(f"malformed resource subset {action!r}") from exc
    for i in idx:
        if not (0 <= i < n):
            raise InvalidActionError(f"resource {i} outside [0, {n})")
    return tuple(idx)


def es_transition(status, backlog, subset, traffic, capacity, power_draw, delay):
    """Pure one-step dynamics shared by the environment and the planners.

    status: per-resource int, OFF, 0 (active) or k > 0 (warming, k steps left).
    Returns (next_status, next_backlog, energy, served).
    """
    n = len(status)
    nxt = list(status)
    members = set(subset)
    for r in range(n):
        if r in members:
            if nxt[r] == OFF:
                nxt[r] = delay
            elif nxt[r] > 0:
                nxt[r] -= 1
        else:
            nxt[r] = OFF
    energy = float(sum(power_draw[r] for r in members))
    cap = float(sum(capacity[r] for r in range(n) if nxt[r] == 0))
    backlog = backlog + traffic
    served = min(backlog, cap)
    return tuple(nxt), backlog - served, energy, served


def es_transition_batch(subsets, capacity, power_draw, delay):
    """Array form of es_transition for a fixed list of subsets.

    Returns step(status, backlog, traffic): for m states, an (m, n) status
    array and an (m,) backlog array, it gives es_transition's results for
    every (state, subset) pair as arrays of shape (m, A, n), (m, A), (A,)
    and (m, A). Sums run in es_transition's order, so every float is equal
    to the scalar one.
    """
    n = len(capacity)
    member = np.zeros((len(subsets), n), dtype=bool)
    for a, subset in enumerate(subsets):
        member[a, list(subset)] = True
    energy = np.array([float(sum(power_draw[r] for r in set(s))) for s in subsets])

    def step(status, backlog, traffic):
        status = status[:, None, :]
        warming = np.where(status == OFF, delay, np.maximum(status - 1, 0))
        nxt = np.where(member, warming, OFF)
        cap = np.zeros(nxt.shape[:2])
        for r in range(n):
            cap += np.where(nxt[:, :, r] == 0, capacity[r], 0.0)
        total = (backlog + traffic)[:, None]
        served = np.minimum(total, cap)
        return nxt, total - served, energy, served

    return step


class EnergySavingEnv(RrmEnv):
    name = "energy_saving"

    def __init__(
        self,
        n_resources=4,
        capacity=1.0,
        power_draw=1.0,
        activation_delay=2,
        traffic=None,
        qos_threshold=5.0,
        qos_weight=10.0,
        energy_weight=1.0,
    ):
        super().__init__()
        self.n_resources = self.size("n_resources", n_resources, 1)
        self.capacity = self._per_resource(capacity, "capacity")
        self.power_draw = self._per_resource(power_draw, "power_draw")
        self.activation_delay = as_count(activation_delay, "activation_delay", 0)
        traffic = dict(traffic) if traffic is not None else dict(_DEFAULT_TRAFFIC)
        self._trace = None
        if "trace" in traffic:
            check_keys(traffic, ("trace", "noise_std"), (), "traffic")
            self._trace = as_reals(traffic["trace"], "traffic trace", ge=0)
            self._trace_noise = as_real(traffic.get("noise_std", 0.0), "traffic noise_std", ge=0)
        else:
            check_keys(traffic, _DEFAULT_TRAFFIC, (), "traffic")
            kind = traffic.get("kind", "sinusoid")
            if kind not in ("sinusoid", "constant"):
                raise ConfigError(f"unknown traffic kind {kind!r}")
            # a constant traffic has no period to check
            bounds = {"period": {"gt": 0} if kind == "sinusoid" else {}, "noise_std": {"ge": 0}}
            self._traffic_cfg = {
                k: v if k == "kind" else as_real(v, f"traffic {k}", **bounds.get(k, {}))
                for k, v in {**_DEFAULT_TRAFFIC, **traffic}.items()
            }
        self.qos_threshold = as_real(qos_threshold, "qos_threshold")
        self.qos_weight = as_real(qos_weight, "qos_weight")
        self.energy_weight = as_real(energy_weight, "energy_weight")

    def _per_resource(self, value, name) -> np.ndarray:
        if np.ndim(value) == 0:
            value = np.full(self.n_resources, value, dtype=float)
        return as_reals(value, name, (self.n_resources,), ge=0)

    def traffic_at(self, t: int) -> float:
        """Offered load at step t; pure in t, so predictors may peek ahead."""
        if self._trace is not None:
            level = float(self._trace[t % self._trace.size])
            if self._trace_noise > 0:
                level += self._trace_noise * self._traffic_stream.at(t)
            return float(max(0.0, level))
        cfg = self._traffic_cfg
        level = cfg["base"]
        if cfg["kind"] == "sinusoid":
            level = cfg["base"] + cfg["amplitude"] * np.sin(2 * np.pi * t / cfg["period"])
        if cfg["noise_std"] > 0:
            level += cfg["noise_std"] * self._traffic_stream.at(t)
        return float(max(0.0, level))

    def _obs(self, t: int) -> dict:
        # the next _step serves the traffic it observed, so it is computed once
        self._traffic = self.traffic_at(t)
        return {
            "traffic": self._traffic,
            "backlog": float(self._backlog),
            "status": tuple(self._status),
            "t": t,
        }

    def _start(self, seed):
        self._traffic_stream = self.stream(STREAM_EXOGENOUS, table=scalars)
        self._status = tuple([OFF] * self.n_resources)
        self._backlog = 0.0
        return self._obs(0)

    def _step(self, action):
        subset = normalize_subset(action, self.n_resources)
        traffic = self._traffic
        self._status, self._backlog, energy, served = es_transition(
            self._status,
            self._backlog,
            subset,
            traffic,
            self.capacity,
            self.power_draw,
            self.activation_delay,
        )
        violation = float(self._backlog > self.qos_threshold)
        reward = -self.energy_weight * energy - self.qos_weight * violation
        diagnostics = {
            "energy": energy,
            "violation": violation,
            "backlog": float(self._backlog),
            "served": float(served),
            "traffic": traffic,
        }
        return StepOutcome(self._obs(self.t + 1), reward, diagnostics)

    def all_actions(self) -> list[tuple]:
        """Every resource subset, ordered by size then lexicographically.
        Refuses, before building any, more subsets than the planner's node
        budget."""
        n_subsets = 2**self.n_resources
        self._budget(n_subsets, f"{self.n_resources} resources give {n_subsets} subsets",
                     "n_resources")
        out = [()]
        for r in range(self.n_resources):
            out += [s + (r,) for s in out]
        return sorted(out, key=lambda s: (len(s), s))
