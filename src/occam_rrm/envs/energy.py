"""Energy saving: choose which resources (carriers, antennas) to power.
Freshly activated resources draw power immediately but serve traffic only
after an activation delay, so saving energy too aggressively costs QoS when
load rises. Traffic feeds an aggregate backlog queue."""

from __future__ import annotations

import numpy as np

from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS
from .base import RrmEnv

OFF = -1


_DEFAULT_TRAFFIC = {
    "kind": "sinusoid",
    "base": 1.5,
    "amplitude": 1.2,
    "period": 200,
    "noise_std": 0.1,
}


def normalize_subset(action, n: int) -> tuple:
    """Canonical subset action: sorted tuple of distinct resource indices.
    Accepts an index iterable or a boolean mask of length n."""
    if isinstance(action, (list, tuple, np.ndarray)) and len(action) == n and all(
        isinstance(x, (bool, np.bool_)) for x in action
    ):
        return tuple(int(i) for i in range(n) if action[i])
    try:
        idx = sorted({int(x) for x in action})
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
        self.n_resources = int(n_resources)
        if self.n_resources < 1:
            raise ConfigError("n_resources must be >= 1")
        self.capacity = self._per_resource(capacity, "capacity")
        self.power_draw = self._per_resource(power_draw, "power_draw")
        self.activation_delay = int(activation_delay)
        if self.activation_delay < 0:
            raise ConfigError("activation_delay must be >= 0")
        traffic = dict(traffic) if traffic is not None else dict(_DEFAULT_TRAFFIC)
        self._trace = None
        if "trace" in traffic:
            self._trace = np.asarray(traffic["trace"], dtype=float)
            if self._trace.ndim != 1 or self._trace.size == 0:
                raise ConfigError("traffic trace must be a nonempty 1-D sequence")
            if np.any(self._trace < 0):
                raise ConfigError("traffic trace must be nonnegative")
            self._trace_noise = float(traffic.get("noise_std", 0.0))
        else:
            kind = traffic.get("kind", "sinusoid")
            if kind not in ("sinusoid", "constant"):
                raise ConfigError(f"unknown traffic kind {kind!r}")
            self._traffic_cfg = {**_DEFAULT_TRAFFIC, **traffic, "kind": kind}
        self.qos_threshold = float(qos_threshold)
        self.qos_weight = float(qos_weight)
        self.energy_weight = float(energy_weight)

    def _per_resource(self, value, name) -> np.ndarray:
        arr = (
            np.full(self.n_resources, float(value))
            if np.isscalar(value)
            else np.asarray(value, dtype=float)
        )
        if arr.shape != (self.n_resources,):
            raise ConfigError(f"{name} needs one entry per resource")
        if np.any(arr < 0):
            raise ConfigError(f"{name} entries must be nonnegative")
        return arr

    def traffic_at(self, t: int) -> float:
        """Offered load at step t; pure in t, so predictors may peek ahead."""
        if self._trace is not None:
            level = float(self._trace[t % self._trace.size])
            if self._trace_noise > 0:
                level += self._trace_noise * self._traffic_stream.value(t)
            return float(max(0.0, level))
        cfg = self._traffic_cfg
        level = cfg["base"]
        if cfg["kind"] == "sinusoid":
            level = cfg["base"] + cfg["amplitude"] * np.sin(2 * np.pi * t / cfg["period"])
        if cfg["noise_std"] > 0:
            level += cfg["noise_std"] * self._traffic_stream.value(t)
        return float(max(0.0, level))

    def _obs(self, t: int) -> dict:
        return {
            "traffic": self.traffic_at(t),
            "backlog": float(self._backlog),
            "status": tuple(self._status),
            "t": t,
        }

    def _start(self, seed):
        self._traffic_stream = self.stream(STREAM_EXOGENOUS)
        self._status = tuple([OFF] * self.n_resources)
        self._backlog = 0.0
        return self._obs(0)

    def _step(self, action):
        subset = normalize_subset(action, self.n_resources)
        traffic = self.traffic_at(self.t)
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
        return StepOutcome(observation=self._obs(self.t + 1), reward=reward, diagnostics=diagnostics)

    def all_actions(self) -> list[tuple]:
        """Every resource subset, ordered by size then lexicographically."""
        out = [()]
        for r in range(self.n_resources):
            out += [s + (r,) for s in out]
        return sorted(out, key=lambda s: (len(s), s))
