"""Handover between cells under noisy RSRP measurements. The reward is the
negated count of poorly timed handover events: ping-pongs (bouncing back
within a window), too-early (target below the radio-link-failure threshold
at execution) and too-late (camping on a failing cell while a neighbor is
healthy). The env maintains per-neighbor exceed counts with a configured
hysteresis, which threshold-and-count policies consume."""

from __future__ import annotations

import numpy as np

from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS
from .base import RrmEnv
from .types import MroObservation


_DEFAULT_MODEL = {
    "kind": "crossing",
    "period": 400,
    "near_rsrp": -60.0,
    "far_rsrp": -100.0,
}


class HandoverEnv(RrmEnv):
    name = "handover"

    def __init__(
        self,
        n_cells=2,
        model=None,
        noise_std=4.0,
        ho_interruption=1,
        rlf_threshold=-95.0,
        pingpong_window=10,
        hysteresis=3.0,
    ):
        super().__init__()
        self.n_cells = int(n_cells)
        if self.n_cells < 2:
            raise ConfigError("n_cells must be >= 2")
        model = dict(model) if model is not None else dict(_DEFAULT_MODEL)
        kind = model.get("kind", "crossing")
        self._trace = None
        if kind == "trace":
            self._trace = np.asarray(model["values"], dtype=float)
            if self._trace.ndim != 2 or self._trace.shape[1] != self.n_cells:
                raise ConfigError(
                    f"trace shape {self._trace.shape} != (n_steps, {self.n_cells})"
                )
        elif kind == "crossing":
            self._model = {**_DEFAULT_MODEL, **model}
            if self._model["period"] < 2:
                raise ConfigError("crossing period must be >= 2")
        else:
            raise ConfigError(f"unknown mobility model kind {kind!r}")
        self.noise_std = float(noise_std)
        self.ho_interruption = int(ho_interruption)
        self.rlf_threshold = float(rlf_threshold)
        self.pingpong_window = int(pingpong_window)
        self.hysteresis = float(hysteresis)
        if self.pingpong_window < 1:
            raise ConfigError("pingpong_window must be >= 1")

    @property
    def n_actions(self) -> int:
        return self.n_cells + 1  # stay plus one handover target per cell

    def true_rsrp_at(self, t: int) -> np.ndarray:
        if self._trace is not None:
            return self._trace[t % self._trace.shape[0]].copy()
        m = self._model
        spread = m["near_rsrp"] - m["far_rsrp"]
        phases = 2 * np.pi * np.arange(self.n_cells) / self.n_cells
        # x in [0, 1]: distance proxy; cell 0 starts closest.
        x = 0.5 * (1.0 + np.sin(2 * np.pi * t / m["period"] - np.pi / 2 + phases))
        return m["near_rsrp"] - spread * x

    def measured_rsrp_at(self, t: int) -> np.ndarray:
        noise = self._meas_stream.values(t)
        return self.true_rsrp_at(t) + self.noise_std * noise

    def _neighbors(self) -> np.ndarray:
        return np.array([c for c in range(self.n_cells) if c != self._serving], dtype=int)

    def _update_counts(self, meas: np.ndarray) -> None:
        # Consecutive-exceed bookkeeping against the serving cell, hysteresis
        # applied to the noisy measurements; reset on non-exceed.
        serving_level = meas[self._serving]
        for c in range(self.n_cells):
            if c == self._serving:
                self._counts[c] = 0
            elif meas[c] - self.hysteresis > serving_level:
                self._counts[c] += 1
            else:
                self._counts[c] = 0

    def _obs(self, t: int) -> MroObservation:
        meas = self.measured_rsrp_at(t)
        self._update_counts(meas)
        nb = self._neighbors()
        return MroObservation(
            rsrp_serving=float(meas[self._serving]),
            rsrp_neighbors=meas[nb],
            exceed_count=self._counts[nb].copy(),
            serving_cell=self._serving,
            neighbor_cells=nb,
        )

    def _start(self, seed):
        self._meas_stream = self.stream(STREAM_EXOGENOUS, per_step=self.n_cells)
        self._serving = 0
        self._counts = np.zeros(self.n_cells, dtype=int)
        self._last_ho_t: int | None = None
        self._pp_armed = False
        return self._obs(0)

    def _step(self, action):
        action = int(action)
        if not (0 <= action <= self.n_cells):
            raise InvalidActionError(f"action {action} outside [0, {self.n_cells}]")
        true_now = self.true_rsrp_at(self.t)
        pingpong = too_early = too_late = 0
        if action == 0:
            others = np.delete(true_now, self._serving)
            if true_now[self._serving] < self.rlf_threshold and np.any(
                others >= self.rlf_threshold
            ):
                too_late = 1
        else:
            target = action - 1
            if target == self._serving:
                raise InvalidActionError(f"handover to current serving cell {target}")
            if true_now[target] < self.rlf_threshold:
                too_early = 1
            if self._pp_armed and self._last_ho_t is not None and (
                self.t - self._last_ho_t <= self.pingpong_window
            ):
                pingpong = 1
                self._pp_armed = False
            else:
                self._pp_armed = True
            self._last_ho_t = self.t
            self._serving = target
            self._counts[:] = 0
        reward = -float(pingpong + too_early + too_late)
        diagnostics = {
            "pingpong": float(pingpong),
            "too_early": float(too_early),
            "too_late": float(too_late),
            "serving": float(self._serving),
            "rsrp_serving_true": float(self.true_rsrp_at(self.t)[self._serving]),
        }
        return StepOutcome(observation=self._obs(self.t + 1), reward=reward, diagnostics=diagnostics)
