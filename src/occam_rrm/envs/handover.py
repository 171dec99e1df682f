"""Handover between cells under noisy RSRP measurements. The reward is the
negated count of poorly timed handover events: ping-pongs (bouncing back
within a window), too-early (target below the radio-link-failure threshold
at execution) and too-late (camping on a failing cell while a neighbor is
healthy). The env maintains per-neighbor exceed counts with a configured
hysteresis, which threshold-and-count policies consume."""

from __future__ import annotations

from functools import partial

import numpy as np

from ..config import as_count, as_real, as_reals, check_keys
from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STEP_BLOCK, STREAM_EXOGENOUS
from .base import RrmEnv
from .types import MroObservation


_DEFAULT_MODEL = {
    "kind": "crossing",
    "period": 400,
    "near_rsrp": -60.0,
    "far_rsrp": -100.0,
}


def _crossing_rsrp(m: dict, phases: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """True RSRP in dB of the crossing model, one row per step in ``steps``."""
    spread = m["near_rsrp"] - m["far_rsrp"]
    # x in [0, 1]: distance proxy; cell 0 starts closest.
    angle = 2 * np.pi * steps[:, None] / m["period"] - np.pi / 2 + phases
    x = 0.5 * (1.0 + np.sin(angle))
    return m["near_rsrp"] - spread * x


def _rsrp_table(true_rsrp, noise_std: float, first_step: int, noise: np.ndarray) -> np.ndarray:
    """Stream table, read-only: per step, the true RSRP of each cell, then
    its noisy measurement."""
    true = true_rsrp(np.arange(first_step, first_step + len(noise)))
    table = np.hstack([true, true + noise_std * noise])
    table.flags.writeable = False
    return table


class HandoverEnv(RrmEnv):
    name = "handover"

    def __init__(
        self,
        n_cells=2,
        model=None,
        noise_std=4.0,
        rlf_threshold=-95.0,
        pingpong_window=10,
        hysteresis=3.0,
    ):
        super().__init__()
        # n x (n - 1) neighbor cells and a stream table of 2n values per step
        self.n_cells = self.size("n_cells", n_cells, 2,
                                 lambda n: max(n * (n - 1), STEP_BLOCK * 2 * n))
        model = dict(model) if model is not None else dict(_DEFAULT_MODEL)
        kind = model.get("kind", "crossing")
        self._trace = None
        if kind == "trace":
            check_keys(model, ("kind", "values"), ("values",), "model")
            self._trace = as_reals(model["values"], "model values", (None, self.n_cells))
            self._true_rsrp = partial(np.take, self._trace, axis=0, mode="wrap")
        elif kind == "crossing":
            check_keys(model, _DEFAULT_MODEL, (), "model")
            self._model = {
                k: v if k == "kind" else as_real(v, f"model {k}", ge=2 if k == "period" else None)
                for k, v in {**_DEFAULT_MODEL, **model}.items()
            }
            self._phases = 2 * np.pi * np.arange(self.n_cells) / self.n_cells
            self._true_rsrp = partial(_crossing_rsrp, self._model, self._phases)
        else:
            raise ConfigError(f"unknown mobility model kind {kind!r}")
        self.noise_std = as_real(noise_std, "noise_std", ge=0)
        self.rlf_threshold = as_real(rlf_threshold, "rlf_threshold")
        self.pingpong_window = as_count(pingpong_window, "pingpong_window", 1)
        self.hysteresis = as_real(hysteresis, "hysteresis")
        # The cells other than serving cell s, in order; shared by every observation.
        self._neighbor_cells = [tuple(c for c in range(self.n_cells) if c != s)
                                for s in range(self.n_cells)]

    def _obs(self, t: int) -> MroObservation:
        row = self._rsrp.at(t).tolist()  # true RSRP, which _step scores at t, then measured
        self._true_now, levels = row[: self.n_cells], row[self.n_cells:]
        serving = self._serving
        serving_level = levels[serving]
        # Consecutive-exceed bookkeeping against the serving cell, hysteresis
        # applied to the noisy measurements; reset on non-exceed.
        counts = self._counts
        for c, level in enumerate(levels):
            if c != serving and level - self.hysteresis > serving_level:
                counts[c] += 1
            else:
                counts[c] = 0
        nb = self._neighbor_cells[serving]
        return MroObservation(serving_level, tuple([levels[c] for c in nb]),
                              tuple([counts[c] for c in nb]), serving, nb)

    def _start(self, seed):
        self._rsrp = self.stream(STREAM_EXOGENOUS, per_step=self.n_cells,
                                 table=partial(_rsrp_table, self._true_rsrp, self.noise_std))
        self._serving = 0
        self._counts = [0] * self.n_cells
        self._last_ho_t: int | None = None
        self._pp_armed = False
        return self._obs(0)

    def _step(self, action):
        action = int(action)
        if not (0 <= action <= self.n_cells):
            raise InvalidActionError(f"action {action} outside [0, {self.n_cells}]")
        true_now = self._true_now
        pingpong = too_early = too_late = 0
        if action == 0:
            if true_now[self._serving] < self.rlf_threshold and any(
                level >= self.rlf_threshold
                for c, level in enumerate(true_now) if c != self._serving
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
            self._counts = [0] * self.n_cells
        reward = -float(pingpong + too_early + too_late)
        diagnostics = {
            "pingpong": float(pingpong),
            "too_early": float(too_early),
            "too_late": float(too_late),
            "serving": float(self._serving),
            "rsrp_serving_true": float(true_now[self._serving]),
        }
        return StepOutcome(self._obs(self.t + 1), reward, diagnostics)
