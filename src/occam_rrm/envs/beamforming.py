"""Beam tracking: a hidden per-beam RSRP field, smooth across beams and AR(1)
in time, from which an agent may measure a few beams per step and must pick
one to serve. Measuring costs a per-beam penalty; the field ignores actions.

A step commits BeamAction(measure, serve): a measurement subset and a served
beam, with serve="best" meaning the argmax of that subset. A tracker that
places the served beam from what it measured first calls measure(beams) to
read the current column, then commits a BeamAction over those same beams;
the step charges that subset once. A bare beam index after measure() serves
it with the measured set charged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS
from .base import RrmEnv
from .types import RsrpField

SERVE_BEST = "best"


class BeamAction(NamedTuple):
    measure: tuple
    serve: object  # beam index or SERVE_BEST


_JITTER = 1e-9


class BeamformingEnv(RrmEnv):
    name = "beamforming"

    def __init__(
        self,
        n_beams=16,
        ue_speed=1.0,
        spatial_corr=2.0,
        temporal_corr=None,
        measure_cost=0.1,
        mean_rsrp=-80.0,
        rsrp_std=10.0,
        speed_to_corr=0.01,
    ):
        super().__init__()
        self.n_beams = int(n_beams)
        if self.n_beams < 2:
            raise ConfigError("n_beams must be >= 2")
        self.ue_speed = float(ue_speed)
        self.spatial_corr = float(spatial_corr)
        if self.spatial_corr <= 0:
            raise ConfigError("spatial_corr must be > 0")
        if temporal_corr is None:
            temporal_corr = max(0.0, 1.0 - float(speed_to_corr) * self.ue_speed)
        self.temporal_corr = float(temporal_corr)
        if not (0.0 <= self.temporal_corr < 1.0):
            raise ConfigError(f"temporal_corr must lie in [0, 1), got {self.temporal_corr}")
        self.measure_cost = float(measure_cost)
        self.mean_rsrp = float(mean_rsrp)
        self.rsrp_std = float(rsrp_std)
        idx = np.arange(self.n_beams, dtype=float)
        cov = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * self.spatial_corr**2))
        self._chol = np.linalg.cholesky(cov + _JITTER * np.eye(self.n_beams))
        self._field: np.ndarray | None = None
        self._pending: tuple | None = None

    def _innovation(self, t: int) -> np.ndarray:
        return self._chol @ self._noise.values(t)

    def _start(self, seed):
        self._noise = self.stream(STREAM_EXOGENOUS, per_step=self.n_beams)
        self._field = self._innovation(0)
        self._pending = None
        return {}

    def current_rsrp(self) -> np.ndarray:
        """True per-beam RSRP (dB) of the current step; hidden state."""
        return self.mean_rsrp + self.rsrp_std * self._field

    def rsrp_trace(self, n_steps: int) -> RsrpField:
        """Full field for this seed over n_steps, recomputed from the streams.
        Matches what the env serves while stepping; used by plots and tests."""
        rho = self.temporal_corr
        mix = np.sqrt(1.0 - rho**2)
        f = self._innovation(0)
        cols = [f.copy()]
        for t in range(1, n_steps):
            f = rho * f + mix * self._innovation(t)
            cols.append(f.copy())
        return RsrpField(values=self.mean_rsrp + self.rsrp_std * np.stack(cols, axis=1))

    def _check_beams(self, beams) -> tuple:
        beams = tuple(int(b) for b in beams)
        if len(set(beams)) != len(beams):
            raise InvalidActionError(f"duplicate beams in measurement set {beams}")
        for b in beams:
            if not (0 <= b < self.n_beams):
                raise InvalidActionError(f"beam {b} outside [0, {self.n_beams})")
        return beams

    def measure(self, beams) -> dict[int, float]:
        """Read the current-step RSRP of the given beams; the per-beam cost is
        charged when the step commits."""
        if self._pending is not None:
            raise InvalidActionError("measure() called twice in one step")
        beams = self._check_beams(beams)
        self._pending = beams
        rsrp = self.current_rsrp()
        return {b: float(rsrp[b]) for b in beams}

    def _step(self, action):
        if isinstance(action, BeamAction):
            measured = self._check_beams(action.measure)
            if self._pending is not None and set(measured) != set(self._pending):
                raise InvalidActionError(
                    f"BeamAction measures {measured} but measure() read {self._pending}"
                )
            serve = action.serve
        else:
            measured = self._pending if self._pending is not None else ()
            serve = action
        self._pending = None
        rsrp = self.current_rsrp()
        if isinstance(serve, str):
            if serve != SERVE_BEST:
                raise InvalidActionError(f"unknown serve directive {serve!r}")
            if not measured:
                raise InvalidActionError("empty serve decision: nothing measured")
            serve = min(measured, key=lambda b: (-rsrp[b], b))
        serve = int(serve)
        if not (0 <= serve < self.n_beams):
            raise InvalidActionError(f"served beam {serve} outside [0, {self.n_beams})")
        optimal = int(np.argmax(rsrp))
        reward = float(rsrp[serve]) - self.measure_cost * len(measured)
        diagnostics = {
            "served_beam": float(serve),
            "optimal_beam": float(optimal),
            "rsrp_served": float(rsrp[serve]),
            "rsrp_optimal": float(rsrp[optimal]),
            "n_measured": float(len(measured)),
        }
        rho = self.temporal_corr
        self._field = rho * self._field + np.sqrt(1.0 - rho**2) * self._innovation(self.t + 1)
        obs = {b: float(rsrp[b]) for b in measured}
        return StepOutcome(observation=obs, reward=reward, diagnostics=diagnostics)
