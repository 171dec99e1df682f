"""Beam tracking: a hidden per-beam RSRP field, smooth across beams and AR(1)
in time, from which an agent may measure a few beams per step and must pick
one to serve. Measuring costs a per-beam penalty; the field ignores actions.

A step commits BeamAction(measure, serve): a measurement subset and a served
beam, with serve="best" meaning the argmax of that subset. A tracker that
places the served beam from what it measured first calls measure(beams) to
read the current column, then commits a BeamAction over those same beams;
the step charges that subset once. A step takes no other action form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..config import as_real
from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STEP_BLOCK, STREAM_EXOGENOUS
from .base import RrmEnv

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
        # an n x n covariance and a stream block of n beams per step
        self.n_beams = self.size("n_beams", n_beams, 2, lambda n: max(n * n, STEP_BLOCK * n))
        self.ue_speed = as_real(ue_speed, "ue_speed")
        self.spatial_corr = as_real(spatial_corr, "spatial_corr", gt=0)
        if temporal_corr is None:
            temporal_corr = max(0.0, 1.0 - as_real(speed_to_corr, "speed_to_corr") * self.ue_speed)
        self.temporal_corr = as_real(temporal_corr, "temporal_corr", ge=0, lt=1)
        self._mix = np.sqrt(1.0 - self.temporal_corr**2)
        self.measure_cost = as_real(measure_cost, "measure_cost")
        self.mean_rsrp = as_real(mean_rsrp, "mean_rsrp")
        self.rsrp_std = as_real(rsrp_std, "rsrp_std", ge=0)
        idx = np.arange(self.n_beams, dtype=float)
        cov = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * self.spatial_corr**2))
        self._chol = np.linalg.cholesky(cov + _JITTER * np.eye(self.n_beams))
        self._field: np.ndarray | None = None
        self._rsrp: list | None = None
        self._pending: tuple | None = None
        self._beams_in = self._beams_checked = None

    def _innovation(self, t: int) -> np.ndarray:
        return self._chol @ self._noise.at(t)

    def _start(self, seed):
        self._noise = self.stream(STREAM_EXOGENOUS, per_step=self.n_beams)
        self._field = self._innovation(0)
        self._rsrp = self.current_rsrp().tolist()  # what measure() and the step read
        self._pending = None
        return {}

    def current_rsrp(self) -> np.ndarray:
        """True per-beam RSRP (dB) of the current step; hidden state."""
        if self._field is None:
            raise ConfigError(f"{self.name} env read before reset(seed)")
        return self.mean_rsrp + self.rsrp_std * self._field

    def _check_beams(self, beams) -> tuple:
        # Trackers pass one tuple again and again (full-scan every step,
        # knn-tracker to measure() and then in its BeamAction), so the last
        # one checked is kept; holding it keeps its id from being reused.
        if beams is self._beams_in and type(beams) is tuple:
            return self._beams_checked
        checked = tuple(int(b) for b in beams)
        if len(set(checked)) != len(checked):
            raise InvalidActionError(f"duplicate beams in measurement set {checked}")
        for b in checked:
            if not (0 <= b < self.n_beams):
                raise InvalidActionError(f"beam {b} outside [0, {self.n_beams})")
        self._beams_in, self._beams_checked = beams, checked
        return checked

    def measure(self, beams) -> dict[int, float]:
        """Read the current-step RSRP of the given beams; the per-beam cost is
        charged when the step commits."""
        if self._rsrp is None:
            raise ConfigError(f"{self.name} env measured before reset(seed)")
        if self._pending is not None:
            raise InvalidActionError("measure() called twice in one step")
        beams = self._check_beams(beams)
        self._pending = beams
        return {b: self._rsrp[b] for b in beams}

    def _step(self, action):
        if not isinstance(action, BeamAction):
            raise InvalidActionError(f"beamforming takes a BeamAction, got {action!r}")
        measured = self._check_beams(action.measure)
        if self._pending is not None and set(measured) != set(self._pending):
            raise InvalidActionError(
                f"BeamAction measures {measured} but measure() read {self._pending}"
            )
        serve = action.serve
        self._pending = None
        rsrp = self._rsrp
        if isinstance(serve, str):
            if serve != SERVE_BEST:
                raise InvalidActionError(f"unknown serve directive {serve!r}")
            if not measured:
                raise InvalidActionError("empty serve decision: nothing measured")
            serve = min(measured, key=lambda b: (-rsrp[b], b))
        serve = int(serve)
        if not (0 <= serve < self.n_beams):
            raise InvalidActionError(f"served beam {serve} outside [0, {self.n_beams})")
        optimal = rsrp.index(max(rsrp))  # the first maximum, as argmax
        reward = rsrp[serve] - self.measure_cost * len(measured)
        diagnostics = {
            "served_beam": float(serve),
            "optimal_beam": float(optimal),
            "rsrp_served": rsrp[serve],
            "rsrp_optimal": rsrp[optimal],
            "n_measured": float(len(measured)),
        }
        self._field = self.temporal_corr * self._field + self._mix * self._innovation(self.t + 1)
        self._rsrp = self.current_rsrp().tolist()
        obs = {b: rsrp[b] for b in measured}
        return StepOutcome(obs, reward, diagnostics)
