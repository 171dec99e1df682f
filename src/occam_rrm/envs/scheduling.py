"""User scheduling on a single resource: serve one user per step, track
per-user EWMA throughput, reward the increment of the sum-log fairness
utility. Serving decisions feed back into the state, so the process is
endogenous."""

from __future__ import annotations

from functools import partial

import numpy as np

from ..config import as_real, as_reals
from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STEP_BLOCK, STREAM_EXOGENOUS, exponential
from .base import RrmEnv

EWMA_FLOOR = 1e-6


class SchedulingEnv(RrmEnv):
    name = "scheduling"

    def __init__(
        self,
        n_users=4,
        mean_efficiency=None,
        fading="exponential",
        arrival_rates=None,
        ewma_alpha=0.1,
        weights=None,
    ):
        super().__init__()
        self.n_users = self.size("n_users", n_users, 2, lambda n: STEP_BLOCK * n)
        if mean_efficiency is None:
            mean_efficiency = np.ones(self.n_users)
        self.mean_efficiency = as_reals(mean_efficiency, "mean_efficiency", (self.n_users,), gt=0)
        if fading not in ("exponential", "none"):
            raise ConfigError(f"unknown fading model {fading!r}")
        self._mean_row = self.mean_efficiency.copy()
        self._mean_row.flags.writeable = False
        self.fading = fading
        self.full_buffer = arrival_rates is None
        self.arrival_rates = (None if self.full_buffer else
                              as_reals(arrival_rates, "arrival_rates", (self.n_users,), ge=0))
        self.ewma_alpha = as_real(ewma_alpha, "ewma_alpha", gt=0, le=1)
        self.weights = as_reals(np.ones(self.n_users) if weights is None else weights,
                                "weights", (self.n_users,))
        self._thr_keys = [f"thr_{u}" for u in range(self.n_users)]

    def _efficiency_row(self, t: int) -> np.ndarray:
        """Spectral efficiencies of step t as a read-only row."""
        return self._mean_row if self.fading == "none" else self._fade_stream.at(t)

    def _utility(self) -> float:
        return float((self.weights * np.log(self._avg + EWMA_FLOOR)).sum())

    def _obs(self, t: int) -> dict:
        # the next _step serves the row it observed, so it is looked up once
        self._eff = self._efficiency_row(t)
        return {
            "spectral_eff": self._eff,
            "avg_throughput": self._avg.copy(),
            "backlogs": None if self.full_buffer else self._backlogs.copy(),
        }

    def _start(self, seed):
        self._fade_stream = self.stream(
            STREAM_EXOGENOUS, per_step=self.n_users, kind="uniform",
            table=partial(exponential, self.mean_efficiency),
        )
        self._avg = np.full(self.n_users, EWMA_FLOOR)
        self._utility_now = self._utility()
        self._backlogs = np.zeros(self.n_users)
        return self._obs(0)

    def _step(self, action):
        user = int(action)
        if not (0 <= user < self.n_users):
            raise InvalidActionError(f"user {user} outside [0, {self.n_users})")
        eff = self._eff
        if self.full_buffer:
            achieved = float(eff[user])
        else:
            self._backlogs += self.arrival_rates
            achieved = float(min(self._backlogs[user], eff[user]))
            self._backlogs[user] -= achieved
        before = self._utility_now
        # the unserved users' EWMA terms add alpha * 0.0, which changes no bit
        avg = (1 - self.ewma_alpha) * self._avg
        avg[user] += self.ewma_alpha * achieved
        self._avg = np.maximum(avg, EWMA_FLOOR)
        self._utility_now = self._utility()
        reward = self._utility_now - before
        diagnostics = {"served_user": float(user), "achieved": achieved}
        diagnostics.update(dict.fromkeys(self._thr_keys, 0.0))
        diagnostics[self._thr_keys[user]] = achieved
        return StepOutcome(self._obs(self.t + 1), reward, diagnostics)
