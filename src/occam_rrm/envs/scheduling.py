"""User scheduling on a single resource: serve one user per step, track
per-user EWMA throughput, reward the increment of the sum-log fairness
utility. Serving decisions feed back into the state, so the process is
endogenous."""

from __future__ import annotations

import numpy as np

from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS
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
        self.n_users = int(n_users)
        if self.n_users < 2:
            raise ConfigError("n_users must be >= 2")
        self.mean_efficiency = (
            np.asarray(mean_efficiency, dtype=float)
            if mean_efficiency is not None
            else np.ones(self.n_users)
        )
        if self.mean_efficiency.shape != (self.n_users,):
            raise ConfigError("mean_efficiency needs one entry per user")
        if np.any(self.mean_efficiency <= 0):
            raise ConfigError("mean_efficiency entries must be > 0")
        if fading not in ("exponential", "none"):
            raise ConfigError(f"unknown fading model {fading!r}")
        self.fading = fading
        self.full_buffer = arrival_rates is None
        self.arrival_rates = (
            None if self.full_buffer else np.asarray(arrival_rates, dtype=float)
        )
        if not self.full_buffer and self.arrival_rates.shape != (self.n_users,):
            raise ConfigError("arrival_rates needs one entry per user")
        self.ewma_alpha = float(ewma_alpha)
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ConfigError("ewma_alpha must lie in (0, 1]")
        self.weights = (
            np.asarray(weights, dtype=float) if weights is not None else np.ones(self.n_users)
        )
        if self.weights.shape != (self.n_users,):
            raise ConfigError("weights needs one entry per user")

    def efficiency_at(self, t: int) -> np.ndarray:
        if self.fading == "none":
            return self.mean_efficiency.copy()
        u = self._fade_stream.values(t)
        return self.mean_efficiency * -np.log1p(-u)

    def _utility(self) -> float:
        return float(np.sum(self.weights * np.log(self._avg + EWMA_FLOOR)))

    def _obs(self, t: int) -> dict:
        return {
            "spectral_eff": self.efficiency_at(t),
            "avg_throughput": self._avg.copy(),
            "backlogs": None if self.full_buffer else self._backlogs.copy(),
        }

    def _start(self, seed):
        self._fade_stream = self.stream(
            STREAM_EXOGENOUS, per_step=self.n_users, kind="uniform"
        )
        self._avg = np.full(self.n_users, EWMA_FLOOR)
        self._backlogs = np.zeros(self.n_users)
        return self._obs(0)

    def _step(self, action):
        user = int(action)
        if not (0 <= user < self.n_users):
            raise InvalidActionError(f"user {user} outside [0, {self.n_users})")
        eff = self.efficiency_at(self.t)
        if self.full_buffer:
            achieved = float(eff[user])
        else:
            self._backlogs += self.arrival_rates
            achieved = float(min(self._backlogs[user], eff[user]))
            self._backlogs[user] -= achieved
        before = self._utility()
        served = np.zeros(self.n_users)
        served[user] = achieved
        self._avg = np.maximum((1 - self.ewma_alpha) * self._avg + self.ewma_alpha * served, EWMA_FLOOR)
        reward = self._utility() - before
        diagnostics = {"served_user": float(user), "achieved": achieved}
        diagnostics.update({f"thr_{u}": float(served[u]) for u in range(self.n_users)})
        return StepOutcome(observation=self._obs(self.t + 1), reward=reward, diagnostics=diagnostics)
