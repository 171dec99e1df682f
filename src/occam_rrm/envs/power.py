"""Power control across independent point-to-point channels under a total
power budget. Gains are block fading: redrawn every coherence interval,
unaffected by the chosen allocation."""

from __future__ import annotations

from functools import partial

import numpy as np

from ..config import as_count, as_real, as_reals
from ..core import StepOutcome
from ..errors import InvalidActionError
from ..rng import STEP_BLOCK, STREAM_EXOGENOUS, exponential
from .base import RrmEnv


class PowerEnv(RrmEnv):
    name = "power_control"

    def __init__(self, n_channels=4, total_power=4.0, noise=1.0, coherence=50,
                 mean_gain=1.0, fixed_gains=None):
        super().__init__()
        self.n_channels = self.size("n_channels", n_channels, 1, lambda n: STEP_BLOCK * n)
        self.total_power = as_real(total_power, "total_power", gt=0)
        self.noise = as_real(noise, "noise", gt=0)
        self.coherence = as_count(coherence, "coherence", 1)
        self.mean_gain = as_real(mean_gain, "mean_gain", ge=0)
        if fixed_gains is None:
            self.fixed_gains = None
        else:
            gains = as_reals(fixed_gains, "fixed_gains", (self.n_channels,), ge=0)
            self.fixed_gains = gains.copy()  # shared by every observation, so read-only
            self.fixed_gains.flags.writeable = False

    def _gains(self, t: int) -> np.ndarray:
        """Read-only gains of step t: exponential draws shared by a coherence
        block, a pure function of (seed, t); fixed_gains when the env has them."""
        if self.fixed_gains is not None:
            return self.fixed_gains
        return self._gain_stream.at(t // self.coherence)

    def _start(self, seed):
        self._gain_stream = self.stream(
            STREAM_EXOGENOUS, per_step=self.n_channels, kind="uniform",
            table=partial(exponential, self.mean_gain),
        )
        return {"gains": self._gains(0), "noise": self.noise, "total_power": self.total_power}

    def _step(self, action):
        p = np.asarray(action, dtype=float)
        if p.shape != (self.n_channels,):
            raise InvalidActionError(
                f"power vector shape {p.shape} != ({self.n_channels},)"
            )
        if (p < 0).any():
            raise InvalidActionError("power levels must be nonnegative")
        sum_power = p.sum()
        if sum_power > self.total_power * (1 + 1e-9):
            raise InvalidActionError(
                f"sum power {sum_power!r} exceeds budget {self.total_power!r}"
            )
        gains = self._gains(self.t)
        reward = float(np.log2(1.0 + p * gains / self.noise).sum())
        obs = {
            "gains": self._gains(self.t + 1),
            "noise": self.noise,
            "total_power": self.total_power,
        }
        return StepOutcome(obs, reward, {"sum_power": float(sum_power)})
