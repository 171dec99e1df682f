"""Power control across independent point-to-point channels under a total
power budget. Gains are block fading: redrawn every coherence interval,
unaffected by the chosen allocation."""

from __future__ import annotations

import numpy as np

from ..core import StepOutcome
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS
from .base import RrmEnv


class PowerEnv(RrmEnv):
    name = "power_control"

    def __init__(self, n_channels=4, total_power=4.0, noise=1.0, coherence=50,
                 mean_gain=1.0, fixed_gains=None):
        super().__init__()
        self.n_channels = int(n_channels)
        self.total_power = float(total_power)
        self.noise = float(noise)
        self.coherence = int(coherence)
        self.mean_gain = float(mean_gain)
        if self.n_channels < 1:
            raise ConfigError("n_channels must be >= 1")
        if self.total_power <= 0:
            raise ConfigError("total_power must be > 0")
        if self.noise <= 0:
            raise ConfigError("noise must be > 0")
        if self.coherence < 1:
            raise ConfigError("coherence must be >= 1")
        if fixed_gains is None:
            self.fixed_gains = None
        else:
            self.fixed_gains = np.asarray(fixed_gains, dtype=float)
            if self.fixed_gains.shape != (self.n_channels,):
                raise ConfigError("fixed_gains must list one gain per channel")
            if np.any(self.fixed_gains < 0):
                raise ConfigError("fixed_gains must be nonnegative")

    def gains_at(self, t: int) -> np.ndarray:
        """Block-fading gains for step t: exponential draws indexed by the
        coherence block, a pure function of (seed, t). Constant when the env
        was built with fixed_gains."""
        if self.fixed_gains is not None:
            return self.fixed_gains.copy()
        block = t // self.coherence
        u = self._gain_stream.values(block)
        return self.mean_gain * -np.log1p(-u)

    def _start(self, seed):
        self._gain_stream = self.stream(
            STREAM_EXOGENOUS, per_step=self.n_channels, kind="uniform"
        )
        return {"gains": self.gains_at(0), "noise": self.noise, "total_power": self.total_power}

    def _step(self, action):
        p = np.asarray(action, dtype=float)
        if p.shape != (self.n_channels,):
            raise InvalidActionError(
                f"power vector shape {p.shape} != ({self.n_channels},)"
            )
        if np.any(p < 0):
            raise InvalidActionError("power levels must be nonnegative")
        if p.sum() > self.total_power * (1 + 1e-9):
            raise InvalidActionError(
                f"sum power {p.sum()!r} exceeds budget {self.total_power!r}"
            )
        gains = self.gains_at(self.t)
        reward = float(np.sum(np.log2(1.0 + p * gains / self.noise)))
        obs = {
            "gains": self.gains_at(self.t + 1),
            "noise": self.noise,
            "total_power": self.total_power,
        }
        return StepOutcome(observation=obs, reward=reward, diagnostics={"sum_power": float(p.sum())})

    def hidden_state(self) -> np.ndarray:
        return self.gains_at(self.t)
