"""Link adaptation: pick a modulation-and-coding scheme against a fading SINR.

The SINR trajectory is AR(1) in dB and evolves independently of the actions.
Each step the chosen MCS succeeds with probability 1 - BLER(mcs, sinr), where
the BLER curves are logistic in SINR; the reward is the MCS rate on ACK and
zero on NACK.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.special import expit

from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_ACTION, STREAM_EXOGENOUS
from .base import RrmEnv
from ..core import StepOutcome

_STREAM_REPORT = 2


class LaObs(NamedTuple):
    sinr_report: float
    ack: bool | None


class LinkAdaptEnv(RrmEnv):
    name = "link_adaptation"

    def __init__(
        self,
        n_mcs=8,
        rates=None,
        s50=None,
        bler_slope=1.0,
        sinr_mean=10.0,
        ar_coeff=0.95,
        innovation_std=1.0,
        report_noise_std=0.5,
    ):
        super().__init__()
        self.n_mcs = int(n_mcs)
        if self.n_mcs < 1:
            raise ConfigError("n_mcs must be >= 1")
        self.rates = (
            np.asarray(rates, dtype=float)
            if rates is not None
            else 0.5 * (1 + np.arange(self.n_mcs))
        )
        self.s50 = (
            np.asarray(s50, dtype=float)
            if s50 is not None
            else np.linspace(0.0, 14.0, self.n_mcs)
        )
        if self.rates.shape != (self.n_mcs,) or self.s50.shape != (self.n_mcs,):
            raise ConfigError("rates and s50 must have one entry per MCS")
        if np.any(np.diff(self.rates) <= 0):
            raise ConfigError("rates must be strictly increasing with MCS index")
        if np.any(np.diff(self.s50) < 0):
            raise ConfigError("s50 thresholds must be nondecreasing with MCS index")
        self.bler_slope = float(bler_slope)
        if self.bler_slope <= 0:
            raise ConfigError("bler_slope must be > 0 (BLER decreasing in SINR)")
        self.sinr_mean = float(sinr_mean)
        self.ar_coeff = float(ar_coeff)
        if not (0.0 <= self.ar_coeff < 1.0):
            raise ConfigError("ar_coeff must lie in [0, 1)")
        self.innovation_std = float(innovation_std)
        self.report_noise_std = float(report_noise_std)
        self._sinr = 0.0

    def bler(self, mcs: int, sinr_db: float) -> float:
        # expit form avoids exp overflow far from the s50 midpoint
        return float(expit(self.bler_slope * (self.s50[mcs] - sinr_db)))

    def _report(self, t: int) -> float:
        noise = self.report_noise_std * self._report_stream.value(t)
        return self._sinr + noise

    def _start(self, seed):
        self._innov = self.stream(STREAM_EXOGENOUS)
        self._ack_stream = self.stream(STREAM_ACTION, kind="uniform")
        self._report_stream = self.stream(_STREAM_REPORT)
        stationary_std = self.innovation_std / np.sqrt(1.0 - self.ar_coeff**2)
        self._sinr = self.sinr_mean + stationary_std * self._innov.value(0)
        return LaObs(sinr_report=self._report(0), ack=None)

    def _step(self, action):
        mcs = int(action)
        if not (0 <= mcs < self.n_mcs):
            raise InvalidActionError(f"mcs {mcs} outside [0, {self.n_mcs})")
        bler = self.bler(mcs, self._sinr)
        ack = self._ack_stream.value(self.t) >= bler
        reward = float(self.rates[mcs]) if ack else 0.0
        diagnostics = {
            "sinr": float(self._sinr),
            "bler": float(bler),
            "ack": float(ack),
            "rate": float(self.rates[mcs]),
        }
        # SINR advances regardless of the action taken.
        t_next = self.t + 1
        self._sinr = (
            self.sinr_mean
            + self.ar_coeff * (self._sinr - self.sinr_mean)
            + self.innovation_std * self._innov.value(t_next)
        )
        obs = LaObs(sinr_report=self._report(t_next), ack=bool(ack))
        return StepOutcome(observation=obs, reward=reward, diagnostics=diagnostics)

    def hidden_state(self) -> float:
        """Current true SINR in dB; exposed for exogeneity checks."""
        return self._sinr
