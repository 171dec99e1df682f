"""Link adaptation: pick a modulation-and-coding scheme against a fading SINR.

The SINR trajectory is AR(1) in dB and evolves independently of the actions.
Each step the chosen MCS succeeds with probability 1 - BLER(mcs, sinr), where
the BLER curves are logistic in SINR; the reward is the MCS rate on ACK and
zero on NACK.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..config import as_real, as_reals
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_ACTION, STREAM_EXOGENOUS, scalars
from .base import RrmEnv, _action_index
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
        self.n_mcs = self.size("n_mcs", n_mcs, 1)
        if rates is None:
            rates = 0.5 * (1 + np.arange(self.n_mcs))
        if s50 is None:
            s50 = np.linspace(0.0, 14.0, self.n_mcs)
        self.rates = as_reals(rates, "rates", (self.n_mcs,))
        self.s50 = as_reals(s50, "s50", (self.n_mcs,))
        if np.any(np.diff(self.rates) <= 0):
            raise ConfigError("rates must be strictly increasing with MCS index")
        if np.any(np.diff(self.s50) < 0):
            raise ConfigError("s50 thresholds must be nondecreasing with MCS index")
        self.bler_slope = as_real(bler_slope, "bler_slope", gt=0)  # BLER decreasing in SINR
        self.sinr_mean = as_real(sinr_mean, "sinr_mean")
        self.ar_coeff = as_real(ar_coeff, "ar_coeff", ge=0, lt=1)
        self.innovation_std = as_real(innovation_std, "innovation_std", ge=0)
        self.report_noise_std = as_real(report_noise_std, "report_noise_std", ge=0)
        self._sinr = 0.0

    def bler(self, mcs: int, sinr_db: float) -> float:
        x = float(self.bler_slope * (self.s50[mcs] - sinr_db))
        try:
            return 1.0 / (1.0 + math.exp(-x))
        except OverflowError:
            # math.exp raises where numpy's exp returns inf: x below about
            # -709.78, an SINR far above s50, where the BLER is 0.
            return 0.0

    def _report(self, t: int) -> float:
        noise = self.report_noise_std * self._report_stream.at(t)
        return self._sinr + noise

    def _start(self, seed):
        self._innov = self.stream(STREAM_EXOGENOUS, table=scalars)
        self._ack_stream = self.stream(STREAM_ACTION, kind="uniform", table=scalars)
        self._report_stream = self.stream(_STREAM_REPORT, table=scalars)
        stationary_std = self.innovation_std / np.sqrt(1.0 - self.ar_coeff**2)
        self._sinr = self.sinr_mean + stationary_std * self._innov.at(0)
        return LaObs(self._report(0), None)

    def _step(self, action):
        mcs = action if type(action) is int else _action_index(action, "mcs")
        if not (0 <= mcs < self.n_mcs):
            raise InvalidActionError(f"mcs {mcs} outside [0, {self.n_mcs})")
        bler = self.bler(mcs, self._sinr)
        ack = self._ack_stream.at(self.t) >= bler
        rate = float(self.rates[mcs])
        reward = rate if ack else 0.0
        diagnostics = {
            "sinr": float(self._sinr),
            "bler": float(bler),
            "ack": float(ack),
            "rate": rate,
        }
        # SINR advances regardless of the action taken.
        t_next = self.t + 1
        self._sinr = (
            self.sinr_mean
            + self.ar_coeff * (self._sinr - self.sinr_mean)
            + self.innovation_std * self._innov.at(t_next)
        )
        obs = LaObs(self._report(t_next), bool(ack))
        return StepOutcome(obs, reward, diagnostics)
