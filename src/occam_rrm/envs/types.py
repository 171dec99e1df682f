"""Value types shared by the environments and solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..config import as_real
from ..errors import ConfigError


@dataclass
class ChannelMatrix:
    """Complex channel between a multi-antenna transmitter and single-antenna
    users. Row u holds the conjugated channel of user u, so that the effective
    gain of precoder column w for user u is entries[u] @ w."""

    entries: np.ndarray
    noise_power: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2:
            raise ConfigError(f"channel matrix must be 2-D, got shape {self.entries.shape}")
        if not np.all(np.isfinite(self.entries.view(float))):
            raise ConfigError("channel entries must be finite")
        self.noise_power = as_real(self.noise_power, "noise_power", gt=0)

    @property
    def n_users(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]


class MroObservation(NamedTuple):
    """Handover measurement snapshot: serving RSRP, then per neighbor (tuples
    of Python numbers) its RSRP and its count of consecutive steps above the
    serving RSRP by the configured hysteresis; the serving and neighbor cells."""

    rsrp_serving: float
    rsrp_neighbors: tuple
    exceed_count: tuple
    serving_cell: int
    neighbor_cells: tuple
