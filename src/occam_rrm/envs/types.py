"""Value types shared by the environments and solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        self.noise_power = float(self.noise_power)
        if self.noise_power <= 0:
            raise ConfigError(f"noise_power must be > 0, got {self.noise_power}")

    @property
    def n_users(self) -> int:
        return self.entries.shape[0]

    @property
    def n_tx(self) -> int:
        return self.entries.shape[1]


@dataclass
class MroObservation:
    """Handover measurement snapshot: serving RSRP, neighbor RSRPs and the
    per-neighbor count of consecutive steps the neighbor exceeded serving
    RSRP by the configured hysteresis."""

    rsrp_serving: float
    rsrp_neighbors: np.ndarray
    exceed_count: np.ndarray
    serving_cell: int = 0
    neighbor_cells: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def __post_init__(self):
        self.rsrp_neighbors = np.asarray(self.rsrp_neighbors, dtype=float)
        self.exceed_count = np.asarray(self.exceed_count, dtype=int)
        self.neighbor_cells = np.asarray(self.neighbor_cells, dtype=int)
        if min(self.exceed_count.ravel().tolist(), default=0) < 0:
            raise ConfigError("exceed_count must be nonnegative")
