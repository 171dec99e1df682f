"""Shared environment plumbing: seed bookkeeping and step counting."""

from __future__ import annotations

import math

import numpy as np

from .. import planning
from ..errors import ConfigError
from ..rng import StepStream


class RrmEnv:
    """Base for the seeded single-run environments.

    Subclasses implement _start(seed) returning the first observation and
    _step(action) returning a StepOutcome; this class tracks the step index
    available as self.t. Per-step randomness should come from streams built
    with self.stream(...) so that exogenous draws are a pure function of
    (seed, stream id, t).
    """

    name = "rrm"

    def __init__(self):
        self._seed: int | None = None
        self.t = 0

    @property
    def seed(self) -> int:
        if self._seed is None:
            raise ConfigError(f"{self.name} env used before reset(seed)")
        return self._seed

    def size(self, name: str, value, minimum: int, power: int = 1) -> int:
        """`value` as an int of at least `minimum`. The env's arrays hold
        value**power entries; a size asking for more than
        planning.MPC_NODE_BUDGET of them is refused before any is built."""
        n = int(value)
        if n < minimum:
            raise ConfigError(f"{name} must be >= {minimum}")
        if n**power > planning.MPC_NODE_BUDGET:
            raise ConfigError(
                f"{name} {n} needs {n**power} array entries, over the budget "
                f"{planning.MPC_NODE_BUDGET}; reduce {name}"
            )
        return n

    def real(self, name: str, value) -> float:
        """`value` as a finite float: JSON configs may carry NaN and
        Infinity, which no env parameter takes."""
        x = float(value)
        if not math.isfinite(x):
            raise ConfigError(f"{name} must be finite, got {x}")
        return x

    def reals(self, name: str, values) -> np.ndarray:
        """`values` as a float array of finite entries: real() for lists."""
        arr = np.asarray(values, dtype=float)
        if not np.isfinite(arr).all():
            raise ConfigError(f"{name} entries must be finite")
        return arr

    def check_dict(self, name: str, cfg: dict, reals, others=(), required=()) -> None:
        """Check a nested config dict, as check_config and real() do at the
        top level: no key outside `reals` and `others`, every `required` key
        present, and a finite value under each key of `reals`. The dict is
        left as it is, so stored values keep their types."""
        unknown = set(cfg) - set(reals) - set(others)
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        missing = sorted(set(required) - set(cfg))
        if missing:
            raise ConfigError(f"{name} missing required key '{missing[0]}'")
        for key, value in cfg.items():
            if key in reals:
                self.real(f"{name} {key}", value)

    def stream(self, stream_id: int, per_step: int = 1, kind: str = "normal") -> StepStream:
        return StepStream(self.seed, stream_id, per_step=per_step, kind=kind)

    def reset(self, seed: int):
        self._seed = int(seed)
        self.t = 0
        return self._start(self._seed)

    def step(self, action):
        if self._seed is None:
            raise ConfigError(f"{self.name} env stepped before reset(seed)")
        out = self._step(action)
        self.t += 1
        return out

    def _start(self, seed: int):
        raise NotImplementedError

    def _step(self, action):
        raise NotImplementedError
