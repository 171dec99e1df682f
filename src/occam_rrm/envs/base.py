"""Shared environment plumbing: seed bookkeeping and step counting."""

from __future__ import annotations

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

    def stream(self, stream_id: int, per_step: int = 1, kind: str = "normal",
               table=None) -> StepStream:
        # a table that held the env would make a cycle, freed only by gc
        return StepStream(self.seed, stream_id, per_step=per_step, kind=kind, table=table)

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
