"""Shared environment plumbing: seed bookkeeping and step counting."""

from __future__ import annotations

from .. import planning
from ..config import _integer, as_count
from ..core import DEFAULT_DISCOUNT
from ..errors import ConfigError, InvalidActionError
from ..rng import StepStream


def _action_index(action, what: str) -> int:
    """An integer action, or an integer entry of one, as an int: it must
    pass the rule of config.as_count, so a bool, a float and a numeric
    string are refused, naming `what` and the action. Callers keep a plain
    int without this call, so its step costs no more than int(action)."""
    n = _integer(action)
    if n is None:
        raise InvalidActionError(f"{what} {action!r} is not an integer")
    return n


class RrmEnv:
    """Base for the seeded single-run environments.

    Subclasses implement _start(seed) returning the first observation and
    _step(action) returning a StepOutcome(observation, reward, diagnostics),
    whose rewards run_episode checks; this class tracks the step index as
    self.t and refuses a step before reset. Per-step randomness should come
    from streams built with self.stream(...) so that exogenous draws are a
    pure function of (seed, stream id, t).
    """

    name = "rrm"
    discount = DEFAULT_DISCOUNT

    def __init__(self):
        self._seed: int | None = None
        self.t = 0

    @property
    def seed(self) -> int:
        if self._seed is None:
            raise ConfigError(f"{self.name} env used before reset(seed)")
        return self._seed

    def size(self, name: str, value, minimum: int, entries=None) -> int:
        """`value` as a count of at least `minimum`, whose largest env array
        holds `entries(n)` entries (n when not given), checked by _budget."""
        n = as_count(value, name, minimum)
        count = n if entries is None else entries(n)
        self._budget(count, f"{name} {n} needs {count} array entries", name)
        return n

    @staticmethod
    def _budget(entries: int, what: str, key: str) -> None:
        """No env builds an array of more than planning.MPC_NODE_BUDGET
        entries: refuse `what`, before it is built, naming the config key."""
        if entries > planning.MPC_NODE_BUDGET:
            raise ConfigError(f"{what}, over the budget {planning.MPC_NODE_BUDGET}; reduce {key}")

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
