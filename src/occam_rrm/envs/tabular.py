"""Explicit finite MDPs as environments, plus the exact-extraction hook that
planners use to obtain transition and reward tables from compatible envs."""

from __future__ import annotations

import numpy as np

from ..core import DEFAULT_DISCOUNT, StepOutcome, TabularMdp
from ..errors import ConfigError, InvalidActionError, NotTractableError
from ..rng import STREAM_ACTION, substream
from .base import RrmEnv


class TabularEnv(RrmEnv):
    """Environment driven by an explicit TabularMdp. Observations are state
    indices; rewards are the table entries plus optional Gaussian noise."""

    name = "tabular"

    def __init__(self, mdp: TabularMdp, initial_state: int = 0, reward_noise_std: float = 0.0):
        super().__init__()
        self.mdp = mdp
        self.initial_state = int(initial_state)
        if not (0 <= self.initial_state < mdp.n_states):
            raise ConfigError(f"initial_state {initial_state} outside [0, {mdp.n_states})")
        self.reward_noise_std = float(reward_noise_std)
        if self.reward_noise_std < 0:
            raise ConfigError("reward_noise_std must be >= 0")

    @property
    def n_states(self) -> int:
        return self.mdp.n_states

    @property
    def discount(self) -> float:
        return self.mdp.discount

    def state_index(self, obs) -> int:
        return int(obs)

    def action_list(self) -> list[int]:
        return list(range(self.mdp.n_actions))

    def _start(self, seed):
        self._gen = substream(seed, STREAM_ACTION)
        self._state = self.initial_state
        return self._state

    def _step(self, action):
        a = int(action)
        if not (0 <= a < self.mdp.n_actions):
            raise InvalidActionError(f"action {a} outside [0, {self.mdp.n_actions})")
        s = self._state
        # One categorical and one normal draw per step, state-independent
        # counts, so replays stay aligned.
        u = self._gen.random()
        noise = self._gen.standard_normal()
        nxt = int(np.searchsorted(np.cumsum(self.mdp.transition[s, a]), u, side="right"))
        nxt = min(nxt, self.mdp.n_states - 1)
        reward = float(self.mdp.reward[s, a]) + self.reward_noise_std * float(noise)
        self._state = nxt
        return StepOutcome(nxt, reward, {"state": float(s)})

    def true_mdp(self) -> TabularMdp:
        return self.mdp


def env_true_mdp(env) -> TabularMdp:
    """Exact (transition, reward, discount) tables of an enumerable env.
    Envs with continuous or non-enumerated state refuse."""
    hook = getattr(env, "true_mdp", None)
    if hook is None:
        raise NotTractableError(
            f"{getattr(env, 'name', type(env).__name__)}: not tractable; "
            "state space is not finitely enumerable"
        )
    return hook()


def tabular_env(
    transition, reward, discount=DEFAULT_DISCOUNT, initial_state=0, reward_noise_std=0.0
) -> TabularEnv:
    """TabularEnv from nested tables: transition[s][a][s'] and reward[s][a]."""
    P = np.asarray(transition, dtype=float)
    if P.ndim != 3:
        raise ConfigError("transition must be [n_states][n_actions][n_states]")
    mdp = TabularMdp(
        n_states=P.shape[0],
        n_actions=P.shape[1],
        transition=P,
        reward=np.asarray(reward, dtype=float),
        discount=float(discount),
    )
    return TabularEnv(mdp, initial_state, reward_noise_std)
