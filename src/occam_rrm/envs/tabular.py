"""Explicit finite MDPs as environments: the config's transition and reward
tables are both the env's dynamics and the exact MDP that planners read."""

from __future__ import annotations

import numpy as np

from ..config import as_count, as_real
from ..core import DEFAULT_DISCOUNT, StepOutcome, TabularMdp
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_ACTION, substream
from .base import RrmEnv, _action_index


class TabularEnv(RrmEnv):
    """Environment driven by nested tables transition[s][a][s'] and
    reward[s][a], checked as a TabularMdp. Observations are state indices;
    rewards are the table entries plus optional Gaussian noise."""

    name = "tabular"

    def __init__(self, transition, reward, discount=DEFAULT_DISCOUNT, initial_state=0,
                 reward_noise_std=0.0):
        super().__init__()
        P = np.asarray(transition, dtype=float)
        if P.ndim != 3:
            raise ConfigError("transition must be [n_states][n_actions][n_states]")
        self.mdp = mdp = TabularMdp(P.shape[0], P.shape[1], P, reward, discount)
        self.discount = mdp.discount
        self.initial_state = as_count(initial_state, "initial_state", 0)
        if self.initial_state >= mdp.n_states:
            raise ConfigError(f"initial_state {initial_state} outside [0, {mdp.n_states})")
        self.reward_noise_std = as_real(reward_noise_std, "reward_noise_std", ge=0)

    @property
    def n_states(self) -> int:
        return self.mdp.n_states

    def state_index(self, obs) -> int:
        return int(obs)

    def action_list(self) -> list[int]:
        return list(range(self.mdp.n_actions))

    def _start(self, seed):
        self._gen = substream(seed, STREAM_ACTION)
        self._state = self.initial_state
        return self._state

    def _step(self, action):
        a = action if type(action) is int else _action_index(action, "action")
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
