"""Long-horizon planners: exact dynamic programming on tabular MDPs, tabular
Q-learning against enumerable environments, and receding-horizon model
predictive control with pluggable forecasters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_DISCOUNT, TabularMdp
from .errors import ConfigError, NotTractableError, NumericalError
from .rng import derive_seed

MPC_NODE_BUDGET = 1_000_000

ALPHA0_DEFAULT = 0.5
EPSILON0_DEFAULT = 0.2
SCHEDULE_TAU_DEFAULT = 1e4


# ---------------------------------------------------------------- value tables

@dataclass
class ValueTable:
    values: np.ndarray
    policy: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.policy = np.asarray(self.policy, dtype=int)
        if self.values.shape != self.policy.shape:
            raise ConfigError("values and policy must have one entry per state")


def _q_from_values(mdp: TabularMdp, values: np.ndarray) -> np.ndarray:
    return mdp.reward + mdp.discount * (mdp.transition @ values)


def bellman_residual(mdp: TabularMdp, values: np.ndarray) -> float:
    return float(np.max(np.abs(_q_from_values(mdp, values).max(axis=1) - values)))


def value_iteration(mdp: TabularMdp, tol: float = 1e-8) -> ValueTable:
    """Bellman optimality iteration. The sup-norm stopping threshold
    tol*(1-beta)/(2*beta) guarantees the returned values are within tol of
    the fixed point."""
    if tol <= 0:
        raise ConfigError("tol must be positive")
    beta = mdp.discount
    stop = tol if beta == 0 else tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros(mdp.n_states)
    while True:
        q = _q_from_values(mdp, v)
        v_next = q.max(axis=1)
        if np.max(np.abs(v_next - v)) < stop:
            return ValueTable(values=v_next, policy=q.argmax(axis=1))
        v = v_next


def policy_iteration(mdp: TabularMdp) -> ValueTable:
    """Exact policy evaluation (linear solve) alternated with greedy
    improvement until the policy stops changing."""
    n = mdp.n_states
    policy = np.zeros(n, dtype=int)
    eye = np.eye(n)
    while True:
        p_pi = mdp.transition[np.arange(n), policy]
        r_pi = mdp.reward[np.arange(n), policy]
        try:
            values = np.linalg.solve(eye - mdp.discount * p_pi, r_pi)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("policy evaluation system is singular") from exc
        improved = _q_from_values(mdp, values).argmax(axis=1)
        if np.array_equal(improved, policy):
            return ValueTable(values=values, policy=policy)
        policy = improved


# ---------------------------------------------------------------- Q-learning

@dataclass
class QTable:
    q: np.ndarray
    visits: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.visits = np.asarray(self.visits, dtype=int)
        if self.q.shape != self.visits.shape:
            raise ConfigError("q and visits must share a (state, action) shape")
        if not np.all(np.isfinite(self.q)):
            raise ConfigError("q values must be finite")

    def greedy_policy(self) -> np.ndarray:
        return self.q.argmax(axis=1)


def hyperbolic_schedule(x0: float, tau: float = SCHEDULE_TAU_DEFAULT):
    """x_t = x0 / (1 + t / tau), the default decay for both learning rate
    and exploration."""
    if x0 < 0 or tau <= 0:
        raise ConfigError("schedule needs x0 >= 0 and tau > 0")
    return lambda t: x0 / (1.0 + t / tau)


def _require_enumerable(env):
    for attr in ("n_states", "state_index", "action_list"):
        if not hasattr(env, attr):
            raise NotTractableError(
                f"env {getattr(env, 'name', type(env).__name__)!r} is not enumerable: "
                f"missing {attr}"
            )


def q_learning(
    env,
    episodes: int,
    horizon: int = 1000,
    alpha=None,
    epsilon=None,
    seed: int = 0,
) -> QTable:
    """One-step tabular Q-learning with epsilon-greedy behavior. The env must
    expose n_states / state_index() / action_list(). Deterministic given the
    seed: exploration and env randomness both derive from it."""
    _require_enumerable(env)
    if episodes < 1 or horizon < 1:
        raise ConfigError("episodes and horizon must be >= 1")
    alpha = alpha if alpha is not None else hyperbolic_schedule(ALPHA0_DEFAULT)
    epsilon = epsilon if epsilon is not None else hyperbolic_schedule(EPSILON0_DEFAULT)
    actions = env.action_list()
    n_s, n_a = env.n_states, len(actions)
    discount = float(getattr(env, "discount", DEFAULT_DISCOUNT))
    q = np.zeros((n_s, n_a))
    visits = np.zeros((n_s, n_a), dtype=int)
    rng = np.random.default_rng(derive_seed(seed, 1))

    t_global = 0
    for ep in range(episodes):
        obs = env.reset(derive_seed(seed, 2 + ep))
        s = env.state_index(obs)
        for _ in range(horizon):
            eps = epsilon(t_global) if callable(epsilon) else epsilon
            if rng.random() < eps:
                a = int(rng.integers(n_a))
            else:
                a = int(q[s].argmax())
            out = env.step(actions[a])
            s_next = env.state_index(out.observation)
            lr = alpha(t_global) if callable(alpha) else alpha
            target = out.reward + discount * q[s_next].max()
            q[s, a] += lr * (target - q[s, a])
            visits[s, a] += 1
            s = s_next
            t_global += 1
            if out.done:
                break
    return QTable(q=q, visits=visits)


# ---------------------------------------------------------------- MPC

@dataclass
class Predictor:
    """Forecast wrapper: forecast(observation, k) must return exactly k
    exogenous values."""

    forecast: callable

    def predict(self, obs, k: int):
        traj = list(self.forecast(obs, k))
        if len(traj) != k:
            raise ConfigError(f"forecast returned {len(traj)} values, wanted {k}")
        return traj


@dataclass
class DeterministicModel:
    """Deterministic planning model: `actions(state)` lists choices and
    `step(state, action, exo)` returns (next_state, reward). States must be
    hashable for memoization."""

    actions: callable
    step: callable


def _mpc_tabular(mdp: TabularMdp, state: int, horizon: int, node_budget: int) -> int:
    nodes = mdp.n_states * mdp.n_actions * horizon
    if nodes > node_budget:
        raise ConfigError(
            f"backward induction needs {nodes} nodes, over the budget "
            f"{node_budget}; reduce the horizon"
        )
    v = np.zeros(mdp.n_states)
    q = None
    for _ in range(horizon):
        q = _q_from_values(mdp, v)
        v = q.max(axis=1)
    return int(q[state].argmax())


def _mpc_deterministic(
    model: DeterministicModel, state, exo_trajectory, discount: float, node_budget: int
) -> int:
    horizon = len(exo_trajectory)
    memo = {}
    counter = [0]

    def best_value(s, k):
        if k == horizon:
            return 0.0
        key = (s, k)
        if key in memo:
            return memo[key]
        counter[0] += 1
        if counter[0] > node_budget:
            raise ConfigError(
                f"lookahead exceeded the node budget {node_budget}; "
                "reduce the horizon"
            )
        best = -np.inf
        for a in model.actions(s):
            s2, r = model.step(s, a, exo_trajectory[k])
            best = max(best, r + discount * best_value(s2, k + 1))
        memo[key] = best
        return best

    best_a, best_v = None, -np.inf
    for a in model.actions(state):
        s2, r = model.step(state, a, exo_trajectory[0])
        v = r + discount * best_value(s2, 1)
        if v > best_v:
            best_a, best_v = a, v
    return best_a


def mpc_plan(
    model,
    current_state,
    horizon: int,
    exo_trajectory=None,
    discount: float = DEFAULT_DISCOUNT,
    node_budget: int = MPC_NODE_BUDGET,
):
    """Exact finite-horizon optimum from the current state; returns only the
    first action (receding horizon, zero terminal value).

    Tabular models run backward induction with the model's own discount;
    deterministic models take a forecast exogenous trajectory whose length
    sets the horizon.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if isinstance(model, TabularMdp):
        return _mpc_tabular(model, int(current_state), horizon, node_budget)
    if isinstance(model, DeterministicModel):
        if exo_trajectory is None:
            raise ConfigError("deterministic models need an exo_trajectory")
        if len(exo_trajectory) != horizon:
            raise ConfigError("exo_trajectory length must equal the horizon")
        return _mpc_deterministic(model, current_state, list(exo_trajectory), discount, node_budget)
    raise ConfigError(f"cannot plan over model type {type(model).__name__}")
