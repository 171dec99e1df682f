"""Long-horizon planners: exact dynamic programming on tabular MDPs, tabular
Q-learning against enumerable environments, and receding-horizon model
predictive control over deterministic models and a forecast."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import as_count, as_real
from .core import DEFAULT_DISCOUNT, TabularMdp
from .errors import ConfigError, NotTractableError, NumericalError
from .rng import derive_seed

MPC_NODE_BUDGET = 1_000_000
MPC_BLOCK_EDGES = 1 << 16  # (state, action) pairs the lookahead steps at once
Q_LEARNING_STEP_BUDGET = 10_000_000  # episodes x horizon, refused before training

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


def value_iteration(mdp: TabularMdp, tol: float = 1e-8) -> ValueTable:
    """Bellman optimality iteration, returning the values and greedy policy
    of the first sweep whose sup-norm change falls below
    tol*(1-beta)/(2*beta); those values are within tol of the fixed point.

    While the greedy policy keeps changing, the next sweep starts from that
    policy's exact values, solve(I - beta P_pi, r_pi), instead of from the
    sweep's own (modified policy iteration with exact evaluation, Puterman
    1994, section 6.5). Once the policy repeats, plain sweeps follow. A
    plain sweep with an unchanged policy that does not lower the change has
    hit the float64 floor, where the threshold may be out of reach (large
    rewards at a discount near one); the loop stops there too, and the
    returned values are then within beta/(1-beta) times that change of the
    fixed point. A sweep whose values overflow raises NumericalError."""
    tol = as_real(tol, "tol", gt=0)
    beta = mdp.discount
    stop = tol if beta == 0 else tol * (1.0 - beta) / (2.0 * beta)
    states = np.arange(mdp.n_states)
    eye = np.eye(mdp.n_states)
    v = np.zeros(mdp.n_states)
    policy, evaluating, last_change = None, True, np.inf
    while True:
        q = _q_from_values(mdp, v)
        v_next = q.max(axis=1)
        if not np.isfinite(v_next).all():
            raise NumericalError("value iteration overflowed: values are not finite")
        change = np.max(np.abs(v_next - v))
        if change < stop:
            return ValueTable(values=v_next, policy=q.argmax(axis=1))
        greedy = q.argmax(axis=1)
        repeated = policy is not None and np.array_equal(greedy, policy)
        if evaluating and not repeated:
            v = np.linalg.solve(eye - beta * mdp.transition[states, greedy],
                                mdp.reward[states, greedy])
        elif repeated and not change < last_change:  # the float64 floor
            return ValueTable(values=v_next, policy=greedy)
        else:
            evaluating, v, last_change = False, v_next, change
        policy = greedy


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
    x0 = as_real(x0, "x0", ge=0)
    tau = as_real(tau, "tau", gt=0)
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
    seed: exploration and env randomness both derive from it. The table is
    learned on rows of Python floats; the greedy action is the first
    maximizer, as argmax picks it. An update that leaves a Q value NaN or
    infinite raises NumericalError naming the training step."""
    _require_enumerable(env)
    episodes = as_count(episodes, "episodes", 1)
    horizon = as_count(horizon, "horizon", 1)
    if episodes * horizon > Q_LEARNING_STEP_BUDGET:
        raise ConfigError(f"{episodes} x {horizon} training steps exceed {Q_LEARNING_STEP_BUDGET}")
    alpha = alpha if alpha is not None else hyperbolic_schedule(ALPHA0_DEFAULT)
    epsilon = epsilon if epsilon is not None else hyperbolic_schedule(EPSILON0_DEFAULT)
    actions = env.action_list()
    n_s, n_a = env.n_states, len(actions)
    discount = float(env.discount)
    q = [[0.0] * n_a for _ in range(n_s)]
    visits = [[0] * n_a for _ in range(n_s)]
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
                a = q[s].index(max(q[s]))
            out = env.step(actions[a])
            s_next = env.state_index(out.observation)
            lr = alpha(t_global) if callable(alpha) else alpha
            target = out.reward + discount * max(q[s_next])
            q[s][a] += lr * (target - q[s][a])
            if not math.isfinite(q[s][a]):
                raise NumericalError(f"training step {t_global}: non-finite Q value {q[s][a]}")
            visits[s][a] += 1
            s = s_next
            t_global += 1
    return QTable(q=q, visits=visits)


# ---------------------------------------------------------------- MPC

@dataclass
class DeterministicModel:
    """Deterministic planning model: `actions(state)` lists choices and
    `step(state, action, exo)` returns (next_state, reward). Equal states at
    one depth are planned once, so states must be hashable.

    A model may give `expand(rows, exo)` in place of `step`, to step a whole
    level at once. Its states are then rows of numbers, two states being
    equal when every entry is. `rows` is an (m, w) array of states; it
    returns (parent, rewards, children): for each (state, action) edge, the
    index of its state row, its reward and its next-state row, with every
    state's edges in `actions(state)` order."""

    actions: callable
    step: callable = None
    expand: callable = None


def _per_state_expansion(model: DeterministicModel, state):
    """`expand` for a model that only gives `step`: one call per (state,
    action). Each state is interned to an integer id, so a level is a
    one-column id array and equal ids are states equal as dict keys."""
    ids, states = {}, [state]

    def expand(rows, exo):
        parent, rewards, children = [], [], []
        for i, sid in enumerate(rows[:, 0].tolist()):
            s = states[int(sid)]
            for a in model.actions(s):
                s2, r = model.step(s, a, exo)
                if s2 not in ids:
                    ids[s2] = len(states)
                    states.append(s2)
                parent.append(i)
                rewards.append(r)
                children.append(ids[s2])
        return (np.array(parent, dtype=np.intp), np.array(rewards, dtype=float),
                np.array(children, dtype=float).reshape(-1, 1))

    return expand, np.zeros((1, 1))


def _merge_rows(rows: np.ndarray):
    """Distinct rows (equal when every entry compares ==) and the index of
    each input row among them."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def _expand_level(expand, rows, exo, block: int):
    """Expand `rows` `block` states at a time, so that a level's temporary
    arrays stay small. Returns each edge's parent row and reward, each
    edge's index among the distinct next states, and those states."""
    parents, rewards, children, distinct, n_distinct = [], [], [], [], 0
    for i in range(0, max(len(rows), 1), block):
        parent, reward, child_rows = expand(rows[i:i + block], exo)
        parents.append(parent + i)
        rewards.append(reward)
        unique, index = _merge_rows(child_rows)
        children.append(index + n_distinct)
        distinct.append(unique)
        n_distinct += len(unique)
    parent, reward = np.concatenate(parents), np.concatenate(rewards)
    if len(distinct) == 1:  # one block: already distinct and sorted
        return parent, reward, children[0], distinct[0]
    next_rows, index = _merge_rows(np.concatenate(distinct))
    return parent, reward, index[np.concatenate(children)], next_rows


def _mpc_deterministic(
    model: DeterministicModel, state, exo_trajectory, discount: float, node_budget: int
):
    """Level by level: expand every distinct state of a depth against all its
    actions, merge equal next states, then take the best value backward.
    The deepest level below the root is folded into its states' values as
    it is expanded. The budget counts the distinct states at depths
    1..H-1, checked before a depth is expanded."""
    if model.expand is None:
        expand, rows = _per_state_expansion(model, state)
    else:
        expand, rows = model.expand, np.asarray(state, dtype=float)[None, :]
    block = max(1, MPC_BLOCK_EDGES // max(1, len(model.actions(state))))
    levels, counted = [], 0
    for k, exo in enumerate(exo_trajectory):
        if k:
            counted += len(rows)
            if counted > node_budget:
                raise ConfigError(
                    f"lookahead exceeded the node budget {node_budget}; "
                    "reduce the horizon"
                )
            if k + 1 == len(exo_trajectory):  # fold the deepest level, a block at a time
                value = np.full(len(rows), -np.inf)
                for i in range(0, len(rows), block):
                    parent, reward, _ = expand(rows[i:i + block], exo)
                    np.fmax.at(value, parent + i, reward + discount * 0.0)
                break
        n_states = len(rows)
        parent, rewards, child, rows = _expand_level(expand, rows, exo, block)
        levels.append((n_states, parent, rewards, child))
    else:  # a one-step plan: the root's next states have zero value
        value = np.zeros(len(rows))

    for n_states, parent, rewards, child in reversed(levels):
        q = rewards + discount * value[child]
        value = np.full(n_states, -np.inf)
        np.fmax.at(value, parent, q)  # skips NaN, as `max(best, v)` from -inf does
    # q holds the root's edge values; the first strict maximum wins
    best_a, best_v = None, -np.inf
    for a, v in zip(model.actions(state), q.tolist()):
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
    """Exact finite-horizon optimum of a deterministic model from the current
    state; returns only the first action (receding horizon, zero terminal
    value). The forecast exogenous trajectory's length sets the horizon. The
    model is searched one depth at a time, every distinct state of a depth
    expanded once, and `node_budget` bounds the distinct states at depths
    1..H-1. The shallower depths keep their (state, action) edges for the
    backward pass; the deepest one below the root is folded into its
    states' best values `MPC_BLOCK_EDGES` edges at a time, so its memory is
    one block.
    """
    horizon = as_count(horizon, "horizon", 1)
    if not isinstance(model, DeterministicModel):
        raise ConfigError(f"cannot plan over model type {type(model).__name__}")
    if exo_trajectory is None:
        raise ConfigError("deterministic models need an exo_trajectory")
    if len(exo_trajectory) != horizon:
        raise ConfigError("exo_trajectory length must equal the horizon")
    return _mpc_deterministic(model, current_state, list(exo_trajectory), discount, node_budget)
