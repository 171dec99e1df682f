import itertools

import numpy as np
import pytest

from occam_rrm import ConfigError, NotTractableError, TabularMdp
from occam_rrm.envs import BeamformingEnv, TabularEnv
from occam_rrm.planning import (
    DeterministicModel,
    Predictor,
    bellman_residual,
    hyperbolic_schedule,
    mpc_plan,
    policy_iteration,
    q_learning,
    value_iteration,
)


def random_mdp(rng, n_states, n_actions, discount=0.9):
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(-1, 1, size=(n_states, n_actions))
    return TabularMdp(n_states, n_actions, transition, reward, discount)


def evaluate_policy_exact(mdp, policy):
    n = mdp.n_states
    p = mdp.transition[np.arange(n), policy]
    r = mdp.reward[np.arange(n), policy]
    return np.linalg.solve(np.eye(n) - mdp.discount * p, r)


# ---------------------------------------------------------------- value iteration


def test_vi_single_state_closed_form():
    mdp = TabularMdp(1, 2, np.ones((1, 2, 1)), np.array([[1.0, 2.0]]), 0.5)
    vt = value_iteration(mdp, tol=1e-10)
    assert vt.values[0] == pytest.approx(4.0, abs=1e-9)
    assert vt.policy[0] == 1


def test_vi_zero_rewards():
    rng = np.random.default_rng(0)
    mdp = random_mdp(rng, 4, 2)
    mdp = TabularMdp(4, 2, mdp.transition, np.zeros((4, 2)), 0.9)
    vt = value_iteration(mdp, tol=1e-10)
    assert np.allclose(vt.values, 0.0, atol=1e-9)


def test_vi_matches_policy_enumeration():
    # Optimal values must equal the best over all 3^6 stationary
    # deterministic policies, each evaluated by exact linear solve.
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 6, 3)
    vt = value_iteration(mdp, tol=1e-9)
    best = np.full(6, -np.inf)
    for policy in itertools.product(range(3), repeat=6):
        v = evaluate_policy_exact(mdp, np.array(policy))
        best = np.maximum(best, v)
    assert np.allclose(evaluate_policy_exact(mdp, vt.policy), best, atol=1e-6)
    assert np.allclose(vt.values, best, atol=1e-6)


def test_vi_bellman_residual_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mdp = random_mdp(rng, 5, 3, discount=0.95)
        vt = value_iteration(mdp, tol=1e-6)
        assert bellman_residual(mdp, vt.values) < 1e-6


def test_vi_policy_is_greedy():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, 7, 4)
    vt = value_iteration(mdp, tol=1e-10)
    q = mdp.reward + mdp.discount * (mdp.transition @ vt.values)
    assert np.all(q[np.arange(7), vt.policy] >= q.max(axis=1) - 1e-9)


# ---------------------------------------------------------------- policy iteration


def test_pi_deterministic_chain_path_sum():
    # 0 -> 1 -> 2 -> 3 (absorbing, zero reward); single action.
    n = 4
    transition = np.zeros((n, 1, n))
    for s in range(n - 1):
        transition[s, 0, s + 1] = 1.0
    transition[n - 1, 0, n - 1] = 1.0
    rewards = np.array([[1.0], [2.0], [3.0], [0.0]])
    mdp = TabularMdp(n, 1, transition, rewards, 0.9)
    vt = policy_iteration(mdp)
    want = 1.0 + 0.9 * 2.0 + 0.81 * 3.0
    assert vt.values[0] == pytest.approx(want, abs=1e-9)


def test_pi_agrees_with_vi():
    rng = np.random.default_rng(4)
    mdp = random_mdp(rng, 6, 3)
    assert np.array_equal(policy_iteration(mdp).policy, value_iteration(mdp, 1e-9).policy)


def test_pi_vi_agree_on_many_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n_states = int(rng.integers(2, 9))
        n_actions = int(rng.integers(2, 4))
        mdp = random_mdp(rng, n_states, n_actions, discount=float(rng.uniform(0.5, 0.98)))
        pi_pol = policy_iteration(mdp).policy
        vi_pol = value_iteration(mdp, 1e-10).policy
        assert np.array_equal(pi_pol, vi_pol)


def test_pi_stops_immediately_when_optimal():
    # Action 0 strictly dominates everywhere, so the initial policy is optimal.
    rng = np.random.default_rng(6)
    transition = rng.dirichlet(np.ones(3), size=(3, 2))
    reward = np.column_stack([np.ones(3), np.zeros(3)])
    mdp = TabularMdp(3, 2, transition, reward, 0.9)
    vt = policy_iteration(mdp)
    assert np.array_equal(vt.policy, np.zeros(3, dtype=int))


# ---------------------------------------------------------------- Q-learning


def test_q_learning_bandit_matches_sample_mean():
    mdp = TabularMdp(1, 2, np.ones((1, 2, 1)), np.array([[0.3, 0.7]]), 0.0)
    env = TabularEnv(mdp, reward_noise_std=0.3)
    table = q_learning(
        env,
        episodes=1,
        horizon=10_000,
        alpha=hyperbolic_schedule(0.5, tau=200),
        epsilon=0.5,
        seed=0,
    )
    assert table.q[0, 0] == pytest.approx(0.3, abs=0.05)
    assert table.q[0, 1] == pytest.approx(0.7, abs=0.05)


def test_q_learning_greedy_lock_in_pathology():
    # Zero exploration from a zero table on positive rewards: the first
    # action tried is never abandoned.
    rng = np.random.default_rng(7)
    transition = rng.dirichlet(np.ones(3), size=(3, 2))
    reward = rng.uniform(0.5, 1.0, size=(3, 2))
    env = TabularEnv(TabularMdp(3, 2, transition, reward, 0.9))
    table = q_learning(env, episodes=2, horizon=500, epsilon=0.0, seed=1)
    assert np.all(table.visits[:, 1] == 0)
    assert table.visits[:, 0].sum() == 1000


def test_q_learning_recovers_optimal_policy():
    # Deterministic 3-state loop where action 1 is better in every state.
    transition = np.zeros((3, 2, 3))
    for s in range(3):
        transition[s, 0, (s + 1) % 3] = 1.0
        transition[s, 1, (s + 2) % 3] = 1.0
    reward = np.array([[0.0, 1.0], [0.1, 0.8], [0.0, 0.9]])
    mdp = TabularMdp(3, 2, transition, reward, 0.9)
    env = TabularEnv(mdp)
    table = q_learning(env, episodes=4, horizon=5000, epsilon=0.3, seed=2)
    want = value_iteration(mdp, 1e-9).policy
    assert np.array_equal(table.greedy_policy(), want)


def test_q_learning_deterministic_in_seed():
    mdp = TabularMdp(2, 2, np.ones((2, 2, 2)) / 2, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.9)
    t1 = q_learning(TabularEnv(mdp), episodes=2, horizon=200, seed=3)
    t2 = q_learning(TabularEnv(mdp), episodes=2, horizon=200, seed=3)
    assert np.array_equal(t1.q, t2.q)
    assert np.array_equal(t1.visits, t2.visits)


def test_q_learning_zero_learning_rate_leaves_q_at_zero():
    mdp = TabularMdp(2, 2, np.ones((2, 2, 2)) / 2, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.9)
    table = q_learning(TabularEnv(mdp), episodes=2, horizon=200, alpha=0.0, seed=3)
    assert np.all(table.q == 0.0)
    assert table.visits.sum() == 400


def test_q_learning_rejects_continuous_env():
    with pytest.raises(NotTractableError):
        q_learning(BeamformingEnv(), episodes=1)


def test_schedule_validation():
    s = hyperbolic_schedule(0.5, tau=100)
    assert s(0) == 0.5
    assert s(100) == 0.25
    with pytest.raises(ConfigError):
        hyperbolic_schedule(-0.1)


# ---------------------------------------------------------------- MPC


def test_mpc_h1_is_greedy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mdp = random_mdp(rng, 5, 3)
        s = int(rng.integers(5))
        assert mpc_plan(mdp, s, horizon=1) == int(np.argmax(mdp.reward[s]))


def test_mpc_matches_exhaustive_paths():
    # Deterministic 4-state ring; enumerate every action path of length 4.
    n, beta = 4, 0.9
    rng = np.random.default_rng(9)
    transition = np.zeros((n, 2, n))
    nxt = {(s, a): int((s + 1 + a) % n) for s in range(n) for a in range(2)}
    for (s, a), s2 in nxt.items():
        transition[s, a, s2] = 1.0
    reward = rng.uniform(-1, 1, size=(n, 2))
    mdp = TabularMdp(n, 2, transition, reward, beta)

    def path_value(s0, path):
        total, s = 0.0, s0
        for k, a in enumerate(path):
            total += beta**k * reward[s, a]
            s = nxt[(s, a)]
        return total

    for s0 in range(n):
        best = max(
            (path_value(s0, p), p) for p in itertools.product(range(2), repeat=4)
        )
        chosen = mpc_plan(mdp, s0, horizon=4)
        best_with_chosen = max(
            path_value(s0, (chosen,) + p) for p in itertools.product(range(2), repeat=3)
        )
        assert best_with_chosen == pytest.approx(best[0], abs=1e-12)


def test_mpc_node_budget():
    rng = np.random.default_rng(10)
    mdp = random_mdp(rng, 10, 4)
    with pytest.raises(ConfigError, match="reduce the horizon"):
        mpc_plan(mdp, 0, horizon=100, node_budget=1000)


def test_mpc_deterministic_model_lookahead():
    # Stock 1 unit now (cost 1) or pay 5 per unit of unmet demand later.
    def actions(state):
        return (0, 1)

    def step(state, order, demand):
        stock = state + order
        unmet = max(demand - stock, 0.0)
        reward = -1.0 * order - 5.0 * unmet
        return max(stock - demand, 0.0), reward

    model = DeterministicModel(actions=actions, step=step)
    greedy = mpc_plan(model, 0.0, horizon=1, exo_trajectory=[0.0], discount=1.0)
    assert greedy == 0  # no demand now, ordering only costs
    farsighted = mpc_plan(
        model, 0.0, horizon=3, exo_trajectory=[0.0, 0.0, 3.0], discount=1.0
    )
    assert farsighted == 1  # stockpile ahead of the spike


def test_mpc_deterministic_requires_trajectory():
    model = DeterministicModel(actions=lambda s: (0,), step=lambda s, a, e: (s, 0.0))
    with pytest.raises(ConfigError):
        mpc_plan(model, 0, horizon=3)
    with pytest.raises(ConfigError):
        mpc_plan(model, 0, horizon=3, exo_trajectory=[1.0])


# ---------------------------------------------------------------- predictors


def test_predictor_length_enforced():
    p = Predictor(lambda obs, k: [0.0] * (k + 1))
    with pytest.raises(ConfigError):
        p.predict(None, 2)
