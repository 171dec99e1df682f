import itertools
import tracemalloc

import numpy as np
import pytest

from occam_rrm import ConfigError, NotTractableError, TabularMdp, planning
from occam_rrm.agents import MpcEnergyAgent, es_oracle_predictor
from occam_rrm.envs import BeamformingEnv, EnergySavingEnv, TabularEnv
from occam_rrm.planning import (
    DeterministicModel,
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
        q = mdp.reward + mdp.discount * (mdp.transition @ vt.values)
        assert np.max(np.abs(q.max(axis=1) - vt.values)) < 1e-6


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
    env = TabularEnv(np.ones((1, 2, 1)), [[0.3, 0.7]], 0.0, reward_noise_std=0.3)
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
    env = TabularEnv(transition, reward, 0.9)
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
    env = TabularEnv(mdp.transition, mdp.reward, mdp.discount)
    table = q_learning(env, episodes=4, horizon=5000, epsilon=0.3, seed=2)
    want = value_iteration(mdp, 1e-9).policy
    assert np.array_equal(table.greedy_policy(), want)


def test_q_learning_deterministic_in_seed():
    tables = np.ones((2, 2, 2)) / 2, [[0.0, 1.0], [1.0, 0.0]], 0.9
    t1 = q_learning(TabularEnv(*tables), episodes=2, horizon=200, seed=3)
    t2 = q_learning(TabularEnv(*tables), episodes=2, horizon=200, seed=3)
    assert np.array_equal(t1.q, t2.q)
    assert np.array_equal(t1.visits, t2.visits)


def test_q_learning_zero_learning_rate_leaves_q_at_zero():
    env = TabularEnv(np.ones((2, 2, 2)) / 2, [[0.0, 1.0], [1.0, 0.0]], 0.9)
    table = q_learning(env, episodes=2, horizon=200, alpha=0.0, seed=3)
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


def test_mpc_refuses_a_tabular_model():
    mdp = random_mdp(np.random.default_rng(8), 5, 3)
    with pytest.raises(ConfigError, match="cannot plan over model type TabularMdp") as err:
        mpc_plan(mdp, 0, horizon=1)
    assert len(str(err.value).splitlines()) == 1


def _chain_step(s, a, exo):
    if a == 1:
        return min(s + 1, 3), -0.2
    return s, (0.0, 0.1, 0.3, 1.0)[s]


# (root state, distinct states at depths 1..H-1, first action): the counts are those
# of the memoized recursive planner this level-by-level one replaced.
ES_BUDGET_TRAJ = [1.5, 2.5, 0.5, 3.0]
ES_BUDGET_CASES = [((-1, -1, -1, -1, 0.0), 353, (1, 2, 3)), ((0, 2, -1, 1, 1.25), 1140, (0, 1, 3))]


@pytest.mark.parametrize("block_edges", [planning.MPC_BLOCK_EDGES, 40])
def test_mpc_node_budget_counts_distinct_states(monkeypatch, block_edges):
    # 40 edges: the energy plans expand two states at a time
    monkeypatch.setattr(planning, "MPC_BLOCK_EDGES", block_edges)
    chain = DeterministicModel(actions=lambda s: (0, 1), step=_chain_step)
    for h, n in ((4, 9), (6, 17)):
        assert mpc_plan(chain, 0, h, exo_trajectory=[None] * h, discount=1.0, node_budget=n) == 1
        with pytest.raises(ConfigError, match="node budget"):
            mpc_plan(chain, 0, h, exo_trajectory=[None] * h, discount=1.0, node_budget=n - 1)

    env = EnergySavingEnv(capacity=[0.3, 0.9, 1.7, 0.55], power_draw=[0.1, 0.35, 0.9, 0.2],
                          qos_threshold=1.5)
    env.reset(0)
    agent = MpcEnergyAgent(env, lambda obs, k: ES_BUDGET_TRAJ[:k], horizon=4)
    for state, n, first in ES_BUDGET_CASES:
        plan = mpc_plan(agent.model, state, 4, exo_trajectory=ES_BUDGET_TRAJ, node_budget=n)
        assert plan == first
        with pytest.raises(ConfigError, match="node budget"):
            mpc_plan(agent.model, state, 4, exo_trajectory=ES_BUDGET_TRAJ, node_budget=n - 1)


def test_mpc_energy_decision_holds_one_block_of_deepest_edges():
    # 2,048 subsets: from the all-off root, the second level holds 2,048
    # states and 4.2M (state, action) pairs, 16 bytes each if all were kept
    env = EnergySavingEnv(n_resources=11)
    agent = MpcEnergyAgent(env, es_oracle_predictor(env), horizon=2)
    obs = env.reset(0)
    tracemalloc.start()
    try:
        agent.act(obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20, f"peak {peak / 2**20:.0f} MiB"


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
    env = EnergySavingEnv()
    agent = MpcEnergyAgent(env, lambda obs, k: [0.0] * (k + 1), horizon=2)
    with pytest.raises(ConfigError, match="length must equal the horizon"):
        agent.act(env.reset(0))
