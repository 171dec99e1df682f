import numpy as np
import pytest

from occam_rrm import ConfigError, TabularMdp, run_episode, replay_episode
from occam_rrm.agents import (
    AcceptAllAgent,
    DppEnergyAgent,
    EsThresholdAgent,
    FixedMcsAgent,
    GreedyHoAgent,
    IllaOllaAgent,
    MaxRateAgent,
    MinEnergyAgent,
    MpcEnergyAgent,
    MroAgent,
    PfAgent,
    RoundRobinAgent,
    TablePolicyAgent,
    ThompsonMcsAgent,
    TrunkAgent,
    UniformPowerAgent,
    WaterFillAgent,
    es_oracle_predictor,
    es_persistence_predictor,
    full_scan_tracker,
    knn_beam_tracker,
)
from occam_rrm.core import metrics_summary
from occam_rrm.envs import (
    AdmissionEnv,
    BeamformingEnv,
    EnergySavingEnv,
    HandoverEnv,
    LinkAdaptEnv,
    PowerEnv,
    SchedulingEnv,
    TabularEnv,
)
from occam_rrm.planning import value_iteration
from occam_rrm.rules import EsThresholds, MroParams


SPIKE_TRACE = [0.0] * 5 + [4.0] + [0.0] * 14


def spike_env():
    return EnergySavingEnv(
        n_resources=4,
        activation_delay=2,
        traffic={"trace": SPIKE_TRACE, "noise_std": 0.0},
        qos_threshold=2.0,
        qos_weight=50.0,
        energy_weight=1.0,
    )


def test_mpc_preheats_for_spike_greedy_does_not():
    horizon = len(SPIKE_TRACE)
    env = spike_env()
    env.reset(0)
    mpc = MpcEnergyAgent(env, es_oracle_predictor(env), horizon=5)
    mpc_log = run_episode(spike_env(), mpc, horizon=horizon, seed=0)

    env2 = spike_env()
    env2.reset(0)
    greedy = MpcEnergyAgent(env2, es_oracle_predictor(env2), horizon=1)
    greedy_log = run_episode(spike_env(), greedy, horizon=horizon, seed=0)

    assert sum(s.diagnostics["violation"] for s in mpc_log.steps) == 0
    assert sum(s.diagnostics["violation"] for s in greedy_log.steps) > 0
    assert mpc_log.rewards.sum() > greedy_log.rewards.sum()


def test_mpc_reward_monotone_in_horizon_on_spike():
    horizon = len(SPIKE_TRACE)
    totals = []
    for h in (1, 2, 3, 5, 8):
        env = spike_env()
        env.reset(0)
        agent = MpcEnergyAgent(env, es_oracle_predictor(env), horizon=h)
        log = run_episode(spike_env(), agent, horizon=horizon, seed=0)
        totals.append(log.rewards.sum())
    assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))


def test_mpc_persistence_predictor_runs():
    env = spike_env()
    env.reset(0)
    agent = MpcEnergyAgent(env, es_persistence_predictor(), horizon=3)
    log = run_episode(spike_env(), agent, horizon=10, seed=0)
    assert len(log.steps) == 10


def test_dpp_agent_serves_min_energy_agent_drowns():
    cfg = dict(
        n_resources=2,
        activation_delay=0,
        traffic={"kind": "constant", "base": 1.0, "noise_std": 0.0},
        qos_threshold=3.0,
    )
    dpp_log = run_episode(
        EnergySavingEnv(**cfg), DppEnergyAgent(EnergySavingEnv(**cfg)), horizon=200, seed=1
    )
    lazy_log = run_episode(EnergySavingEnv(**cfg), MinEnergyAgent(), horizon=200, seed=1)
    assert dpp_log.steps[-1].diagnostics["backlog"] < 3.0
    assert lazy_log.steps[-1].diagnostics["backlog"] > 100.0


def test_es_threshold_agent_scales_with_demand():
    env = EnergySavingEnv(
        n_resources=4, activation_delay=0,
        traffic={"kind": "constant", "base": 2.0, "noise_std": 0.0},
    )
    agent = EsThresholdAgent(env, EsThresholds(lower=0.3, upper=0.9))
    obs = env.reset(0)
    sizes = []
    for _ in range(10):
        a = agent.act(obs)
        obs = env.step(a).observation
        sizes.append(len(a))
    # steady state: 2.0 units of demand on unit-capacity resources
    assert sizes[-1] == 3  # backlog 0 + traffic 2 -> load 0.5 -> k=3 (util 2/3)


def test_table_policy_agent_follows_vi():
    rng = np.random.default_rng(0)
    transition = rng.dirichlet(np.ones(4), size=(4, 3))
    reward = rng.uniform(0, 1, size=(4, 3))
    mdp = TabularMdp(4, 3, transition, reward, 0.9)
    vt = value_iteration(mdp, 1e-9)
    env = TabularEnv(mdp)
    agent = TablePolicyAgent(env, vt.policy)
    log = run_episode(env, agent, horizon=50, seed=2)
    for rec in log.steps:
        assert rec.action == vt.policy[int(rec.observation)]


def test_water_fill_agent_beats_uniform():
    wf = run_episode(PowerEnv(), WaterFillAgent(), horizon=200, seed=3)
    un = run_episode(PowerEnv(), UniformPowerAgent(), horizon=200, seed=3)
    assert wf.rewards.sum() >= un.rewards.sum() - 1e-9


def test_scheduling_agents_run_and_differ():
    # heterogeneous mean efficiencies: max-rate starves the weak users
    env_cfg = dict(n_users=4, mean_efficiency=[4.0, 1.0, 0.5, 0.25])
    pf = run_episode(SchedulingEnv(**env_cfg), PfAgent(), horizon=300, seed=4)
    rr = run_episode(SchedulingEnv(**env_cfg), RoundRobinAgent(), horizon=300, seed=4)
    mr = run_episode(SchedulingEnv(**env_cfg), MaxRateAgent(), horizon=300, seed=4)
    pf_m = metrics_summary([pf], kind="scheduling")
    rr_m = metrics_summary([rr], kind="scheduling")
    mr_m = metrics_summary([mr], kind="scheduling")
    assert pf_m.sum_log_throughput > mr_m.sum_log_throughput
    assert pf_m.sum_log_throughput >= rr_m.sum_log_throughput


def test_la_agents_smoke():
    env = LinkAdaptEnv()
    log1 = run_episode(env, IllaOllaAgent(env.s50), horizon=500, seed=5)
    log2 = run_episode(LinkAdaptEnv(), ThompsonMcsAgent(env.rates), horizon=500, seed=5)
    log3 = run_episode(LinkAdaptEnv(), FixedMcsAgent(0), horizon=500, seed=5)
    assert log2.rewards.sum() > 0
    assert log1.rewards.sum() > log3.rewards.sum()


def test_trunk_agent_reserves_for_high_priority():
    env = AdmissionEnv(
        capacity=4,
        classes=[
            {"arrival_rate": 0.1, "departure_rate": 0.05, "reward": 5.0, "reject_penalty": 1.0},
            {"arrival_rate": 0.4, "departure_rate": 0.05, "reward": 1.0, "reject_penalty": 0.1},
        ],
    )
    agent = TrunkAgent(env, thresholds=[0.0, 2.0])
    obs = env.reset(0)
    # with 3 of 4 slots used, low priority must be rejected, high accepted
    rule = agent.act({"counts": (1, 2), "used": 3.0, "capacity": 4.0})
    assert rule == (1, 0)
    log = run_episode(env, agent, horizon=200, seed=6)
    assert all(s.diagnostics["used"] <= 4.0 for s in log.steps)


def test_accept_all_agent_shape():
    env = AdmissionEnv(
        capacity=20,
        classes=[
            {"arrival_rate": 0.2, "departure_rate": 0.01, "reward": 2.0, "reject_penalty": 1.0},
            {"arrival_rate": 0.2, "departure_rate": 0.01, "reward": 1.0, "reject_penalty": 0.2},
        ],
    )
    log = run_episode(env, AcceptAllAgent(2), horizon=100, seed=7)
    assert len(log.steps) == 100


def test_handover_agents_smoke():
    cfg = dict(
        n_cells=2, noise_std=4.0,
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -90.0},
    )
    mro = run_episode(HandoverEnv(**cfg), MroAgent(MroParams()), horizon=400, seed=8)
    greedy = run_episode(HandoverEnv(**cfg), GreedyHoAgent(), horizon=400, seed=8)
    assert mro.rewards.sum() >= greedy.rewards.sum()


def test_full_scan_tracker_perfect():
    log = full_scan_tracker(BeamformingEnv(n_beams=8), horizon=60, seed=9)
    assert metrics_summary([log], kind="beam").accuracy == 1.0


def test_knn_tracker_reasonable_and_replayable():
    env = BeamformingEnv(n_beams=8, ue_speed=1.0)
    log = knn_beam_tracker(env, budget_per_step=2, horizon=120, seed=10)
    acc = metrics_summary([log], kind="beam").accuracy
    assert acc > 1.0 / 8  # far better than random serving
    replayed = replay_episode(BeamformingEnv(n_beams=8, ue_speed=1.0), log)
    assert np.array_equal(replayed.rewards, log.rewards)


def test_knn_budget_validated():
    with pytest.raises(ConfigError):
        knn_beam_tracker(BeamformingEnv(), budget_per_step=0)
