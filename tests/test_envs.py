import numpy as np
import pytest

from occam_rrm import (
    ConfigError,
    InvalidActionError,
    NotTractableError,
    ScriptedPolicy,
    TabularMdp,
    run_episode,
)
from occam_rrm.envs import (
    SERVE_BEST,
    AdmissionEnv,
    BeamAction,
    BeamformingEnv,
    EnergySavingEnv,
    HandoverEnv,
    LinkAdaptEnv,
    PowerEnv,
    RsrpField,
    SchedulingEnv,
    TabularEnv,
    env_true_mdp,
)
from occam_rrm.static_opt import water_fill


class RngPolicy:
    """Base for seeded random test policies."""

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)


# ================================================================ link adaptation


def test_la_certain_success_at_floor_mcs():
    env = LinkAdaptEnv(n_mcs=2, s50=[-1000.0, 0.0], rates=[1.0, 2.0])
    log = run_episode(env, lambda obs: 0, horizon=50, seed=1)
    assert np.all(log.rewards == 1.0)


def test_la_certain_failure_at_top_mcs():
    env = LinkAdaptEnv(
        n_mcs=2, s50=[0.0, 1000.0], rates=[1.0, 2.0], sinr_mean=5.0
    )
    log = run_episode(env, lambda obs: 1, horizon=50, seed=1)
    assert np.all(log.rewards == 0.0)


def test_la_fixed_mcs_binomial_oracle():
    # Constant SINR makes reward Bernoulli(rate, 1 - BLER); check the
    # Monte-Carlo mean against the binomial oracle within 3 sigma.
    env = LinkAdaptEnv(
        n_mcs=2, s50=[9.0, 12.0], rates=[1.0, 2.0],
        sinr_mean=10.0, ar_coeff=0.0, innovation_std=0.0,
    )
    n = 100_000
    log = run_episode(env, lambda obs: 0, horizon=n, seed=7)
    p_ack = 1.0 - env.bler(0, 10.0)
    sigma = np.sqrt(p_ack * (1 - p_ack) / n)
    assert abs(log.rewards.mean() - p_ack) <= 3 * sigma


def test_la_same_seed_identical_logs():
    env1 = LinkAdaptEnv()
    env2 = LinkAdaptEnv()
    pol = lambda obs: 3
    a = run_episode(env1, pol, horizon=200, seed=42)
    b = run_episode(env2, pol, horizon=200, seed=42)
    assert np.array_equal(a.rewards, b.rewards)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.diagnostics == sb.diagnostics


def test_la_invalid_mcs():
    env = LinkAdaptEnv(n_mcs=4)
    env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step(4)


def test_la_exogenous_hidden_state():
    # Bitwise-identical SINR path no matter which MCS sequence runs.
    traces = []
    for policy in (lambda o: 0, lambda o: 7):
        env = LinkAdaptEnv()
        log = run_episode(env, policy, horizon=300, seed=11)
        traces.append([s.diagnostics["sinr"] for s in log.steps])
    assert traces[0] == traces[1]


# ================================================================ power control


def test_pc_zero_gain_channel_zero_reward():
    env = PowerEnv(n_channels=2, fixed_gains=[0.0, 1.0], total_power=2.0)
    env.reset(0)
    out = env.step([2.0, 0.0])
    assert out.reward == 0.0


def test_pc_single_channel_formula():
    env = PowerEnv(n_channels=1, fixed_gains=[1.0], total_power=3.0, noise=1.0)
    env.reset(0)
    out = env.step([3.0])
    assert out.reward == pytest.approx(np.log2(4.0), abs=1e-12)


def test_pc_water_fill_beats_uniform():
    env = PowerEnv(n_channels=4, total_power=4.0, coherence=1)
    obs = env.reset(3)
    for _ in range(50):
        gains = obs["gains"]
        alloc = water_fill(gains, env.noise, env.total_power).powers
        r_wf = float(np.sum(np.log2(1 + alloc * gains / env.noise)))
        uniform = np.full(4, 1.0)
        r_u = float(np.sum(np.log2(1 + uniform * gains / env.noise)))
        assert r_wf >= r_u - 1e-12
        obs = env.step(alloc).observation


def test_pc_budget_violation_rejected():
    env = PowerEnv(n_channels=2, total_power=1.0)
    env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step([0.8, 0.8])
    with pytest.raises(InvalidActionError):
        env.step([-0.1, 0.5])


def test_pc_block_fading_and_exogeneity():
    env = PowerEnv(n_channels=3, coherence=10, total_power=1.0)
    env.reset(5)
    g0 = env.gains_at(0)
    assert np.array_equal(g0, env.gains_at(9))
    assert not np.array_equal(g0, env.gains_at(10))
    # gains_at is pure in t: action choices cannot move it.
    before = env.gains_at(123)
    env.step([1.0, 0.0, 0.0])
    env.step([0.0, 1.0, 0.0])
    assert np.array_equal(before, env.gains_at(123))


# ================================================================ beamforming


def test_bf_full_measurement_perfect_accuracy():
    env = BeamformingEnv(n_beams=6, measure_cost=0.0)
    all_beams = tuple(range(6))
    log = run_episode(
        env, lambda obs: BeamAction(measure=all_beams, serve=SERVE_BEST), horizon=100, seed=2
    )
    served = np.array([s.diagnostics["served_beam"] for s in log.steps])
    optimal = np.array([s.diagnostics["optimal_beam"] for s in log.steps])
    assert np.array_equal(served, optimal)


def test_bf_temporal_corr_one_rejected():
    with pytest.raises(ConfigError):
        BeamformingEnv(temporal_corr=1.0)


def test_bf_iid_beams_single_measurement_uniform_accuracy():
    # With no spatial correlation and one measured beam, any tracker hits the
    # optimum at the 1/n_beams base rate.
    n_beams, horizon = 8, 4000

    class OneBeam(RngPolicy):
        def act(self, obs):
            b = int(self.rng.integers(n_beams))
            return BeamAction(measure=(b,), serve=b)

    env = BeamformingEnv(
        n_beams=n_beams, spatial_corr=1e-3, temporal_corr=0.0, measure_cost=0.0
    )
    log = run_episode(env, OneBeam(), horizon=horizon, seed=3)
    hits = np.mean(
        [s.diagnostics["served_beam"] == s.diagnostics["optimal_beam"] for s in log.steps]
    )
    p = 1.0 / n_beams
    assert abs(hits - p) <= 3 * np.sqrt(p * (1 - p) / horizon)


def test_bf_two_phase_matches_one_shot():
    env1 = BeamformingEnv(n_beams=5, measure_cost=0.2)
    env2 = BeamformingEnv(n_beams=5, measure_cost=0.2)
    env1.reset(9)
    env2.reset(9)
    for t in range(20):
        vals = env1.measure((0, 2))
        out1 = env1.step(max(vals, key=lambda b: (vals[b], -b)))
        out2 = env2.step(BeamAction(measure=(0, 2), serve=SERVE_BEST))
        assert out1.reward == out2.reward
        assert out1.diagnostics == out2.diagnostics


def test_bf_measure_then_beam_action_charges_the_set_once():
    env1 = BeamformingEnv(n_beams=5, measure_cost=0.2)
    env2 = BeamformingEnv(n_beams=5, measure_cost=0.2)
    env1.reset(9)
    env2.reset(9)
    for t in range(20):
        env1.measure((0, 2))
        out1 = env1.step(BeamAction(measure=(2, 0), serve=SERVE_BEST))
        out2 = env2.step(BeamAction(measure=(0, 2), serve=SERVE_BEST))
        assert out1.reward == out2.reward
        assert out1.diagnostics == out2.diagnostics
    env1.measure((0, 2))
    with pytest.raises(InvalidActionError, match="measure\\(\\) read"):
        env1.step(BeamAction(measure=(0, 1), serve=0))


def test_bf_errors():
    env = BeamformingEnv(n_beams=4)
    env.reset(0)
    with pytest.raises(InvalidActionError, match="empty serve"):
        env.step(BeamAction(measure=(), serve=SERVE_BEST))
    with pytest.raises(InvalidActionError):
        env.step(BeamAction(measure=(0, 0), serve=0))
    with pytest.raises(InvalidActionError):
        env.step(BeamAction(measure=(7,), serve=0))
    env.measure((0,))
    with pytest.raises(InvalidActionError):
        env.measure((1,))


def test_bf_trace_consistent_with_stepping():
    env = BeamformingEnv(n_beams=6)
    trace = None
    env.reset(4)
    trace = env.rsrp_trace(30)
    for t in range(30):
        rsrp = env.current_rsrp()
        assert np.array_equal(rsrp, trace.values[:, t])
        env.step(BeamAction(measure=(0,), serve=0))


def test_bf_exogenous_field():
    logs = []
    for serve in (0, 3):
        env = BeamformingEnv(n_beams=4)
        log = run_episode(env, lambda obs, s=serve: s, horizon=50, seed=8)
        logs.append([st.diagnostics["rsrp_optimal"] for st in log.steps])
    assert logs[0] == logs[1]


def test_rsrp_field_optimal_beam_consistency():
    rng = np.random.default_rng(0)
    field = RsrpField(values=rng.normal(size=(5, 40)))
    opt = field.optimal_beam
    for t in range(40):
        col = field.values[:, t]
        assert col[opt[t]] == col.max()
        assert opt[t] == int(np.argmax(col))


# ================================================================ scheduling


def test_sc_single_backlogged_user_dominates():
    cfg = dict(n_users=3, arrival_rates=[1.0, 0.0, 0.0], fading="none")
    totals = []
    for user in range(3):
        env = SchedulingEnv(**cfg)
        log = run_episode(env, lambda obs, u=user: u, horizon=100, seed=1)
        totals.append(log.rewards.sum())
    assert totals[0] > totals[1]
    assert totals[0] > totals[2]


def test_sc_symmetric_users_round_robin_equalizes():
    # Round robin over identical users: each user's EWMA right after its own
    # turn converges to the same value.
    env = SchedulingEnv(n_users=2, fading="none", ewma_alpha=0.5)
    env.reset(0)
    snapshots = {0: None, 1: None}
    for t in range(41):
        user = t % 2
        snapshots[user] = env.step(user).observation["avg_throughput"][user]
    assert snapshots[0] == pytest.approx(snapshots[1], rel=1e-9)


def test_sc_invalid_user():
    env = SchedulingEnv(n_users=2)
    env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step(2)


def test_sc_endogenous_witness():
    # Two action sequences must disagree on the state trace under one seed.
    traces = []
    for user in (0, 1):
        env = SchedulingEnv(n_users=2)
        env.reset(6)
        trace = []
        for _ in range(10):
            out = env.step(user)
            trace.append(tuple(out.observation["avg_throughput"]))
        traces.append(trace)
    assert traces[0] != traces[1]


def test_sc_reward_is_utility_increment():
    env = SchedulingEnv(n_users=2, fading="none")
    from occam_rrm.envs import EWMA_FLOOR

    env.reset(0)
    util = lambda avg: float(np.sum(np.log(avg + EWMA_FLOOR)))
    prev = util(np.full(2, EWMA_FLOOR))
    total = 0.0
    obs = None
    for t in range(20):
        out = env.step(t % 2)
        total += out.reward
        obs = out.observation
    assert total == pytest.approx(util(obs["avg_throughput"]) - prev, abs=1e-9)


# ================================================================ energy saving


def test_es_all_off_no_traffic_zero_reward():
    env = EnergySavingEnv(
        n_resources=2, traffic={"kind": "constant", "base": 0.0, "noise_std": 0.0}
    )
    log = run_episode(env, lambda obs: (), horizon=30, seed=0)
    assert np.all(log.rewards == 0.0)


def test_es_activation_delay_blocks_service():
    env = EnergySavingEnv(
        n_resources=1,
        activation_delay=2,
        traffic={"kind": "constant", "base": 1.0, "noise_std": 0.0},
        qos_threshold=100.0,
    )
    env.reset(0)
    served = [env.step((0,)).diagnostics["served"] for _ in range(4)]
    # Two warming steps serve nothing, then the backlog drains at capacity 1.
    assert served[0] == 0.0
    assert served[1] == 0.0
    assert served[2] == 1.0
    assert served[3] == 1.0


def test_es_no_delay_serves_immediately():
    env = EnergySavingEnv(
        n_resources=1,
        activation_delay=0,
        traffic={"kind": "constant", "base": 0.5, "noise_std": 0.0},
    )
    env.reset(0)
    assert env.step((0,)).diagnostics["served"] == 0.5


def test_es_deactivation_is_immediate():
    env = EnergySavingEnv(
        n_resources=1, activation_delay=0,
        traffic={"kind": "constant", "base": 0.0, "noise_std": 0.0},
    )
    env.reset(0)
    assert env.step((0,)).diagnostics["energy"] == 1.0
    assert env.step(()).diagnostics["energy"] == 0.0


def test_es_trace_cycles_and_is_pure():
    env = EnergySavingEnv(traffic={"trace": [1.0, 2.0, 3.0]})
    env.reset(0)
    assert env.traffic_at(4) == 2.0
    before = env.traffic_at(100)
    env.step((0, 1))
    assert env.traffic_at(100) == before


def test_es_malformed_subsets():
    env = EnergySavingEnv(n_resources=2)
    env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step((5,))
    with pytest.raises(InvalidActionError):
        env.step("nope")


# ================================================================ handover


def _crossing_env(**kw):
    base = dict(
        n_cells=2,
        noise_std=0.0,
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -100.0},
        rlf_threshold=-95.0,
    )
    base.update(kw)
    return HandoverEnv(**base)


def test_ho_ideal_single_handover_no_penalty():
    env = _crossing_env()
    actions = [0] * 100 + [2] + [0] * 149  # HO to cell 1 at the t=100 crossing
    log = run_episode(env, ScriptedPolicy(actions), horizon=250, seed=0)
    assert log.rewards.sum() == 0.0


def test_ho_never_handing_over_pays_too_late():
    env = _crossing_env()
    log = run_episode(env, lambda obs: 0, horizon=250, seed=0)
    assert log.rewards.sum() < 0
    assert sum(s.diagnostics["too_late"] for s in log.steps) > 0


def test_ho_flip_every_step_pingpong_count():
    env = _crossing_env(
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -90.0}
    )
    horizon = 21

    class Flip:
        def act(self, obs):
            return 2 if obs.serving_cell == 0 else 1

    log = run_episode(env, Flip(), horizon=horizon, seed=0)
    pp = sum(s.diagnostics["pingpong"] for s in log.steps)
    assert pp == horizon // 2
    assert sum(s.diagnostics["too_early"] for s in log.steps) == 0


def test_ho_to_current_cell_rejected():
    env = _crossing_env()
    env.reset(0)
    with pytest.raises(InvalidActionError, match="current serving"):
        env.step(1)  # serving cell 0


def test_ho_exceed_count_resets():
    # Noiseless crossing: neighbor counts ramp only once it clears hysteresis.
    env = _crossing_env(hysteresis=3.0)
    obs = env.reset(0)
    counts = [obs.exceed_count[0]]
    for _ in range(150):
        obs = env.step(0).observation
        counts.append(obs.exceed_count[0])
    counts = np.array(counts)
    diffs = np.diff(counts)
    # Monotone ramp after first increment, zero before.
    first = np.argmax(counts > 0)
    assert np.all(counts[:first] == 0)
    assert np.all(diffs[first:] == 1)
    # The ramp starts strictly after the crossing because of hysteresis.
    true_gap = [
        env.true_rsrp_at(t)[1] - env.true_rsrp_at(t)[0] for t in range(first + 1)
    ]
    assert true_gap[first] > 3.0 - 1e-9
    assert all(g <= 3.0 + 1e-9 for g in true_gap[:first])


# ================================================================ admission


def test_ac_accept_all_unconstrained_collects_all_rewards():
    env = AdmissionEnv(
        capacity=1000,
        classes=[{"arrival_rate": 0.3, "departure_rate": 0.0005, "reward": 2.0, "reject_penalty": 1.0}],
    )
    log = run_episode(env, lambda obs: (1,), horizon=500, seed=1)
    n_arrivals = sum(s.diagnostics["arrival"] for s in log.steps)
    assert log.rewards.sum() == pytest.approx(2.0 * n_arrivals)
    assert n_arrivals > 0


def test_ac_zero_arrivals_zero_reward():
    env = AdmissionEnv(
        capacity=5,
        classes=[{"arrival_rate": 0.0, "departure_rate": 0.01, "reward": 2.0, "reject_penalty": 1.0}],
    )
    log = run_episode(env, lambda obs: (1,), horizon=200, seed=0)
    assert np.all(log.rewards == 0.0)


def test_ac_used_never_exceeds_capacity():
    env = AdmissionEnv(capacity=3)
    class RandomRule(RngPolicy):
        def act(self, obs):
            return tuple(self.rng.integers(0, 3, size=2))

    log = run_episode(env, RandomRule(), horizon=2000, seed=5)
    for s in log.steps:
        assert s.diagnostics["used"] <= 3.0 + 1e-9


def test_ac_strict_infeasible_accept_errors():
    env = AdmissionEnv(
        capacity=1,
        strict_feasibility=True,
        classes=[{"arrival_rate": 0.5, "departure_rate": 0.01, "reward": 1.0, "reject_penalty": 0.1}],
    )
    env.reset(0)
    with pytest.raises(ConfigError):
        env.true_mdp()
    with pytest.raises(InvalidActionError, match="infeasible accept"):
        for _ in range(50):
            env.step((1,))


def test_ac_rate_validation():
    with pytest.raises(ConfigError, match="event rates"):
        AdmissionEnv(
            capacity=10,
            classes=[{"arrival_rate": 0.5, "departure_rate": 0.2, "reward": 1.0, "reject_penalty": 0.1}],
        )


def test_ac_endogenous_witness():
    traces = []
    for rule in ((1,), (0,)):
        env = AdmissionEnv(
            capacity=4,
            classes=[{"arrival_rate": 0.3, "departure_rate": 0.05, "reward": 1.0, "reject_penalty": 0.1}],
        )
        env.reset(2)
        traces.append([env.step(rule).observation["counts"] for _ in range(50)])
    assert traces[0] != traces[1]


# ================================================================ exact extraction


def test_ac_three_state_birth_death():
    env = AdmissionEnv(
        capacity=2,
        classes=[{"arrival_rate": 0.3, "departure_rate": 0.2, "reward": 1.0, "reject_penalty": 0.5}],
    )
    mdp = env_true_mdp(env)
    assert mdp.n_states == 3
    assert mdp.n_actions == 3
    assert np.allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-12)
    # Birth-death: no transitions jumping more than one unit of utilization.
    for s in range(3):
        for a in range(3):
            for s2 in range(3):
                if abs(s2 - s) > 1:
                    assert mdp.transition[s, a, s2] == 0.0


def test_ac_accept_transition_probabilities():
    env = AdmissionEnv(
        capacity=2,
        classes=[{"arrival_rate": 0.3, "departure_rate": 0.2, "reward": 1.0, "reject_penalty": 0.5}],
    )
    mdp = env_true_mdp(env)
    accept = env.action_list().index((1,))
    # From empty: accept moves up with the arrival probability.
    assert mdp.transition[0, accept, 1] == pytest.approx(0.3)
    assert mdp.transition[0, accept, 0] == pytest.approx(0.7)
    assert mdp.reward[0, accept] == pytest.approx(0.3 * 1.0)
    # From full: accept is blocked, departures move down with rate 2 * mu.
    assert mdp.transition[2, accept, 1] == pytest.approx(0.4)
    assert mdp.reward[2, accept] == pytest.approx(0.3 * -(0.5 + 0.05))


def test_continuous_env_not_tractable():
    with pytest.raises(NotTractableError, match="not tractable"):
        env_true_mdp(BeamformingEnv())


def test_single_state_env_extraction():
    mdp = TabularMdp(1, 3, np.ones((1, 3, 1)), np.array([[1.0, -2.0, 0.5]]), 0.9)
    env = TabularEnv(mdp)
    got = env_true_mdp(env)
    assert got.reward.shape == (1, 3)
    assert np.array_equal(got.reward, mdp.reward)


# ================================================================ replay determinism


class _LaRandom(RngPolicy):
    def act(self, obs):
        return int(self.rng.integers(8))


class _PcRandom(RngPolicy):
    def act(self, obs):
        w = self.rng.random(4)
        return 4.0 * w / w.sum()


class _BfRandom(RngPolicy):
    def act(self, obs):
        beams = tuple(int(b) for b in self.rng.choice(16, size=3, replace=False))
        return BeamAction(measure=beams, serve=SERVE_BEST)


class _ScRandom(RngPolicy):
    def act(self, obs):
        return int(self.rng.integers(4))


class _EsRandom(RngPolicy):
    def act(self, obs):
        return tuple(int(r) for r in range(4) if self.rng.random() < 0.5)


class _HoRandom(RngPolicy):
    def act(self, obs):
        if self.rng.random() < 0.1:
            return int(obs.neighbor_cells[0]) + 1
        return 0


class _AcRandom(RngPolicy):
    def act(self, obs):
        return tuple(self.rng.integers(0, 3, size=2))


REPLAY_CASES = [
    (LinkAdaptEnv, _LaRandom),
    (PowerEnv, _PcRandom),
    (BeamformingEnv, _BfRandom),
    (SchedulingEnv, _ScRandom),
    (EnergySavingEnv, _EsRandom),
    (HandoverEnv, _HoRandom),
    (AdmissionEnv, _AcRandom),
]


@pytest.mark.parametrize("env_cls,policy_cls", REPLAY_CASES, ids=lambda x: getattr(x, "__name__", ""))
def test_replay_reproduces_rewards(env_cls, policy_cls):
    from occam_rrm import replay_episode

    log = run_episode(env_cls(), policy_cls(), horizon=120, seed=17)
    replayed = replay_episode(env_cls(), log)
    assert np.array_equal(replayed.rewards, log.rewards)
    for a, b in zip(log.steps, replayed.steps):
        assert a.diagnostics == b.diagnostics
