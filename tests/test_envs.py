import copy
import gc
import math
import pickle
import re
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occam_rrm import (
    ConfigError,
    InvalidActionError,
    planning,
    run_episode,
)
from occam_rrm.agents import GreedyHoAgent, IllaOllaAgent, ThompsonMcsAgent, TrunkAgent
from occam_rrm.bandits import GpSurrogate
from occam_rrm.core import TabularMdp
from occam_rrm.envs import (
    ENVS,
    SERVE_BEST,
    AdmissionEnv,
    BeamAction,
    BeamformingEnv,
    EnergySavingEnv,
    HandoverEnv,
    LinkAdaptEnv,
    PowerEnv,
    SchedulingEnv,
    TabularEnv,
    make_env,
)
from occam_rrm.envs.energy import OFF, es_transition, es_transition_batch
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


def test_la_bler_matches_expit_bit_for_bit():
    # BLER is a logistic on math.exp; scipy's expit is the reference. The
    # edge cases sit at exp's overflow (x near -709.78) and at +-1e308.
    from scipy.special import expit

    def same_bits(a, b):
        return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()

    edges = [0.0, -0.0, 709.0, -709.0, -709.78, -709.79, -710.0, 745.2,
             1e308, -1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
    for env in (LinkAdaptEnv(), LinkAdaptEnv(n_mcs=5, s50=[-3.3, 0.1, 2.5, 7.75, 30.0],
                                             rates=[1, 2, 3, 4, 5], bler_slope=3.7)):
        sinrs = np.concatenate([np.linspace(-60.0, 90.0, 1501), edges])
        for mcs in range(env.n_mcs):
            # SINRs that put the logistic's argument itself on an edge
            for sinr in [*sinrs.tolist(), *(env.s50[mcs] - x / env.bler_slope for x in edges)]:
                with np.errstate(over="ignore"):  # bler_slope * (s50 - sinr) at 1e308
                    got = env.bler(mcs, sinr)
                    want = float(expit(env.bler_slope * (env.s50[mcs] - sinr)))
                assert type(got) is float
                assert same_bits(got, want), (mcs, sinr, got, want)


def test_la_same_seed_identical_logs():
    env1 = LinkAdaptEnv()
    env2 = LinkAdaptEnv()
    pol = lambda obs: 3
    a = run_episode(env1, pol, horizon=200, seed=42)
    b = run_episode(env2, pol, horizon=200, seed=42)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for key, column in a.diagnostics.items():
        assert np.array_equal(column, b.diagnostics[key])


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
        traces.append(log.diagnostics["sinr"].tolist())
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
    # The observed gains hold for a coherence block, and the allocations
    # played cannot move them.
    rollouts = []
    for power in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]):
        env = PowerEnv(n_channels=3, coherence=10, total_power=1.0)
        gains = [env.reset(5)["gains"]]
        for _ in range(124):
            gains.append(env.step(power).observation["gains"])
        rollouts.append(np.array(gains))
    g = rollouts[0]
    assert all(np.array_equal(g[0], g[t]) for t in range(10))
    assert not np.array_equal(g[0], g[10])
    assert np.array_equal(rollouts[0], rollouts[1])


# ================================================================ beamforming


def test_bf_full_measurement_perfect_accuracy():
    env = BeamformingEnv(n_beams=6, measure_cost=0.0)
    all_beams = tuple(range(6))
    log = run_episode(
        env, lambda obs: BeamAction(measure=all_beams, serve=SERVE_BEST), horizon=100, seed=2
    )
    served = log.diagnostics["served_beam"]
    optimal = log.diagnostics["optimal_beam"]
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
    hits = np.mean(log.diagnostics["served_beam"] == log.diagnostics["optimal_beam"])
    p = 1.0 / n_beams
    assert abs(hits - p) <= 3 * np.sqrt(p * (1 - p) / horizon)


def test_bf_two_phase_matches_one_shot():
    env1 = BeamformingEnv(n_beams=5, measure_cost=0.2)
    env2 = BeamformingEnv(n_beams=5, measure_cost=0.2)
    env1.reset(9)
    env2.reset(9)
    for t in range(20):
        vals = env1.measure((0, 2))
        out1 = env1.step(BeamAction(measure=(0, 2), serve=max(vals, key=lambda b: (vals[b], -b))))
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


def test_bf_exogenous_field():
    logs = []
    for serve in (0, 3):
        env = BeamformingEnv(n_beams=4)
        log = run_episode(env, lambda obs, s=serve: BeamAction((), s), horizon=50, seed=8)
        logs.append(log.diagnostics["rsrp_optimal"].tolist())
    assert logs[0] == logs[1]


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


def test_es_sinusoid_period_must_be_positive():
    # period 0 used to end in a ZeroDivisionError at the first step
    with pytest.raises(ConfigError, match=r"^traffic period must lie in \(0, inf\), got 0\.0$"):
        EnergySavingEnv(traffic={"kind": "sinusoid", "period": 0})
    EnergySavingEnv(traffic={"kind": "constant", "period": 0})  # constant ignores it


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_es_transition_batch_matches_scalar_bit_for_bit(data):
    n = data.draw(st.integers(1, 10), label="n")
    delay = data.draw(st.integers(0, 3), label="delay")
    value = st.floats(0.0, 5.0)
    capacity = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
    power_draw = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
    subsets = data.draw(st.lists(
        st.sets(st.integers(0, n - 1)).map(lambda s: tuple(sorted(s))), min_size=1, max_size=6))
    statuses = data.draw(st.lists(
        st.lists(st.integers(OFF, delay), min_size=n, max_size=n), min_size=1, max_size=4))
    backlogs = data.draw(st.lists(value, min_size=len(statuses), max_size=len(statuses)))
    traffic = data.draw(value, label="traffic")

    step = es_transition_batch(subsets, capacity, power_draw, delay)
    status, backlog, energy, served = step(np.array(statuses), np.array(backlogs), traffic)
    for i, (row, b) in enumerate(zip(statuses, backlogs)):
        for a, subset in enumerate(subsets):
            want = es_transition(tuple(row), b, subset, traffic, capacity, power_draw, delay)
            got = (tuple(status[i, a].tolist()), backlog[i, a], energy[a], served[i, a])
            assert got[0] == want[0]
            assert [float(x).hex() for x in got[1:]] == [float(x).hex() for x in want[1:]]


def test_es_malformed_subsets():
    env = EnergySavingEnv(n_resources=2)
    env.reset(0)
    with pytest.raises(InvalidActionError):
        env.step((5,))
    with pytest.raises(InvalidActionError):
        env.step("nope")


# ================================================================ handover


def _scripted(actions):
    """A plain-callable policy that plays `actions` in order, whatever it
    observes: a replay of a logged episode."""
    logged = iter(actions)
    return lambda obs: next(logged)


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
    log = run_episode(env, _scripted(actions), horizon=250, seed=0)
    assert log.rewards.sum() == 0.0


def test_ho_never_handing_over_pays_too_late():
    env = _crossing_env()
    log = run_episode(env, lambda obs: 0, horizon=250, seed=0)
    assert log.rewards.sum() < 0
    assert log.diagnostics["too_late"].sum() > 0


def test_ho_flip_every_step_pingpong_count():
    env = _crossing_env(
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -90.0}
    )
    horizon = 21

    class Flip:
        def act(self, obs):
            return 2 if obs.serving_cell == 0 else 1

    log = run_episode(env, Flip(), horizon=horizon, seed=0)
    assert log.diagnostics["pingpong"].sum() == horizon // 2
    assert log.diagnostics["too_early"].sum() == 0


def test_ho_to_current_cell_rejected():
    env = _crossing_env()
    env.reset(0)
    with pytest.raises(InvalidActionError, match="current serving"):
        env.step(1)  # serving cell 0


@pytest.mark.parametrize("n_cells", [2, 5])
def test_ho_observation_carries_python_numbers(n_cells):
    # per-neighbor fields are tuples of floats and ints, never per-step arrays
    env = HandoverEnv(n_cells=n_cells)
    obs = env.reset(0)
    greedy = GreedyHoAgent()  # hands over often, so the serving cell changes
    for _ in range(200):
        assert type(obs.rsrp_serving) is float and type(obs.serving_cell) is int
        for field, kind in [("rsrp_neighbors", float), ("exceed_count", int),
                            ("neighbor_cells", int)]:
            values = getattr(obs, field)
            assert type(values) is tuple and len(values) == n_cells - 1
            assert all(type(v) is kind for v in values), field
        obs = env.step(greedy.act(obs)).observation


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
    true_rsrp = [env._rsrp.at(t)[: env.n_cells] for t in range(first + 1)]
    true_gap = [rsrp[1] - rsrp[0] for rsrp in true_rsrp]
    assert true_gap[first] > 3.0 - 1e-9
    assert all(g <= 3.0 + 1e-9 for g in true_gap[:first])


# ================================================================ admission


def test_ac_accept_all_unconstrained_collects_all_rewards():
    env = AdmissionEnv(
        capacity=1000,
        classes=[{"arrival_rate": 0.3, "departure_rate": 0.0005, "reward": 2.0, "reject_penalty": 1.0}],
    )
    log = run_episode(env, lambda obs: (1,), horizon=500, seed=1)
    n_arrivals = log.diagnostics["arrival"].sum()
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
    assert np.all(log.diagnostics["used"] <= 3.0 + 1e-9)


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


@pytest.mark.parametrize("discount", [1.0, -0.1])
def test_ac_discount_outside_unit_interval_rejected(discount):
    with pytest.raises(ConfigError, match=r"discount must lie in \[0, 1\)"):
        AdmissionEnv(discount=discount)


def test_ac_rate_validation():
    with pytest.raises(ConfigError, match="event rates"):
        AdmissionEnv(
            capacity=10,
            classes=[{"arrival_rate": 0.5, "departure_rate": 0.2, "reward": 1.0, "reject_penalty": 0.1}],
        )


def test_ac_tables_over_the_entries_budget_are_refused_before_building(monkeypatch):
    def cls(rate):
        return {"arrival_rate": 0.01, "departure_rate": rate, "reward": 1.0}

    # 1001 x 1001 count vectors, 3**13 rule vectors, 66 x 9 x 66 transition entries
    with pytest.raises(ConfigError, match="1002001 class count vectors.*reduce capacity"):
        AdmissionEnv(capacity=1000, classes=[cls(1e-4)] * 2).n_states
    with pytest.raises(ConfigError, match="1594323 rule vectors.*reduce classes"):
        AdmissionEnv(capacity=1, classes=[cls(1e-3)] * 13).action_list()
    env = AdmissionEnv()
    assert env.true_mdp().transition.size == 66 * 9 * 66
    monkeypatch.setattr(planning, "MPC_NODE_BUDGET", 66 * 9 * 66 - 1)
    with pytest.raises(ConfigError, match="needs 39204 transition entries"):
        env.true_mdp()


def test_ac_large_exact_mdp_is_refused_before_listing_states():
    # 500,500 count vectors: the lower bound on S refuses the table before
    # they are listed, which takes seconds
    unit = {"arrival_rate": 0.3, "departure_rate": 1e-4, "reward": 1.0}
    env = AdmissionEnv(capacity=999, classes=[unit, unit])
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="at least 1999 states .* needs at least 35964009"):
        env.true_mdp()
    assert time.perf_counter() - start < 0.1


@settings(max_examples=40, deadline=None)
@given(capacity=st.floats(0.5, 6.0),
       demands=st.lists(st.sampled_from([0.7, 1.0, 1.5, 2.5]), min_size=1, max_size=3))
# two units fit within the 1e-9 slack of an accept, so (2,) is a state
@example(capacity=1.9999999999999991, demands=[1.0])
def test_ac_state_lower_bound_never_refuses_a_table_that_fits(capacity, demands):
    classes = [{"arrival_rate": 0.05, "departure_rate": 0.01, "demand": d, "reward": 1.0}
               for d in demands]
    env = AdmissionEnv(capacity=capacity, classes=classes)
    S, A = len(env.enumerate_states()), 3 ** len(demands)
    with pytest.MonkeyPatch.context() as mp:
        # a budget of exactly S x A x S entries: the table is built only if
        # the lower bound on S is at most S
        mp.setattr(planning, "MPC_NODE_BUDGET", S * A * S)
        assert env.true_mdp().transition.shape == (S, A, S)


def test_ac_action_check_keeps_only_the_last_tuple():
    env = AdmissionEnv()
    env.reset(0)
    rule = (1, 2)
    env.step(rule)
    env.step(rule)
    action = [1, 2]
    env.step(action)
    action[1] = 5  # a list may change between steps, so it is checked again
    with pytest.raises(InvalidActionError, match="rule entry 5"):
        env.step(action)
    with pytest.raises(InvalidActionError, match="rule vector length 1"):
        env.step((1,))
    assert env.step(rule).reward is not None


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
    mdp = env.true_mdp()
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
    mdp = env.true_mdp()
    accept = env.action_list().index((1,))
    # From empty: accept moves up with the arrival probability.
    assert mdp.transition[0, accept, 1] == pytest.approx(0.3)
    assert mdp.transition[0, accept, 0] == pytest.approx(0.7)
    assert mdp.reward[0, accept] == pytest.approx(0.3 * 1.0)
    # From full: accept is blocked, departures move down with rate 2 * mu.
    assert mdp.transition[2, accept, 1] == pytest.approx(0.4)
    assert mdp.reward[2, accept] == pytest.approx(0.3 * -(0.5 + 0.05))


def test_single_state_env_extraction():
    env = TabularEnv(np.ones((1, 3, 1)), [[1.0, -2.0, 0.5]], 0.9)
    got = env.true_mdp()
    assert (got.n_states, got.n_actions, got.discount) == (1, 3, 0.9) == (1, 3, env.discount)
    assert got.reward.tolist() == [[1.0, -2.0, 0.5]]


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
    log = run_episode(env_cls(), policy_cls(), horizon=120, seed=17)
    replayed = run_episode(env_cls(), _scripted(log.actions), horizon=120, seed=17)
    assert np.array_equal(replayed.rewards, log.rewards)
    assert log.diagnostics.keys() == replayed.diagnostics.keys()
    for key, column in log.diagnostics.items():
        assert np.array_equal(column, replayed.diagnostics[key])


def _arrays(obs):
    if isinstance(obs, dict):
        fields = obs.values()
    elif isinstance(obs, tuple):  # NamedTuple observations have no __dict__
        fields = obs
    else:
        fields = getattr(obs, "__dict__", {}).values()
    return [value for value in fields if isinstance(value, np.ndarray)]


class _Recorder:
    """Acts as `policy` (an agent or a plain callable) does and keeps a copy
    of every observation it is shown; with `scribble`, it then overwrites in
    place every array of the observation that is writable."""

    def __init__(self, policy, scribble):
        self.policy, self.scribble = policy, scribble
        self._act = getattr(policy, "act", policy)
        self.seen, self.actions = [], []

    def reset(self, seed):
        if hasattr(self.policy, "reset"):
            self.policy.reset(seed)

    def act(self, obs):
        self.seen.append(pickle.dumps(obs))
        action = self._act(obs)
        self.actions.append(copy.deepcopy(action))
        if self.scribble:
            for arr in _arrays(obs):
                if arr.flags.writeable:
                    arr.fill(7)
        return action


# Settings under which every observation carries arrays that change: a
# finite buffer, and gains that change within the horizon.
ISOLATION_KWARGS = {SchedulingEnv: {"arrival_rates": [0.2, 0.3, 0.25, 0.4]},
                    PowerEnv: {"coherence": 7},
                    HandoverEnv: {"model": {"kind": "crossing", "period": 20}}}


@pytest.mark.parametrize("env_cls,policy_cls", REPLAY_CASES, ids=lambda x: getattr(x, "__name__", ""))
def test_writing_into_observations_changes_nothing(env_cls, policy_cls):
    # Envs share some arrays across steps (neighbor cells, rows of exogenous
    # tables); none of them may be writable through an observation.
    kwargs = ISOLATION_KWARGS.get(env_cls, {})
    writer = _Recorder(policy_cls(), scribble=True)
    log = run_episode(env_cls(**kwargs), writer, horizon=120, seed=17)
    reader = _Recorder(_scripted(writer.actions), scribble=False)
    replayed = run_episode(env_cls(**kwargs), reader, horizon=120, seed=17)
    assert replayed.rewards.tobytes() == log.rewards.tobytes()
    for key, column in log.diagnostics.items():
        assert replayed.diagnostics[key].tobytes() == column.tobytes()
    assert reader.seen == writer.seen


# The keys a kind needs beyond its defaults: tabular has no default MDP.
REQUIRED_KEYS = {"tabular": {"transition": [[[1.0]]], "reward": [[0.0]]}}


@pytest.mark.parametrize("kind", sorted(ENVS))
def test_step_before_reset_is_refused(kind):
    env = make_env({"env": kind, **REQUIRED_KEYS.get(kind, {})})
    with pytest.raises(ConfigError, match=rf"^{env.name} env stepped before reset\(seed\)$"):
        env.step(0)


# Each scalar parameter of each env kind, as (kind, key, None, None), and
# each scalar field of a nested dict, as (kind, key, base of the dict, field).
SCALARS = [(kind, key, None, None) for kind, keys in {
    "link_adaptation": ("n_mcs", "bler_slope", "sinr_mean", "ar_coeff", "innovation_std",
                        "report_noise_std"),
    "power_control": ("n_channels", "total_power", "noise", "coherence", "mean_gain"),
    "beamforming": ("n_beams", "ue_speed", "spatial_corr", "temporal_corr", "measure_cost",
                    "mean_rsrp", "rsrp_std", "speed_to_corr"),
    "scheduling": ("n_users", "ewma_alpha"),
    "energy_saving": ("n_resources", "activation_delay", "qos_threshold", "qos_weight",
                      "energy_weight"),
    "handover": ("n_cells", "noise_std", "rlf_threshold", "pingpong_window", "hysteresis"),
    "admission_control": ("capacity", "safety_margin", "qos_penalty", "discount"),
    "tabular": ("discount", "initial_state", "reward_noise_std"),
}.items() for key in keys] + [
    (kind, key, base, field) for kind, key, base, fields in [
        ("energy_saving", "traffic", {"kind": "sinusoid"},
         ("base", "amplitude", "period", "noise_std")),
        ("energy_saving", "traffic", {"trace": [1.0]}, ("noise_std",)),
        ("handover", "model", {"kind": "crossing"}, ("period", "near_rsrp", "far_rsrp")),
        ("admission_control", "classes",
         {"arrival_rate": 0.1, "departure_rate": 0.01, "reward": 1},
         ("arrival_rate", "departure_rate", "demand", "reward", "reject_penalty",
          "delay_penalty", "blocked_penalty")),
    ] for field in fields
]


def scalar_id(kind, key, base, field) -> str:
    name = f"{kind}.{key}" if field is None else f"{kind}.{key}.{field}"
    return name + ("[trace]" if base and "trace" in base else "")


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind,key,base,field", SCALARS, ids=[scalar_id(*s) for s in SCALARS])
def test_a_direct_constructor_call_refuses_a_non_finite_scalar(kind, key, base, field, value):
    # A config refuses these in check_config. A direct call once took NaN
    # past `x <= 0` checks, or raised ValueError or OverflowError.
    if field is not None:
        value = {**base, field: value}
        value = [value] if key == "classes" else value
    with pytest.raises(ConfigError, match=f"{field or key} must "):
        ENVS[kind](**{**REQUIRED_KEYS.get(kind, {}), key: value})


# Each array parameter of each env kind, and of each agent or table that
# takes one, as (id, its name in messages, a call that builds with it, a
# valid value). Free-length arrays hold one entry, so dropping the last
# entry makes every 1-D array the wrong length.
ARRAYS = [
    ("link_adaptation.rates", "rates", lambda a: ENVS["link_adaptation"](rates=a),
     0.5 * np.arange(1, 9)),
    ("link_adaptation.s50", "s50", lambda a: ENVS["link_adaptation"](s50=a),
     np.linspace(0.0, 14.0, 8)),
    ("power_control.fixed_gains", "fixed_gains",
     lambda a: ENVS["power_control"](fixed_gains=a), np.ones(4)),
    *[(f"scheduling.{key}", key, lambda a, key=key: ENVS["scheduling"](**{key: a}), np.ones(4))
      for key in ("mean_efficiency", "arrival_rates", "weights")],
    *[(f"energy_saving.{key}", key, lambda a, key=key: ENVS["energy_saving"](**{key: a}),
       np.ones(4)) for key in ("capacity", "power_draw")],
    ("energy_saving.traffic.trace", "traffic trace",
     lambda a: ENVS["energy_saving"](traffic={"trace": a}), np.ones(1)),
    ("handover.model.values", "model values",
     lambda a: ENVS["handover"](model={"kind": "trace", "values": a}), np.full((3, 2), -80.0)),
    ("tabular.transition", "transition",
     lambda a: ENVS["tabular"](transition=a, reward=np.zeros((1, 2))), np.ones((1, 2, 1))),
    ("tabular.reward", "reward",
     lambda a: ENVS["tabular"](transition=np.ones((1, 2, 1)), reward=a), np.zeros((1, 2))),
    ("TrunkAgent.thresholds", "thresholds", lambda a: TrunkAgent(AdmissionEnv(), a),
     np.array([0.0, 2.0])),
    ("IllaOllaAgent.lookup", "lookup", lambda a: IllaOllaAgent(a, 0.01, 0.1), np.zeros(1)),
    ("ThompsonMcsAgent.rates", "rates", ThompsonMcsAgent, np.ones(1)),
    ("GpSurrogate.length_scales", "length scales", GpSurrogate, np.full(1, 2.0)),
    ("TabularMdp.transition", "transition",
     lambda a: TabularMdp(1, 2, a, np.zeros((1, 2))), np.ones((1, 2, 1))),
    ("TabularMdp.reward", "reward",
     lambda a: TabularMdp(1, 2, np.ones((1, 2, 1)), a), np.zeros((1, 2))),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name,build,good", [a[1:] for a in ARRAYS], ids=[a[0] for a in ARRAYS])
def test_a_direct_call_refuses_a_non_finite_array_entry(name, build, good, value):
    # A config refuses these in check_config. A direct call once took NaN
    # past `< 0` and `np.diff` checks.
    build(good)
    bad = good.copy()
    bad.flat[-1] = value
    with pytest.raises(ConfigError, match=rf"^{name} entries must lie in .*, got {value}$"):
        build(bad)


ONE_D = [a for a in ARRAYS if a[3].ndim == 1]


@pytest.mark.parametrize("name,build,good", [a[1:] for a in ONE_D], ids=[a[0] for a in ONE_D])
def test_a_direct_call_refuses_an_array_of_the_wrong_length(name, build, good):
    wrong = good[:-1]
    with pytest.raises(ConfigError, match=rf"^{name} needs shape \(\w+,\), got \({len(wrong)},\)$"):
        build(wrong)


def test_ho_trace_without_rows_is_refused():
    # it was once built, to fail with an IndexError at reset
    with pytest.raises(ConfigError, match=r"^model values needs shape \(None, 2\), got \(0, 2\)$"):
        HandoverEnv(model={"kind": "trace", "values": np.empty((0, 2))})


@pytest.mark.parametrize("read,verb", [
    (lambda env: env.measure((0,)), "measured"),
    (lambda env: env.current_rsrp(), "read"),
], ids=["measure", "current_rsrp"])
def test_bf_reads_before_reset_are_refused(read, verb):
    with pytest.raises(ConfigError, match=rf"^beamforming env {verb} before reset\(seed\)$"):
        read(BeamformingEnv())


ONE_CLASS = [{"arrival_rate": 0.3, "departure_rate": 0.05, "reward": 1.0}]


@pytest.mark.parametrize("env,action,match", [
    (BeamformingEnv(), 3, "takes a BeamAction"),
    (EnergySavingEnv(), [True, False, True, False], "malformed resource subset"),
    (EnergySavingEnv(), np.array([False, True, True, False]), "malformed resource subset"),
    (AdmissionEnv(classes=ONE_CLASS), 1, "malformed rule vector"),
    (AdmissionEnv(), 5, "malformed rule vector"),
], ids=["beam-index", "energy-mask", "energy-mask-array", "one-class-int", "two-class-int"])
def test_each_env_takes_one_action_form(env, action, match):
    env.reset(0)
    with pytest.raises(InvalidActionError, match=match):
        env.step(action)


# Per env kind: a constructor, how an integer i becomes an action, and the
# name its refusal gives. Action 2, then action 1, is valid in each.
INTEGER_ACTIONS = {
    "scheduling": (SchedulingEnv, lambda i: i, "user"),
    "handover": (lambda: HandoverEnv(n_cells=3), lambda i: i, "action"),
    "link_adaptation": (LinkAdaptEnv, lambda i: i, "mcs"),
    "tabular": (lambda: TabularEnv(np.ones((1, 3, 1)), [[1.0, -2.0, 0.5]], 0.9),
                lambda i: i, "action"),
    "admission_control": (AdmissionEnv, lambda i: (0, i), "rule entry"),
}


@pytest.mark.parametrize("kind", sorted(INTEGER_ACTIONS))
def test_integer_actions_refuse_floats_strings_and_bools(kind):
    make, action, what = INTEGER_ACTIONS[kind]
    env = make()
    env.reset(0)
    # under int() each would be action 1, which every env takes
    for bad in (1.5, 1.0, "1", True, np.float64(1.0), np.True_):
        with pytest.raises(InvalidActionError, match=rf"^{what} {re.escape(repr(bad))} "
                                                     "is not an integer$"):
            env.step(action(bad))
    assert env.t == 0
    want = make()
    want.reset(0)
    for i in (2, 1):
        out, want_out = env.step(action(np.int64(i))), want.step(action(i))
        assert out.reward == want_out.reward
        assert out.diagnostics == want_out.diagnostics


@pytest.mark.parametrize("kind", sorted(ENVS))
def test_a_dropped_env_is_freed_without_gc(kind):
    # An env that its streams (or anything else it holds) point back at is
    # freed only by a gen-2 collection, which a run of many short episodes
    # waits for with every dead env still in memory.
    gc.disable()
    try:
        env = make_env({"env": kind, **REQUIRED_KEYS.get(kind, {})})
        env.reset(0)
        ref = weakref.ref(env)
        del env
        assert ref() is None
    finally:
        gc.enable()
