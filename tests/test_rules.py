import numpy as np
import pytest

from occam_rrm import ConfigError, run_episode
from occam_rrm.envs import EnergySavingEnv, HandoverEnv
from occam_rrm.envs.types import AdmissionState
from occam_rrm.rules import (
    STAY,
    DppState,
    EsThresholds,
    MroParams,
    PfState,
    dpp_action,
    es_policy,
    mro_policy,
    pf_select,
    trunk_admit,
)


# ---------------------------------------------------------------- PF scheduling


def test_pf_select_direct_ratio():
    s = PfState(np.array([1.0, 3.0]), 0.1)
    assert pf_select([2.0, 3.0], s) == 0


def test_pf_select_tie_lowest_index():
    s = PfState(np.array([1.0, 1.0, 1.0]), 0.1)
    assert pf_select([2.0, 2.0, 2.0], s) == 0


def test_pf_select_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        avg = rng.uniform(0.1, 5.0, size=5)
        eff = rng.uniform(0.0, 4.0, size=5)
        s = PfState(avg, 0.1)
        oracle = max(range(5), key=lambda u: (eff[u] / avg[u], -u))
        assert pf_select(eff, s) == oracle


def test_pf_select_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        avg = rng.uniform(0.1, 5.0, size=4)
        eff = rng.uniform(0.0, 4.0, size=4)
        base = pf_select(eff, PfState(avg, 0.5))
        for c in (1e-3, 7.0, 1e4):
            assert pf_select(eff, PfState(c * avg, 0.5)) == base


def test_pf_alpha_zero_rejected():
    with pytest.raises(ConfigError):
        PfState(np.array([1.0]), 0.0)


# ---------------------------------------------------------------- drift plus penalty


def test_dpp_zero_v_is_max_weight():
    s = DppState(np.array([1.0, 4.0]), 0.0)
    actions = [([3.0, 0.0], 100.0), ([0.0, 1.0], 0.0), ([1.0, 1.0], 50.0)]
    # scores: -3, -4, -5 -> action 2
    assert dpp_action(s, actions) == 2


def test_dpp_empty_queues_minimize_penalty():
    s = DppState(np.zeros(2), 2.0)
    actions = [([5.0, 5.0], 3.0), ([0.0, 0.0], 1.0), ([9.0, 9.0], 2.0)]
    assert dpp_action(s, actions) == 1


def test_dpp_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = rng.uniform(0, 10, size=3)
        v = rng.uniform(0, 5)
        s = DppState(q, v)
        actions = [(rng.uniform(0, 2, size=3), rng.uniform(0, 4)) for _ in range(6)]
        scores = [v * p - q @ np.asarray(sv) for sv, p in actions]
        assert dpp_action(s, actions) == int(np.argmin(scores))


def test_dpp_keeps_energy_queue_bounded():
    # Pure max-weight (v=0) must stabilize the backlog when the offered
    # traffic sits inside the service capacity.
    env = EnergySavingEnv(
        n_resources=4,
        activation_delay=0,
        traffic={"kind": "sinusoid", "base": 1.5, "amplitude": 1.0, "period": 100, "noise_std": 0.1},
    )
    env.reset(0)
    actions = [
        (sub, [float(sum(env.capacity[r] for r in sub))], float(sum(env.power_draw[r] for r in sub)))
        for sub in env.all_actions()
    ]
    backlogs = []
    backlog = 0.0
    for t in range(100_000):
        s = DppState(np.array([backlog]), 0.0)
        idx = dpp_action(s, [(sv, p) for _, sv, p in actions])
        out = env.step(actions[idx][0])
        backlog = out.diagnostics["backlog"]
        backlogs.append(backlog)
    assert np.mean(backlogs[50_000:]) < 5.0


# ---------------------------------------------------------------- trunk reservation


def test_trunk_high_priority_fits():
    st = AdmissionState(capacity=10.0, used=0.0, pending_request=(0, 1.0))
    assert trunk_admit(st, [0.0, 2.0]) is True


def test_trunk_low_priority_reserved_out():
    st = AdmissionState(capacity=10.0, used=8.0, pending_request=(1, 1.0))
    assert trunk_admit(st, [0.0, 3.0]) is False


def test_trunk_sweep_matches_rule_oracle():
    thresholds = [0.0, 2.0, 4.0]
    for used in range(11):
        for priority in range(3):
            for demand in (1.0, 2.0, 3.0):
                st = AdmissionState(capacity=10.0, used=float(used), pending_request=(priority, demand))
                want = 10.0 - used - demand >= thresholds[priority]
                assert trunk_admit(st, thresholds) is want


def test_trunk_never_overfills():
    rng = np.random.default_rng(3)
    for _ in range(300):
        cap = rng.uniform(1, 20)
        used = rng.uniform(0, cap)
        demand = rng.uniform(0, 10)
        thr = np.sort(rng.uniform(0, 5, size=3))
        st = AdmissionState(capacity=cap, used=used, pending_request=(int(rng.integers(3)), demand))
        if trunk_admit(st, thr):
            assert used + demand <= cap + 1e-9


def test_trunk_threshold_order_validated():
    st = AdmissionState(capacity=10.0, used=0.0, pending_request=(0, 1.0))
    with pytest.raises(ConfigError):
        trunk_admit(st, [4.0, 2.0, 0.0])


def test_trunk_requires_pending():
    st = AdmissionState(capacity=10.0, used=0.0, pending_request=None)
    with pytest.raises(ConfigError):
        trunk_admit(st, [0.0])


# ---------------------------------------------------------------- MRO handover


def _obs(counts, rsrp, serving=0, neighbors=(1, 2)):
    from occam_rrm.envs.types import MroObservation

    return MroObservation(
        rsrp_serving=-80.0,
        rsrp_neighbors=np.asarray(rsrp, dtype=float),
        exceed_count=np.asarray(counts),
        serving_cell=serving,
        neighbor_cells=tuple(neighbors),
    )


def test_mro_stays_when_no_counts():
    assert mro_policy(_obs([0, 0], [-70.0, -60.0]), MroParams()) == STAY


def test_mro_fires_strictly_above_ttt():
    p = MroParams(hysteresis=3.0, time_to_trigger=3)
    assert mro_policy(_obs([3, 0], [-70.0, -90.0]), p) == STAY
    assert mro_policy(_obs([4, 0], [-70.0, -90.0]), p) == 2  # cell 1 -> action 2


def test_mro_best_rsrp_among_qualifying():
    p = MroParams(time_to_trigger=1)
    assert mro_policy(_obs([5, 5], [-75.0, -65.0]), p) == 3  # cell 2 -> action 3


def test_mro_infinite_hysteresis_never_fires():
    env = HandoverEnv(
        n_cells=2, noise_std=0.0, hysteresis=1e9,
        model={"kind": "crossing", "period": 200, "near_rsrp": -60.0, "far_rsrp": -90.0},
    )
    p = MroParams(hysteresis=1e9, time_to_trigger=1)
    log = run_episode(env, lambda obs: mro_policy(obs, p), horizon=400, seed=0)
    assert all(a == STAY for a in log.actions)


def _first_ho_time(env_hysteresis):
    env = HandoverEnv(
        n_cells=2, noise_std=0.0, hysteresis=env_hysteresis,
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -90.0},
    )
    p = MroParams(time_to_trigger=3)
    log = run_episode(env, lambda obs: mro_policy(obs, p), horizon=300, seed=0)
    for t, a in enumerate(log.actions):
        if a != STAY:
            return t
    return None


def test_mro_smaller_hysteresis_fires_no_later():
    t1, t2 = _first_ho_time(1.0), _first_ho_time(5.0)
    assert t1 is not None and t2 is not None
    assert t1 <= t2


def test_mro_beats_greedy_under_noise():
    # Greedy chases 4 dB measurement noise into ping-pongs; hysteresis+TTT
    # filters it out.
    cfg = dict(
        n_cells=2, noise_std=4.0,
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -90.0},
    )
    p = MroParams(hysteresis=3.0, time_to_trigger=3)

    def greedy(obs):
        best = int(np.argmax(obs.rsrp_neighbors))
        cell = obs.neighbor_cells[best]
        if obs.rsrp_neighbors[best] > obs.rsrp_serving:
            return cell + 1
        return STAY

    mro_total, greedy_total = 0.0, 0.0
    for seed in range(5):
        mro_total += run_episode(
            HandoverEnv(**cfg), lambda o: mro_policy(o, p), horizon=800, seed=seed
        ).rewards.sum()
        greedy_total += run_episode(
            HandoverEnv(**cfg), greedy, horizon=800, seed=seed
        ).rewards.sum()
    assert mro_total > greedy_total


def test_mro_params_validated():
    with pytest.raises(ConfigError):
        MroParams(time_to_trigger=0)
    with pytest.raises(ConfigError):
        MroParams(hysteresis=-1.0)


# ---------------------------------------------------------------- ES thresholds


def test_es_zero_traffic_sleeps_everything():
    t = EsThresholds(lower=0.3, upper=0.7)
    assert es_policy(0.0, t, 4) == 0


def test_es_upper_boundary_inclusive():
    t = EsThresholds(lower=0.3, upper=0.6)
    # load 0.3 of fleet: k=2 gives utilization exactly 0.6
    assert es_policy(0.3, t, 4) == 2


def test_es_overload_all_on():
    t = EsThresholds(lower=0.2, upper=0.5)
    assert es_policy(1.0, t, 3) == 3


def test_es_matches_exhaustive_scan():
    rng = np.random.default_rng(4)
    t = EsThresholds(lower=0.25, upper=0.75)
    n = 5
    for _ in range(200):
        load = float(rng.uniform(0, 1))

        def util(k):
            if k == 0:
                return 0.0 if load == 0 else np.inf
            return load * n / k

        in_band = [k for k in range(n + 1) if t.lower <= util(k) <= t.upper]
        under = [k for k in range(n + 1) if util(k) <= t.upper]
        want = in_band[0] if in_band else (under[0] if under else n)
        assert es_policy(load, t, n) == want


def test_es_thresholds_validated():
    with pytest.raises(ConfigError):
        EsThresholds(lower=0.5, upper=0.5)
    with pytest.raises(ConfigError):
        EsThresholds(lower=-0.1, upper=0.5)
    with pytest.raises(ConfigError):
        es_policy(1.5, EsThresholds(0.1, 0.9), 3)
