import numpy as np
import pytest

from occam_rrm import ConfigError, run_episode
from occam_rrm.agents import EsThresholdAgent, MaxRateAgent, MroAgent, PfAgent, TrunkAgent
from occam_rrm.envs import AdmissionEnv, EnergySavingEnv, HandoverEnv
from occam_rrm.experiments import SOLVERS
from occam_rrm.rules import (
    STAY,
    dpp_action,
    es_policy,
    mro_policy,
    pf_select,
    trunk_admit,
)


# ---------------------------------------------------------------- PF scheduling


def test_pf_select_direct_ratio():
    assert pf_select([2.0, 3.0], np.array([1.0, 3.0])) == 0


def test_pf_select_tie_lowest_index():
    assert pf_select([2.0, 2.0, 2.0], np.array([1.0, 1.0, 1.0])) == 0


FORMS = {"list": list, "tuple": tuple, "array": np.array}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_pf_select_needs_one_efficiency_per_user(form):
    as_form = FORMS[form]
    for eff, avg in (([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([], []),
                     ([[1.0, 2.0]], [1.0, 2.0])):
        with pytest.raises(ConfigError, match="^need one spectral efficiency per user$"):
            pf_select(as_form(eff), as_form(avg))


@pytest.mark.parametrize("form", sorted(FORMS))
def test_pf_and_max_rate_ties_take_the_lowest_index(form):
    as_form = FORMS[form]
    eff, ones = as_form([1.0, 3.0, 2.0, 3.0, 3.0]), as_form([1.0] * 5)
    picks = (MaxRateAgent().act({"spectral_eff": eff}),
             PfAgent().act({"spectral_eff": eff, "avg_throughput": ones}),
             pf_select(eff, ones))
    assert picks == (1, 1, 1) and {type(p) for p in picks} == {int}
    # PF ties on the rate-to-average ratio: 2 = 2/1 = 4/2 here
    ratios_tie = {"spectral_eff": as_form([2.0, 2.0, 4.0]),
                  "avg_throughput": as_form([1.0, 1.0, 2.0])}
    assert PfAgent().act(ratios_tie) == 0
    assert MaxRateAgent().act(ratios_tie) == 2


def test_pf_select_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        avg = rng.uniform(0.1, 5.0, size=5)
        eff = rng.uniform(0.0, 4.0, size=5)
        oracle = max(range(5), key=lambda u: (eff[u] / avg[u], -u))
        assert pf_select(eff, avg) == oracle


def test_pf_select_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        avg = rng.uniform(0.1, 5.0, size=4)
        eff = rng.uniform(0.0, 4.0, size=4)
        base = pf_select(eff, avg)
        for c in (1e-3, 7.0, 1e4):
            assert pf_select(eff, c * avg) == base


def test_pf_alpha_zero_rejected():
    # the PF ratio reads the env's own EWMA, so the solver takes no alpha
    with pytest.raises(ConfigError, match="unknown solver config keys: \\['ewma_alpha'\\]"):
        SOLVERS["proportional-fair"].run({"env": "scheduling"}, {"ewma_alpha": 0.0}, 1, 0)


# ---------------------------------------------------------------- drift plus penalty


def test_dpp_zero_v_is_max_weight():
    actions = [([3.0, 0.0], 100.0), ([0.0, 1.0], 0.0), ([1.0, 1.0], 50.0)]
    # scores: -3, -4, -5 -> action 2
    assert dpp_action([1.0, 4.0], actions, 0.0) == 2


def test_dpp_empty_queues_minimize_penalty():
    actions = [([5.0, 5.0], 3.0), ([0.0, 0.0], 1.0), ([9.0, 9.0], 2.0)]
    assert dpp_action(np.zeros(2), actions, 2.0) == 1


def test_dpp_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = rng.uniform(0, 10, size=3)
        v = rng.uniform(0, 5)
        actions = [(rng.uniform(0, 2, size=3), rng.uniform(0, 4)) for _ in range(6)]
        scores = [v * p - q @ np.asarray(sv) for sv, p in actions]
        assert dpp_action(q, actions, v) == int(np.argmin(scores))


def test_dpp_one_queue_float_scores_match_the_vector_form():
    # one queue: services given as one-entry lists are scored on Python
    # floats, as one-entry arrays through queues @ service; both must pick
    # the same action, ties included, because a one-entry dot is one product
    rng = np.random.default_rng(5)
    for _ in range(300):
        q = float(rng.uniform(0, 10))
        v = float(rng.choice([0.0, rng.uniform(0, 5)]))
        caps = rng.choice([0.0, 0.3, 0.55, 0.9, 1.7], size=(8, 2)).sum(axis=1).tolist()
        pens = rng.choice([0.0, 0.1, 0.2, 0.35], size=8).tolist()
        assert all(q * c == float(np.array([q]) @ np.array([c])) for c in caps)
        floats = [([c], p) for c, p in zip(caps, pens)]
        arrays = [(np.array([c]), p) for c, p in zip(caps, pens)]
        assert dpp_action([q], floats, v) == dpp_action(np.array([q]), arrays, v)


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
        idx = dpp_action([backlog], [(sv, p) for _, sv, p in actions], 0.0)
        out = env.step(actions[idx][0])
        backlog = out.diagnostics["backlog"]
        backlogs.append(backlog)
    assert np.mean(backlogs[50_000:]) < 5.0


# ---------------------------------------------------------------- trunk reservation


def test_trunk_high_priority_fits():
    assert trunk_admit(10.0 - 0.0, 1.0, 0.0) is True


def test_trunk_low_priority_reserved_out():
    assert trunk_admit(10.0 - 8.0, 1.0, 3.0) is False


def test_trunk_sweep_matches_rule_oracle():
    thresholds = [0.0, 2.0, 4.0]
    for used in range(11):
        for priority in range(3):
            for demand in (1.0, 2.0, 3.0):
                want = 10.0 - used - demand >= thresholds[priority]
                assert trunk_admit(10.0 - used, demand, thresholds[priority]) is want


def test_trunk_never_overfills():
    rng = np.random.default_rng(3)
    for _ in range(300):
        cap = rng.uniform(1, 20)
        used = rng.uniform(0, cap)
        demand = rng.uniform(0, 10)
        thr = np.sort(rng.uniform(0, 5, size=3))
        if trunk_admit(cap - used, demand, thr[rng.integers(3)]):
            assert used + demand <= cap + 1e-9


def test_trunk_threshold_order_validated():
    env = AdmissionEnv()  # two priority classes
    with pytest.raises(ConfigError, match="must not decrease"):
        TrunkAgent(env, [2.0, 0.0])
    with pytest.raises(ConfigError, match=r"thresholds entries must lie in \[0, inf\)"):
        TrunkAgent(env, [-1.0, 0.0])


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
    assert mro_policy(_obs([0, 0], [-70.0, -60.0]), 3) == STAY


def test_mro_fires_strictly_above_ttt():
    assert mro_policy(_obs([3, 0], [-70.0, -90.0]), 3) == STAY
    assert mro_policy(_obs([4, 0], [-70.0, -90.0]), 3) == 2  # cell 1 -> action 2


def test_mro_best_rsrp_among_qualifying():
    assert mro_policy(_obs([5, 5], [-75.0, -65.0]), 1) == 3  # cell 2 -> action 3


def test_mro_infinite_hysteresis_never_fires():
    env = HandoverEnv(
        n_cells=2, noise_std=0.0, hysteresis=1e9,
        model={"kind": "crossing", "period": 200, "near_rsrp": -60.0, "far_rsrp": -90.0},
    )
    log = run_episode(env, lambda obs: mro_policy(obs, 1), horizon=400, seed=0)
    assert all(a == STAY for a in log.actions)


def _first_ho_time(env_hysteresis):
    env = HandoverEnv(
        n_cells=2, noise_std=0.0, hysteresis=env_hysteresis,
        model={"kind": "crossing", "period": 400, "near_rsrp": -60.0, "far_rsrp": -90.0},
    )
    log = run_episode(env, lambda obs: mro_policy(obs, 3), horizon=300, seed=0)
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
    def greedy(obs):
        best = int(np.argmax(obs.rsrp_neighbors))
        cell = obs.neighbor_cells[best]
        if obs.rsrp_neighbors[best] > obs.rsrp_serving:
            return cell + 1
        return STAY

    mro_total, greedy_total = 0.0, 0.0
    for seed in range(5):
        mro_total += run_episode(
            HandoverEnv(**cfg), lambda o: mro_policy(o, 3), horizon=800, seed=seed
        ).rewards.sum()
        greedy_total += run_episode(
            HandoverEnv(**cfg), greedy, horizon=800, seed=seed
        ).rewards.sum()
    assert mro_total > greedy_total


def test_mro_params_validated():
    with pytest.raises(ConfigError):
        MroAgent(time_to_trigger=0)
    # the env applies the hysteresis, so the solver takes none
    with pytest.raises(ConfigError, match="unknown solver config keys: \\['hysteresis'\\]"):
        SOLVERS["mro"].run({"env": "handover"}, {"hysteresis": -1.0}, 1, 0)


# ---------------------------------------------------------------- ES thresholds


def test_es_zero_traffic_sleeps_everything():
    assert es_policy(0.0, 0.3, 0.7, 4) == 0


def test_es_upper_boundary_inclusive():
    # load 0.3 of fleet: k=2 gives utilization exactly 0.6
    assert es_policy(0.3, 0.3, 0.6, 4) == 2


def test_es_overload_all_on():
    assert es_policy(1.0, 0.2, 0.5, 3) == 3


def test_es_matches_exhaustive_scan():
    rng = np.random.default_rng(4)
    lower, upper = 0.25, 0.75
    n = 5
    for _ in range(200):
        load = float(rng.uniform(0, 1))

        def util(k):
            if k == 0:
                return 0.0 if load == 0 else np.inf
            return load * n / k

        in_band = [k for k in range(n + 1) if lower <= util(k) <= upper]
        under = [k for k in range(n + 1) if util(k) <= upper]
        want = in_band[0] if in_band else (under[0] if under else n)
        assert es_policy(load, lower, upper, n) == want


def test_es_thresholds_validated():
    env = EnergySavingEnv()
    with pytest.raises(ConfigError):
        EsThresholdAgent(env, lower=0.5, upper=0.5)
    with pytest.raises(ConfigError):
        EsThresholdAgent(env, lower=-0.1, upper=0.5)
    with pytest.raises(ConfigError):
        es_policy(1.5, 0.1, 0.9, 3)
