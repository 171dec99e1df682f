import numpy as np
import pytest

from occam_rrm import ConfigError, GpNumericalError
from occam_rrm.bandits import (
    BetaPosterior,
    BoTrackerAgent,
    GpSurrogate,
    OllaState,
    beta_update,
    bo_beam_tracker,
    illa_select,
    olla_state,
    olla_step,
    thompson_select,
    ucb_acquire,
)
from occam_rrm.core import metrics_summary
from occam_rrm.envs import BeamformingEnv, LinkAdaptEnv


# ---------------------------------------------------------------- Thompson


def test_thompson_single_arm():
    rng = np.random.default_rng(0)
    assert thompson_select([BetaPosterior(1, 1)], [1.0], rng) == 0


def test_thompson_confident_arm_dominates():
    rng = np.random.default_rng(1)
    arms = [BetaPosterior(1e6, 1), BetaPosterior(1, 1e6)]
    picks = sum(thompson_select(arms, [1.0, 1.0], rng) == 0 for _ in range(10_000))
    assert picks / 10_000 >= 0.999


def test_thompson_zero_values_never_win():
    rng = np.random.default_rng(2)
    arms = [BetaPosterior(100, 1)] * 3
    for _ in range(200):
        assert thompson_select(arms, [0.0, 0.0, 5.0], rng) == 2


def test_thompson_stochastic_dominance_frequency():
    rng = np.random.default_rng(3)
    arms = [BetaPosterior(5, 2), BetaPosterior(2, 5)]
    n = 10_000
    freq = sum(thompson_select(arms, [1.0, 1.0], rng) == 0 for _ in range(n)) / n
    assert freq > 0.5 + 3 * np.sqrt(0.25 / n)


def test_thompson_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        thompson_select([], [], rng)
    with pytest.raises(ConfigError):
        thompson_select([BetaPosterior()], [-1.0], rng)


# ---------------------------------------------------------------- Beta updates


def test_beta_update_success():
    assert beta_update(BetaPosterior(1, 1), True) == BetaPosterior(2, 1)


def test_beta_update_counts_to_mean():
    p = BetaPosterior(1, 1)
    for _ in range(30):
        p = beta_update(p, True)
    for _ in range(70):
        p = beta_update(p, False)
    assert p.mean == pytest.approx(31 / 102)


def test_beta_mean_bounded():
    rng = np.random.default_rng(4)
    p = BetaPosterior(1, 1)
    for _ in range(500):
        p = beta_update(p, bool(rng.random() < 0.3))
        assert 0.0 < p.mean < 1.0


def test_beta_positivity_enforced():
    with pytest.raises(ConfigError):
        BetaPosterior(0.0, 1.0)


# ---------------------------------------------------------------- OLLA / ILLA


def test_olla_ack_moves_up():
    s = olla_state(step_up=0.01, target_bler=0.5)
    assert olla_step(s, True).offset == pytest.approx(0.01)


def test_olla_zero_drift_ratio():
    # 10% NACKs must cancel 90% ACKs: step_down = 9 * step_up.
    s = olla_state(step_up=0.01, target_bler=0.1)
    assert s.step_down == pytest.approx(9 * s.step_up)
    drift = (1 - 0.1) * s.step_up - 0.1 * s.step_down
    assert drift == pytest.approx(0.0, abs=1e-15)


def test_olla_symmetric_steps_cycle():
    s = olla_state(step_up=0.2, target_bler=0.5)
    assert s.step_down == pytest.approx(s.step_up)
    s2 = olla_step(olla_step(s, True), False)
    assert s2.offset == pytest.approx(s.offset)


def test_olla_state_ratio_validated():
    with pytest.raises(ConfigError):
        OllaState(offset=0.0, step_up=0.1, step_down=0.1, target_bler=0.1)


def test_illa_below_all_thresholds():
    assert illa_select(-100.0, 0.0, [0.0, 5.0, 10.0]) == 0


def test_illa_inclusive_boundary():
    assert illa_select(5.0, 0.0, [0.0, 5.0, 10.0]) == 1
    assert illa_select(10.0, 0.0, [0.0, 5.0, 10.0]) == 2


def test_illa_offset_applied():
    assert illa_select(7.0, -3.0, [0.0, 5.0, 10.0]) == 0


def test_illa_requires_increasing_table():
    with pytest.raises(ConfigError):
        illa_select(0.0, 0.0, [0.0, 0.0, 1.0])


def test_illa_olla_closed_loop_hits_target_bler():
    # Stationary SINR: the offset random walk equalizes empirical BLER with
    # the OLLA target (drift-balance argument).
    env = LinkAdaptEnv(
        ar_coeff=0.0, innovation_std=0.0, sinr_mean=10.0, report_noise_std=0.0
    )
    target = 0.1
    lookup = env.s50

    class IllaOlla:
        def reset(self, seed):
            self.s = olla_state(step_up=0.01, target_bler=target)

        def act(self, obs):
            if obs.ack is not None:
                self.s = olla_step(self.s, obs.ack)
            return illa_select(obs.sinr_report, self.s.offset, lookup)

    from occam_rrm import run_episode

    n = 100_000
    log = run_episode(env, IllaOlla(), horizon=n, seed=9)
    acks = np.array([s.diagnostics["ack"] for s in log.steps])
    empirical_bler = 1.0 - acks.mean()
    assert abs(empirical_bler - target) <= 0.03


# ---------------------------------------------------------------- GP surrogate


def test_gp_prior_before_data():
    s = GpSurrogate(length_scales=[1.0], signal_var=2.5, prior_mean=-1.0)
    assert s.posterior([0.3]) == (-1.0, 2.5)


def test_gp_noiseless_interpolation():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.0)
    s.add([0.5], 3.0)
    mean, var = s.posterior([0.5])
    assert mean == pytest.approx(3.0, abs=1e-6)
    assert var <= 1e-6


def test_gp_matches_dense_solve_oracle():
    # Direct formula mean = k*^T (K + noise^2 I)^{-1} (y - m) + m.
    ell, sv, m0 = 0.7, 1.3, 0.2
    xs = np.array([[0.0], [1.0], [2.5]])
    ys = np.array([1.0, -0.5, 0.7])
    noise = np.array([0.1, 0.2, 0.05])
    q = np.array([1.7])

    def k(a, b):
        return sv * np.exp(-0.5 * ((a - b) / ell) ** 2)

    gram = k(xs[:, 0][:, None], xs[:, 0][None, :]) + np.diag(noise**2) + 1e-8 * np.eye(3)
    k_star = k(xs[:, 0], q[0])
    sol = np.linalg.solve(gram, ys - m0)
    want_mean = m0 + k_star @ sol
    want_var = sv - k_star @ np.linalg.solve(gram, k_star)

    s = GpSurrogate(length_scales=[ell], signal_var=sv, prior_mean=m0)
    for x, y, nz in zip(xs, ys, noise):
        s.add(x, y, nz)
    mean, var = s.posterior(q)
    assert mean == pytest.approx(want_mean, abs=1e-9)
    assert var == pytest.approx(want_var, abs=1e-9)


def test_gp_variance_shrinks_with_data():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.0)
    q = [0.4]
    _, v0 = s.posterior(q)
    s.add([0.4], 1.0, 0.3)
    _, v1 = s.posterior(q)
    assert v1 < v0
    s.add([0.4], 1.1, 0.3)
    _, v2 = s.posterior(q)
    assert v2 < v1


def test_gp_far_point_recovers_prior_variance():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.7)
    s.add([0.0], 5.0, 0.1)
    _, var = s.posterior([1000.0])
    assert var <= 1.7 + 1e-9


def test_gp_window_evicts_oldest():
    s = GpSurrogate(length_scales=[1.0], max_points=2)
    s.add([0.0], 1.0)
    s.add([1.0], 2.0)
    s.add([2.0], 3.0)
    assert len(s.points) == 2
    assert s.points[0][0][0] == 1.0


def test_gp_query_dimension_checked():
    s = GpSurrogate(length_scales=[1.0, 1.0])
    with pytest.raises(ConfigError):
        s.posterior([1.0])


# ---------------------------------------------------------------- UCB


def test_ucb_pure_exploitation():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.0)
    s.add([0.0], 1.0, 0.01)
    s.add([2.0], 5.0, 0.01)
    assert ucb_acquire(s, [[0.0], [2.0]], kappa=0.0) == [2.0]


def test_ucb_no_data_takes_first():
    s = GpSurrogate(length_scales=[1.0])
    assert ucb_acquire(s, [[3.0], [1.0], [2.0]], kappa=1.0) == [3.0]


def test_ucb_huge_kappa_prefers_unobserved():
    s = GpSurrogate(length_scales=[0.5], signal_var=1.0)
    s.add([0.0], 100.0, 1e-3)
    chosen = ucb_acquire(s, [[0.0], [10.0]], kappa=1e6)
    assert chosen == [10.0]


# ---------------------------------------------------------------- beam tracker


def test_tracker_full_budget_perfect():
    env = BeamformingEnv(n_beams=6, measure_cost=0.0)
    log = bo_beam_tracker(env, budget_per_step=6, horizon=40, seed=1)
    m = metrics_summary([log], kind="beam")
    assert m.accuracy == 1.0


def test_tracker_static_field_locks_on():
    n_beams = 6
    env = BeamformingEnv(
        n_beams=n_beams, temporal_corr=1 - 1e-9, measure_cost=0.0, spatial_corr=0.5
    )
    log = bo_beam_tracker(
        env,
        budget_per_step=1,
        horizon=30,
        seed=2,
        kernel={"length_scales": (0.5, 1e6)},
        kappa=1000.0,
    )
    tail = log.steps[n_beams:]
    assert all(s.diagnostics["served_beam"] == s.diagnostics["optimal_beam"] for s in tail)


def test_tracker_slow_ue_beats_fast():
    accs = {}
    for speed in (0.5, 8.0):
        env = BeamformingEnv(n_beams=8, ue_speed=speed, measure_cost=0.0)
        log = bo_beam_tracker(env, budget_per_step=2, horizon=200, seed=5)
        accs[speed] = metrics_summary([log], kind="beam").accuracy
    assert accs[0.5] >= accs[8.0]


def test_tracker_choice_invariant_to_field_shift():
    seqs = []
    for mean in (-80.0, 0.0):
        env = BeamformingEnv(n_beams=5, mean_rsrp=mean)
        log = bo_beam_tracker(env, budget_per_step=2, horizon=60, seed=7)
        seqs.append([s.action for s in log.steps])
    assert seqs[0] == seqs[1]


def test_tracker_budget_validated():
    env = BeamformingEnv()
    with pytest.raises(ConfigError):
        bo_beam_tracker(env, budget_per_step=0)


@pytest.mark.parametrize("kwargs,fragment", [
    ({"kappa": -1.0}, "kappa"),
    ({"kernel": {"length_scale": 1.0}}, "kernel keys"),
    ({"kernel": {"length_scales": (0.0, 1.0)}}, "length scales"),
    ({"window": 0}, "max_points"),
])
def test_tracker_agent_checks_config_when_built(kwargs, fragment):
    # an unreset env: nothing may be stepped or measured to find the error
    with pytest.raises(ConfigError, match=fragment):
        BoTrackerAgent(BeamformingEnv(), budget_per_step=2, **kwargs)
