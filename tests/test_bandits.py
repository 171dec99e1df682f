import math

import numpy as np
import pytest

from occam_rrm import ConfigError, GpNumericalError
from occam_rrm.agents import IllaOllaAgent, ThompsonMcsAgent
from occam_rrm.bandits import (
    BoTrackerAgent,
    GpSurrogate,
    bo_beam_tracker,
    thompson_select,
    ucb_scores,
)
from occam_rrm.core import metrics_summary
from occam_rrm.envs import BeamformingEnv, LaObs, LinkAdaptEnv
from occam_rrm.tuning import bo_tune


# ---------------------------------------------------------------- Thompson


def test_thompson_single_arm():
    rng = np.random.default_rng(0)
    assert thompson_select([1.0], [1.0], [1.0], rng) == 0


def test_thompson_confident_arm_dominates():
    rng = np.random.default_rng(1)
    alpha, beta = [1e6, 1.0], [1.0, 1e6]
    picks = sum(thompson_select(alpha, beta, [1.0, 1.0], rng) == 0 for _ in range(10_000))
    assert picks / 10_000 >= 0.999


def test_thompson_zero_values_never_win():
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert thompson_select([100.0] * 3, [1.0] * 3, [0.0, 0.0, 5.0], rng) == 2


def test_thompson_stochastic_dominance_frequency():
    rng = np.random.default_rng(3)
    n = 10_000
    freq = sum(thompson_select([5.0, 2.0], [2.0, 5.0], [1.0, 1.0], rng) == 0 for _ in range(n)) / n
    assert freq > 0.5 + 3 * np.sqrt(0.25 / n)


def test_thompson_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        thompson_select([], [], [], rng)
    with pytest.raises(ConfigError):
        thompson_select([1.0], [1.0], [-1.0], rng)


# ---------------------------------------------------------------- Beta updates


def one_arm_thompson(acks):
    """A one-MCS ThompsonMcsAgent after it has seen `acks` on that arm."""
    agent = ThompsonMcsAgent([1.0])
    agent.reset(0)
    agent.act(LaObs(0.0, None))
    for ack in acks:
        agent.act(LaObs(0.0, ack))
    return agent


def test_beta_update_success():
    agent = one_arm_thompson([True])
    assert (agent.alpha, agent.beta) == ([2.0], [1.0])


def test_beta_update_counts_to_mean():
    agent = one_arm_thompson([True] * 30 + [False] * 70)
    assert agent.alpha[0] / (agent.alpha[0] + agent.beta[0]) == pytest.approx(31 / 102)


def test_beta_mean_bounded():
    rng = np.random.default_rng(4)
    agent = one_arm_thompson([])
    for _ in range(500):
        agent.act(LaObs(0.0, bool(rng.random() < 0.3)))
        assert 0.0 < agent.alpha[0] / (agent.alpha[0] + agent.beta[0]) < 1.0


def test_beta_positivity_enforced():
    with pytest.raises(ConfigError):
        thompson_select([0.0], [1.0], [1.0], np.random.default_rng(0))


# ---------------------------------------------------------------- OLLA / ILLA


def olla_after(acks, step_up, target_bler):
    """An IllaOllaAgent after it has seen `acks`."""
    agent = IllaOllaAgent([0.0, 5.0, 10.0], step_up, target_bler)
    agent.reset(0)
    for ack in acks:
        agent.act(LaObs(0.0, ack))
    return agent


def test_olla_ack_moves_up():
    assert olla_after([None, True], step_up=0.01, target_bler=0.5).offset == pytest.approx(0.01)


def test_olla_zero_drift_ratio():
    # 10% NACKs must cancel 90% ACKs: step_down = 9 * step_up.
    s = olla_after([], step_up=0.01, target_bler=0.1)
    assert s.step_down == pytest.approx(9 * s.step_up)
    drift = (1 - 0.1) * s.step_up - 0.1 * s.step_down
    assert drift == pytest.approx(0.0, abs=1e-15)


def test_olla_symmetric_steps_cycle():
    s = olla_after([True, False], step_up=0.2, target_bler=0.5)
    assert s.step_down == pytest.approx(s.step_up)
    assert s.offset == pytest.approx(0.0)


def test_olla_state_ratio_validated():
    # step_down = step_up * (1 - target) / target needs step_up > 0 and a
    # target strictly inside (0, 1)
    for step_up, target in ((0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, 1.0)):
        with pytest.raises(ConfigError):
            IllaOllaAgent([0.0, 5.0], step_up, target)


def _illa(sinr_report, offset, lookup):
    """The MCS an ILLA-OLLA agent at `offset` picks for its first report."""
    agent = IllaOllaAgent(lookup, step_up=0.1, target_bler=0.1)
    agent.reset(0)
    agent.offset = offset
    return agent.act(LaObs(sinr_report, None))


def test_illa_below_all_thresholds():
    assert _illa(-100.0, 0.0, [0.0, 5.0, 10.0]) == 0


def test_illa_inclusive_boundary():
    assert _illa(5.0, 0.0, [0.0, 5.0, 10.0]) == 1
    assert _illa(10.0, 0.0, [0.0, 5.0, 10.0]) == 2


def test_illa_offset_applied():
    assert _illa(7.0, -3.0, [0.0, 5.0, 10.0]) == 0


def test_illa_requires_increasing_table():
    with pytest.raises(ConfigError, match="strictly increasing"):
        _illa(0.0, 0.0, [0.0, 0.0, 1.0])


def test_illa_olla_closed_loop_hits_target_bler():
    # Stationary SINR: the offset random walk equalizes empirical BLER with
    # the OLLA target (drift-balance argument).
    env = LinkAdaptEnv(
        ar_coeff=0.0, innovation_std=0.0, sinr_mean=10.0, report_noise_std=0.0
    )
    target = 0.1

    from occam_rrm import run_episode

    n = 100_000
    log = run_episode(env, IllaOllaAgent(env.s50, 0.01, target), horizon=n, seed=9)
    acks = log.diagnostics["ack"]
    empirical_bler = 1.0 - acks.mean()
    assert abs(empirical_bler - target) <= 0.03


# ---------------------------------------------------------------- GP surrogate


def test_gp_prior_before_data():
    s = GpSurrogate(length_scales=[1.0], signal_var=2.5, prior_mean=-1.0)
    assert [a.tolist() for a in s.posterior([[0.3]])] == [[-1.0], [2.5]]


def test_gp_noiseless_interpolation():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.0)
    s.add([0.5], 3.0)
    (mean,), (var,) = s.posterior([[0.5]])
    assert mean == pytest.approx(3.0, abs=1e-6)
    assert var <= 1e-6


def test_gp_matches_dense_solve_oracle():
    # Direct formula mean = k*^T (K + noise^2 I)^{-1} (y - m) + m.
    ell, sv, m0 = 0.7, 1.3, 0.2
    xs = np.array([[0.0], [1.0], [2.5]])
    ys = np.array([1.0, -0.5, 0.7])
    noise = np.array([0.1, 0.2, 0.05])
    q = np.array([[1.7]])

    def k(a, b):
        return sv * np.exp(-0.5 * ((a - b) / ell) ** 2)

    gram = k(xs[:, 0][:, None], xs[:, 0][None, :]) + np.diag(noise**2) + 1e-8 * np.eye(3)
    k_star = k(xs[:, 0], q[0, 0])
    sol = np.linalg.solve(gram, ys - m0)
    want_mean = m0 + k_star @ sol
    want_var = sv - k_star @ np.linalg.solve(gram, k_star)

    s = GpSurrogate(length_scales=[ell], signal_var=sv, prior_mean=m0)
    for x, y, nz in zip(xs, ys, noise):
        s.add(x, y, nz)
    (mean,), (var,) = s.posterior(q)
    assert mean == pytest.approx(want_mean, abs=1e-9)
    assert var == pytest.approx(want_var, abs=1e-9)


def test_gp_batch_posterior_matches_dense_closed_form():
    rng = np.random.default_rng(4)
    ell, sv, m0 = np.array([0.7, 2.0]), 1.5, 0.3
    s = GpSurrogate(length_scales=ell, signal_var=sv, prior_mean=m0, max_points=6)
    queries = rng.uniform(0.0, 3.0, size=(25, 2))
    means, var = s.posterior(queries)
    assert means.tolist() == [m0] * 25 and var.tolist() == [sv] * 25
    for _ in range(9):  # three of them slide out of the window
        s.add(rng.uniform(0.0, 3.0, size=2), rng.normal(), 0.05)

    def k(a, b):
        return sv * math.exp(-0.5 * sum(((x - y) / l) ** 2 for x, y, l in zip(a, b, ell)))

    xs = [p[0] for p in s.points]
    ys = np.array([p[1] for p in s.points])
    gram = np.array([[k(a, b) for b in xs] for a in xs]) + (0.05**2 + 1e-8) * np.eye(len(xs))
    k_star = np.array([[k(a, q) for q in queries] for a in xs])
    want_mean = m0 + k_star.T @ np.linalg.solve(gram, ys - m0)
    want_var = sv - np.sum(k_star * np.linalg.solve(gram, k_star), axis=0)

    means, var = s.posterior(queries)
    assert means.shape == var.shape == (25,)
    np.testing.assert_allclose(means, want_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(var, want_var, rtol=0, atol=1e-12)
    one = s.posterior(queries[3:4])  # a one-row batch, computed whole
    assert one[0].shape == one[1].shape == (1,)
    np.testing.assert_allclose(np.concatenate(one), [means[3], var[3]], rtol=0, atol=1e-12)


def test_gp_variance_shrinks_with_data():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.0)
    q = [[0.4]]
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
    _, (var,) = s.posterior([[1000.0]])
    assert var <= 1.7 + 1e-9


def test_gp_window_evicts_oldest():
    s = GpSurrogate(length_scales=[1.0], max_points=2)
    s.add([0.0], 1.0)
    s.add([1.0], 2.0)
    s.add([2.0], 3.0)
    assert len(s.points) == 2
    assert s.points[0][0][0] == 1.0
    assert type(s.points) is tuple
    with pytest.raises(AttributeError):
        s.points = ()


def test_gp_query_dimension_checked():
    s = GpSurrogate(length_scales=[1.0, 1.0])
    with pytest.raises(ConfigError):
        s.posterior([[1.0]])
    with pytest.raises(ConfigError):  # a batch of points, never one bare point
        s.posterior([1.0, 2.0])


# ---------------------------------------------------------------- UCB


def test_ucb_pure_exploitation():
    s = GpSurrogate(length_scales=[1.0], signal_var=1.0)
    s.add([0.0], 1.0, 0.01)
    s.add([2.0], 5.0, 0.01)
    scores = ucb_scores(s, [[0.0], [2.0]], kappa=0.0)
    assert scores.tolist() == s.posterior([[0.0], [2.0]])[0].tolist()
    assert int(np.argmax(scores)) == 1


def test_ucb_no_data_scores_every_candidate_alike():
    s = GpSurrogate(length_scales=[1.0])
    assert ucb_scores(s, [[3.0], [1.0], [2.0]], kappa=1.0).tolist() == [1.0, 1.0, 1.0]


def test_bo_tune_ties_pick_the_first_candidate():
    # a constant objective gives every candidate the prior mean, so at
    # kappa 0 each acquisition ties and takes the lattice's first point
    res = bo_tune(lambda th: 2.5, ((0.0, 1.0),), budget=6, kappa=0.0, seed=0)
    assert [theta for theta, _, _ in res.evaluations[2:]] == [(0.0,)] * 4


def test_ucb_huge_kappa_prefers_unobserved():
    s = GpSurrogate(length_scales=[0.5], signal_var=1.0)
    s.add([0.0], 100.0, 1e-3)
    assert int(np.argmax(ucb_scores(s, [[0.0], [10.0]], kappa=1e6))) == 1


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
    served, optimal = log.diagnostics["served_beam"], log.diagnostics["optimal_beam"]
    assert np.array_equal(served[n_beams:], optimal[n_beams:])


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
        seqs.append(log.actions)
    assert seqs[0] == seqs[1]


def test_tracker_budget_validated():
    env = BeamformingEnv()
    with pytest.raises(ConfigError):
        bo_beam_tracker(env, budget_per_step=0)


@pytest.mark.parametrize("kwargs,fragment", [
    ({"kappa": -1.0}, "kappa"),
    ({"kernel": {"length_scale": 1.0}}, "kernel keys"),
    ({"kernel": {"length_scales": (0.0, 1.0)}}, "length scales"),
    ({"window": 0}, "window"),
])
def test_tracker_agent_checks_config_when_built(kwargs, fragment):
    # an unreset env: nothing may be stepped or measured to find the error
    with pytest.raises(ConfigError, match=fragment):
        BoTrackerAgent(BeamformingEnv(), budget_per_step=2, **kwargs)
