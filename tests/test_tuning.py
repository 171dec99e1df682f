"""Parameterized-policy evaluation and the three tuners.

Analytic optima anchor the tuner tests: the 1-D quadratic peaks at 3 and
the 2-D bowl at (1, 2).
"""

import json

import numpy as np
import pytest

from occam_rrm.errors import ConfigError
from occam_rrm.tuning import (
    ParamPolicy,
    TuneResult,
    bo_tune,
    evaluate_policy,
    fd_ascent,
    nelder_mead,
)

MRO_BOUNDS = ((0.0, 20.0), (1.0, 50.0))
HO_NOISELESS = {"env": "handover", "noise_std": 0.0}


# ---------------------------------------------------------------- evaluation

def test_deterministic_env_single_episode_zero_std():
    policy = ParamPolicy("mro", (3.0, 3.0), MRO_BOUNDS)
    mean, std = evaluate_policy(HO_NOISELESS, policy, n_episodes=1, horizon=50, seed=7)
    assert std == 0.0
    assert np.isfinite(mean)


def test_same_theta_same_seed_identical():
    policy = ParamPolicy("mro", (3.0, 3.0), MRO_BOUNDS)
    cfg = {"env": "handover", "noise_std": 4.0}
    a = evaluate_policy(cfg, policy, n_episodes=3, horizon=60, seed=11)
    b = evaluate_policy(cfg, policy, n_episodes=3, horizon=60, seed=11)
    assert a == b


def test_common_random_numbers_reproducible_differences():
    # Episode seeds depend only on (seed, i), so the paired difference of two
    # thetas is itself deterministic.
    cfg = {"env": "handover", "noise_std": 4.0}
    pa = ParamPolicy("mro", (1.0, 2.0), MRO_BOUNDS)
    pb = ParamPolicy("mro", (6.0, 8.0), MRO_BOUNDS)
    gaps = []
    for _ in range(2):
        va, _ = evaluate_policy(cfg, pa, n_episodes=4, horizon=80, seed=5)
        vb, _ = evaluate_policy(cfg, pb, n_episodes=4, horizon=80, seed=5)
        gaps.append(va - vb)
    assert gaps[0] == gaps[1]


def test_mro_prompt_handover_beats_inert_on_noiseless_crossing():
    # Hysteresis 20 dB with TTT 50 reacts long after the cells cross and eats
    # too-late penalties; (0 dB, 1 step) hands over almost immediately.
    prompt = ParamPolicy("mro", (0.0, 1.0), MRO_BOUNDS)
    inert = ParamPolicy("mro", (20.0, 50.0), MRO_BOUNDS)
    v_prompt, _ = evaluate_policy(HO_NOISELESS, prompt, n_episodes=1, horizon=400, seed=0)
    v_inert, _ = evaluate_policy(HO_NOISELESS, inert, n_episodes=1, horizon=400, seed=0)
    assert v_prompt >= v_inert
    assert v_prompt > v_inert  # the noiseless instance separates them strictly


def test_es_thresholds_and_olla_families_evaluate():
    es_cfg = {
        "env": "energy_saving",
        "n_resources": 4,
        "traffic": {"trace": [2.0], "noise_std": 0.0},
    }
    es = ParamPolicy("es_thresholds", (0.3, 0.9), ((0.0, 0.5), (0.5, 1.0)))
    mean, _ = evaluate_policy(es_cfg, es, n_episodes=1, horizon=40, seed=1)
    assert np.isfinite(mean)

    la_cfg = {"env": "link_adaptation"}
    olla = ParamPolicy("olla_steps", (0.01,), ((0.001, 0.1),))
    mean, _ = evaluate_policy(la_cfg, olla, n_episodes=2, horizon=50, seed=1)
    assert np.isfinite(mean)


@pytest.mark.parametrize("theta", [(1.0, 1.0), (1.0, 0.5)])
def test_es_thresholds_family_evaluates_at_the_lower_bound_corner(theta):
    # lower = 1 leaves no room for upper > lower unless lower is clamped.
    es_cfg = {"env": "energy_saving", "traffic": {"trace": [2.0], "noise_std": 0.0}}
    policy = ParamPolicy("es_thresholds", theta, ((0.0, 1.0), (0.0, 1.0)))
    mean, _ = evaluate_policy(es_cfg, policy, n_episodes=1, horizon=40, seed=1)
    assert np.isfinite(mean)


def test_custom_family_uses_caller_materializer():
    from occam_rrm.agents import FixedMcsAgent
    from occam_rrm.envs import make_env

    def build(cfg, theta):
        return make_env(dict(cfg)), FixedMcsAgent(int(round(theta[0])))

    policy = ParamPolicy("custom", (3.0,), ((0.0, 10.0),))
    mean, _ = evaluate_policy(
        {"env": "link_adaptation"}, policy, 2, 50, seed=0, materializer=build
    )
    assert np.isfinite(mean)


def test_unknown_family_and_bad_policy_rejected():
    with pytest.raises(ConfigError, match="materializer"):
        evaluate_policy(HO_NOISELESS, ParamPolicy("custom", (1.0,), ((0.0, 2.0),)), 1, 10, 0)
    with pytest.raises(ConfigError):
        ParamPolicy("mro", (25.0, 3.0), MRO_BOUNDS)  # theta outside bounds
    with pytest.raises(ConfigError):
        ParamPolicy("mro", (1.0,), MRO_BOUNDS)  # dimension mismatch
    with pytest.raises(ConfigError):
        evaluate_policy(HO_NOISELESS, ParamPolicy("mro", (1.0, 2.0), MRO_BOUNDS), 0, 10, 0)


# ---------------------------------------------------------------- nelder-mead

def test_nm_quadratic_1d():
    res = nelder_mead(lambda th: -((th[0] - 3.0) ** 2), (0.0,), ((-10.0, 10.0),))
    assert abs(res.best_theta[0] - 3.0) < 1e-3
    assert not res.truncated


def test_nm_constant_objective_terminates_by_diameter():
    res = nelder_mead(lambda th: 1.25, (0.5,), ((0.0, 1.0),), max_evals=500, tol=1e-8)
    assert res.best_value == 1.25
    assert not res.truncated


def test_nm_2d_bowl_within_budget():
    res = nelder_mead(
        lambda th: -((th[0] - 1.0) ** 2 + (th[1] - 2.0) ** 2),
        (-3.0, -3.0),
        ((-5.0, 5.0), (-5.0, 5.0)),
        max_evals=200,
        tol=1e-8,
    )
    assert len(res.evaluations) <= 200
    assert abs(res.best_theta[0] - 1.0) < 1e-2
    assert abs(res.best_theta[1] - 2.0) < 1e-2


def test_nm_truncation_flag_and_best_so_far():
    res = nelder_mead(lambda th: -(th[0] ** 2), (4.0,), ((-5.0, 5.0),), max_evals=4)
    assert res.truncated
    assert res.best_value == max(v for _, v, _ in res.evaluations)


def test_nm_theta0_outside_bounds_rejected():
    with pytest.raises(ConfigError):
        nelder_mead(lambda th: 0.0, (2.0,), ((0.0, 1.0),))


# ---------------------------------------------------------------- bo

def test_bo_budget_two_returns_best_design_point():
    res = bo_tune(lambda th: -((th[0] - 0.4) ** 2), ((0.0, 1.0),), budget=2, seed=3)
    assert len(res.evaluations) == 2
    assert res.best_value == max(v for _, v, _ in res.evaluations)


def test_bo_constant_objective():
    res = bo_tune(lambda th: 2.5, ((0.0, 1.0),), budget=6, seed=0)
    assert res.best_value == 2.5


def test_bo_deterministic_in_seed():
    f = lambda th: -((th[0] - 0.37) ** 2)
    a = bo_tune(f, ((0.0, 1.0),), budget=12, seed=9)
    b = bo_tune(f, ((0.0, 1.0),), budget=12, seed=9)
    assert a.evaluations == b.evaluations
    c = bo_tune(f, ((0.0, 1.0),), budget=12, seed=10)
    assert a.evaluations != c.evaluations


def test_bo_beats_random_search_on_most_seeds():
    f = lambda th: -((th[0] - 0.37) ** 2)
    wins = 0
    for seed in range(100):
        bo = bo_tune(f, ((0.0, 1.0),), budget=30, seed=seed)
        rng = np.random.default_rng(seed)
        rs_best = max(f((x,)) for x in rng.uniform(0.0, 1.0, size=30))
        wins += bo.best_value >= rs_best
    assert wins >= 80


def test_bo_budget_validated():
    with pytest.raises(ConfigError):
        bo_tune(lambda th: 0.0, ((0.0, 1.0),), budget=1)


def test_bo_negative_kappa_rejected():
    with pytest.raises(ConfigError, match="kappa"):
        bo_tune(lambda th: -th[0] ** 2, ((-1.0, 1.0),), budget=4, kappa=-1.0)


def test_bo_negative_kappa_rejected_before_any_evaluation():
    # budget 2 is all initial design, so no acquisition step would ever run
    calls = []
    with pytest.raises(ConfigError, match="kappa"):
        bo_tune(lambda th: calls.append(th) or 0.0, ((-1.0, 1.0),), budget=2, kappa=-1.0)
    assert calls == []


# ---------------------------------------------------------------- fd ascent

def test_fd_linear_objective_hits_upper_bound():
    res = fd_ascent(lambda th: 2.0 * th[0], (0.2,), ((0.0, 1.0),), step=0.3, fd_delta=1e-3)
    assert res.best_theta[0] == 1.0


def test_fd_step_zero_returns_theta0_only():
    res = fd_ascent(lambda th: -((th[0] - 3.0) ** 2), (1.0,), ((0.0, 5.0),), step=0.0, fd_delta=1e-3)
    assert res.best_theta == (1.0,)
    assert len(res.evaluations) == 1


def test_fd_delta_validated():
    with pytest.raises(ConfigError):
        fd_ascent(lambda th: 0.0, (0.5,), ((0.0, 1.0),), step=0.1, fd_delta=0.0)


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize(
    "tuner",
    [
        lambda f, b: nelder_mead(f, (0.9,), b, max_evals=60),
        lambda f, b: bo_tune(f, b, budget=20, seed=4),
        lambda f, b: fd_ascent(f, (0.9,), b, step=0.5, fd_delta=1e-2, iters=10),
    ],
    ids=["nelder_mead", "bo", "fd"],
)
def test_every_evaluated_theta_respects_bounds(tuner):
    # Optimum sits on the boundary, forcing each tuner to project.
    bounds = ((0.0, 1.0),)
    res = tuner(lambda th: th[0], bounds)
    for theta, _, _ in res.evaluations:
        assert 0.0 <= theta[0] <= 1.0
    assert res.best_value == max(v for _, v, _ in res.evaluations)


def test_tune_result_invariant_and_serialization():
    evals = [((1.0,), 0.5, 0.0), ((2.0,), 0.9, 0.1)]
    with pytest.raises(ConfigError):
        TuneResult(best_theta=(1.0,), best_value=0.5, evaluations=evals)
    res = TuneResult(best_theta=(2.0,), best_value=0.9, evaluations=evals, notes="ttt rounded")
    csv_text = res.to_csv()
    assert csv_text.splitlines()[0] == "theta_0,value,std_error"
    assert len(csv_text.splitlines()) == 3
    blob = json.loads(res.to_json())
    assert blob["best_theta"] == [2.0]
    assert blob["n_evaluations"] == 2
    assert blob["truncated"] is False
    assert blob["notes"] == "ttt rounded"


def test_nm_tunes_mro_on_simulator():
    # End to end: simplex search over (hysteresis, ttt) on the noisy crossing
    # env should return something at least as good as a deliberately bad theta.
    def objective(theta):
        policy = ParamPolicy("mro", theta, MRO_BOUNDS)
        return evaluate_policy(
            {"env": "handover", "noise_std": 4.0}, policy, n_episodes=2, horizon=120, seed=21
        )

    res = nelder_mead(objective, (10.0, 25.0), MRO_BOUNDS, max_evals=30)
    bad = objective((20.0, 50.0))[0]
    assert res.best_value >= bad
