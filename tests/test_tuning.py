"""Parameterized-policy evaluation and the two tuners.

Analytic optima anchor the tuner tests: the 1-D quadratic peaks at 3 and
the 2-D bowl at (1, 2).
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from occam_rrm.errors import ConfigError
from occam_rrm.sobol import JOE_KUO, MAX_DIM, scrambled_sobol
from occam_rrm.tuning import (
    ParamPolicy,
    TuneResult,
    bo_tune,
    evaluate_policy,
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


def test_unknown_family_and_bad_policy_rejected():
    with pytest.raises(ConfigError, match="unknown policy family"):
        evaluate_policy(HO_NOISELESS, ParamPolicy("custom", (1.0,), ((0.0, 2.0),)), 1, 10, 0)
    with pytest.raises(ConfigError):
        ParamPolicy("mro", (25.0, 3.0), MRO_BOUNDS)  # theta outside bounds
    with pytest.raises(ConfigError):
        ParamPolicy("mro", (1.0,), MRO_BOUNDS)  # dimension mismatch
    with pytest.raises(ConfigError):
        evaluate_policy(HO_NOISELESS, ParamPolicy("mro", (1.0, 2.0), MRO_BOUNDS), 0, 10, 0)


# Each family's solver on an env kind it does not support once failed
# mid-episode with an AttributeError; now refused before any episode.
@pytest.mark.parametrize(
    "family, theta, bounds, env, solver",
    [
        ("mro", (1.0, 2.0), MRO_BOUNDS, "energy_saving", "mro"),
        ("es_thresholds", (0.3, 0.9), ((0.0, 1.0), (0.0, 1.0)), "link_adaptation",
         "es-thresholds"),
        ("olla_steps", (0.01,), ((0.001, 0.1),), "handover", "illa-olla"),
    ],
)
def test_family_on_wrong_env_kind_names_its_solver(family, theta, bounds, env, solver):
    policy = ParamPolicy(family, theta, bounds)
    with pytest.raises(ConfigError, match=f"solver '{solver}' supports"):
        evaluate_policy({"env": env}, policy, 1, 10, 0)


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


# sha256 of bo_tune(...).to_csv() for two policy families at a small fixed
# budget: any change in the GP's acquisitions shows.
BO_GOLDEN = {
    "mro": ({"env": "handover"}, MRO_BOUNDS,
            "197b563acb4409a9b5dd57848215adefbe40baad0a4c59ac126dd1b82cdae13c"),
    "es_thresholds": ({"env": "energy_saving"}, ((0.0, 1.0), (0.0, 1.0)),
                      "6f38c88718bf8ddce58f14353f069468f2c15d278b8a8957849e19f67a06d9c6"),
}


@pytest.mark.parametrize("family", sorted(BO_GOLDEN))
def test_bo_tune_matches_golden_csv(family):
    env, bounds, digest = BO_GOLDEN[family]

    def objective(theta):
        return evaluate_policy(env, ParamPolicy(family, theta, bounds), 2, 60, 0)

    csv = bo_tune(objective, bounds, budget=10, seed=0).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


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


def test_bo_over_16_dimensions_rejected_before_any_evaluation():
    calls = []
    with pytest.raises(ConfigError, match="16 dimensions"):
        bo_tune(lambda th: calls.append(th) or 0.0, ((0.0, 1.0),) * 17, budget=8)
    assert calls == []


@pytest.mark.parametrize("kernel,message", [
    ({"length_scales": [0.5]}, r"^length_scales needs shape \(2,\), got \(1,\)$"),
    ({"length_scales": [0.5, 0.5, 0.5]}, r"^length_scales needs shape \(2,\), got \(3,\)$"),
    ({"length_scales": [0.0, 1.0]}, r"^length_scales entries must lie in \(0, inf\), got 0.0$"),
    ({"signal_var": -1}, r"^signal_var must lie in \(0, inf\), got -1.0$"),
], ids=["one-scale", "three-scales", "zero-scale", "negative-signal-var"])
def test_bo_kernel_checked_before_any_evaluation(kernel, message):
    # each once spent the 5-point design before the surrogate refused it
    calls = []
    with pytest.raises(ConfigError, match=message):
        bo_tune(lambda th: calls.append(th) or 0.0, MRO_BOUNDS, budget=20, kernel_cfg=kernel)
    assert calls == []


# ---------------------------------------------------------------- sobol

# scipy is the reference for the design bo_tune draws, not a dependency.
@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_scrambled_sobol_matches_scipy_bit_for_bit(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in range(20):
        for n in (1, 2, 4, 16, 512):
            expected = qmc.Sobol(d, scramble=True, seed=seed).random(n)
            assert np.array_equal(scrambled_sobol(d, n, seed), expected), (seed, n)


def test_joe_kuo_table_is_scipys_first_16_rows():
    pytest.importorskip("scipy.stats")
    origin = Path(importlib.util.find_spec("scipy").origin).parent
    table = np.load(origin / "stats" / "_sobol_direction_numbers.npz")
    assert [poly for poly, _ in JOE_KUO] == table["poly"][:MAX_DIM].tolist()
    for row, (_, m) in zip(table["vinit"], JOE_KUO):
        assert row.tolist() == list(m) + [0] * (len(row) - len(m))


# ---------------------------------------------------------------- invariants

@pytest.mark.parametrize(
    "tuner",
    [
        lambda f, b: nelder_mead(f, (0.9,), b, max_evals=60),
        lambda f, b: bo_tune(f, b, budget=20, seed=4),
    ],
    ids=["nelder_mead", "bo"],
)
def test_every_evaluated_theta_respects_bounds(tuner):
    # Optimum sits on the boundary, forcing each tuner to project.
    bounds = ((0.0, 1.0),)
    res = tuner(lambda th: th[0], bounds)
    for theta, _, _ in res.evaluations:
        assert 0.0 <= theta[0] <= 1.0
    assert res.best_value == max(v for _, v, _ in res.evaluations)


@pytest.mark.parametrize(
    "tuner",
    [
        lambda f, b: nelder_mead(f, (0.0,), b),
        lambda f, b: bo_tune(f, b, budget=4),
    ],
    ids=["nelder_mead", "bo"],
)
@pytest.mark.parametrize(
    "bounds", [((1.0, -1.0),), ((0.0, float("nan")),)], ids=["inverted", "nan"]
)
def test_bad_bounds_rejected_before_any_evaluation(tuner, bounds):
    calls = []
    with pytest.raises(ConfigError, match="finite with low <= high"):
        tuner(lambda th: calls.append(th) or 0.0, bounds)
    assert calls == []


@pytest.mark.parametrize("make", [
    lambda: ParamPolicy("mro", (), ()),
    lambda: nelder_mead(lambda th: 0.0, (), ()),
], ids=["ParamPolicy", "nelder_mead"])
def test_zero_components_are_refused(make):
    # an empty ParamPolicy was once built, to fail with an IndexError in its family
    with pytest.raises(ConfigError, match=r"^theta0? has 0 components for 0 bounds$"):
        make()


@pytest.mark.parametrize(
    "theta0,bounds",
    [((0.5, 0.5), ((0.0, 1.0),)), ((0.5,), ((0.0, 1.0), (0.0, 1.0)))],
    ids=["theta0-longer", "bounds-longer"],
)
def test_nm_dimension_mismatch_rejected_before_any_evaluation(theta0, bounds):
    calls = []
    with pytest.raises(ConfigError, match="components for"):
        nelder_mead(lambda th: calls.append(th) or 0.0, theta0, bounds)
    assert calls == []


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
