"""Experiment runner: config validation, output layout, determinism,
solver/env compatibility, parallel execution, and sweeps."""

import hashlib
import json
from pathlib import Path

import pytest

from occam_rrm.config import config_keys
from occam_rrm.envs import ENVS, make_env
from occam_rrm.errors import ConfigError
from occam_rrm.experiments import (
    SOLVERS,
    ExperimentConfig,
    check_compatibility,
    resolve_jobs,
    run_experiment,
    sweep,
)
from occam_rrm.rng import derive_seed


def la_config(out_dir, seeds=(1, 2, 3)):
    return ExperimentConfig.from_dict({
        "env": {"env": "link_adaptation"},
        "solvers": [
            {"name": "illa-olla"},
            {"name": "fixed-mcs", "config": {"mcs": 2}},
        ],
        "horizon": 30,
        "seeds": list(seeds),
        "outputs": str(out_dir),
    })


# ---------------------------------------------------------------- config

def test_defaults_and_seed_expansion():
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "link_adaptation"},
        "solvers": [{"name": "illa-olla"}],
        "seeds": {"base": 7, "count": 3},
    })
    assert cfg.horizon == 100 and cfg.n_episodes == 1 and cfg.metrics == "basic"
    assert cfg.seeds == tuple(derive_seed(7, i) for i in range(3))


@pytest.mark.parametrize("raw,fragment", [
    ({"env": {"env": "x"}}, "solvers"),
    ({"env": {"env": "x"}, "solvers": []}, "solvers"),
    ({"env": {"env": "x"}, "solvers": [{"name": "a"}], "metrics": "nope"}, "metrics"),
    ({"env": {"env": "x"}, "solvers": [{"name": "a"}], "horizon": 0}, "horizon"),
    ({"solvers": [{"name": "a"}]}, "env"),
], ids=["no-solvers", "empty-solvers", "bad-metrics", "zero-horizon", "no-env"])
def test_schema_violations_name_the_field(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_dict(raw)


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        ExperimentConfig.from_dict({
            "env": {"env": "link_adaptation"},
            "solvers": [{"name": "illa-olla"}, {"name": "illa-olla"}],
        })


def test_unknown_solver_and_incompatibility():
    with pytest.raises(ConfigError, match="known"):
        check_compatibility("does-not-exist", "link_adaptation")
    # a power solver on the handover env: the error carries the advisor's walk
    with pytest.raises(ConfigError, match="policy-tuning"):
        check_compatibility("water-fill", "handover")


def test_resolve_jobs_env_var(monkeypatch):
    monkeypatch.delenv("OCCAM_RRM_JOBS", raising=False)
    assert resolve_jobs() == 1
    monkeypatch.setenv("OCCAM_RRM_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2
    monkeypatch.setenv("OCCAM_RRM_JOBS", "zero")
    with pytest.raises(ConfigError):
        resolve_jobs()
    with pytest.raises(ConfigError):
        resolve_jobs(0)


# ---------------------------------------------------------------- running

def test_two_solvers_three_seeds_output_counts(tmp_path):
    summary_path = run_experiment(la_config(tmp_path))
    csvs = sorted((tmp_path / "episodes").glob("*.csv"))
    assert len(csvs) == 6
    assert summary_path == tmp_path / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert set(summary["solvers"]) == {"illa-olla", "fixed-mcs"}
    for entry in summary["solvers"].values():
        assert len(entry["episode_files"]) == 3
        assert len(entry["per_seed"]) == 3
        assert "mean_reward" in entry["metrics"]


def test_rerun_is_byte_identical(tmp_path):
    cfg = la_config(tmp_path / "a")
    run_experiment(cfg)
    first = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").rglob("*")) if p.is_file()}
    run_experiment(cfg)
    second = {p.name: p.read_bytes() for p in sorted((tmp_path / "a").rglob("*")) if p.is_file()}
    assert first == second


def test_rerun_with_fewer_seeds_leaves_only_its_files(tmp_path):
    run_experiment(la_config(tmp_path, seeds=(0, 1)))
    summary_path = run_experiment(la_config(tmp_path, seeds=(0,)))
    names = sorted(p.name for p in (tmp_path / "episodes").iterdir())
    assert names == ["fixed-mcs_seed0_ep0.csv", "illa-olla_seed0_ep0.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["episodes", "summary.json"]
    assert json.loads(summary_path.read_text())["config"]["seeds"] == [0]


def test_parallel_jobs_match_serial(tmp_path):
    serial = json.loads(run_experiment(la_config(tmp_path / "s")).read_text())
    parallel = json.loads(run_experiment(la_config(tmp_path / "p"), jobs=2).read_text())
    assert serial["solvers"] == parallel["solvers"]


def test_beam_experiment_profile(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "beamforming", "n_beams": 8},
        "solvers": [
            {"name": "full-scan"},
            {"name": "knn-tracker", "config": {"budget_per_step": 2}},
            {"name": "bo-tracker", "config": {"budget_per_step": 2}},
        ],
        "horizon": 40,
        "seeds": [0],
        "outputs": str(tmp_path),
        "metrics": "beam",
    })
    summary = json.loads(run_experiment(cfg).read_text())
    for entry in summary["solvers"].values():
        assert 0.0 <= entry["metrics"]["accuracy"] <= 1.0
        assert entry["metrics"]["mean_abs_beam_error"] >= 0.0
    assert summary["solvers"]["full-scan"]["metrics"]["accuracy"] == 1.0


# sha256 of every episode CSV of the beam trackers and Q-learning at a small
# fixed config: any change to their decisions, rewards or diagnostics shows.
GOLDEN_CSV_SHA256 = {
    "beamforming": {
        "bo-tracker_seed0_ep0.csv": "d8fe1a94271c85d97f5ef311f40184f4386f050bbd72ca3e667f198f2919b6e7",
        "bo-tracker_seed1_ep0.csv": "daf540a220dec4f79f26817dd3f79cc009944e2ebc43de4b9b675f386bf4dfce",
        "full-scan_seed0_ep0.csv": "3765c25adbcdcefeadad82c1136f170738c0375a3e6215fee2ceacf3fcb7fcdd",
        "full-scan_seed1_ep0.csv": "b90664df7e4d752031dbe54389812880ccb2a0b8a8d0c694526e58e4ef934d0e",
        "knn-tracker_seed0_ep0.csv": "7beff64537a195a134a047a1b5576993e15b1ea461e009d9c030461400c53dd5",
        "knn-tracker_seed1_ep0.csv": "294da085e938c69b3f1d95b5f200b14c5de47d5150c292dc6ce275069967bd6b",
    },
    "admission_control": {
        "q-learning_seed0_ep0.csv": "3ae7312edb5e08fa855dbd64b6749f76141fd2f3863592e6fca37e5038f11d9b",
        "q-learning_seed1_ep0.csv": "be74c828047ab1c040e9c97e53c5025a13ac5054a78a983d899925a6a5bf20e8",
    },
}
GOLDEN_SOLVERS = {
    "beamforming": [
        {"name": "knn-tracker", "config": {"budget_per_step": 2}},
        {"name": "bo-tracker", "config": {"budget_per_step": 2}},
        {"name": "full-scan"},
    ],
    "admission_control": [{"name": "q-learning", "config": {"train_episodes": 5}}],
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SOLVERS))
def test_episode_csvs_match_golden_bytes(tmp_path, kind):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": kind},
        "solvers": GOLDEN_SOLVERS[kind],
        "horizon": 40,
        "seeds": [0, 1],
        "outputs": str(tmp_path),
    })
    run_experiment(cfg)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (tmp_path / "episodes").glob("*.csv")
    }
    assert digests == GOLDEN_CSV_SHA256[kind]


def test_multiple_episodes_per_seed(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "link_adaptation"},
        "solvers": [{"name": "thompson-mcs"}],
        "horizon": 20,
        "n_episodes": 2,
        "seeds": [4],
        "outputs": str(tmp_path),
    })
    summary = json.loads(run_experiment(cfg).read_text())
    files = summary["solvers"]["thompson-mcs"]["episode_files"]
    assert len(files) == 2
    for rel in files:
        assert (tmp_path / rel).exists()


def test_value_iteration_solver_on_admission_env(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {
            "env": "admission_control",
            "capacity": 3,
            "classes": [{"arrival_rate": 0.3, "departure_rate": 0.2,
                         "demand": 1, "reward": 1.0}],
        },
        "solvers": [{"name": "value-iteration"}, {"name": "accept-all"}],
        "horizon": 50,
        "seeds": [0, 1],
        "outputs": str(tmp_path),
    })
    summary = json.loads(run_experiment(cfg).read_text())
    vi = summary["solvers"]["value-iteration"]["metrics"]["mean_reward"]
    aa = summary["solvers"]["accept-all"]["metrics"]["mean_reward"]
    # same seeds, same trajectories: VI only improves on accept-all by
    # rejecting (instead of bouncing off) arrivals at full capacity
    assert vi >= aa


def test_same_solver_twice_needs_labels(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "handover", "noise_std": 0.0},
        "solvers": [
            {"name": "mro", "label": "mro-fast", "config": {"hysteresis": 0.0,
                                                            "time_to_trigger": 1}},
            {"name": "mro", "label": "mro-slow", "config": {"hysteresis": 10.0,
                                                            "time_to_trigger": 40}},
        ],
        "horizon": 400,
        "seeds": [0],
        "outputs": str(tmp_path),
    })
    summary = json.loads(run_experiment(cfg).read_text())
    fast = summary["solvers"]["mro-fast"]["metrics"]["mean_reward"]
    slow = summary["solvers"]["mro-slow"]["metrics"]["mean_reward"]
    assert fast >= slow


def test_unknown_solver_config_key_rejected(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "link_adaptation"},
        "solvers": [{"name": "illa-olla", "config": {"step": 1}}],
        "outputs": str(tmp_path),
    })
    with pytest.raises(ConfigError, match="unknown solver config"):
        run_experiment(cfg)


# ---------------------------------------------------------------- sweep

def test_sweep_row_counts_and_paths(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "handover", "noise_std": 2.0},
        "solvers": [{"name": "mro"}, {"name": "greedy-ho"}],
        "horizon": 60,
        "seeds": [0, 1],
        "outputs": str(tmp_path),
    })
    path = sweep(cfg, "env.hysteresis", [0.0, 2.0, 4.0, 6.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value,solver,mean_reward,discounted_return"
    assert len(lines) == 1 + 4 * 2
    assert (tmp_path / "value_000" / "summary.json").exists()


def test_sweep_errors(tmp_path):
    cfg = la_config(tmp_path, seeds=(0,))
    with pytest.raises(ConfigError, match="nonempty"):
        sweep(cfg, "horizon", [])
    with pytest.raises(ConfigError, match="not found"):
        sweep(cfg, "env.nested.deep", [1])
    with pytest.raises(ConfigError, match="out of range"):
        sweep(cfg, "solvers.9.config.mcs", [1])
    with pytest.raises(ConfigError, match="list index"):
        sweep(cfg, "solvers.first.config.mcs", [1])


def test_sweep_es_upper_threshold_has_interior_maximum(tmp_path):
    # Fleet of 4 unit-capacity resources, mean traffic 2 with noise and a
    # one-step activation delay: a tight upper threshold keeps the whole
    # fleet on and wastes energy, a loose one sheds down to two resources
    # and pays QoS penalties when spikes land on a cold fleet. The middle
    # threshold holds three resources and wins from both sides.
    cfg = ExperimentConfig.from_dict({
        "env": {
            "env": "energy_saving",
            "n_resources": 4,
            "capacity": 1.0,
            "power_draw": 1.0,
            "activation_delay": 1,
            "traffic": {"trace": [2.0], "noise_std": 0.4},
            "qos_threshold": 0.5,
            "qos_weight": 25.0,
            "energy_weight": 1.0,
        },
        "solvers": [{"name": "es-thresholds", "config": {"lower": 0.05}}],
        "horizon": 400,
        "seeds": [0, 1, 2, 3, 4],
        "outputs": str(tmp_path),
    })
    path = sweep(cfg, "solvers.0.config.upper", [0.55, 0.85, 1.0])
    rows = path.read_text().splitlines()[1:]
    rewards = [float(r.split(",")[3]) for r in rows]
    assert rewards[1] > rewards[0]
    assert rewards[1] > rewards[2]


def test_registry_covers_every_env():
    covered = {kind for spec in SOLVERS.values() for kind in spec.envs}
    assert covered == {
        "link_adaptation", "power_control", "beamforming", "scheduling",
        "energy_saving", "handover", "admission_control", "tabular",
    }


# ---------------------------------------------------------------- config keys

ENV_KEYS = {
    "link_adaptation": {"n_mcs", "rates", "s50", "bler_slope", "sinr_mean", "ar_coeff",
                        "innovation_std", "report_noise_std"},
    "power_control": {"n_channels", "total_power", "noise", "coherence", "mean_gain",
                      "fixed_gains"},
    "beamforming": {"n_beams", "ue_speed", "spatial_corr", "temporal_corr", "measure_cost",
                    "mean_rsrp", "rsrp_std", "speed_to_corr"},
    "scheduling": {"n_users", "mean_efficiency", "fading", "arrival_rates", "ewma_alpha",
                   "weights"},
    "energy_saving": {"n_resources", "capacity", "power_draw", "activation_delay", "traffic",
                      "qos_threshold", "qos_weight", "energy_weight"},
    "handover": {"n_cells", "model", "noise_std", "ho_interruption", "rlf_threshold",
                 "pingpong_window", "hysteresis"},
    "admission_control": {"capacity", "classes", "strict_feasibility", "safety_margin",
                          "qos_penalty", "discount"},
    "tabular": {"transition", "reward", "discount", "initial_state", "reward_noise_std"},
}
REQUIRED_ENV_KEYS = {"tabular": {"transition", "reward"}}

# solver -> (accepted keys, required keys)
SOLVER_KEYS = {
    "illa-olla": ({"step_up", "target_bler"}, set()),
    "thompson-mcs": (set(), set()),
    "fixed-mcs": ({"mcs"}, {"mcs"}),
    "water-fill": (set(), set()),
    "uniform-power": (set(), set()),
    "proportional-fair": ({"ewma_alpha"}, set()),
    "round-robin": (set(), set()),
    "max-rate": (set(), set()),
    "dpp-energy": ({"v_weight"}, set()),
    "min-energy": (set(), set()),
    "es-thresholds": ({"lower", "upper"}, set()),
    "mpc-energy": ({"predictor", "plan_horizon", "discount"}, set()),
    "mro": ({"hysteresis", "time_to_trigger"}, set()),
    "greedy-ho": (set(), set()),
    "trunk": ({"thresholds"}, {"thresholds"}),
    "accept-all": (set(), set()),
    "value-iteration": ({"tol"}, set()),
    "q-learning": ({"train_episodes", "train_horizon"}, set()),
    "bo-tracker": ({"budget_per_step", "kernel", "kappa", "window"}, {"budget_per_step"}),
    "knn-tracker": ({"budget_per_step"}, {"budget_per_step"}),
    "full-scan": (set(), set()),
}


def test_env_config_keys_are_pinned():
    assert set(ENVS) == set(ENV_KEYS)
    for kind, keys in ENV_KEYS.items():
        assert config_keys(ENVS[kind]) == (keys, REQUIRED_ENV_KEYS.get(kind, set())), kind
        with pytest.raises(ConfigError, match=f"unknown {kind} config keys: \\['bogus'\\]"):
            make_env({"env": kind, "bogus": 1})
    with pytest.raises(ConfigError, match="missing required key 'reward'"):
        make_env({"env": "tabular", "transition": [[[1.0]]]})


def test_solver_config_keys_are_pinned():
    assert set(SOLVERS) == set(SOLVER_KEYS)
    for name, keys in SOLVER_KEYS.items():
        spec = SOLVERS[name]
        assert config_keys(spec.agent, ("env", "seed")) == keys, name
        accepted, required = keys
        env_cfg = {"env": spec.envs[-1]}
        full = {key: None for key in accepted}
        with pytest.raises(ConfigError, match="unknown solver config keys: \\['bogus'\\]"):
            spec.run(env_cfg, {**full, "bogus": 1}, horizon=1, seed=0)
        for key in required:
            with pytest.raises(ConfigError, match=f"solver config missing required key '{key}'"):
                spec.run(env_cfg, {}, horizon=1, seed=0)
