"""Experiment runner: config validation, output layout, determinism,
solver/env compatibility, parallel execution, and sweeps."""

import concurrent.futures
import csv
import hashlib
import inspect
import json
import math
import os
import re
import shutil
from pathlib import Path

import pytest

from occam_rrm import cli, config, experiments
from occam_rrm.envs import ENVS, make_env
from occam_rrm.errors import ConfigError, InvalidActionError, NumericalError
from occam_rrm.experiments import (
    SOLVERS,
    ExperimentConfig,
    SolverSpec,
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


ENV = {"env": "link_adaptation"}
SOLVER = {"name": "illa-olla"}


def _with(**top):
    """A valid config with the given top-level keys replaced or added."""
    return {"env": ENV, "solvers": [SOLVER], **top}


def _entry(**fields):
    return _with(solvers=[{**SOLVER, **fields}])


# One config per rule of the experiment config, each with a word its error
# must carry: the field, or the key that is unknown or missing.
REFUSALS = {
    "top-level-list": ([], "config"),
    "top-level-unknown-key": (_with(horizons=5), "horizons"),
    "no-env": ({"solvers": [SOLVER]}, "env"),
    "env-not-object": (_with(env="link_adaptation"), "env"),
    "env-without-env": (_with(env={}), "env"),
    "env-env-not-string": (_with(env={"env": 1}), "env"),
    "no-solvers": ({"env": ENV}, "solvers"),
    "solvers-not-list": (_with(solvers=SOLVER), "solvers"),
    "solvers-empty": (_with(solvers=[]), "solvers"),
    "solver-entry-not-object": (_with(solvers=["illa-olla"]), "solvers"),
    "solver-entry-unknown-key": (_entry(cfg={}), "cfg"),
    "solver-without-name": (_with(solvers=[{"label": "a"}]), "name"),
    "solver-name-empty": (_entry(name=""), "name"),
    "solver-name-not-string": (_entry(name=3), "name"),
    "label-not-string": (_entry(label=3), "label"),
    "label-bad-start": (_entry(label="-a"), "label"),
    "label-bad-char": (_entry(label="a/b"), "label"),
    "solver-config-not-object": (_entry(config=[]), "config"),
    "horizon-zero": (_with(horizon=0), "horizon"),
    "horizon-bool": (_with(horizon=True), "horizon"),
    "horizon-string": (_with(horizon="5"), "horizon"),
    "n-episodes-zero": (_with(n_episodes=0), "n_episodes"),
    "n-episodes-bool": (_with(n_episodes=True), "n_episodes"),
    "seeds-string": (_with(seeds="0"), "seeds"),
    "seeds-empty-list": (_with(seeds=[]), "seeds"),
    "seed-negative": (_with(seeds=[0, -1]), "seeds"),
    "seed-bool": (_with(seeds=[True]), "seeds"),
    "seeds-extra-key": (_with(seeds={"base": 0, "count": 1, "step": 1}), "seeds"),
    "seeds-without-count": (_with(seeds={"base": 0}), "seeds"),
    "seeds-base-negative": (_with(seeds={"base": -1, "count": 1}), "seeds"),
    "seeds-count-zero": (_with(seeds={"base": 0, "count": 0}), "seeds"),
    "metrics-unknown": (_with(metrics="nope"), "metrics"),
    "outputs-empty": (_with(outputs=""), "outputs"),
    "outputs-not-string": (_with(outputs=1), "outputs"),
}


@pytest.mark.parametrize("raw,fragment", REFUSALS.values(), ids=REFUSALS)
def test_every_config_rule_refuses_naming_the_field(raw, fragment):
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


@pytest.mark.parametrize("via", ["argument", "environment"])
def test_pool_gets_at_most_one_worker_per_cell_and_core(tmp_path, monkeypatch, via):
    # a pool starts all of its workers at its first map, so a huge --jobs
    # must not become a huge pool; this one maps serially and starts nothing
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def map(self, fn, cells):
            return map(fn, cells)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("OCCAM_RRM_JOBS", str(10**6))
    jobs = 10**6 if via == "argument" else None
    serial = json.loads(run_experiment(la_config(tmp_path / "s"), jobs=1).read_text())
    pooled = json.loads(run_experiment(la_config(tmp_path / "p"), jobs=jobs).read_text())
    assert workers == [min(6, os.cpu_count() or 1)]  # 2 solvers x 3 seeds
    assert pooled["solvers"] == serial["solvers"]
    sweep(la_config(tmp_path / "w", seeds=(1,)), "horizon", [10, 20], jobs=jobs)
    assert workers[1:] == [min(4, os.cpu_count() or 1)]


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


# sha256 of the episode CSVs of every registered solver at a small fixed
# config: any change to their decisions, rewards, diagnostics or CSV
# formatting shows.
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
        "accept-all_seed0_ep0.csv": "ee7fd8346219f509923a1c5c9da5d1b76b5e528a2ccc82f0842121ef60af7ec4",
        "accept-all_seed1_ep0.csv": "f5b2ccb8870e4bbc9bb3899794ea8ea02968c391374006e4125c709848f6d0f0",
        "q-learning_seed0_ep0.csv": "3ae7312edb5e08fa855dbd64b6749f76141fd2f3863592e6fca37e5038f11d9b",
        "q-learning_seed1_ep0.csv": "be74c828047ab1c040e9c97e53c5025a13ac5054a78a983d899925a6a5bf20e8",
        "trunk_seed0_ep0.csv": "2be43b208045e3be6208e0ef09f4b971d7f14a2c0051f59b65ffbebee4992f76",
        "trunk_seed1_ep0.csv": "c3e18b7b5b3c3f659500705aa9d2897607292b3420db59b7773e2f0370eb84a7",
        "value-iteration_seed0_ep0.csv": "4975a41ece8cdd717eae45d36338fb385685276b926373138446163aa2999ebc",
        "value-iteration_seed1_ep0.csv": "86bc373f8b820287d83739db8cdb858844517ae8f0221a85c730d53bc51585ae",
    },
    "energy_saving": {
        "dpp-energy_seed0_ep0.csv": "94a25ce351ff91bc3db5659a13a8c802f06483bad49494dec1ed43d79e472a11",
        "dpp-energy_seed1_ep0.csv": "8e845c6439bed77c1f19a05166f2a33be198a06f037bef3b01fa2f1f09145d72",
        "es-thresholds_seed0_ep0.csv": "ecfa19f566025465dce6def445a07c2e39c855a5d949f7bf9a243f06861d1208",
        "es-thresholds_seed1_ep0.csv": "901bdfb337449a7895801b93ec32d81fb6c7ddc412b1dd9deafcd7e39cbf6e1a",
        "min-energy_seed0_ep0.csv": "94a25ce351ff91bc3db5659a13a8c802f06483bad49494dec1ed43d79e472a11",
        "min-energy_seed1_ep0.csv": "8e845c6439bed77c1f19a05166f2a33be198a06f037bef3b01fa2f1f09145d72",
        "oracle-h3_seed0_ep0.csv": "b09b6157a4d15376fe3ed60f5b00d92c0ff8de6d31c629df78232fb28e910d95",
        "oracle-h3_seed1_ep0.csv": "6b7595805e10766f31d4179a5c435890f0942f07339f3800c9923a661603eeeb",
        "oracle-h5_seed0_ep0.csv": "68a367d727ad45013c342f3aff0dd0ef3d1a688995f545d77808a0bc8457bbdd",
        "oracle-h5_seed1_ep0.csv": "e2be40809df1b2b561aac40a09a5f826eb105ce81457d81820e74b179598e922",
        "persistence-h3_seed0_ep0.csv": "22377c2a96b8f4710612dee167f9a39a1bdfa6dc5012291260b509801d34eaa3",
        "persistence-h3_seed1_ep0.csv": "6a36b29764afd6f80efa1d7ddd30249434b6018baa402a1979b2c55b10cf524c",
        "persistence-h5_seed0_ep0.csv": "052659e334c84b30660ce9a80d5ff904ff1c70ec5602faf9488704fd27fcb89f",
        "persistence-h5_seed1_ep0.csv": "66515028e6a31b9e18edd3d283099a1fa39d9ce9dde129a82d233cf275a3c6e5",
    },
    "handover": {
        "greedy-ho_seed0_ep0.csv": "fa0a8e3fe7f1f68fc5cff90411c1af71dad44d158d72e60b2839fd34dc762e6b",
        "greedy-ho_seed1_ep0.csv": "e67260c04dd646a5d2442d490fc89be1f11af72ddd0b3a5d534378fc6d0d9854",
        "mro_seed0_ep0.csv": "798af8dd8b80c7005f66813518cb329177609e6eb1a69f912f87ccc27ae5b39e",
        "mro_seed1_ep0.csv": "903a58443a4dbb2cc4e108ab50cbe591af4d51f946e094d6e26db505b8335eb7",
    },
    "link_adaptation": {
        "fixed-mcs_seed0_ep0.csv": "af1eed715e9d745cc28240398837df741e08dc43c7d0ddff2fa73462dee22213",
        "fixed-mcs_seed1_ep0.csv": "bad83e8d1dc419cadbe31e451f949b1829c1f8b70519705e9a0511ddc0ec0ce7",
        "illa-olla_seed0_ep0.csv": "46ed82f941e9a7cdca0edd0ff72fb776d286731dbece176257f95f7201bf98d2",
        "illa-olla_seed1_ep0.csv": "f79dee2a18300b411968b2fa1834a4a29ffe1a7cb322cde4ffa088c9fd5feb5c",
        "thompson-mcs_seed0_ep0.csv": "594ecf026fe42a2764f6ec57b6d21fd8063dbf3106f30ca17ea45bb23c81d762",
        "thompson-mcs_seed1_ep0.csv": "0297b6f11f39e6a981404358ff1ffd552fd89aab2fc6b23ebbf16d8db357334a",
    },
    "scheduling": {
        "max-rate_seed0_ep0.csv": "22c927d631282a29d98e2c2ded2c0e68cd66ca3e7f2d5bb32c91e0529d3de229",
        "max-rate_seed1_ep0.csv": "027fd25e62cae83f5665bad631db8afb28a16fa1cee8f4625f0b4dd16d3b9717",
        "proportional-fair_seed0_ep0.csv": "500c63cfa7a31a20931144f4d19f39f1e078cd708f4db78c27fc1e8dde957b59",
        "proportional-fair_seed1_ep0.csv": "7347ecd3711a5e9c61e08bdd6e6a79a6c23d409acf8f1f348b55482cf468359c",
        "round-robin_seed0_ep0.csv": "976e52b6d6bd8f69e04c463b4c292c335f37be43abd5d1735f24129013b9a06c",
        "round-robin_seed1_ep0.csv": "6ea4a35091cec6d76b63c61dba9538af1a5f8eaed7f6eef344fd7cc04a874331",
    },
    "power_control": {
        "uniform-power_seed0_ep0.csv": "d0db423be240af1299b0a6b942410e4e4e5acbd555b55117b17fb0cb870378e4",
        "uniform-power_seed1_ep0.csv": "a899cc6b408e7c3b84a73e8b8b19fbe44949433ef3344f0b5bcc657ca1ff4854",
        "water-fill_seed0_ep0.csv": "c20f26747ca6d41f9216310b22008dfdbd99f05f6a490e7ac523f756522aa8ae",
        "water-fill_seed1_ep0.csv": "161d2fd8081f995c4cf654c840831ccba19a31a5d21e743fad4d2a1632ce133c",
    },
    "tabular": {
        "value-iteration_seed0_ep0.csv": "08c47bcddbba9b63d6fd58985d24d9b79e0cfdd357d8b8dc12c6fdfce8032f15",
        "value-iteration_seed1_ep0.csv": "f07b17f2bc5ca6948c46509cb0dd615ad49a1e5801b03d0fbb5ec7b5015d1bc2",
    },
    "energy_saving-instant": {
        "dpp-energy_seed0_ep0.csv": "abf83fbc7397b7232dcd4f730e7406e01fc0307b7471a6d8638c9a3903bc8fdb",
        "dpp-energy_seed1_ep0.csv": "feeca9a5075aff92d5493be34815fafe4644acab0dfa234956f0c098e9cd4f73",
        "dpp-v4_seed0_ep0.csv": "1975331d8eacda50a4f07d589ee8a3f7f3dbf902d5acf0234896a7294c40629e",
        "dpp-v4_seed1_ep0.csv": "8b9af9ffbaccd1a45d97bcba920da17a05b7745c2431360a725fb85eb0885557",
        "min-energy_seed0_ep0.csv": "94a25ce351ff91bc3db5659a13a8c802f06483bad49494dec1ed43d79e472a11",
        "min-energy_seed1_ep0.csv": "8e845c6439bed77c1f19a05166f2a33be198a06f037bef3b01fa2f1f09145d72",
    },
}
# Uneven capacities and power draws, so that the order of every float sum
# shows in the MPC digests. With an activation delay DPP counts no service
# from an off resource and so never powers one, making min-energy's
# decisions; "energy_saving-instant" has no delay, so the two differ. A
# short crossing period, so that MRO hands over inside the horizon (at the
# default period it stays put for 40 steps). A tabular MDP whose optimal
# policy uses all three actions.
UNEVEN_ES = {"env": "energy_saving", "capacity": [0.3, 0.9, 1.7, 0.55],
             "power_draw": [0.1, 0.35, 0.9, 0.2], "qos_threshold": 1.5}
GOLDEN_TABULAR = {
    "env": "tabular",
    "discount": 0.95,
    "transition": [
        [[0.7, 0.3, 0.0, 0.0], [0.1, 0.1, 0.8, 0.0], [0.25, 0.25, 0.25, 0.25]],
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.2, 0.2, 0.6], [0.9, 0.0, 0.0, 0.1]],
        [[0.0, 0.0, 1.0, 0.0], [0.3, 0.0, 0.3, 0.4], [0.0, 0.6, 0.0, 0.4]],
        [[0.2, 0.2, 0.2, 0.4], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]],
    ],
    "reward": [[1.0, 0.0, 0.4], [0.3, 0.6, 2.0], [0.5, -1.0, 0.8], [-0.5, 3.0, 0.2]],
    "reward_noise_std": 0.1,
}
GOLDEN_ENVS = {
    "energy_saving": UNEVEN_ES,
    "energy_saving-instant": {**UNEVEN_ES, "activation_delay": 0},
    "handover": {"env": "handover", "model": {"kind": "crossing", "period": 20}},
    "tabular": GOLDEN_TABULAR,
}
GOLDEN_SOLVERS = {
    "beamforming": [
        {"name": "knn-tracker", "config": {"budget_per_step": 2}},
        {"name": "bo-tracker", "config": {"budget_per_step": 2}},
        {"name": "full-scan"},
    ],
    "admission_control": [
        {"name": "q-learning", "config": {"train_episodes": 5}},
        {"name": "trunk", "config": {"thresholds": [0, 2]}},
        {"name": "accept-all"},
        {"name": "value-iteration"},
    ],
    "energy_saving": [
        {"name": "mpc-energy", "label": f"{p}-h{h}", "config": {"predictor": p, "plan_horizon": h}}
        for h in (3, 5) for p in ("oracle", "persistence")
    ] + [{"name": "dpp-energy"}, {"name": "es-thresholds"}, {"name": "min-energy"}],
    "energy_saving-instant": [
        {"name": "dpp-energy"}, {"name": "dpp-energy", "label": "dpp-v4", "config": {"v_weight": 4.0}},
        {"name": "min-energy"},
    ],
    "handover": [{"name": "mro"}, {"name": "greedy-ho"}],
    "link_adaptation": [
        {"name": "illa-olla"}, {"name": "thompson-mcs"}, {"name": "fixed-mcs", "config": {"mcs": 2}},
    ],
    # the only solvers whose actions are arrays
    "power_control": [{"name": "water-fill"}, {"name": "uniform-power"}],
    "scheduling": [{"name": "proportional-fair"}, {"name": "round-robin"}, {"name": "max-rate"}],
    "tabular": [{"name": "value-iteration"}],
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SOLVERS))
def test_episode_csvs_match_golden_bytes(tmp_path, kind):
    cfg = ExperimentConfig.from_dict({
        "env": GOLDEN_ENVS.get(kind, {"env": kind}),
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


# The stream block is 1024 steps and power's gains change every `coherence`
# steps, so a 1100-step run crosses a block boundary and, at coherence 7,
# many coherence intervals; the 40-step digests above cross neither. A
# crossing period that is not an integer, and traces whose length (300)
# does not divide the block. The handover, scheduling and power digests were
# taken with the per-step formulas, at the commit before the per-block
# exogenous tables replaced them; the link adaptation, energy and admission
# digests before their streams were read from per-block lists, their traffic
# carried between steps, DPP scored on floats and `used` computed once a step;
# the value-iteration and beamforming digests before value iteration was
# solved once per command and the beam RSRP list built once a step.
LONG_TRACE = [[round(-80.0 + 25.0 * math.sin(2 * math.pi * t / 97 + 2.1 * c), 3)
               for c in range(3)] for t in range(300)]
ES_TRACE = [round(2.0 + 1.5 * math.sin(2 * math.pi * t / 71), 3) for t in range(300)]
# Fractional demands, so that `used` is an inexact float sum, and a safety
# margin, so that the QoS penalty fires.
FRACTIONAL_CLASSES = [
    {"arrival_rate": 0.2, "departure_rate": 0.02, "demand": 1.5, "reward": 2.0,
     "reject_penalty": 1.0},
    {"arrival_rate": 0.25, "departure_rate": 0.015, "demand": 0.7, "reward": 1.0,
     "reject_penalty": 0.2},
]
LONG_HORIZON_RUNS = {
    "handover-crossing": (
        {"env": "handover", "n_cells": 3, "model": {"kind": "crossing", "period": 37.5}},
        {"name": "mro"}),
    "handover-trace": (
        {"env": "handover", "n_cells": 3, "model": {"kind": "trace", "values": LONG_TRACE}},
        {"name": "greedy-ho"}),
    "scheduling": (
        {"env": "scheduling", "arrival_rates": [0.2, 0.3, 0.25, 0.4]},
        {"name": "proportional-fair"}),
    "power_control": (
        {"env": "power_control", "coherence": 7},
        {"name": "water-fill"}),
    "link_adaptation-illa-olla": ({"env": "link_adaptation"}, {"name": "illa-olla"}),
    "link_adaptation-thompson-mcs": ({"env": "link_adaptation"}, {"name": "thompson-mcs"}),
    "energy_saving-dpp-instant": (
        {**UNEVEN_ES, "activation_delay": 0},
        {"name": "dpp-energy"}),
    "energy_saving-trace": (
        {"env": "energy_saving", "traffic": {"trace": ES_TRACE, "noise_std": 0.3}},
        {"name": "es-thresholds"}),
    "admission_control-trunk-fractional": (
        {"env": "admission_control", "classes": FRACTIONAL_CLASSES, "safety_margin": 0.8,
         "qos_penalty": 0.5},
        {"name": "trunk", "config": {"thresholds": [0, 2]}}),
    "admission_control-q-learning": (
        {"env": "admission_control"},
        {"name": "q-learning", "config": {"train_episodes": 5}}),
    "admission_control-value-iteration-fractional": (
        {"env": "admission_control", "classes": FRACTIONAL_CLASSES, "safety_margin": 0.8,
         "qos_penalty": 0.5},
        {"name": "value-iteration"}),
    "beamforming-knn-tracker": (
        {"env": "beamforming"},
        {"name": "knn-tracker", "config": {"budget_per_step": 3}}),
    "beamforming-full-scan": ({"env": "beamforming"}, {"name": "full-scan"}),
}
LONG_HORIZON_SHA256 = {
    "handover-crossing":
        "4c54cd3e35a4c10ca35002660ad862388ec3c825218333a4f591eb3fe47a0d78",
    "handover-trace":
        "499c893b97b227d65189b9b75a8dea4eb3889acb9450fa37fa5792b9318b8e8a",
    "scheduling":
        "904f4bc096715a90b9660503652b3c4ab23e6f4dac70e9decf053c3abd53e242",
    "power_control":
        "902f09c8a52cdc067c023952ff11a5ad9ec606da54ef12680c4ec735798cb897",
    "link_adaptation-illa-olla":
        "65b0c5d8ae96e193cd0218d51d333079bb0784e30fe068a3deab8ef90d353f98",
    "link_adaptation-thompson-mcs":
        "b2518ae795fbe8081f3d0bcdd991985f3b7371583e88b5fb496198bc930236ab",
    "energy_saving-dpp-instant":
        "998e6182fe8b2cb6ad4d191c5f0d96582fc078ffd4b4b30d427b95b9d2d518a0",
    "energy_saving-trace":
        "6aa260ebfc357a2aa25279c2e695002cf13c487439190a824c1a7ee8cba35461",
    "admission_control-trunk-fractional":
        "b9d97829f6c1ccb8617eebc1f7335a30d2377b70a0a05e1fad209ea14a7ddb1e",
    "admission_control-q-learning":
        "f38188cf4079478dcb5a725ed667446e4038d5af8556ae73f2d6e2a0ec46d206",
    "admission_control-value-iteration-fractional":
        "daf206bead15f1dbb32d30aed7b2980e94498c8bcfab10faa33c0212a38dc63c",
    "beamforming-knn-tracker":
        "38fcd664dcaecea019917d1a26d66133c6a73082ec4f1f6ea0a5c5d588503d05",
    "beamforming-full-scan":
        "e179a39c16af87e5c9e5e59bf79d24a5c764c832fdce920db9f24a63641dee5e",
}


@pytest.mark.parametrize("run", sorted(LONG_HORIZON_RUNS))
def test_long_horizon_csvs_match_golden_bytes(tmp_path, run):
    env, solver = LONG_HORIZON_RUNS[run]
    cfg = ExperimentConfig.from_dict({
        "env": env, "solvers": [solver], "horizon": 1100, "seeds": [0],
        "outputs": str(tmp_path),
    })
    run_experiment(cfg)
    (csv_path,) = (tmp_path / "episodes").glob("*.csv")
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == LONG_HORIZON_SHA256[run]


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


def test_exact_rows_list_only_enumerable_env_kinds():
    # a row that reads env.true_mdp() or plays a TablePolicyAgent needs a
    # kind that enumerates its states and actions; check_compatibility
    # refuses every kind a row does not list, before any cell runs
    exact = {name for name, spec in SOLVERS.items()
             if re.search(r"true_mdp\(|TablePolicyAgent\(", inspect.getsource(spec.agent))}
    assert exact == {"value-iteration", "q-learning"}
    for name in exact:
        for kind in SOLVERS[name].envs:
            for attr in ("true_mdp", "n_states", "state_index", "action_list"):
                assert hasattr(ENVS[kind], attr), (name, kind, attr)


def admission_vi_config(out_dir):
    return ExperimentConfig.from_dict({
        "env": {"env": "admission_control", "capacity": 4},
        "solvers": [{"name": "value-iteration"}, {"name": "trunk", "config": {"thresholds": [0, 2]}}],
        "horizon": 20,
        "seeds": [0, 1, 2, 3],
        "outputs": str(out_dir),
    })


def test_value_iteration_is_solved_once_per_command_and_config(tmp_path, monkeypatch):
    solve, solved, policies = experiments.value_iteration, [], []

    def counted(mdp, tol):
        solved.append(tol)
        return solve(mdp, tol=tol)

    class Recorded(experiments.agents.TablePolicyAgent):
        def __init__(self, env, policy):
            super().__init__(env, policy)
            policies.append(self.policy)

    monkeypatch.setattr(experiments, "value_iteration", counted)
    monkeypatch.setattr(experiments.agents, "TablePolicyAgent", Recorded)
    cfg = admission_vi_config(tmp_path)
    run_experiment(cfg)
    assert len(solved) == 1
    # the four seed cells play one read-only policy
    assert len(policies) == 4 and all(p is policies[0] for p in policies)
    assert not policies[0].flags.writeable
    run_experiment(cfg)  # nothing is kept from the command before
    assert len(solved) == 2
    sweep(cfg, "env.capacity", [3, 5])
    assert len(solved) == 4
    sweep(cfg, "horizon", [10, 30])  # one env config
    assert len(solved) == 5
    sweep(cfg, "solvers.0.config.tol", [1e-6, 1e-8])
    assert solved[5:] == [1e-6, 1e-8]
    assert experiments._policies is None


def test_parallel_value_iteration_matches_serial_bytes(tmp_path):
    cfg = admission_vi_config(tmp_path / "out")
    run_experiment(cfg)
    serial = _tree(tmp_path / "out")
    shutil.rmtree(tmp_path / "out")
    run_experiment(cfg, jobs=2)
    assert _tree(tmp_path / "out") == serial
    assert len(serial) == 1 + 8 + 1  # episodes/, 2 solvers x 4 seeds, summary.json


def test_same_solver_twice_needs_labels(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "handover", "noise_std": 0.0},
        "solvers": [
            {"name": "mro", "label": "mro-fast", "config": {"time_to_trigger": 1}},
            {"name": "mro", "label": "mro-slow", "config": {"time_to_trigger": 40}},
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


def test_shorter_sweep_leaves_only_its_files(tmp_path):
    cfg = la_config(tmp_path, seeds=(0,))
    sweep(cfg, "solvers.1.config.mcs", [0, 1, 2])
    path = sweep(cfg, "solvers.1.config.mcs", [0])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "value_000"]
    assert len(path.read_text().splitlines()) == 1 + 2


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


def _tree(root):
    """Every path under `root`: file bytes, or None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def scheduling_config(out_dir):
    return ExperimentConfig.from_dict({
        "env": {"env": "scheduling"},
        "solvers": [{"name": "proportional-fair"}, {"name": "max-rate"}],
        "horizon": 30,
        "seeds": [0, 1],
        "outputs": str(out_dir),
        "metrics": "scheduling",
    })


def test_parallel_sweep_matches_serial_bytes(tmp_path):
    cfg = scheduling_config(tmp_path / "out")
    sweep(cfg, "env.n_users", [2, 3, 5], jobs=1)
    serial = _tree(tmp_path / "out")
    shutil.rmtree(tmp_path / "out")
    sweep(cfg, "env.n_users", [2, 3, 5], jobs=2)
    assert _tree(tmp_path / "out") == serial
    assert len([p for p, data in serial.items() if data is not None]) == 3 * 4 + 3 + 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_sweep_cell_leaves_last_sweep_untouched(tmp_path, jobs):
    cfg = la_config(tmp_path, seeds=(0, 1))
    sweep(cfg, "solvers.1.config.mcs", [0, 1, 2, 3])
    before = _tree(tmp_path)
    # mcs 99 passes every config check and fails at its cells' first step,
    # after the cells of the first two values have written their CSVs
    with pytest.raises(InvalidActionError, match="step 0: mcs 99"):
        sweep(cfg, "solvers.1.config.mcs", [3, 2, 99], jobs=jobs)
    assert _tree(tmp_path) == before


class FailsOnSecondSeed:
    """Picks MCS 0, and fails at step 5 of the seed-2 episode."""

    def __init__(self, env, seed):
        self.fails, self.t = seed == derive_seed(2, 0), 0

    def act(self, obs):
        self.t += 1
        if self.fails and self.t == 5:
            raise NumericalError("cell failed mid-run")
        return 0


def test_cell_failing_mid_episode_leaves_last_run_untouched(tmp_path, monkeypatch):
    monkeypatch.setitem(SOLVERS, "fails", SolverSpec(("link_adaptation",), FailsOnSecondSeed))
    run_experiment(la_config(tmp_path))
    before = _tree(tmp_path)
    cfg = ExperimentConfig.from_dict({**la_config(tmp_path).to_dict(),
                                      "solvers": [{"name": "fixed-mcs", "config": {"mcs": 1}},
                                                  {"name": "fails"}]})
    with pytest.raises(NumericalError, match="mid-run"):
        run_experiment(cfg)
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_run_into_fresh_path_leaves_no_directory(tmp_path, command):
    cfg = ExperimentConfig.from_dict({**la_config(tmp_path / "fresh" / "out").to_dict(),
                                      "solvers": [{"name": "fixed-mcs", "config": {"mcs": 99}}]})
    with pytest.raises(InvalidActionError, match="step 0: mcs 99"):
        if command == "run":
            run_experiment(cfg)
        else:
            sweep(cfg, "horizon", [5, 10])
    assert list(tmp_path.iterdir()) == []


def _staging(root):
    """The staging directories left anywhere under `root`."""
    return sorted(root.rglob(".occam-rrm-*"))


@pytest.mark.parametrize("outputs", ["out", "."])
def test_run_and_sweep_replace_each_other_and_keep_the_user_s_files(tmp_path, monkeypatch,
                                                                   outputs):
    out = tmp_path / "out"
    (out / "value_notes").mkdir(parents=True)
    (out / "notes.txt").write_text("notes\n")
    (out / "value_notes" / "keep.txt").write_text("keep\n")
    monkeypatch.chdir(out if outputs == "." else tmp_path)
    cfg = la_config(outputs, seeds=(0,))
    user = {"notes.txt", "value_notes"}
    run_experiment(cfg)
    assert {p.name for p in out.iterdir()} == user | {"episodes", "summary.json"}
    sweep(cfg, "solvers.1.config.mcs", [0, 1])
    assert {p.name for p in out.iterdir()} == user | {"sweep.csv", "value_000", "value_001"}
    run_experiment(cfg)
    assert {p.name for p in out.iterdir()} == user | {"episodes", "summary.json"}
    assert (out / "notes.txt").read_text() == "notes\n"
    assert (out / "value_notes" / "keep.txt").read_text() == "keep\n"
    assert _staging(tmp_path) == []


@pytest.mark.parametrize("failure", ["summary", "cell"])
def test_failed_sweep_leaves_last_sweep_byte_identical(tmp_path, monkeypatch, failure):
    cfg = la_config(tmp_path, seeds=(0,))
    sweep(cfg, "solvers.1.config.mcs", [0, 1, 2])
    assert _staging(tmp_path) == []
    before = _tree(tmp_path)
    write_text, summaries = Path.write_text, []

    def third_summary_fails(path, *args, **kwargs):
        if path.name.startswith("summary.json"):  # the file or a temporary beside it
            summaries.append(path)
            if len(summaries) == 3:
                raise OSError("disk full")
        return write_text(path, *args, **kwargs)

    if failure == "summary":
        monkeypatch.setattr(Path, "write_text", third_summary_fails)
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, "solvers.1.config.mcs", [2, 1, 0])
    else:
        with pytest.raises(InvalidActionError, match="step 0: mcs 99"):
            sweep(cfg, "solvers.1.config.mcs", [2, 1, 99])
    assert _tree(tmp_path) == before
    assert _staging(tmp_path) == []


@pytest.mark.parametrize("command,refused", [("run", "summary.json"), ("sweep", "value_001")])
def test_failed_rename_restores_the_last_outputs(tmp_path, monkeypatch, command, refused):
    # The staged entries go in sorted order, so the refused one comes after
    # a new entry is placed (episodes; sweep.csv and value_000).
    cfg = la_config(tmp_path, seeds=(0,))

    def publish():
        if command == "run":
            run_experiment(cfg)
        else:
            sweep(cfg, "solvers.1.config.mcs", [0, 1])

    publish()
    before = _tree(tmp_path)
    replace = experiments.os.replace

    def refuses_the_new_entry(src, dst):
        src = Path(src)
        if src.name == refused and src.parent.name.startswith(".occam-rrm-"):
            raise OSError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(experiments.os, "replace", refuses_the_new_entry)
    with pytest.raises(OSError, match="rename refused"):
        publish()
    assert _tree(tmp_path) == before
    assert _staging(tmp_path) == []


@pytest.mark.parametrize("command,refused", [("run", "summary.json"), ("sweep", "value_001")])
def test_failed_rename_into_fresh_path_leaves_no_directory(tmp_path, monkeypatch, command,
                                                          refused):
    cfg = la_config(tmp_path / "fresh" / "out", seeds=(0,))
    replace = experiments.os.replace

    def refuses_the_new_entry(src, dst):
        if Path(src).name == refused:
            raise OSError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(experiments.os, "replace", refuses_the_new_entry)
    with pytest.raises(OSError, match="rename refused"):
        if command == "run":
            run_experiment(cfg)
        else:
            sweep(cfg, "solvers.1.config.mcs", [0, 1])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("outputs", ["afile", "afile/sub"])
def test_outputs_at_or_under_a_file_fails_before_a_cell(tmp_path, monkeypatch, capsys,
                                                       command, outputs):
    (tmp_path / "afile").write_text("mine\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(la_config(tmp_path / outputs).to_dict()))
    ran = []
    monkeypatch.setattr(experiments, "_run_cell", ran.append)
    argv = [command, str(path)] + (["--param", "horizon", "--values", "[5]"]
                                   if command == "sweep" else [])
    assert cli.main(argv) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    # making the staging directory inside the file is what fails
    assert err.startswith(f"runtime error: [Errno 20] Not a directory: '{tmp_path / 'afile'}/")
    assert err.count("\n") == 1
    assert ran == []
    assert (tmp_path / "afile").read_text() == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]


@pytest.mark.parametrize("param,bad", [("horizon", 0), ("env.n_users", "six")])
def test_sweep_checks_every_value_before_running_a_cell(tmp_path, monkeypatch, param, bad):
    cfg = scheduling_config(tmp_path)
    sweep(cfg, "env.n_users", [2])
    before = _tree(tmp_path)
    ran = []
    monkeypatch.setattr(experiments, "_run_cell", ran.append)
    values = [3, 4, bad] if param == "env.n_users" else [10, 20, bad]
    with pytest.raises(ConfigError):
        sweep(cfg, param, values)
    assert ran == []
    assert _tree(tmp_path) == before


def test_sweep_over_metric_profiles_is_refused_before_a_cell(tmp_path, monkeypatch):
    # each profile has its own metric columns, so one sweep.csv header
    # cannot fit them all
    cfg = scheduling_config(tmp_path)
    ran = []
    monkeypatch.setattr(experiments, "_run_cell", ran.append)
    with pytest.raises(ConfigError, match=r"metric profiles \['basic', 'scheduling'\]"):
        sweep(cfg, "metrics", ["scheduling", "basic"])
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_sweep_over_a_label_writes_each_value_s_labels(tmp_path):
    cfg = la_config(tmp_path, seeds=(0,))
    path = sweep(cfg, "solvers.1.label", ["a", "b"])
    with open(path, newline="") as fh:
        rows = [(row["value"], row["solver"]) for row in csv.DictReader(fh)]
    assert rows == [('"a"', "illa-olla"), ('"a"', "a"), ('"b"', "illa-olla"), ('"b"', "b")]


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
    "handover": {"n_cells", "model", "noise_std", "rlf_threshold", "pingpong_window",
                 "hysteresis"},
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
    "proportional-fair": (set(), set()),
    "round-robin": (set(), set()),
    "max-rate": (set(), set()),
    "dpp-energy": ({"v_weight"}, set()),
    "min-energy": (set(), set()),
    "es-thresholds": ({"lower", "upper"}, set()),
    "mpc-energy": ({"predictor", "plan_horizon", "discount"}, set()),
    "mro": ({"time_to_trigger"}, set()),
    "greedy-ho": (set(), set()),
    "trunk": ({"thresholds"}, {"thresholds"}),
    "accept-all": (set(), set()),
    "value-iteration": ({"tol"}, set()),
    "q-learning": ({"train_episodes", "train_horizon"}, set()),
    "bo-tracker": ({"budget_per_step", "kernel", "kappa", "window"}, {"budget_per_step"}),
    "knn-tracker": ({"budget_per_step"}, {"budget_per_step"}),
    "full-scan": (set(), set()),
}


def signature_keys(fn, given=()) -> tuple[set, set]:
    """(accepted, required) config keys of `fn`, read from its signature:
    its parameters other than those named in `given`."""
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in given]
    return {p.name for p in params}, {p.name for p in params if p.default is p.empty}


def test_env_config_keys_are_pinned():
    assert set(ENVS) == set(ENV_KEYS)
    for kind, keys in ENV_KEYS.items():
        assert signature_keys(ENVS[kind]) == (keys, REQUIRED_ENV_KEYS.get(kind, set())), kind
        with pytest.raises(ConfigError, match=f"unknown {kind} config keys: \\['bogus'\\]"):
            make_env({"env": kind, "bogus": 1})
    with pytest.raises(ConfigError, match="missing required key 'reward'"):
        make_env({"env": "tabular", "transition": [[[1.0]]]})


def test_build_from_config_reads_the_signature_once(monkeypatch):
    # the tune loop builds an env and an agent for every episode, and each
    # callable's signature is read once per process
    calls = []
    signature = config.inspect.signature

    def counted(fn):
        calls.append(fn)
        return signature(fn)

    monkeypatch.setattr(config.inspect, "signature", counted)
    config._parameters.cache_clear()
    for _ in range(2):
        env = make_env({"env": "handover"})
        config.build_from_config(SOLVERS["mro"].agent, {"time_to_trigger": 2}, "solver", env=env)
    assert calls == [ENVS["handover"], SOLVERS["mro"].agent]


def test_solver_config_keys_are_pinned():
    assert set(SOLVERS) == set(SOLVER_KEYS)
    for name, keys in SOLVER_KEYS.items():
        spec = SOLVERS[name]
        assert signature_keys(spec.agent, ("env", "seed")) == keys, name
        accepted, required = keys
        env_cfg = {"env": spec.envs[-1]}
        full = {key: None for key in accepted}
        with pytest.raises(ConfigError, match="unknown solver config keys: \\['bogus'\\]"):
            spec.run(env_cfg, {**full, "bogus": 1}, horizon=1, seed=0)
        for key in required:
            with pytest.raises(ConfigError, match=f"solver config missing required key '{key}'"):
                spec.run(env_cfg, {}, horizon=1, seed=0)
