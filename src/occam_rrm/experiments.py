"""Experiment harness: JSON configs validated against a shipped schema, a
solver registry spanning every environment, seeded batch execution with an
optional process pool, and deterministic CSV/JSON reports."""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from . import agents
from .advisor import advise, usecase_traits
from .bandits import BoTrackerAgent
from .config import build_from_config
from .core import DEFAULT_DISCOUNT, metrics_summary, run_episode
from .envs import env_true_mdp, make_env
from .errors import ConfigError
from .planning import q_learning, value_iteration
from .rng import derive_seed
from .rules import EsThresholds, MroParams

SCHEMA_PATH = Path(__file__).parent / "schemas" / "experiment.schema.json"


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class SolverSpec:
    """A registry row: `agent(env, **cfg)` builds a policy that run_episode
    drives. A builder that names `seed` also receives the episode seed. The
    keyword parameters after those define the solver's config keys."""

    envs: tuple
    agent: object

    def run(self, env_cfg: dict, cfg: dict, horizon: int, seed: int):
        env = make_env(env_cfg)
        agent = build_from_config(self.agent, cfg, "solver", env=env, seed=seed)
        return run_episode(env, agent, horizon=horizon, seed=seed)


# Rows and SolverSpec.run call value_iteration, q_learning and run_episode
# through this module's names at call time instead of storing them, so a
# wrapper installed on module attributes (perfbench's tracer) sees every call.


def _mpc_energy(env, predictor="oracle", plan_horizon=5, discount=1.0):
    if predictor == "oracle":
        forecast = agents.es_oracle_predictor(env)
    elif predictor == "persistence":
        forecast = agents.es_persistence_predictor()
    else:
        raise ConfigError(f"unknown predictor {predictor!r}; known: ['oracle', 'persistence']")
    return agents.MpcEnergyAgent(env, forecast, horizon=plan_horizon, discount=discount)


def _value_iteration(env, tol=1e-8):
    table = value_iteration(env_true_mdp(env), tol=tol)
    return agents.TablePolicyAgent(env, table.policy)


def _q_learning(env, seed, train_episodes=100, train_horizon=200):
    qt = q_learning(env, episodes=train_episodes, horizon=train_horizon, seed=derive_seed(seed, 7))
    return agents.TablePolicyAgent(env, qt.greedy_policy())


LA, PC, BF, SC = ("link_adaptation",), ("power_control",), ("beamforming",), ("scheduling",)
ES, HO, AC = ("energy_saving",), ("handover",), ("admission_control",)

SOLVERS = {
    "illa-olla": SolverSpec(LA, lambda env, step_up=0.01, target_bler=0.1:
                            agents.IllaOllaAgent(env.s50, step_up, target_bler)),
    "thompson-mcs": SolverSpec(LA, lambda env: agents.ThompsonMcsAgent(env.rates)),
    "fixed-mcs": SolverSpec(LA, lambda env, mcs: agents.FixedMcsAgent(mcs)),
    "water-fill": SolverSpec(PC, lambda env: agents.WaterFillAgent()),
    "uniform-power": SolverSpec(PC, lambda env: agents.UniformPowerAgent()),
    "proportional-fair": SolverSpec(SC, lambda env, ewma_alpha=0.1: agents.PfAgent(ewma_alpha)),
    "round-robin": SolverSpec(SC, lambda env: agents.RoundRobinAgent()),
    "max-rate": SolverSpec(SC, lambda env: agents.MaxRateAgent()),
    "dpp-energy": SolverSpec(ES, agents.DppEnergyAgent),
    "min-energy": SolverSpec(ES, lambda env: agents.MinEnergyAgent()),
    "es-thresholds": SolverSpec(ES, lambda env, lower=0.3, upper=0.9:
                                agents.EsThresholdAgent(env, EsThresholds(lower, upper))),
    "mpc-energy": SolverSpec(ES, _mpc_energy),
    "mro": SolverSpec(HO, lambda env, hysteresis=3.0, time_to_trigger=3:
                      agents.MroAgent(MroParams(hysteresis, time_to_trigger))),
    "greedy-ho": SolverSpec(HO, lambda env: agents.GreedyHoAgent()),
    "trunk": SolverSpec(AC, agents.TrunkAgent),
    "accept-all": SolverSpec(AC, lambda env: agents.AcceptAllAgent(env.n_classes)),
    "value-iteration": SolverSpec(("tabular",) + AC, _value_iteration),
    "q-learning": SolverSpec(("tabular",) + AC, _q_learning),
    "bo-tracker": SolverSpec(BF, BoTrackerAgent),
    "knn-tracker": SolverSpec(BF, agents.KnnTrackerAgent),
    "full-scan": SolverSpec(BF, agents.FullScanAgent),
}

ENV_USE_CASE = {
    "link_adaptation": "LA",
    "power_control": "PC",
    "beamforming": "BF",
    "scheduling": "SC",
    "energy_saving": "ES",
    "handover": "HO",
    "admission_control": "AC",
    "tabular": "AC",  # enumerable MDPs share the exact-planning story
}


def check_compatibility(solver_name: str, env_kind: str) -> None:
    spec = SOLVERS.get(solver_name)
    if spec is None:
        raise ConfigError(f"unknown solver {solver_name!r}; known: {sorted(SOLVERS)}")
    if env_kind in spec.envs:
        return
    case = ENV_USE_CASE.get(env_kind)
    hint = ""
    if case is not None:
        rec = advise(usecase_traits(case))
        walk = "; ".join(f"{q} {a}" for q, a in rec.path)
        hint = f" Advisor reasoning for this env: {walk} -> {rec.technique} ({rec.solver_hint})."
    raise ConfigError(
        f"solver '{solver_name}' supports {list(spec.envs)}, not '{env_kind}'.{hint}"
    )


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class ExperimentConfig:
    env: dict
    solvers: tuple  # of (name, label, cfg-dict)
    horizon: int = 100
    n_episodes: int = 1
    seeds: tuple = (0,)
    outputs: str = "outputs"
    metrics: str = "basic"

    def __post_init__(self):
        if not self.solvers:
            raise ConfigError("at least one solver required")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        labels = [label for _, label, _ in self.solvers]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate solver labels: {sorted(labels)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        schema = json.loads(SCHEMA_PATH.read_text())
        try:
            jsonschema.validate(raw, schema)
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"config invalid at {exc.json_path}: {exc.message}") from exc
        seeds = raw.get("seeds", [0])
        if isinstance(seeds, dict):
            seeds = [derive_seed(seeds["base"], i) for i in range(seeds["count"])]
        solvers = tuple(
            (s["name"], s.get("label", s["name"]), dict(s.get("config", {})))
            for s in raw["solvers"]
        )
        return cls(
            env=dict(raw["env"]),
            solvers=solvers,
            horizon=raw.get("horizon", 100),
            n_episodes=raw.get("n_episodes", 1),
            seeds=tuple(int(s) for s in seeds),
            outputs=raw.get("outputs", "outputs"),
            metrics=raw.get("metrics", "basic"),
        )

    def to_dict(self) -> dict:
        return {
            "env": self.env,
            "solvers": [
                {"name": n, "label": l, "config": c} for n, l, c in self.solvers
            ],
            "horizon": self.horizon,
            "n_episodes": self.n_episodes,
            "seeds": list(self.seeds),
            "outputs": self.outputs,
            "metrics": self.metrics,
        }


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------- execution

def _run_cell(args):
    """One (solver, seed) cell; top level so a process pool can ship it."""
    env_cfg, name, solver_cfg, horizon, n_episodes, seed = args
    runner = SOLVERS[name].run
    return [
        runner(env_cfg, solver_cfg, horizon, derive_seed(seed, ep))
        for ep in range(n_episodes)
    ]


def resolve_jobs(jobs=None) -> int:
    if jobs is None:
        jobs = os.environ.get("OCCAM_RRM_JOBS", "1")
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ConfigError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run_experiment(cfg: ExperimentConfig, jobs=None) -> Path:
    """Run every (solver, seed) cell, write per-episode CSVs and summary.json,
    and return the summary path. Cells may run in a process pool; outputs are
    merged in config order, so results never depend on scheduling. The
    outputs directory ends up holding exactly this run's files."""
    env_kind = cfg.env.get("env")
    for name, _, _ in cfg.solvers:
        check_compatibility(name, env_kind)
    make_env(cfg.env)  # surface env config errors before any run

    jobs = resolve_jobs(jobs)
    cells = [
        (index, seed, (cfg.env, name, solver_cfg, cfg.horizon, cfg.n_episodes, seed))
        for index, (name, _, solver_cfg) in enumerate(cfg.solvers)
        for seed in cfg.seeds
    ]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, [args for _, _, args in cells]))
    else:
        results = [_run_cell(args) for _, _, args in cells]
    by_cell = {(index, seed): logs for (index, seed, _), logs in zip(cells, results)}

    out_dir = Path(cfg.outputs)
    episode_dir = out_dir / "episodes"
    episode_dir.mkdir(parents=True, exist_ok=True)
    for stale in episode_dir.glob("*.csv"):
        stale.unlink()

    summary = {"config": cfg.to_dict(), "env": env_kind, "solvers": {}}
    for index, (name, label, _) in enumerate(cfg.solvers):
        env = make_env(cfg.env)
        discount = float(getattr(env, "discount", DEFAULT_DISCOUNT))
        solver_logs = []
        files = []
        per_seed = {}
        for seed in cfg.seeds:
            logs = by_cell[(index, seed)]
            solver_logs.extend(logs)
            for ep, log in enumerate(logs):
                rel = f"episodes/{label}_seed{seed}_ep{ep}.csv"
                log.to_csv(out_dir / rel)
                files.append(rel)
            seed_metrics = metrics_summary(logs, kind="basic", discount=discount)
            per_seed[str(seed)] = seed_metrics.to_dict()
        record = metrics_summary(solver_logs, kind=cfg.metrics, discount=discount)
        summary["solvers"][label] = {
            "name": name,
            "metrics": record.to_dict(),
            "per_seed": per_seed,
            "episode_files": files,
        }

    summary_path = out_dir / "summary.json"
    partial = out_dir / "summary.json.partial"
    partial.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    os.replace(partial, summary_path)
    return summary_path


# ---------------------------------------------------------------- sweep

def _set_by_path(root, dotted: str, value):
    """Resolve a dotted path like 'env.hysteresis' or 'solvers.0.config.v'
    and set its leaf. List segments must be in-range indices; the leaf of a
    dict may be a new key (env and solver configs are open maps)."""
    parts = dotted.split(".")
    node = root
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            try:
                idx = int(part)
            except ValueError:
                raise ConfigError(f"path '{dotted}': '{part}' is not a list index")
            if not 0 <= idx < len(node):
                raise ConfigError(f"path '{dotted}': index {idx} out of range")
            if last:
                node[idx] = value
            else:
                node = node[idx]
        elif isinstance(node, dict):
            if last:
                node[part] = value
            elif part not in node:
                raise ConfigError(f"path '{dotted}': key '{part}' not found")
            else:
                node = node[part]
        else:
            raise ConfigError(f"path '{dotted}': cannot descend into {type(node).__name__}")


_PROFILE_COLUMNS = {
    "basic": (),
    "scheduling": ("sum_log_throughput",),
    "beam": ("accuracy", "mean_abs_beam_error"),
}


def sweep(cfg: ExperimentConfig, param_path: str, values, jobs=None) -> Path:
    """Re-run the experiment once per value of a dotted config parameter and
    aggregate one CSV row per (value, solver)."""
    if not values:
        raise ConfigError("sweep needs a nonempty list of values")
    base = cfg.to_dict()
    out_dir = Path(cfg.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ("mean_reward", "discounted_return") + _PROFILE_COLUMNS[cfg.metrics]

    rows = []
    for i, value in enumerate(values):
        raw = deepcopy(base)
        _set_by_path(raw, param_path, value)
        raw["outputs"] = str(out_dir / f"value_{i:03d}")
        summary_path = run_experiment(ExperimentConfig.from_dict(raw), jobs=jobs)
        summary = json.loads(summary_path.read_text())
        for _, label, _ in cfg.solvers:
            metrics = summary["solvers"][label]["metrics"]
            rows.append(
                [param_path, json.dumps(value), label]
                + [repr(float(metrics[c])) for c in columns]
            )

    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "solver"] + list(columns))
        writer.writerows(rows)
    return sweep_path
