"""Experiment harness: JSON configs checked key by key against the
ExperimentConfig fields, a solver registry spanning every environment,
seeded batch execution with an optional process pool, and deterministic
CSV/JSON reports."""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import tempfile
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass, fields
from pathlib import Path

from . import agents
from .advisor import advise, usecase_traits
from .bandits import BoTrackerAgent
from .config import as_count, build_from_config, check_config, check_keys
from .core import METRIC_PROFILES, metric_columns, metrics_summary, run_episode
from .envs import make_env
from .errors import ConfigError
from .planning import q_learning, value_iteration
from .rng import derive_seed

LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
# Env steps one run may take (seeds x solvers x n_episodes x horizon), the
# same bound as planning.Q_LEARNING_STEP_BUDGET; refused before any seed is
# derived.
RUN_STEP_BUDGET = 10_000_000


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class SolverSpec:
    """A registry row: `agent(**cfg)` builds a policy that run_episode
    drives, mostly the agent class itself. A builder that names `env` or
    `seed` also receives the env or the episode seed. Its other keyword
    parameters are the solver's config keys."""

    envs: tuple
    agent: object

    def run(self, env_cfg: dict, cfg: dict, horizon: int, seed: int):
        env = make_env(env_cfg)
        agent = build_from_config(self.agent, cfg, "solver", env=env, seed=seed)
        return run_episode(env, agent, horizon=horizon, seed=seed)


# Rows and SolverSpec.run call value_iteration, q_learning and run_episode
# through this module's names at call time instead of storing them, so a
# wrapper installed on module attributes (perfbench's tracer) sees every call.

# Value-iteration policies by (env config, tol), which is all they depend
# on; a dict only while _run_all runs a command, so each command (and each of
# its pool workers) solves a config once and keeps nothing afterwards.
_policies = None


def _mpc_energy(env, predictor="oracle", plan_horizon=5, discount=1.0):
    if predictor == "oracle":
        forecast = agents.es_oracle_predictor(env)
    elif predictor == "persistence":
        forecast = agents.es_persistence_predictor()
    else:
        raise ConfigError(f"unknown predictor {predictor!r}; known: ['oracle', 'persistence']")
    horizon = as_count(plan_horizon, "plan_horizon", 1)
    return agents.MpcEnergyAgent(env, forecast, horizon=horizon, discount=discount)


def _value_iteration(env, tol=1e-8):
    policies = _policies  # read once: None outside a command
    key = policies is not None and json.dumps([env.config, tol], sort_keys=True)
    policy = policies.get(key) if key else None
    if policy is None:
        policy = value_iteration(env.true_mdp(), tol=tol).policy
        policy.flags.writeable = False  # the cells of one config share it
        if key:
            policies[key] = policy
    return agents.TablePolicyAgent(env, policy)


def _q_learning(env, seed, train_episodes=100, train_horizon=200):
    episodes = as_count(train_episodes, "train_episodes", 1)
    horizon = as_count(train_horizon, "train_horizon", 1)
    qt = q_learning(env, episodes=episodes, horizon=horizon, seed=derive_seed(seed, 7))
    return agents.TablePolicyAgent(env, qt.greedy_policy())


LA, PC, BF, SC = ("link_adaptation",), ("power_control",), ("beamforming",), ("scheduling",)
ES, HO, AC = ("energy_saving",), ("handover",), ("admission_control",)

SOLVERS = {
    "illa-olla": SolverSpec(LA, lambda env, step_up=0.01, target_bler=0.1:
                            agents.IllaOllaAgent(env.s50, step_up, target_bler)),
    "thompson-mcs": SolverSpec(LA, lambda env: agents.ThompsonMcsAgent(env.rates)),
    "fixed-mcs": SolverSpec(LA, agents.FixedMcsAgent),
    "water-fill": SolverSpec(PC, agents.WaterFillAgent),
    "uniform-power": SolverSpec(PC, agents.UniformPowerAgent),
    "proportional-fair": SolverSpec(SC, agents.PfAgent),
    "round-robin": SolverSpec(SC, agents.RoundRobinAgent),
    "max-rate": SolverSpec(SC, agents.MaxRateAgent),
    "dpp-energy": SolverSpec(ES, agents.DppEnergyAgent),
    "min-energy": SolverSpec(ES, agents.MinEnergyAgent),
    "es-thresholds": SolverSpec(ES, agents.EsThresholdAgent),
    "mpc-energy": SolverSpec(ES, _mpc_energy),
    "mro": SolverSpec(HO, agents.MroAgent),
    "greedy-ho": SolverSpec(HO, agents.GreedyHoAgent),
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

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """The config of a parsed JSON object, each key checked: every count
        a JSON integer (not a bool or a float) at or above its minimum, and
        the run within RUN_STEP_BUDGET before a seed list is derived."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        check_keys(raw, [f.name for f in fields(cls)], ("env", "solvers"), "experiment config")
        env = raw["env"]
        if not isinstance(env, dict) or not isinstance(env.get("env"), str):
            raise ConfigError("env must be an object whose 'env' is a string")
        solvers = raw["solvers"]
        if not isinstance(solvers, list) or not solvers:
            raise ConfigError("solvers must be a nonempty list")
        solvers = tuple(_solver_entry(entry, f"solvers[{i}]") for i, entry in enumerate(solvers))
        labels = [label for _, label, _ in solvers]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate solver labels: {sorted(labels)}")
        given = {f.name: raw.get(f.name, f.default) for f in fields(cls)}
        horizon = as_count(given["horizon"], "horizon", 1)
        n_episodes = as_count(given["n_episodes"], "n_episodes", 1)
        outputs, metrics = _text(given["outputs"], "outputs"), given["metrics"]
        if metrics not in METRIC_PROFILES:
            raise ConfigError(f"metrics must be one of {list(METRIC_PROFILES)}, got {metrics!r}")
        seeds = given["seeds"]
        if isinstance(seeds, dict):
            check_keys(seeds, ("base", "count"), ("base", "count"), "seeds")
            base = as_count(seeds["base"], "seeds.base", 0)
            count = as_count(seeds["count"], "seeds.count", 1)
        elif isinstance(seeds, (list, tuple)) and seeds:
            seeds = tuple(as_count(s, f"seeds[{i}]", 0) for i, s in enumerate(seeds))
            count = len(seeds)
        else:
            raise ConfigError("seeds must be a nonempty list or an object {base, count}")
        steps = count * len(solvers) * n_episodes * horizon
        if steps > RUN_STEP_BUDGET:
            raise ConfigError(f"{steps} env steps (seeds x solvers x n_episodes x horizon) "
                              f"exceed the budget of {RUN_STEP_BUDGET}")
        if isinstance(seeds, dict):
            seeds = tuple(derive_seed(base, i) for i in range(count))
        return cls(env=dict(env), solvers=solvers, horizon=horizon, n_episodes=n_episodes,
                   seeds=seeds, outputs=outputs, metrics=metrics)

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


def _solver_entry(entry, what: str) -> tuple:
    """(name, label, config) of one item of a config's `solvers` list."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be an object, got {type(entry).__name__}")
    check_keys(entry, ("name", "label", "config"), ("name",), what)
    name = _text(entry["name"], f"{what}.name")
    label = entry.get("label", name)
    if "label" in entry and not (isinstance(label, str) and LABEL.fullmatch(label)):
        raise ConfigError(f"{what}.label must match {LABEL.pattern}, got {label!r}")
    solver_cfg = entry.get("config", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError(f"{what}.config must be an object, got {type(solver_cfg).__name__}")
    return name, label, dict(solver_cfg)


def _text(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{what} must be a nonempty string, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist")
    except ValueError as exc:  # also bytes that are not UTF-8 and an int past 4300 digits
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------- execution

def _run_cell(args):
    """Run one (solver, seed) cell, write its CSVs into `episodes` and return
    its logs cut down to the metric columns; top level, for the pool."""
    cfg, name, label, solver_cfg, seed, episodes = args
    runner = SOLVERS[name].run
    episodes.mkdir(parents=True, exist_ok=True)
    logs = []
    for ep in range(cfg.n_episodes):
        log = runner(cfg.env, solver_cfg, cfg.horizon, derive_seed(seed, ep))
        log.to_csv(episodes / _episode_file(label, seed, ep))
        logs.append(metric_columns(log, cfg.metrics))
    return logs


def _episode_file(label, seed, ep) -> str:
    return f"{label}_seed{seed}_ep{ep}.csv"


def resolve_jobs(jobs=None) -> int:
    if jobs is None:
        jobs = os.environ.get("OCCAM_RRM_JOBS", "1")
        try:
            jobs = int(jobs)
        except ValueError:
            raise ConfigError(f"OCCAM_RRM_JOBS must be an integer, got {jobs!r}") from None
    return as_count(jobs, "jobs", 1)


def run_experiment(cfg: ExperimentConfig, jobs=None) -> Path:
    """Run every (solver, seed) cell, write per-episode CSVs and summary.json,
    and return the summary path. Cells may run in a process pool; outputs are
    merged in config order, so results never depend on scheduling. Published
    by _publishing, so the run's files replace a previous run's or sweep's."""
    out_dir = Path(cfg.outputs)
    with _publishing(out_dir) as staging:
        _run_all([cfg], out_dir, staging, jobs)
    return out_dir / "summary.json"


# The entries of an outputs directory that run and sweep own.
OWNED = re.compile(r"episodes|summary\.json|sweep\.csv|value_[0-9]{3,}")


@contextmanager
def _publishing(out_dir: Path):
    """Yield a staging directory for one command's files, each at its path
    relative to `out_dir`. Once the block succeeds, renames swap the entries
    of `out_dir` that OWNED matches for the staged ones; if anything fails,
    the renames made are undone. Staging is made in `out_dir` or its nearest
    existing ancestor, so a failed command into a fresh path makes no
    directory, and an `out_dir` at or under a file fails before the block."""
    anchor = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    staging = Path(tempfile.mkdtemp(prefix=".occam-rrm-", dir=anchor))
    done, made = [], []
    try:
        yield staging
        missing = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        made = missing
        # ".old" makes a name that OWNED no longer matches
        renames = [(e, staging / f"{e.name}.old") for e in sorted(out_dir.iterdir())
                   if OWNED.fullmatch(e.name)]
        renames += [(e, out_dir / e.name) for e in sorted(staging.iterdir())
                    if OWNED.fullmatch(e.name)]
        for src, dst in renames:
            os.replace(src, dst)
            done.append((src, dst))
    except BaseException:
        for src, dst in reversed(done):
            os.replace(dst, src)
        for d in made:  # deepest first, each empty again
            d.rmdir()
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _run_all(cfgs, out_dir: Path, staging: Path, jobs) -> list[dict]:
    """Check every config, run all their cells (in one process pool when
    jobs > 1) and return each config's summary. Each config's CSVs and
    summary.json go under `staging`, at their paths relative to `out_dir`."""
    discounts = []
    for cfg in cfgs:
        for name, _, solver_cfg in cfg.solvers:
            check_compatibility(name, cfg.env.get("env"))
            check_config(SOLVERS[name].agent, solver_cfg, "solver", ("env", "seed"))
        discounts.append(float(make_env(cfg.env).discount))
    jobs = resolve_jobs(jobs)
    dests = [staging / Path(cfg.outputs).relative_to(out_dir) for cfg in cfgs]
    cells = [
        (cfg, name, label, solver_cfg, seed, dest / "episodes")
        for cfg, dest in zip(cfgs, dests)
        for name, label, solver_cfg in cfg.solvers
        for seed in cfg.seeds
    ]
    global _policies
    _policies = {}  # forked pool workers start with this empty dict
    try:
        if jobs > 1 and len(cells) > 1:
            from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

            # never more workers than cells or cores: the pool starts them all at once
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(cells), os.cpu_count() or 1))
            try:
                results = list(pool.map(_run_cell, cells))
            finally:
                pool.shutdown(cancel_futures=True)
        else:
            results = [_run_cell(args) for args in cells]
    finally:
        _policies = None
    results = iter(results)  # consumed in the order the cells were listed
    summaries = [_summary(cfg, discount, results) for cfg, discount in zip(cfgs, discounts)]
    for dest, summary in zip(dests, summaries):
        (dest / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summaries


def _summary(cfg: ExperimentConfig, discount: float, results) -> dict:
    summary = {"config": cfg.to_dict(), "env": cfg.env.get("env"), "solvers": {}}
    for name, label, _ in cfg.solvers:
        solver_logs, files, per_seed = [], [], {}
        for seed in cfg.seeds:
            logs = next(results)
            solver_logs.extend(logs)
            files += [f"episodes/{_episode_file(label, seed, ep)}" for ep in range(len(logs))]
            per_seed[str(seed)] = metrics_summary(logs, "basic", discount).to_dict()
        record = metrics_summary(solver_logs, kind=cfg.metrics, discount=discount)
        summary["solvers"][label] = {
            "name": name,
            "metrics": record.to_dict(),
            "per_seed": per_seed,
            "episode_files": files,
        }
    return summary


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


def sweep(cfg: ExperimentConfig, param_path: str, values, jobs=None) -> Path:
    """Re-run the experiment once per value of a dotted config parameter, all
    cells in one pool once every value's config passed its checks, and add
    one sweep.csv row per (value, solver). Published by _publishing, so the
    sweep's files replace a previous run's or a longer sweep's."""
    if not values:
        raise ConfigError("sweep needs a nonempty list of values")
    base = cfg.to_dict()
    out_dir = Path(cfg.outputs)
    cfgs = []
    for i, value in enumerate(values):
        raw = deepcopy(base)
        _set_by_path(raw, param_path, value)
        raw["outputs"] = str(out_dir / f"value_{i:03d}")
        cfgs.append(ExperimentConfig.from_dict(raw))
    profiles = sorted({c.metrics for c in cfgs})
    if len(profiles) > 1:
        raise ConfigError(f"sweep values give the metric profiles {profiles}, whose sweep.csv "
                          "columns differ; sweep one profile at a time")
    with _publishing(out_dir) as staging:
        summaries = _run_all(cfgs, out_dir, staging, jobs)
        rows = []
        for value, summary in zip(values, summaries):
            for label, record in summary["solvers"].items():  # solvers and metrics in order
                rows.append([param_path, json.dumps(value), label]
                            + [repr(float(m)) for m in record["metrics"].values()])
        with open(staging / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "value", "solver"] + list(record["metrics"]))
            writer.writerows(rows)
    return out_dir / "sweep.csv"
