"""The benchmark's three workloads. Each is a list of operations built from
the workload seed: `occam-rrm run` / `sweep` invocations driven in-process
through `occam_rrm.cli.main`, and one library `bo_tune` call. An operation
writes its artifacts under its own output directory.

Paths are relative to the checkout root and the benchmark runs from there:
`summary.json` records the config's `outputs` string, so the committed
digests only match when that string is the same on every machine.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

WORK_DIR = Path("perfbench") / ".work"

WORKLOADS = ("rules_run", "lookahead_gp", "sweep_jobs2")

# Horizons are short so that each operation takes well under a second and
# repeats many times in a run: run_s sums each operation's fastest time.

# rules_run: every rule/baseline solver plus water-fill, value iteration and
# Q-learning, one config per environment; MPC and GP solvers are left out.
RULES_HORIZON = 250
RULES_SEEDS = 4
RULES_CONFIGS = {
    "link_adaptation": (
        [("illa-olla", {}), ("thompson-mcs", {}), ("fixed-mcs", {"mcs": 2})],
        "basic",
    ),
    "power_control": ([("water-fill", {})], "basic"),
    "scheduling": (
        [("proportional-fair", {}), ("round-robin", {}), ("max-rate", {})],
        "scheduling",
    ),
    "energy_saving": (
        [("dpp-energy", {}), ("es-thresholds", {}), ("min-energy", {})],
        "basic",
    ),
    "handover": ([("mro", {}), ("greedy-ho", {})], "basic"),
    "admission_control": (
        [
            ("trunk", {"thresholds": [0, 2]}),
            ("accept-all", {}),
            ("value-iteration", {}),
            ("q-learning", {"train_episodes": 5, "train_horizon": 200}),
        ],
        "basic",
    ),
    "beamforming": (
        [("full-scan", {}), ("knn-tracker", {"budget_per_step": 2})],
        "beam",
    ),
}

# lookahead_gp: few steps, almost all time in the MPC lookahead and the GP
# posterior (a windowed 16-beam tracker and an unwindowed 41x41-lattice
# surrogate in bo_tune).
MPC_HORIZON = 3
MPC_SEEDS = 2
BO_TRACKER_HORIZON = 60
BO_TRACKER_SEEDS = 2
TUNE_ENV = {"env": "handover"}
TUNE_FAMILY = "mro"
TUNE_BOUNDS = ((0.0, 20.0), (1.0, 50.0))  # hysteresis dB, time-to-trigger steps
TUNE_BUDGET = 14
TUNE_EPISODES = 2
TUNE_HORIZON = 200

# sweep_jobs2: the scheduling comparison swept over the user count through
# a two-worker process pool (one pool per value).
SWEEP_HORIZON = 200
SWEEP_SEEDS = 2
SWEEP_JOBS = 2
SWEEP_PARAM = "env.n_users"
SWEEP_VALUES = (2, 4, 6, 8, 10, 12, 14, 16)


@dataclass(frozen=True)
class Op:
    """One benchmark operation. `argv` holds `occam-rrm` arguments; an
    empty `argv` marks the library tune call."""

    name: str
    out_dir: Path
    argv: tuple = ()

    @property
    def kind(self) -> str:
        return self.argv[0] if self.argv else "tune"


def _experiment(env, solvers, metrics, horizon, seed, count, out_dir):
    return {
        "env": {"env": env},
        "solvers": [{"name": n, "config": c} for n, c in solvers],
        "horizon": horizon,
        "seeds": {"base": seed, "count": count},
        "metrics": metrics,
        "outputs": str(out_dir),
    }


def _configs(workload: str, seed: int, root: Path) -> dict:
    """Operation name -> experiment config dict."""
    if workload == "rules_run":
        return {
            env: _experiment(env, solvers, metrics, RULES_HORIZON, seed, RULES_SEEDS,
                             root / env)
            for env, (solvers, metrics) in RULES_CONFIGS.items()
        }
    if workload == "lookahead_gp":
        return {
            "energy_saving": _experiment(
                "energy_saving", [("mpc-energy", {})], "basic",
                MPC_HORIZON, seed, MPC_SEEDS, root / "energy_saving"),
            "beamforming": _experiment(
                "beamforming", [("bo-tracker", {"budget_per_step": 2})], "beam",
                BO_TRACKER_HORIZON, seed, BO_TRACKER_SEEDS, root / "beamforming"),
        }
    if workload == "sweep_jobs2":
        solvers = RULES_CONFIGS["scheduling"][0]
        return {
            "scheduling": _experiment(
                "scheduling", solvers, "scheduling", SWEEP_HORIZON, seed, SWEEP_SEEDS,
                root / "scheduling"),
        }
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def out_root(workload: str) -> Path:
    return WORK_DIR / workload / "out"


def prepare(workload: str, seed: int) -> list[Op]:
    """Write the workload's configs, load each through the program's own
    loader (which validates it), and return the operations in run order."""
    from occam_rrm.experiments import load_config

    config_dir = WORK_DIR / workload / "configs"
    shutil.rmtree(config_dir, ignore_errors=True)
    config_dir.mkdir(parents=True)
    ops = []
    for name, cfg in _configs(workload, seed, out_root(workload)).items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        load_config(path)
        if workload == "sweep_jobs2":
            argv = ("sweep", str(path), "--param", SWEEP_PARAM,
                    "--values", json.dumps(list(SWEEP_VALUES)),
                    "--jobs", str(SWEEP_JOBS), "--quiet")
        else:
            argv = ("run", str(path), "--jobs", "1", "--quiet")
        ops.append(Op(name, Path(cfg["outputs"]), argv))
    if workload == "lookahead_gp":
        ops.append(Op("tune_mro", out_root(workload) / "tune_mro"))
    return ops


def _tune_objective(seed: int):
    from occam_rrm import tuning

    def objective(theta):
        policy = tuning.ParamPolicy(TUNE_FAMILY, theta, TUNE_BOUNDS)
        return tuning.evaluate_policy(TUNE_ENV, policy, TUNE_EPISODES, TUNE_HORIZON, seed)

    return objective


def run_op(op: Op, seed: int) -> int:
    """Run one operation; returns its exit code. Exceptions propagate."""
    if op.argv:
        from occam_rrm import cli

        return cli.main(list(op.argv))
    from occam_rrm import tuning

    # Looked up through the module at call time so a tracer's wrapper is used.
    result = tuning.bo_tune(_tune_objective(seed), TUNE_BOUNDS, budget=TUNE_BUDGET, seed=seed)
    op.out_dir.mkdir(parents=True, exist_ok=True)
    (op.out_dir / "tune.csv").write_text(result.to_csv())
    (op.out_dir / "tune.json").write_text(result.to_json() + "\n")
    return 0


def reevaluate_tune(theta, seed: int) -> float:
    """Mean return of `theta` under the tune call's objective, for checking
    the reported best value."""
    return _tune_objective(seed)(tuple(theta))[0]
