"""The CLI's error contract, property-tested: any value under any
top-level key, solver entry field, env or solver config key gives exit 0,
2 or 3, under `run` and under `sweep`; a failure prints exactly one
stderr line, `config error: ...` or `runtime error: ...`; and a run or
sweep that succeeds writes only finite metrics."""

import csv
import inspect
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import occam_rrm
from occam_rrm.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from occam_rrm.envs import ENVS
from occam_rrm.experiments import SOLVERS, ExperimentConfig

VALUES = [0, -1, 1e308, -1e308, float("nan"), float("inf"), float("-inf"), "abc", [], {}, 10**30]

# One cheap solver per env kind; tabular needs its two required tables.
CHEAP_SOLVER = {
    "link_adaptation": "illa-olla",
    "power_control": "uniform-power",
    "beamforming": "full-scan",
    "scheduling": "round-robin",
    "energy_saving": "min-energy",
    "handover": "greedy-ho",
    "admission_control": "accept-all",
    "tabular": "value-iteration",
}
BASE_ENV = {"tabular": {"transition": [[[1.0]]], "reward": [[1.0]]}}
# Valid values for required solver keys and small training and planning
# sizes, each overridden when it is the key under test.
BASE_SOLVER = {"budget_per_step": 2, "mcs": 1, "thresholds": [0, 2],
               "train_episodes": 2, "train_horizon": 5, "plan_horizon": 2}



def config_keys(fn) -> list:
    """The config keys of an env constructor or solver row: its parameters
    other than the env and seed a row is given."""
    return sorted(set(inspect.signature(fn).parameters) - {"env", "seed"})


# (domain, env kind or solver, key, nested field, base of the nested dict)
ENV_CASES = [("env", kind, key, None, None) for kind in ENVS for key in config_keys(ENVS[kind])]
SOLVER_CASES = [
    ("solver", name, key, None, None)
    for name, spec in SOLVERS.items()
    for key in config_keys(spec.agent)
]
# Each field of a nested dict, under a base that is valid without it.
NESTED_CASES = [
    ("env", kind, key, field, base)
    for kind, key, base, names in [
        ("handover", "model", {"kind": "crossing"}, ("period", "near_rsrp", "far_rsrp")),
        ("energy_saving", "traffic", {"kind": "sinusoid"},
         ("base", "amplitude", "period", "noise_std")),
        ("energy_saving", "traffic", {"trace": [1.0]}, ("noise_std",)),
        ("admission_control", "classes", {"arrival_rate": 0.1, "departure_rate": 0.01, "reward": 1},
         ("arrival_rate", "departure_rate", "demand", "reward", "reject_penalty",
          "delay_penalty", "blocked_penalty")),
    ]
    for field in names
] + [("solver", "bo-tracker", "kernel", field, {})
     for field in ("length_scales", "signal_var", "prior_mean")]


def case_config(domain, target, key, field, base, value, out) -> dict:
    """A two-seed, five-step run with `value` under the env or solver key,
    or under `field` of the nested dict there."""
    if field is not None:
        value = {**base, field: value}
        value = [value] if key == "classes" else value
    if domain == "env":
        env = {"env": target, **BASE_ENV.get(target, {}), key: value}
        solver = {"name": CHEAP_SOLVER[target]}
    else:
        spec = SOLVERS[target]
        accepted = config_keys(spec.agent)
        env = {"env": spec.envs[-1]}
        solver_cfg = {k: v for k, v in BASE_SOLVER.items() if k in accepted}
        solver = {"name": target, "config": {**solver_cfg, key: value}}
    return {"env": env, "solvers": [solver], "horizon": 5, "n_episodes": 1,
            "seeds": [0, 1], "outputs": str(out)}


def check_outcome(code, err, out, root):
    """The exit code and stderr of a command, its summary when it wrote one
    to `out`, and no staging directory left anywhere under `root`."""
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    assert "Traceback" not in err
    assert not list(root.rglob(".occam-rrm-*")), "a staging directory was left behind"
    if code == EXIT_OK:
        assert err == ""
        if out is None:  # a sweep; run_sweep checks its sweep.csv
            return
        summary = json.loads((out / "summary.json").read_text())
        for record in summary["solvers"].values():
            metrics = [record["metrics"], *record["per_seed"].values()]
            assert all(math.isfinite(v) for m in metrics for v in m.values()), metrics
    else:
        assert len(err.splitlines()) == 1, err
        prefix = "config error:" if code == EXIT_CONFIG else "runtime error:"
        assert err.startswith(prefix), err


def run_config(tmp_path, capsys, config, jobs):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["run", str(path), "--jobs", str(jobs), "--quiet"])
    check_outcome(code, capsys.readouterr().err, tmp_path / str(config["outputs"]), tmp_path)


def run_case(tmp_path, capsys, case, value, jobs):
    run_config(tmp_path, capsys, case_config(*case, value, tmp_path / "out"), jobs)


CASES = ENV_CASES + SOLVER_CASES + NESTED_CASES


def test_every_config_key_is_a_case():
    # 53 env keys, 19 solver keys and 18 nested fields: a key added or
    # dropped changes the count
    assert (len(ENV_CASES), len(SOLVER_CASES), len(NESTED_CASES)) == (53, 19, 18)


def case_id(case) -> str:
    _, target, key, field, base = case
    name = f"{target}.{key}" if field is None else f"{target}.{key}.{field}"
    return name + ("[trace]" if base and "trace" in base else "")


PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# Eleven values to draw from, so each key sees every one of them.
@pytest.mark.parametrize("case", CASES, ids=case_id)
@settings(PROPERTY, max_examples=len(VALUES))
@given(value=st.sampled_from(VALUES))
def test_any_value_keeps_the_error_contract(tmp_path, capsys, case, value):
    run_case(tmp_path, capsys, case, value, jobs=1)


# Every top-level key, every field of a solver entry and of the seeds
# object, with (key, None) for a top-level key.
TOP_CASES = ([(f.name, None) for f in fields(ExperimentConfig)]
             + [("solvers", field) for field in ("name", "label", "config")]
             + [("seeds", field) for field in ("base", "count")])
# Floats that JSON carries where the config takes an integer.
TOP_VALUES = VALUES + [2.0, 1e300]


def top_config(key, field, value, out) -> dict:
    """A two-seed, five-step illa-olla run with `value` under a top-level
    key, or under a field of its solver entry or seeds object."""
    config = {"env": {"env": "link_adaptation"}, "solvers": [{"name": "illa-olla"}],
              "horizon": 5, "n_episodes": 1, "seeds": [0, 1], "outputs": str(out)}
    if field is None:
        config[key] = value
    elif key == "solvers":
        config["solvers"] = [{"name": "illa-olla", field: value}]
    else:
        config["seeds"] = {"base": 0, "count": 2, field: value}
    return config


@pytest.mark.parametrize("key,field", TOP_CASES,
                         ids=[key + (f".{field}" if field else "") for key, field in TOP_CASES])
@settings(PROPERTY, max_examples=len(TOP_VALUES))
@given(value=st.sampled_from(TOP_VALUES))
def test_any_top_level_value_keeps_the_error_contract(tmp_path, capsys, monkeypatch, key, field,
                                                      value):
    monkeypatch.chdir(tmp_path)  # a drawn string under `outputs` names a directory here
    run_config(tmp_path, capsys, top_config(key, field, value, tmp_path / "out"), jobs=1)


def run_sweep(tmp_path, capsys, config, param, values) -> int:
    """`occam-rrm sweep` of `config` over `param`; the contract as for run,
    and a sweep that succeeds writes a sweep.csv whose rows all fit its
    header and hold finite metrics."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    code = main(["sweep", str(path), "--param", param, "--values", json.dumps(values),
                 "--jobs", "1", "--quiet"])
    err = capsys.readouterr().err
    check_outcome(code, err, None, tmp_path)
    if code != EXIT_OK:
        return code
    assert err == ""
    with open(tmp_path / config["outputs"] / "sweep.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == len(values) * len(config["solvers"])
    assert all(len(row) == len(header) for row in rows), (header, rows)
    assert all(math.isfinite(float(v)) for row in rows for v in row[3:]), rows
    return code


SWEEP_BASE = {"env": {"env": "link_adaptation"}, "solvers": [{"name": "illa-olla"}],
              "horizon": 5, "n_episodes": 1, "seeds": {"base": 0, "count": 2}, "outputs": "out"}


# Each top-level key, solver entry field and seeds field, swept over one
# drawn value.
@pytest.mark.parametrize("key,field", TOP_CASES,
                         ids=[key + (f".{field}" if field else "") for key, field in TOP_CASES])
@settings(PROPERTY, max_examples=len(TOP_VALUES))
@given(value=st.sampled_from(TOP_VALUES))
def test_any_swept_top_level_value_keeps_the_error_contract(tmp_path, capsys, monkeypatch, key,
                                                            field, value):
    monkeypatch.chdir(tmp_path)  # a drawn string under `outputs` names a directory here
    param = key if field is None else f"{key}.0.{field}" if key == "solvers" else f"{key}.{field}"
    run_sweep(tmp_path, capsys, SWEEP_BASE, param, [value])


BF_SWEEP = {**SWEEP_BASE, "env": {"env": "beamforming"}, "solvers": [{"name": "full-scan"}]}
# (config, param, values, exit code): a label sweep once ran every cell and
# then ended in a KeyError traceback; a sweep over two metric profiles
# wrote a header that fit none of its rows.
SWEEP_REPROS = {
    "solvers.0.label": (SWEEP_BASE, "solvers.0.label", ["a", "b"], EXIT_OK),
    "metrics beam, basic": (BF_SWEEP, "metrics", ["beam", "basic"], EXIT_CONFIG),
    "metrics basic, beam": (BF_SWEEP, "metrics", ["basic", "beam"], EXIT_CONFIG),
    "metrics beam, beam": (BF_SWEEP, "metrics", ["beam", "beam"], EXIT_OK),
    "env.env onto an incompatible env":
        (SWEEP_BASE, "env.env", ["link_adaptation", "handover"], EXIT_CONFIG),
    "solvers.0.name without its required key":
        (SWEEP_BASE, "solvers.0.name", ["illa-olla", "fixed-mcs"], EXIT_CONFIG),
}


@pytest.mark.parametrize("case", SWEEP_REPROS)
def test_sweep_repros_keep_the_error_contract(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    config, param, values, expected = SWEEP_REPROS[case]
    assert run_sweep(tmp_path, capsys, config, param, values) == expected
    if expected != EXIT_OK:  # refused or failed before sweep.csv was written
        assert not (tmp_path / "out").exists()


# The same under a two-process pool, where agents are built in the workers
# and their errors come back pickled; a pool costs a fork, so fewer draws.
@settings(PROPERTY, max_examples=40)
@given(case=st.sampled_from(CASES), value=st.sampled_from(VALUES))
def test_any_value_keeps_the_error_contract_in_a_pool(tmp_path, capsys, case, value):
    run_case(tmp_path, capsys, case, value, jobs=2)


# Every count key, as (domain, env kind or solver, key). Each once
# truncated a float, kept it, or read true as 1.
COUNT_KEYS = [("env", kind, key) for kind, key in [
    ("scheduling", "n_users"), ("beamforming", "n_beams"), ("handover", "n_cells"),
    ("power_control", "n_channels"), ("energy_saving", "n_resources"),
    ("link_adaptation", "n_mcs"), ("power_control", "coherence"),
    ("energy_saving", "activation_delay"), ("handover", "pingpong_window"),
    ("tabular", "initial_state"),
]] + [("solver", name, key) for name, key in [
    ("fixed-mcs", "mcs"), ("mro", "time_to_trigger"), ("knn-tracker", "budget_per_step"),
    ("bo-tracker", "budget_per_step"), ("bo-tracker", "window"),
    ("mpc-energy", "plan_horizon"), ("q-learning", "train_episodes"),
    ("q-learning", "train_horizon"),
]]


@pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["2.5", "4.0", "true"])
@pytest.mark.parametrize("domain,target,key", COUNT_KEYS,
                         ids=[f"{target}.{key}" for _, target, key in COUNT_KEYS])
def test_a_count_refuses_a_float_and_a_bool(tmp_path, capsys, domain, target, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(case_config(domain, target, key, None, None, value,
                                           tmp_path / "out")))
    capsys.readouterr()
    code = main(["run", str(path), "--jobs", "1", "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG and len(err.splitlines()) == 1, (code, err)
    assert err.startswith("config error:") and "must be an integer >= " in err, err
    assert not (tmp_path / "out").exists()


NAN = float("nan")
BO = {"budget_per_step": 2}
# (env kind, env config, solver, solver config): each once exited 0, ran
# without end or ended in a traceback.
REPROS = {
    "bo-tracker.kernel.length_scales=nan":
        ("beamforming", {}, "bo-tracker", {**BO, "kernel": {"length_scales": [NAN, 1]}}),
    "bo-tracker.kernel.signal_var=nan":
        ("beamforming", {}, "bo-tracker", {**BO, "kernel": {"signal_var": NAN}}),
    "bo-tracker.kappa=nan": ("beamforming", {}, "bo-tracker", {**BO, "kappa": NAN}),
    "illa-olla.step_up=nan": ("link_adaptation", {}, "illa-olla", {"step_up": NAN}),
    "dpp-energy.v_weight=nan": ("energy_saving", {}, "dpp-energy", {"v_weight": NAN}),
    "mro.time_to_trigger=nan": ("handover", {}, "mro", {"time_to_trigger": NAN}),
    "trunk.thresholds[1]=nan": ("admission_control", {}, "trunk", {"thresholds": [0, NAN]}),
    "value-iteration.tol=nan": ("admission_control", {}, "value-iteration", {"tol": NAN}),
    "beamforming.reward-overflow":
        ("beamforming", {"mean_rsrp": 1e308, "rsrp_std": 1e308}, "full-scan", {}),
    "energy_saving.reward-overflow":
        ("energy_saving", {"energy_weight": 1e308, "qos_weight": 1e308}, "es-thresholds", {}),
    "scheduling.reward-overflow":
        ("scheduling", {"mean_efficiency": [1e308, 1, 1, 1]}, "proportional-fair", {}),
    "value-iteration.value-overflow": (
        "admission_control",
        {"classes": [{"arrival_rate": 0.25, "departure_rate": 0.02, "reward": 1e308}]},
        "value-iteration", {},
    ),
    "scheduling.arrival_rates[0]=-1":
        ("scheduling", {"arrival_rates": [-1, 1, 1, 1]}, "proportional-fair", {}),
    "q-learning.train_episodes=10**30":
        ("admission_control", {}, "q-learning", {"train_episodes": 10**30}),
    "illa-olla.step_up=1e308": ("link_adaptation", {}, "illa-olla", {"step_up": 1e308}),
    "link_adaptation.innovation_std=1e308":
        ("link_adaptation", {"innovation_std": 1e308}, "fixed-mcs", {"mcs": 2}),
    "power_control.mean_gain=-1": ("power_control", {"mean_gain": -1.0}, "uniform-power", {}),
    "admission_control.discount=1.0":
        ("admission_control", {"discount": 1.0}, "trunk", {"thresholds": [0, 2]}),
    "admission_control.discount=-0.1":
        ("admission_control", {"discount": -0.1}, "trunk", {"thresholds": [0, 2]}),
    "illa-olla.s50 with equal thresholds": (
        "link_adaptation", {"s50": [0, 0, 2, 4, 6, 8, 10, 12]}, "illa-olla", {}),
    "admission_control.capacity=200": ("admission_control", {"capacity": 200, "classes": [
        {"arrival_rate": 0.25, "departure_rate": 0.001, "reward": r} for r in (2.0, 1.0)
    ]}, "value-iteration", {}),
    "admission_control.capacity=999": ("admission_control", {"capacity": 999, "classes": [
        {"arrival_rate": 0.3, "departure_rate": 1e-4, "reward": r} for r in (2.0, 1.0)
    ]}, "value-iteration", {}),
    "q-learning.value-overflow": (
        "admission_control",
        {"classes": [{"arrival_rate": 0.25, "departure_rate": 0.02, "reward": 1e308}]},
        "q-learning", {},
    ),
    "q-learning.reward_noise_std=1e308":
        ("tabular", {**BASE_ENV["tabular"], "reward_noise_std": 1e308}, "q-learning", {}),
    "scheduling.never-served-user": ("scheduling", {"n_users": 4}, "max-rate", {}),
    # a window of 2.5 once ran as 2 points, and one of 1e308 as unbounded
    "bo-tracker.window=2.5": ("beamforming", {}, "bo-tracker", {**BO, "window": 2.5}),
    "bo-tracker.window=1e308": ("beamforming", {}, "bo-tracker", {**BO, "window": 1e308}),
}
# Top-level keys a repro sets besides env and solvers: over three steps
# max-rate serves at most three of four users, and the scheduling profile
# once wrote a sum_log_throughput of -Infinity.
REPRO_TOP = {"scheduling.never-served-user": {"metrics": "scheduling", "horizon": 3}}
# Repros that fail while Q-learning trains, with exit 3 and not the exit 2
# of a QTable built from non-finite values.
Q_LEARNING_OVERFLOW = ["q-learning.value-overflow", "q-learning.reward_noise_std=1e308"]
# Repros refused before any large array is built: exit 2 within a second.
REFUSED_AT_ONCE = {"illa-olla.step_up=1e308", "power_control.mean_gain=-1",
                   "admission_control.discount=1.0", "admission_control.discount=-0.1",
                   "illa-olla.s50 with equal thresholds", "admission_control.capacity=200",
                   "admission_control.capacity=999", "bo-tracker.window=2.5",
                   "bo-tracker.window=1e308"}
# Top-level keys over a 20-step illa-olla run, each refused with exit 2
# within a second: the seed list once took hours to build, the run never
# ended, a float horizon ended in a traceback, and a label matched its
# pattern only up to a newline.
TOP_REPROS = {
    "seeds.count=10**9": {"seeds": {"base": 0, "count": 10**9}},
    "horizon=10**12": {"horizon": 10**12},
    "horizon=2.0": {"horizon": 2.0},
    "label=a\\n": {"solvers": [{"name": "illa-olla", "label": "a\n"}]},
}

# Command lines whose flag values once ended in a traceback, or whose flags
# advise and plot once ignored; `{config}` is a valid run config and `{bad}`
# a file that is not UTF-8.
CLI_REPROS = {
    "advise --traits 5": ["advise", "--traits", "5"],
    "advise --traits null": ["advise", "--traits", "null"],
    "advise --traits []": ["advise", "--traits", "[]"],
    "sweep --values [5000 digits]":
        ["sweep", "{config}", "--param", "horizon", "--values", f"[{'9' * 5000}]"],
    "plot non-UTF-8 input": ["plot", "{bad}", "--kind", "reward-curve", "--out", "{bad}.svg"],
    "advise --jobs 999999 --seed -5 --out-dir ''":
        ["advise", "--use-case", "SC", "--jobs", "999999", "--seed", "-5", "--out-dir", ""],
    "--jobs 3 advise": ["--jobs", "3", "advise", "--use-case", "SC"],
    "plot --seed 1 --jobs 2":
        ["plot", "{config}", "--kind", "reward-curve", "--out", "{bad}.svg", "--seed", "1",
         "--jobs", "2"],
    # argparse usage errors, in the top parser and in a subcommand's
    "no command": [],
    "run without config": ["run"],
    "frobnicate": ["frobnicate"],
    "run --jobs x": ["run", "{config}", "--jobs", "x"],
    "--seed x run": ["--seed", "x", "run", "{config}"],
    "sweep without --param": ["sweep", "{config}", "--values", "[1]"],
    "plot --kind bogus": ["plot", "{config}", "--kind", "bogus", "--out", "{bad}.svg"],
    "run --frobnicate": ["run", "{config}", "--frobnicate"],
}

# Plot inputs that once ended in a traceback or, for the 10^7-step heatmap,
# ran on past 10 s: (input file content, --kind, expected exit code).
BF_CONFIG = {"env": {"env": "beamforming"}, "solvers": [{"name": "full-scan"}], "seeds": [0]}
SWEEP_HEAD = "param,value,solver,accuracy\n"
PLOT_REPROS = {
    "summary 5, reward-curve": ("5", "reward-curve", EXIT_CONFIG),
    "summary 5, rsrp-heatmap": ("5", "rsrp-heatmap", EXIT_CONFIG),
    "solver entry 5": (json.dumps({"solvers": {"a": 5}}), "reward-curve", EXIT_RUNTIME),
    "horizon abc": (json.dumps({"config": {**BF_CONFIG, "horizon": "abc"}}), "rsrp-heatmap",
                    EXIT_CONFIG),
    "horizon 10**7": (json.dumps({"config": {**BF_CONFIG, "horizon": 10**7}}), "rsrp-heatmap",
                      EXIT_CONFIG),
    "sweep value not JSON":
        (SWEEP_HEAD + "env.ue_speed,abc,full-scan,0.5\n", "accuracy-vs-speed", EXIT_RUNTIME),
    "sweep without solver":
        ("param,value,accuracy\nenv.ue_speed,1.0,0.5\n", "accuracy-vs-speed", EXIT_RUNTIME),
    "sweep accuracy not a number":
        (SWEEP_HEAD + "env.ue_speed,1.0,full-scan,high\n", "accuracy-vs-speed", EXIT_RUNTIME),
}

# Runs each JSON-encoded argv through cli.main in this one process with
# stderr caught per run; every warning is shown, so one that is normally
# shown once per process still counts against each run.
DRIVER = """
import io, json, sys, time, warnings
from contextlib import redirect_stderr
from occam_rrm.cli import main
warnings.simplefilter("always")
for argv in sys.argv[1:]:
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stderr(err):
        code = main(json.loads(argv))
    print(json.dumps([code, err.getvalue(), time.perf_counter() - start]))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _child_env(src: str) -> dict:
    """A subprocess's whole environment: src on the path, one BLAS thread,
    and the caller's PYTHONDONTWRITEBYTECODE, so a run that asks for no
    bytecode leaves none in src/."""
    keep = {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE",) if k in os.environ}
    return {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", **keep}


def drive(argvs) -> list:
    """[exit code, stderr, seconds] of each argv, run by DRIVER under a
    2 GiB address-space limit."""
    src = str(Path(occam_rrm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, *map(json.dumps, argvs)], capture_output=True, text=True,
        timeout=120, preexec_fn=_limit_address_space,
        env=_child_env(src),
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_repros_exit_config_with_one_line(tmp_path):
    config, bad = tmp_path / "cfg.json", tmp_path / "bad.json"
    config.write_text(json.dumps({"env": {"env": "link_adaptation"},
                                  "solvers": [{"name": "illa-olla"}], "horizon": 5,
                                  "seeds": [0], "outputs": str(tmp_path / "out")}))
    bad.write_bytes(b"\xff\xfe")
    argvs = [[a.format(config=config, bad=bad) for a in argv] for argv in CLI_REPROS.values()]
    results = drive(argvs)
    assert len(results) == len(CLI_REPROS)
    for name, (code, err, seconds) in zip(CLI_REPROS, results):
        assert code == EXIT_CONFIG and seconds < 1, (name, code, err, seconds)
        assert len(err.splitlines()) == 1 and err.startswith("config error:"), (name, err)
    assert not (tmp_path / "out").exists()


def test_plot_repros_exit_with_one_line(tmp_path):
    argvs = []
    for i, (content, kind, _) in enumerate(PLOT_REPROS.values()):
        path = tmp_path / f"input{i}"
        path.write_text(content)
        argvs.append(["plot", str(path), "--kind", kind, "--out", str(tmp_path / f"{i}.svg")])
    results = drive(argvs)
    assert len(results) == len(PLOT_REPROS)
    for (name, (_, _, expected)), (code, err, seconds) in zip(PLOT_REPROS.items(), results):
        assert code == expected and seconds < 1, (name, code, err, seconds)
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (name, err)
    assert not list(tmp_path.glob("*.svg"))


def test_repros_exit_with_one_line_in_2gib(tmp_path):
    configs = [
        {"env": {"env": kind, **env}, "solvers": [{"name": solver, "config": solver_cfg}],
         **REPRO_TOP.get(name, {})}
        for name, (kind, env, solver, solver_cfg) in REPROS.items()
    ] + [
        {"env": {"env": "link_adaptation"}, "solvers": [{"name": "illa-olla"}], **top}
        for top in TOP_REPROS.values()
    ]
    paths = []
    for i, config in enumerate(configs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps({"horizon": 20, "seeds": [0],
                                    "outputs": str(tmp_path / f"out{i}"), **config}))
        paths.append(str(path))
    results = drive([["run", path, "--jobs", "1", "--quiet"] for path in paths])
    assert len(results) == len(REPROS) + len(TOP_REPROS)
    for name, (code, err, seconds) in zip([*REPROS, *TOP_REPROS], results):
        assert code in (EXIT_CONFIG, EXIT_RUNTIME), (name, code, err)
        assert len(err.splitlines()) == 1 and "Traceback" not in err, (name, err)
        assert err.startswith("config error:" if code == EXIT_CONFIG else "runtime error:")
        if name.endswith("=nan"):  # the error names the key
            assert name[:-4].split(".")[-1].split("[")[0] in err, (name, err)
        if name in TOP_REPROS or name in REFUSED_AT_ONCE:
            assert code == EXIT_CONFIG and seconds < 1, (name, code, seconds)
        if name == "link_adaptation.innovation_std=1e308":
            assert code == EXIT_RUNTIME and seconds < 1 and "sinr" in err, (name, code, err)
        if name.endswith(".reward-overflow"):
            assert code == EXIT_RUNTIME and err.startswith("runtime error: step "), (name, err)
        if name in REPRO_TOP:
            assert code == EXIT_RUNTIME and "thr_" in err and "metrics: basic" in err, (name, err)


@pytest.mark.parametrize("case", Q_LEARNING_OVERFLOW)
def test_q_learning_overflow_exits_runtime_naming_the_step(tmp_path, capsys, case):
    kind, env, solver, solver_cfg = REPROS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"env": {"env": kind, **env},
                                "solvers": [{"name": solver, "config": solver_cfg}],
                                "horizon": 20, "seeds": [0], "outputs": str(tmp_path / "out")}))
    capsys.readouterr()
    code = main(["run", str(path), "--jobs", "1", "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME, (code, err)
    assert len(err.splitlines()) == 1 and err.startswith("runtime error: training step"), err
