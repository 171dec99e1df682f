"""Command line and figure coverage: subcommand exit codes, flag overrides,
and the three SVG renderers."""

import hashlib
import inspect
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import occam_rrm
from occam_rrm import cli, planning
from occam_rrm.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from occam_rrm.envs import ENVS
from occam_rrm.errors import ConfigError, PlotDataError
from occam_rrm.experiments import SOLVERS, ExperimentConfig, run_experiment, sweep
from occam_rrm.plots import emit_plot


def write_config(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def la_config(tmp_path, **overrides) -> str:
    data = {
        "env": {"env": "link_adaptation"},
        "solvers": [{"name": "fixed-mcs", "config": {"mcs": 2}}],
        "horizon": 20,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    }
    data.update(overrides)
    return write_config(tmp_path / "cfg.json", data)


def bf_summary(tmp_path, n_beams=6, horizon=25):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "beamforming", "n_beams": n_beams},
        "solvers": [{"name": "full-scan"}],
        "horizon": horizon,
        "seeds": [0],
        "outputs": str(tmp_path / "bf"),
        "metrics": "beam",
    })
    return run_experiment(cfg)


# ---------------------------------------------------------------- plots


def test_heatmap_has_one_cell_per_beam_and_step(tmp_path):
    summary = bf_summary(tmp_path, n_beams=6, horizon=25)
    out = emit_plot(summary, "rsrp-heatmap", tmp_path / "heat.svg")
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('<rect class="cell"') == 6 * 25


def test_heatmap_reruns_byte_identically(tmp_path):
    summary = bf_summary(tmp_path)
    a = emit_plot(summary, "rsrp-heatmap", tmp_path / "a.svg")
    b = emit_plot(summary, "rsrp-heatmap", tmp_path / "b.svg")
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_rejects_non_beamforming_summary(tmp_path):
    cfg = ExperimentConfig.from_dict(json.loads(open(la_config(tmp_path)).read()))
    summary = run_experiment(cfg)
    with pytest.raises(PlotDataError, match="beamforming"):
        emit_plot(summary, "rsrp-heatmap", tmp_path / "heat.svg")


def test_reward_curve_one_series_per_solver(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "link_adaptation"},
        "solvers": [
            {"name": "fixed-mcs", "config": {"mcs": 2}},
            {"name": "illa-olla"},
        ],
        "horizon": 30,
        "seeds": [1],
        "outputs": str(tmp_path / "out"),
    })
    summary = run_experiment(cfg)
    svg = emit_plot(summary, "reward-curve", tmp_path / "curve.svg").read_text()
    assert svg.count('<polyline class="series"') == 2
    assert 'data-solver="fixed-mcs"' in svg
    assert 'data-solver="illa-olla"' in svg


@pytest.mark.parametrize("reward", [1e17, -1e17, 2.0**53, 1e308])
def test_reward_curve_of_one_huge_value_has_finite_points(tmp_path, reward):
    # a zero span is widened by 1.0, which is below the float spacing here
    (tmp_path / "s.csv").write_text(f"t,reward\n0,{reward!r}\n")
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"solvers": {"s": {"episode_files": ["s.csv"]}}}))
    svg = emit_plot(path, "reward-curve", tmp_path / "curve.svg").read_text()
    (points,) = re.findall(r'<polyline class="series"[^>]*points="([^"]*)"', svg)
    assert all(math.isfinite(float(c)) for xy in points.split() for c in xy.split(","))


def test_reward_curve_needs_solver_entries(tmp_path):
    empty = tmp_path / "summary.json"
    empty.write_text(json.dumps({"solvers": {}}))
    with pytest.raises(PlotDataError, match="no solver entries"):
        emit_plot(empty, "reward-curve", tmp_path / "curve.svg")


def test_accuracy_vs_speed_from_beam_sweep(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "beamforming", "n_beams": 6},
        "solvers": [
            {"name": "bo-tracker", "config": {"budget_per_step": 2}},
            {"name": "knn-tracker", "config": {"budget_per_step": 2}},
        ],
        "horizon": 25,
        "seeds": [0, 1],
        "outputs": str(tmp_path / "out"),
        "metrics": "beam",
    })
    sweep_path = sweep(cfg, "env.ue_speed", [0.5, 2.0, 8.0])
    svg = emit_plot(sweep_path, "accuracy-vs-speed", tmp_path / "acc.svg").read_text()
    series = re.findall(r'<polyline class="series"[^>]*points="([^"]*)"', svg)
    assert len(series) == 2
    # one vertex per swept speed on every line
    assert all(len(pts.split()) == 3 for pts in series)
    for label in ("0.5", "2.0", "8.0"):
        assert f">{label}</text>" in svg


def test_accuracy_vs_speed_needs_beam_profile(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "env": {"env": "link_adaptation"},
        "solvers": [{"name": "fixed-mcs", "config": {"mcs": 2}}],
        "horizon": 10,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    sweep_path = sweep(cfg, "solvers.0.config.mcs", [0, 1])
    with pytest.raises(PlotDataError, match="accuracy"):
        emit_plot(sweep_path, "accuracy-vs-speed", tmp_path / "acc.svg")


def seven_solver_summary(tmp_path) -> Path:
    """A summary of seven solvers, one more than the palette holds, whose
    reward files differ in length and sign."""
    solvers = {}
    for i in range(7):
        rewards = [(-1) ** (i + t) * (t + i) / 3 for t in range(4 + i)]
        name = f"s{i}.csv"
        (tmp_path / name).write_text("t,reward\n" + "".join(f"{t},{r!r}\n"
                                                           for t, r in enumerate(rewards)))
        solvers[f"solver-{i}"] = {"episode_files": [name]}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"solvers": solvers}))
    return path


def beam_sweep_csv(tmp_path, rows) -> Path:
    path = tmp_path / "sweep.csv"
    path.write_text("param,value,solver,accuracy\n"
                    + "".join(f"env.ue_speed,{v},{s},{a}\n" for v, s, a in rows))
    return path


def bf_config_summary(tmp_path, **env) -> Path:
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"config": {
        "env": {"env": "beamforming", "n_beams": 4, **env},
        "solvers": [{"name": "full-scan"}], "horizon": 6, "seeds": [3],
    }}))
    return path


# sha256 of each figure, taken before plots.py shared its page frame and
# series loop between the renderers; any change of a byte shows here.
SVG_CASES = {
    "reward-curve, 7 solvers (palette wraps)": (
        seven_solver_summary, "reward-curve",
        "5f4fc09847fc00ff74e44afe5e9ccbfdc57cb6c330523e5ad239fae09f477c6b"),
    "accuracy-vs-speed, one value": (
        lambda p: beam_sweep_csv(p, [(2.0, "knn-tracker", 0.75), (2.0, "full-scan", 1.0)]),
        "accuracy-vs-speed",
        "9a5cfba05a97f75036d4ddaf44996ad956548fd7a1746681c9a425af9b6570fc"),
    "accuracy-vs-speed, three values": (
        lambda p: beam_sweep_csv(p, [(v, s, a) for v in (0.5, 2.0, 8.0)
                                     for s, a in (("bo-tracker", 1 / v), ("full-scan", 0.9))]),
        "accuracy-vs-speed",
        "bdcc2781a7fbce187f99eac137297f30e516b69959426d4f1366dbe8f347cbc8"),
    "rsrp-heatmap, rsrp_std 0 (zero span)": (
        lambda p: bf_config_summary(p, rsrp_std=0), "rsrp-heatmap",
        "d6c0ff05471ba74f1105d8055564856e8def42fc15e17271c79ee23e757708e1"),
    "rsrp-heatmap": (
        bf_config_summary, "rsrp-heatmap",
        "295b851e47e1c8976ca83f75398640645fb779fe89839c286fd60008dcb3702b"),
}


@pytest.mark.parametrize("case", SVG_CASES)
def test_svg_matches_golden_digest(tmp_path, case):
    build, kind, digest = SVG_CASES[case]
    out = emit_plot(build(tmp_path), kind, tmp_path / "fig.svg")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_emit_plot_rejects_unknown_kind_and_missing_input(tmp_path):
    summary = tmp_path / "summary.json"
    summary.write_text("{}")
    with pytest.raises(ConfigError, match="unknown plot kind"):
        emit_plot(summary, "pie", tmp_path / "pie.svg")
    with pytest.raises(ConfigError, match="does not exist"):
        emit_plot(tmp_path / "nope.json", "reward-curve", tmp_path / "c.svg")


# ---------------------------------------------------------------- cli


def test_run_quiet_writes_outputs_and_prints_nothing(tmp_path, capsys):
    cfg = la_config(tmp_path)
    assert main(["run", cfg, "--quiet"]) == EXIT_OK
    assert (tmp_path / "out" / "summary.json").exists()
    assert capsys.readouterr().out == ""


def test_run_prints_per_solver_metrics(tmp_path, capsys):
    cfg = la_config(tmp_path)
    assert main(["run", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fixed-mcs: " in out
    assert "mean_reward=" in out
    assert "summary: " in out


def test_schema_violation_exits_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {"env": {"env": "link_adaptation"}})
    assert main(["run", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_config_file_exits_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"{nope", b"\xff\xfe{}", b'{"horizon": ' + b"9" * 5000 + b"}"],
                         ids=["not-json", "not-utf8", "5000-digit-int"])
def test_unreadable_config_exits_config(tmp_path, capsys, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    assert main(["run", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err


def test_missing_diagnostic_exits_runtime(tmp_path, capsys):
    # link adaptation carries no per-user throughput, so the scheduling
    # profile fails at metrics time, after the config already validated
    cfg = la_config(tmp_path, metrics="scheduling")
    assert main(["run", cfg]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime error:")


# One cheap solver per env kind for the wrong-typed value sweep.
CHEAP_SOLVER = {
    "link_adaptation": "illa-olla",
    "power_control": "uniform-power",
    "beamforming": "full-scan",
    "scheduling": "round-robin",
    "energy_saving": "min-energy",
    "handover": "greedy-ho",
    "admission_control": "accept-all",
}
WRONG_TYPED = [
    (kind, key)
    for kind in CHEAP_SOLVER
    for key in sorted(inspect.signature(ENVS[kind]).parameters)
]


@pytest.mark.parametrize("kind,key", WRONG_TYPED, ids=[f"{k}.{key}" for k, key in WRONG_TYPED])
def test_wrong_typed_env_value_exits_config_without_traceback(tmp_path, capsys, kind, key):
    # Every other key keeps its default and the horizon is tiny, so a value
    # the env accepts (strict_feasibility coerces "abc" to True) runs fast.
    cfg = write_config(tmp_path / "cfg.json", {
        "env": {"env": kind, key: "abc"},
        "solvers": [{"name": CHEAP_SOLVER[kind]}],
        "horizon": 5,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    code = main(["run", cfg, "--jobs", "1", "--quiet"])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert len(err.splitlines()) == 1
        assert err.startswith("config error:")


# Python's JSON reader takes NaN and Infinity. Refused under every key,
# the strict_feasibility flag included, although bool(nan) is True.
NON_FINITE = [
    (kind, key, value) for kind, key in WRONG_TYPED
    for value in (float("nan"), float("inf"))
]
NON_FINITE_IDS = [f"{k}.{key}={v}" for k, key, v in NON_FINITE]
# The same values one level down: each numeric field of the crossing model,
# the traffic dict and an admission class, one at a time.
NESTED_FIELDS = (
    [("handover", "model", {"kind": "crossing"}, f)
     for f in ("period", "near_rsrp", "far_rsrp")]
    + [("energy_saving", "traffic", {"kind": "sinusoid"}, f)
       for f in ("base", "amplitude", "period", "noise_std")]
    + [("energy_saving", "traffic", {"trace": [1.0]}, "noise_std")]
    + [("admission_control", "classes",
        {"arrival_rate": 0.1, "departure_rate": 0.01, "reward": 1.0}, f)
       for f in ("arrival_rate", "departure_rate", "demand", "reward",
                 "reject_penalty", "delay_penalty", "blocked_penalty")]
)
for kind, key, base, field in NESTED_FIELDS:
    for v in (float("nan"), float("inf")):
        value = {**base, field: v}
        NON_FINITE.append((kind, key, [value] if key == "classes" else value))
        NON_FINITE_IDS.append(f"{kind}.{key}.{field}={v}")
# And in list-valued parameters, one entry at a time.
LIST_FIELDS = [
    ("link_adaptation", "rates", lambda v: [0.5, 1, 1.5, 2, 2.5, 3, 3.5, v]),
    ("link_adaptation", "s50", lambda v: [0, 2, 4, 6, 8, 10, 12, v]),
    ("power_control", "fixed_gains", lambda v: [1.0, 1.0, 1.0, v]),
    ("scheduling", "mean_efficiency", lambda v: [1.0, 1.0, 1.0, v]),
    ("scheduling", "arrival_rates", lambda v: [1.0, 1.0, 1.0, v]),
    ("scheduling", "weights", lambda v: [1.0, 1.0, 1.0, v]),
    ("energy_saving", "capacity", lambda v: [1.0, 1.0, 1.0, v]),
    ("energy_saving", "traffic", lambda v: {"trace": [1.0, v]}),
    ("handover", "model", lambda v: {"kind": "trace", "values": [[-60.0, -90.0], [-70.0, v]]}),
]
for kind, key, make in LIST_FIELDS:
    for v in (float("nan"), float("inf")):
        NON_FINITE.append((kind, key, make(v)))
        NON_FINITE_IDS.append(f"{kind}.{key}[]={v}")


def config_error_of_env_value(tmp_path, capsys, kind, key, value) -> str:
    """Run the env `kind` with `key` set to `value`; assert it exits 2 with
    one stderr line and return that line."""
    cfg = write_config(tmp_path / "cfg.json", {
        "env": {"env": kind, key: value},
        "solvers": [{"name": CHEAP_SOLVER[kind]}],
        "horizon": 5,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--jobs", "1", "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:")
    return err


# Negative standard deviations, which used to run: the noise just changed
# sign. Refused like TabularEnv's reward_noise_std.
NEGATIVE_STD = {
    "link_adaptation.innovation_std=-1": ("link_adaptation", "innovation_std", -1.0),
    "link_adaptation.report_noise_std=-1": ("link_adaptation", "report_noise_std", -1.0),
    "handover.noise_std=-1": ("handover", "noise_std", -1.0),
    "beamforming.rsrp_std=-1": ("beamforming", "rsrp_std", -1.0),
    "energy_saving.traffic.sinusoid.noise_std=-0.1":
        ("energy_saving", "traffic", {"kind": "sinusoid", "noise_std": -0.1}),
    "energy_saving.traffic.constant.noise_std=-0.1":
        ("energy_saving", "traffic", {"kind": "constant", "noise_std": -0.1}),
    "energy_saving.traffic.trace.noise_std=-0.1":
        ("energy_saving", "traffic", {"trace": [1.0], "noise_std": -0.1}),
    # negative arrivals used to run to a NaN sum_log_throughput
    "scheduling.arrival_rates[0]=-1": ("scheduling", "arrival_rates", [-1.0, 1.0, 1.0, 1.0]),
}
NON_FINITE += NEGATIVE_STD.values()
NON_FINITE_IDS += NEGATIVE_STD
# A numeric string goes through float() like a number, so "nan" is refused too.
NON_FINITE.append(("handover", "noise_std", "nan"))
NON_FINITE_IDS.append("handover.noise_std='nan'")


@pytest.mark.parametrize("kind,key,value", NON_FINITE, ids=NON_FINITE_IDS)
def test_non_finite_env_value_exits_config_without_traceback(tmp_path, capsys, kind, key, value):
    config_error_of_env_value(tmp_path, capsys, kind, key, value)


NESTED_BAD_KEYS = {
    "handover.model": ("handover", "model", {"kind": "crossing", "speed": 1.0}),
    "handover.model.trace": ("handover", "model", {"kind": "trace"}),
    "energy_saving.traffic": ("energy_saving", "traffic", {"mean": 3.0}),
    "energy_saving.traffic.trace": ("energy_saving", "traffic", {"trace": [1.0], "base": 1.0}),
    "admission_control.classes": ("admission_control", "classes", [{"departure_rate": 0.1}]),
    # a class without a reward used to end in a KeyError at its first accept
    "admission_control.classes.reward":
        ("admission_control", "classes", [{"arrival_rate": 0.1, "departure_rate": 0.1}]),
}


@pytest.mark.parametrize("kind,key,value", NESTED_BAD_KEYS.values(), ids=NESTED_BAD_KEYS)
def test_unknown_or_missing_nested_env_key_exits_config(tmp_path, capsys, kind, key, value):
    # unknown keys used to be ignored, a missing one ended in a KeyError
    err = config_error_of_env_value(tmp_path, capsys, kind, key, value)
    assert re.match(r"config error: (unknown \S+ keys|.* missing required key)", err)


def test_nan_noise_under_water_fill_exits_config(tmp_path, capsys):
    # used to end in a ValueError traceback about a non-finite reward
    cfg = write_config(tmp_path / "cfg.json", {
        "env": {"env": "power_control", "noise": float("nan")},
        "solvers": [{"name": "water-fill"}],
        "horizon": 5,
        "outputs": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: noise must be finite, got nan\n"


# Valid values for the required solver keys, so only the probed key is wrong.
REQUIRED_SOLVER_VALUES = {"budget_per_step": 2, "mcs": 1, "thresholds": [0, 2]}
WRONG_TYPED_SOLVER = [
    (name, key)
    for name, spec in SOLVERS.items()
    for key in sorted(set(inspect.signature(spec.agent).parameters) - {"env", "seed"})
]


@pytest.mark.parametrize("name,key", WRONG_TYPED_SOLVER,
                         ids=[f"{n}.{key}" for n, key in WRONG_TYPED_SOLVER])
def test_wrong_typed_solver_value_exits_config_without_traceback(tmp_path, capsys, name, key):
    spec = SOLVERS[name]
    params = inspect.signature(spec.agent).parameters.values()
    required = {p.name for p in params if p.default is p.empty} - {"env", "seed"}
    solver_cfg = {k: REQUIRED_SOLVER_VALUES[k] for k in required}
    solver_cfg[key] = "abc"
    cfg = write_config(tmp_path / "cfg.json", {
        "env": {"env": spec.envs[-1]},
        "solvers": [{"name": name, "config": solver_cfg}],
        "horizon": 5,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--jobs", "1", "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:")


@pytest.mark.parametrize("target_bler", [0, 1])
def test_olla_target_bler_at_bounds_exits_config(tmp_path, capsys, target_bler):
    cfg = la_config(tmp_path, solvers=[{"name": "illa-olla", "config": {"target_bler": target_bler}}])
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:")


@pytest.mark.parametrize("env,solver", [
    ({"env": "energy_saving", "capacity": 0}, {"name": "es-thresholds"}),
    ({"env": "energy_saving"}, {"name": "mpc-energy", "config": {"discount": float("nan")}}),
], ids=["es-thresholds-zero-capacity", "mpc-energy-nan-discount"])
def test_degenerate_solver_input_exits_config(tmp_path, capsys, env, solver):
    # both used to fail at the first step: a ZeroDivisionError traceback and
    # a runtime error about a malformed resource subset
    cfg = write_config(tmp_path / "cfg.json", {
        "env": env, "solvers": [solver], "horizon": 3, "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:")


@pytest.mark.parametrize("env,name,key,value", [
    ("admission_control", "q-learning", "train_episodes", 2.5),
    ("admission_control", "q-learning", "train_horizon", 0),
    ("energy_saving", "mpc-energy", "plan_horizon", 2.5),
    ("beamforming", "bo-tracker", "window", 2.5),
], ids=["train_episodes", "train_horizon", "plan_horizon", "window"])
def test_a_bad_count_is_reported_under_its_config_key(tmp_path, capsys, env, name, key, value):
    # these once named the callee's parameter: episodes, horizon or max_points
    solver_cfg = {key: value, **({"budget_per_step": 2} if name == "bo-tracker" else {})}
    cfg = write_config(tmp_path / "cfg.json", {
        "env": {"env": env}, "solvers": [{"name": name, "config": solver_cfg}],
        "horizon": 3, "seeds": [0], "outputs": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {key} must be an integer >= 1, got {value!r}\n"


@pytest.mark.parametrize("solver", ["dpp-energy", "mpc-energy"])
def test_subset_count_over_budget_exits_config(tmp_path, capsys, monkeypatch, solver):
    # 2**10 subsets against a budget of 1000: refused before any is built.
    monkeypatch.setattr(planning, "MPC_NODE_BUDGET", 1000)
    cfg = write_config(tmp_path / "cfg.json", {
        "env": {"env": "energy_saving", "n_resources": 10},
        "solvers": [{"name": solver}],
        "horizon": 5,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    assert main(["run", cfg, "--jobs", "1", "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and "1024 subsets" in err


# Sizes whose arrays would not fit in 2 GiB; n_beams sizes an n x n covariance.
# json.dumps writes inf as Infinity, which the config loader reads back.
HUGE_SIZES = [
    ("energy_saving", "n_resources", 1e9, "min-energy"),
    ("scheduling", "n_users", 1e9, "round-robin"),
    ("scheduling", "n_users", float("inf"), "round-robin"),
    ("handover", "n_cells", 1e9, "greedy-ho"),
    ("beamforming", "n_beams", 1e5, "full-scan"),
    # a 1024-step stream block of 400000 draws; 20000 x 19999 neighbor cells
    ("scheduling", "n_users", 400000, "round-robin"),
    ("power_control", "n_channels", 400000, "uniform-power"),
    ("handover", "n_cells", 20000, "greedy-ho"),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _child_env(src: str) -> dict:
    """A subprocess's whole environment: src on the path, one BLAS thread,
    and the caller's PYTHONDONTWRITEBYTECODE, so a run that asks for no
    bytecode leaves none in src/."""
    keep = {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE",) if k in os.environ}
    return {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", **keep}


def _run_in_2gib(tmp_path, env, solver):
    """`occam-rrm run` of a 2-step config in a subprocess limited to a 2 GiB
    address space; asserts a one-line config error."""
    cfg = write_config(tmp_path / "cfg.json", {
        "env": env,
        "solvers": [solver],
        "horizon": 2,
        "seeds": [0],
        "outputs": str(tmp_path / "out"),
    })
    code = "import sys; from occam_rrm.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(occam_rrm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", cfg, "--jobs", "1", "--quiet"],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space,
        env=_child_env(src),
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("config error:")


@pytest.mark.parametrize("kind,key,value,solver", HUGE_SIZES,
                         ids=[f"{k}={v:g}" for _, k, v, _ in HUGE_SIZES])
def test_huge_env_size_exits_config_before_allocating(tmp_path, kind, key, value, solver):
    _run_in_2gib(tmp_path, {"env": kind, key: value}, {"name": solver})


# A forecast of 10**9 steps would be built before the planner counts a node.
@pytest.mark.parametrize("plan_horizon", [1e9, 10**9], ids=["float", "int"])
@pytest.mark.parametrize("predictor", ["oracle", "persistence"])
def test_huge_mpc_horizon_exits_config_before_allocating(tmp_path, predictor, plan_horizon):
    _run_in_2gib(tmp_path, {"env": "energy_saving"}, {
        "name": "mpc-energy", "config": {"predictor": predictor, "plan_horizon": plan_horizon},
    })


def test_label_cannot_leave_episodes_dir(tmp_path, capsys):
    cfg = la_config(tmp_path, outputs=str(tmp_path / "a" / "out"), solvers=[
        {"name": "fixed-mcs", "label": "../../escaped", "config": {"mcs": 2}},
    ])
    assert main(["run", cfg, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_seed_and_out_dir_overrides(tmp_path, capsys):
    cfg = la_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["run", cfg, "--seed", "9", "--out-dir", str(alt), "--quiet"]) == EXIT_OK
    summary = json.loads((alt / "summary.json").read_text())
    assert summary["config"]["seeds"] == [9]


@pytest.mark.parametrize("flags,field", [(["--seed", "-1"], "seeds"),
                                         (["--out-dir", ""], "outputs")])
def test_overrides_are_checked_as_config_values(tmp_path, capsys, monkeypatch, flags, field):
    monkeypatch.chdir(tmp_path)  # an empty --out-dir once wrote here
    cfg = la_config(tmp_path)
    assert main(["run", cfg, *flags, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_common_flags_accepted_before_subcommand(tmp_path):
    cfg = la_config(tmp_path)
    alt = tmp_path / "alt2"
    argv = ["--seed", "5", "--out-dir", str(alt), "--quiet", "run", cfg]
    assert main(argv) == EXIT_OK
    summary = json.loads((alt / "summary.json").read_text())
    assert summary["config"]["seeds"] == [5]


def test_sweep_subcommand_writes_csv(tmp_path, capsys):
    cfg = la_config(tmp_path)
    argv = ["sweep", cfg, "--param", "solvers.0.config.mcs", "--values", "[0, 1]", "--quiet"]
    assert main(argv) == EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # header plus one row per value


@pytest.mark.parametrize("values", ["not json", "3"])
def test_sweep_rejects_bad_values(tmp_path, capsys, values):
    cfg = la_config(tmp_path)
    argv = ["sweep", cfg, "--param", "solvers.0.config.mcs", "--values", values]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_advise_use_case_emits_json(capsys):
    assert main(["advise", "--use-case", "HO", "--quiet"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["technique"] == "policy-tuning"
    assert payload["solver_hint"] == "tuning.nelder_mead"
    assert all(len(step) == 2 for step in payload["path"])


def test_advise_traits_emits_json(capsys):
    assert main(["advise", "--traits", '{"endogenous_state": true}', "--quiet"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["technique"] == "rl"


def test_advise_renders_decision_path(capsys):
    assert main(["advise", "--use-case", "HO"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "long-term planning problem" in out
    assert "-> policy-tuning" in out


@pytest.mark.parametrize("argv", [
    ["advise"],
    ["advise", "--traits", '{"psychic": true}'],
    ["advise", "--use-case", "XX"],
    ["advise", "--traits", "{nope"],
])
def test_advise_rejects_bad_input(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,refused", [
    (["advise", "--use-case", "SC", "--jobs", "999999", "--seed", "-5", "--out-dir", ""],
     "advise does not take --seed, --jobs, --out-dir"),
    (["--jobs", "3", "advise", "--use-case", "SC"], "advise does not take --jobs"),
    (["--seed", "1", "plot", "in.json", "--kind", "reward-curve", "--out", "fig.svg",
      "--jobs", "2"], "plot does not take --seed, --jobs"),
])
def test_advise_and_plot_refuse_the_flags_they_ignore(tmp_path, capsys, monkeypatch, argv,
                                                      refused):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {refused}\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_plot_subcommand_end_to_end(tmp_path, capsys):
    summary = bf_summary(tmp_path)
    svg = tmp_path / "fig.svg"
    argv = ["plot", str(summary), "--kind", "rsrp-heatmap", "--out", str(svg), "--quiet"]
    assert main(argv) == EXIT_OK
    assert svg.exists()


def test_plot_out_dir_prefixes_relative_out(tmp_path):
    summary = bf_summary(tmp_path)
    figs = tmp_path / "figs"
    argv = ["plot", str(summary), "--kind", "rsrp-heatmap",
            "--out", "fig.svg", "--out-dir", str(figs), "--quiet"]
    assert main(argv) == EXIT_OK
    assert (figs / "fig.svg").exists()


def test_plot_absolute_out_ignores_out_dir(tmp_path):
    summary = bf_summary(tmp_path)
    svg = tmp_path / "abs" / "fig.svg"
    argv = ["plot", str(summary), "--kind", "rsrp-heatmap",
            "--out", str(svg), "--out-dir", str(tmp_path / "figs"), "--quiet"]
    assert main(argv) == EXIT_OK
    assert svg.exists() and not (tmp_path / "figs").exists()


def test_plot_empty_out_dir_exits_config(tmp_path, capsys, monkeypatch):
    # emit_plot is stubbed out, so a join to the filesystem root writes nothing
    emitted = []
    monkeypatch.setattr(cli, "emit_plot", lambda *args: emitted.append(args))
    monkeypatch.chdir(tmp_path)
    argv = ["plot", "summary.json", "--kind", "reward-curve", "--out", "fig.svg",
            "--out-dir", ""]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --out-dir") and len(err.splitlines()) == 1
    assert emitted == []


def test_plot_failed_rename_keeps_the_old_svg(tmp_path, capsys, monkeypatch):
    summary = seven_solver_summary(tmp_path)
    svg = tmp_path / "fig.svg"
    svg.write_bytes(b"old figure\n")

    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    argv = ["plot", str(summary), "--kind", "reward-curve", "--out", str(svg)]
    assert main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("runtime error: cannot rename")
    assert svg.read_bytes() == b"old figure\n"
    assert not (tmp_path / "fig.svg.partial").exists()


def test_plot_missing_input_exits_config(tmp_path, capsys):
    argv = ["plot", str(tmp_path / "nope.json"), "--kind", "reward-curve",
            "--out", str(tmp_path / "c.svg")]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_startup_and_bo_tune_load_no_scipy():
    # No module of the package loads scipy, neither at import nor when
    # tuning.bo_tune draws its Sobol' design. No module loads jsonschema,
    # and only a --jobs > 1 run loads the process pool.
    code = """
import importlib, pkgutil, sys
import occam_rrm, occam_rrm.cli
for info in pkgutil.walk_packages(occam_rrm.__path__, "occam_rrm."):
    importlib.import_module(info.name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(sorted({"jsonschema", "concurrent.futures.process"} & set(sys.modules)))
from occam_rrm.tuning import bo_tune
bo_tune(lambda theta: -theta[0] ** 2, [(-1.0, 1.0)] * 3, budget=3)  # design and candidates
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(occam_rrm.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]
