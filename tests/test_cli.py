"""Command line and figure coverage: subcommand exit codes, flag overrides,
and the three SVG renderers."""

import json
import re

import pytest

from occam_rrm.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from occam_rrm.config import config_keys
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
    (kind, key) for kind in CHEAP_SOLVER for key in sorted(config_keys(ENVS[kind])[0])
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


# Valid values for the required solver keys, so only the probed key is wrong.
REQUIRED_SOLVER_VALUES = {"budget_per_step": 2, "mcs": 1, "thresholds": [0, 2]}
WRONG_TYPED_SOLVER = [
    (name, key)
    for name, spec in SOLVERS.items()
    for key in sorted(config_keys(spec.agent, ("env", "seed"))[0])
]


@pytest.mark.parametrize("name,key", WRONG_TYPED_SOLVER,
                         ids=[f"{n}.{key}" for n, key in WRONG_TYPED_SOLVER])
def test_wrong_typed_solver_value_exits_config_without_traceback(tmp_path, capsys, name, key):
    spec = SOLVERS[name]
    required = config_keys(spec.agent, ("env", "seed"))[1]
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


def test_plot_missing_input_exits_config(tmp_path, capsys):
    argv = ["plot", str(tmp_path / "nope.json"), "--kind", "reward-curve",
            "--out", str(tmp_path / "c.svg")]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
