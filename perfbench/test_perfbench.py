"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest perfbench -q

The end-to-end tests run the benchmark in a copy of the checkout, so they
never touch this tree's perfbench/.work.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import artifacts  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, dest / rel,
                        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(checkout: Path, workload: str, trace: int):
    return subprocess.run(
        ["python3", *SPEC["command"][1:], "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _copy_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_benchmark_metric_is_printed_with_its_unit(checkout, workload, trace):
    proc = _bench(checkout, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name
    assert f"({result['failed']} of {result['attempted']} operations failed)" in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    proc = _bench(_copy_checkout(tmp_path, with_src=False), "rules_run", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _tamper_first_reward(csv_path: Path):
    lines = csv_path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    lines[1] = ",".join(cells)
    csv_path.write_text("".join(lines))


@pytest.mark.parametrize("seed", [artifacts.DEFAULT_SEED, 5])
def test_tampered_episode_csv_counts_as_a_failed_operation(in_tmp, seed):
    ops = workloads.prepare("rules_run", seed)
    reference = {}
    if seed == artifacts.DEFAULT_SEED:
        reference = artifacts.load_digests()["rules_run"]
    _, _, errors = run.run_rep("rules_run", ops, seed)
    assert run.failures(ops, errors, run.check_rep(ops, seed, reference)) == []

    victim = ops[2]
    _tamper_first_reward(next((victim.out_dir / "episodes").glob("*.csv")))
    found = run.failures(ops, errors, run.check_rep(ops, seed, reference))
    assert [name for name, _ in found] == [victim.name]
    assert any("mean_reward" in problem for problem in found[0][1])


def test_tampered_sweep_row_counts_as_a_failed_operation(in_tmp):
    ops = workloads.prepare("sweep_jobs2", 7)
    _, _, errors = run.run_rep("sweep_jobs2", ops, 7)
    sweep_csv = ops[0].out_dir / "sweep.csv"
    lines = sweep_csv.read_text().splitlines(keepends=True)
    cells = lines[3].rstrip("\r\n").split(",")
    cells[-1] = repr(float(cells[-1]) * 2)
    lines[3] = ",".join(cells) + "\r\n"
    sweep_csv.write_text("".join(lines))
    found = run.failures(ops, errors, run.check_rep(ops, 7, {}))
    assert len(found) == 1 and any("!= summary" in p for p in found[0][1])


def test_tracer_wraps_every_binding_site_and_restores_them():
    from occam_rrm import agents, bandits, core, envs, experiments, planning, tuning
    from occam_rrm.envs import energy
    from occam_rrm.envs.base import RrmEnv

    sites = [
        (core, "run_episode"), (experiments, "run_episode"), (tuning, "run_episode"),
        (agents, "run_episode"), (experiments, "metrics_summary"), (core, "metrics_summary"),
        (envs, "make_env"), (experiments, "make_env"), (tuning, "make_env"),
        (agents, "water_fill"), (agents, "mpc_plan"), (energy, "es_transition"),
        (planning, "value_iteration"), (planning, "q_learning"), (bandits, "bo_beam_tracker"),
        (tuning, "evaluate_policy"), (tuning, "bo_tune"),
        (RrmEnv, "step"), (core.EpisodeLog, "to_csv"), (bandits.GpSurrogate, "posterior"),
        (bandits.GpSurrogate, "add"), (agents.IllaOllaAgent, "act"),
        (agents.MpcEnergyAgent, "act"), (agents.TablePolicyAgent, "act"),
    ]
    before = [owner.__dict__[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert [a is b for a, b in zip(before, wrapped)] == [False] * len(sites)
    assert [owner.__dict__[attr] for owner, attr in sites] == before
