"""Artifact checks. Each returns a list of problems; an operation with any
problem counts as failed.

- At the default seed every file must match the sha256 digest committed in
  `digests.json` (generated by `make_digests.py` at the commit that added
  the benchmark).
- At any seed, each solver's `mean_reward` in `summary.json` must equal,
  exactly, the mean of the `reward` column of its episode CSVs, the episode
  directory must hold exactly the listed files, and every `sweep.csv` row
  must equal the summary of its sweep value.
- The tune call's best value must be the largest value it evaluated and
  must be reproduced exactly by re-evaluating its best parameters.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0


def digest_tree(out_dir: Path) -> dict:
    """Relative path -> sha256 of every file under `out_dir`."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def compare_digests(actual: dict, expected: dict, what: str) -> list[str]:
    problems = [f"{what}: missing {rel}" for rel in sorted(set(expected) - set(actual))]
    problems += [f"{what}: unexpected {rel}" for rel in sorted(set(actual) - set(expected))]
    problems += [
        f"{what}: {rel} digest differs"
        for rel in sorted(set(actual) & set(expected))
        if actual[rel] != expected[rel]
    ]
    return problems


def _reward_column(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        col = header.index("reward")
        return [float(row[col]) for row in rows]


def check_run(out_dir: Path) -> list[str]:
    """Recompute every solver's mean reward from its episode CSVs."""
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        return [f"{out_dir}: no summary.json"]
    summary = json.loads(summary_path.read_text())
    problems = []
    listed = set()
    for label, record in sorted(summary["solvers"].items()):
        rewards = []
        for rel in record["episode_files"]:
            listed.add(rel)
            path = out_dir / rel
            if not path.is_file():
                problems.append(f"{out_dir}: {label}: missing {rel}")
                continue
            try:
                rewards.extend(_reward_column(path))
            except (ValueError, StopIteration) as exc:
                problems.append(f"{out_dir}: {label}: {rel} unreadable: {exc!r}")
        if not rewards:
            problems.append(f"{out_dir}: {label}: no rewards")
            continue
        recomputed = float(np.asarray(rewards, dtype=float).mean())
        reported = record["metrics"]["mean_reward"]
        if recomputed != reported:
            problems.append(
                f"{out_dir}: {label}: mean_reward {reported!r} != CSV mean {recomputed!r}"
            )
    present = {p.relative_to(out_dir).as_posix() for p in (out_dir / "episodes").glob("*")}
    for rel in sorted(present - listed):
        problems.append(f"{out_dir}: unlisted episode file {rel}")
    return problems


def check_sweep(out_dir: Path, values) -> list[str]:
    """Every sweep.csv row must repeat its value's summary metrics."""
    sweep_path = out_dir / "sweep.csv"
    if not sweep_path.is_file():
        return [f"{out_dir}: no sweep.csv"]
    with open(sweep_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    columns = header[3:]
    index = {json.dumps(v): i for i, v in enumerate(values)}
    problems = []
    seen = set()
    for row in rows:
        if len(row) != len(header) or row[1] not in index:
            problems.append(f"{sweep_path}: malformed row {row!r}")
            continue
        value_dir = out_dir / f"value_{index[row[1]]:03d}"
        if value_dir not in seen:
            seen.add(value_dir)
            problems += check_run(value_dir)
        try:
            metrics = json.loads((value_dir / "summary.json").read_text())["solvers"][row[2]][
                "metrics"
            ]
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{sweep_path}: row {row[:3]!r}: no summary: {exc!r}")
            continue
        for col, cell in zip(columns, row[3:]):
            if col not in metrics or cell != repr(float(metrics[col])):
                problems.append(f"{sweep_path}: row {row[:3]!r}: {col} {cell} != summary")
    if len(seen) != len(values):
        problems.append(f"{sweep_path}: rows cover {len(seen)} of {len(values)} values")
    return problems


def check_tune(out_dir: Path, reevaluate) -> list[str]:
    """`reevaluate(theta)` must reproduce the reported best value."""
    try:
        result = json.loads((out_dir / "tune.json").read_text())
        with open(out_dir / "tune.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError) as exc:
        return [f"{out_dir}: unreadable tune artifacts: {exc!r}"]
    col = rows[0].index("value")
    values = [float(r[col]) for r in rows[1:]]
    best = result["best_value"]
    problems = []
    if len(values) != result["n_evaluations"] or not values or max(values) != best:
        problems.append(f"{out_dir}: best_value {best!r} is not the largest evaluation")
    again = reevaluate(result["best_theta"])
    if again != best:
        problems.append(f"{out_dir}: best theta re-evaluates to {again!r}, not {best!r}")
    return problems
