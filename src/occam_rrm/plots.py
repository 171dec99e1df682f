"""Static SVG emission for the three stock figures: a per-beam RSRP heatmap,
accuracy versus UE speed, and reward over time. Hand-rolled markup, so plots
need no display server and rerun byte-identically."""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

from .envs import BeamAction, make_env
from .errors import ConfigError, PlotDataError
from .experiments import ExperimentConfig

PLOT_KINDS = ("rsrp-heatmap", "accuracy-vs-speed", "reward-curve")
# beams x steps of one heatmap: an SVG of about 12 MB, far past legibility
HEATMAP_CELL_BUDGET = 100_000

MARGIN_LEFT, MARGIN_TOP, MARGIN_RIGHT, MARGIN_BOTTOM = 60, 30, 20, 45
PLOT_W, PLOT_H = 640, 360
WIDTH, HEIGHT = MARGIN_LEFT + PLOT_W + MARGIN_RIGHT, MARGIN_TOP + PLOT_H + MARGIN_BOTTOM

# line colors cycle per solver
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _f(x: float) -> str:
    return f"{x:.2f}"


def _text(x, y, s, size=12, anchor="middle", rotate=None) -> str:
    transform = f' transform="rotate(-90 {_f(x)} {_f(y)})"' if rotate else ""
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}"{transform}>{s}</text>'
    )


def _heat_color(u: float) -> str:
    """Dark blue (low) to yellow (high), u in [0, 1]."""
    u = float(np.clip(u, 0.0, 1.0))
    r = int(round(255 * u))
    g = int(round(32 + 190 * u))
    b = int(round(96 * (1.0 - u) + 64))
    return f"rgb({r},{g},{b})"


def _figure(body, x_label, y_label, extra=()) -> str:
    """The SVG page: white ground, `body`, the labelled axes, then `extra`."""
    x0, y0 = MARGIN_LEFT, MARGIN_TOP
    x1, y1 = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(WIDTH)}" '
        f'height="{_f(HEIGHT)}" viewBox="0 0 {_f(WIDTH)} {_f(HEIGHT)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        f'<path d="M {_f(x0)} {_f(y0)} L {_f(x0)} {_f(y1)} L {_f(x1)} {_f(y1)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        _text((x0 + x1) / 2, HEIGHT - 10, x_label),
        _text(16, (y0 + y1) / 2, y_label, rotate=True),
        *extra,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _series(lines, to_x, to_y, stroke_width) -> list:
    """A polyline and a legend entry per (label, [(x, y), ...]) line."""
    parts = []
    for i, (label, points) in enumerate(lines):
        coords = " ".join(f"{_f(to_x(x))},{_f(to_y(y))}" for x, y in points)
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<polyline class="series" data-solver="{label}" points="{coords}" '
            f'fill="none" stroke="{color}" stroke-width="{stroke_width}"/>'
        )
        parts.append(
            _text(WIDTH - MARGIN_RIGHT - 4, MARGIN_TOP + 16 + 16 * i, label, anchor="end")
        )
    return parts


def _scale(values, lo_px, hi_px):
    values = np.asarray(values, dtype=float)
    vmin, vmax = float(values.min()), float(values.max())
    if vmax - vmin < 1e-12:
        vmax = vmin + 1.0
        if not vmax > vmin:  # |vmin| >= 2**53, where 1.0 is below the float spacing
            vmax = vmin + abs(vmin)
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px


def _render_heatmap(summary: dict) -> str:
    cfg = ExperimentConfig.from_dict(summary.get("config"))
    if cfg.env["env"] != "beamforming":
        raise PlotDataError("rsrp-heatmap needs a beamforming experiment summary")
    env = make_env(cfg.env)
    if env.n_beams * cfg.horizon > HEATMAP_CELL_BUDGET:
        raise ConfigError(f"{env.n_beams} beams x horizon {cfg.horizon} exceed the heatmap's "
                          f"budget of {HEATMAP_CELL_BUDGET} cells")
    env.reset(cfg.seeds[0])
    cols = [env.current_rsrp()]
    for _ in range(cfg.horizon - 1):  # the field ignores actions
        env.step(BeamAction(measure=(), serve=0))
        cols.append(env.current_rsrp())
    field = np.stack(cols, axis=1)  # [n_beams, n_steps]
    n_beams, n_steps = field.shape

    cell_w = PLOT_W / n_steps
    cell_h = PLOT_H / n_beams
    vmin, vmax = float(field.min()), float(field.max())
    span = (vmax - vmin) or 1.0

    cells = []
    for b in range(n_beams):
        for t in range(n_steps):
            u = (field[b, t] - vmin) / span
            x = MARGIN_LEFT + t * cell_w
            y = MARGIN_TOP + b * cell_h
            cells.append(
                f'<rect class="cell" x="{_f(x)}" y="{_f(y)}" width="{_f(cell_w)}" '
                f'height="{_f(cell_h)}" fill="{_heat_color(u)}"/>'
            )
    legend = _text(WIDTH - MARGIN_RIGHT, 18, f"RSRP {vmin:.0f}..{vmax:.0f} dB", anchor="end")
    return _figure(cells, "time step", "beam index", [legend])


def _read_csv(path: Path, columns) -> list[dict]:
    """The rows of a CSV file that has every one of `columns`."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise PlotDataError(f"{path} is not a readable CSV: {exc}") from exc
    if not rows:
        raise PlotDataError(f"{path} has no rows")
    missing = [c for c in columns if c not in rows[0]]
    if missing:
        raise PlotDataError(f"{path} lacks the column(s) {missing}")
    return rows


def _number(text, what: str):
    """A finite number from a CSV cell, parsed as JSON."""
    try:
        value = json.loads(text)
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, ValueError, OverflowError):  # not JSON, not a number, past a float
        finite = False
    if not finite:
        raise PlotDataError(f"{what} {text!r} is not a finite number")
    return value


def _render_accuracy_vs_speed(sweep_path: Path) -> str:
    rows = _read_csv(sweep_path, ("value", "solver"))
    if "accuracy" not in rows[0]:
        raise PlotDataError("accuracy-vs-speed needs an 'accuracy' series (beam profile)")
    points = [(r["solver"], _number(r["value"], "sweep value"),
               _number(r["accuracy"], "accuracy")) for r in rows]
    solvers = sorted({solver for solver, _, _ in points})
    speeds = []
    for _, v, _ in points:
        if v not in speeds:
            speeds.append(v)
    to_x = _scale(speeds, MARGIN_LEFT + 20, WIDTH - MARGIN_RIGHT - 20)
    to_y = _scale([0.0, 1.0], HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    lines = [(solver, [(v, a) for s, v, a in points if s == solver]) for solver in solvers]
    parts = _series(lines, to_x, to_y, 2)
    for v in speeds:
        parts.append(_text(to_x(v), HEIGHT - MARGIN_BOTTOM + 16, f"{v}"))
    return _figure(parts, "UE speed", "accuracy")


def _render_reward_curve(summary: dict, summary_path: Path) -> str:
    solvers = summary.get("solvers")
    if not solvers or not isinstance(solvers, dict):
        raise PlotDataError("summary has no solver entries")
    series = {}
    for label in sorted(solvers):
        entry = solvers[label]
        files = entry.get("episode_files") if isinstance(entry, dict) else None
        if not files or not isinstance(files, list) or not isinstance(files[0], str):
            raise PlotDataError(f"solver '{label}' has no episode files for a reward curve")
        rows = _read_csv(summary_path.parent / files[0], ("reward",))
        series[label] = np.cumsum([_number(row["reward"], "reward") for row in rows])

    longest = max(len(s) for s in series.values())
    all_vals = np.concatenate(list(series.values()))
    to_x = _scale([0, max(longest - 1, 1)], MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    to_y = _scale(all_vals, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    lines = [(label, enumerate(vals)) for label, vals in series.items()]
    return _figure(_series(lines, to_x, to_y, 1.5), "time step", "cumulative reward")


def emit_plot(input_path, kind: str, out_path) -> Path:
    """Render one plot kind to a self-contained SVG.

    rsrp-heatmap and reward-curve read an experiment summary.json;
    accuracy-vs-speed reads a sweep.csv produced with the beam profile.
    """
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; known: {list(PLOT_KINDS)}")
    input_path = Path(input_path)
    if not input_path.exists():
        raise ConfigError(f"plot input {input_path} does not exist")
    if kind == "accuracy-vs-speed":
        svg = _render_accuracy_vs_speed(input_path)
    else:
        try:
            summary = json.loads(input_path.read_text())
        except ValueError as exc:  # also bytes that are not UTF-8
            raise ConfigError(f"{input_path} is not valid JSON: {exc}") from exc
        if not isinstance(summary, dict):
            raise ConfigError(f"{input_path} must hold a JSON object, "
                              f"got {type(summary).__name__}")
        if kind == "rsrp-heatmap":
            svg = _render_heatmap(summary)
        else:
            svg = _render_reward_curve(summary, input_path)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    partial = out_path.with_name(out_path.name + ".partial")  # renamed over out_path whole
    try:
        partial.write_text(svg, newline="")
        os.replace(partial, out_path)
    finally:
        partial.unlink(missing_ok=True)
    return out_path
