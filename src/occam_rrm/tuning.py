"""Black-box optimization of parameterized expert policies: common-random-
number policy evaluation, a hand-rolled bounded Nelder-Mead simplex, and
GP-based tuning over parameter boxes."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .bandits import GpSurrogate, ucb_scores
from .config import as_count, as_real, as_reals, build_from_config, check_keys
from .core import discounted_return, run_episode
from .envs import make_env
from .errors import ConfigError
from .experiments import SOLVERS, check_compatibility
from .rng import derive_seed
from .sobol import scrambled_sobol

NM_REFLECT, NM_EXPAND, NM_CONTRACT, NM_SHRINK = 1.0, 2.0, 0.5, 0.5


# ---------------------------------------------------------------- results

def _check_bounds(bounds) -> tuple:
    """(low, high) float pairs, refused unless each is finite with low <= high."""
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    for lo, hi in bounds:
        if not -np.inf < lo <= hi < np.inf:
            raise ConfigError(f"bound ({lo}, {hi}) must be finite with low <= high")
    return bounds


def _check_theta(theta, bounds: tuple, name: str) -> tuple:
    """`theta` as floats, refused unless it has one component per bound, at
    least one, and each component lies inside its bound."""
    theta = tuple(float(x) for x in theta)
    if not theta or len(theta) != len(bounds):
        raise ConfigError(f"{name} has {len(theta)} components for {len(bounds)} bounds")
    for x, (lo, hi) in zip(theta, bounds):
        if not lo <= x <= hi:
            raise ConfigError(f"{name} component {x} outside [{lo}, {hi}]")
    return theta


@dataclass(frozen=True)
class ParamPolicy:
    """A policy family member: family name plus a parameter vector inside
    per-dimension (low, high) bounds. Integer-valued dimensions (like TTT)
    are carried as reals and rounded at evaluation time."""

    family: str
    theta: tuple
    bounds: tuple

    def __post_init__(self):
        bounds = _check_bounds(self.bounds)
        object.__setattr__(self, "theta", _check_theta(self.theta, bounds, "theta"))
        object.__setattr__(self, "bounds", bounds)


@dataclass
class TuneResult:
    best_theta: tuple
    best_value: float
    evaluations: list = field(default_factory=list)
    truncated: bool = False
    notes: str = ""

    def __post_init__(self):
        if self.evaluations:
            top = max(v for _, v, _ in self.evaluations)
            if abs(self.best_value - top) > 1e-12 * max(1.0, abs(top)):
                raise ConfigError("best_value must equal the max evaluation value")

    def to_csv(self) -> str:
        buf = io.StringIO()
        dims = len(self.best_theta)
        heads = ",".join(f"theta_{i}" for i in range(dims))
        buf.write(f"{heads},value,std_error\n")
        for theta, value, std in self.evaluations:
            row = ",".join(repr(float(x)) for x in theta)
            buf.write(f"{row},{float(value)!r},{float(std)!r}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "best_theta": [float(x) for x in self.best_theta],
                "best_value": float(self.best_value),
                "n_evaluations": len(self.evaluations),
                "truncated": self.truncated,
                "notes": self.notes,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------- evaluation

def _mro_family(theta):
    # the env applies the hysteresis when it keeps its exceed counts
    ttt = max(int(round(theta[1])), 1)
    return {"hysteresis": float(theta[0])}, "mro", {"time_to_trigger": ttt}


def _es_family(theta):
    lower = min(float(theta[0]), 1.0 - 1e-6)
    upper = max(float(theta[1]), lower + 1e-6)  # keep the band nonempty
    return {}, "es-thresholds", {"lower": lower, "upper": min(upper, 1.0)}


def _olla_family(theta):
    return {}, "illa-olla", {"step_up": float(theta[0])}


# family -> theta -> (env config overrides, solver name, solver config)
FAMILIES = {
    "mro": _mro_family,
    "es_thresholds": _es_family,
    "olla_steps": _olla_family,
}


def evaluate_policy(
    env_cfg: dict,
    policy: ParamPolicy,
    n_episodes: int,
    horizon: int,
    seed: int,
) -> tuple[float, float]:
    """Mean discounted return and its standard error of the family's solver
    at theta, on an env kind that solver supports. Episode i always uses the
    seed derived from (seed, i), never from theta, so evaluations at
    different theta share their noise (common random numbers)."""
    n_episodes = as_count(n_episodes, "n_episodes", 1)
    if policy.family not in FAMILIES:
        raise ConfigError(f"unknown policy family {policy.family!r}; known: {sorted(FAMILIES)}")
    overrides, solver, solver_cfg = FAMILIES[policy.family](policy.theta)
    env_cfg = {**env_cfg, **overrides}
    check_compatibility(solver, env_cfg.get("env"))

    returns = []
    for i in range(n_episodes):
        env = make_env(env_cfg)
        agent = build_from_config(SOLVERS[solver].agent, solver_cfg, "solver", env=env)
        log = run_episode(env, agent, horizon=horizon, seed=derive_seed(seed, i))
        returns.append(discounted_return(log.rewards, env.discount))
    returns = np.asarray(returns)
    std_error = 0.0 if n_episodes == 1 else float(returns.std(ddof=1) / np.sqrt(n_episodes))
    return float(returns.mean()), std_error


# ---------------------------------------------------------------- tuners

def _clip(theta, bounds):
    return tuple(
        float(np.clip(x, lo, hi)) for x, (lo, hi) in zip(theta, bounds)
    )


def _record(objective, theta, evaluations):
    out = objective(theta)
    value, std = out if isinstance(out, tuple) else (out, 0.0)
    evaluations.append((tuple(theta), float(value), float(std)))
    return float(value)


def _best(evaluations):
    theta, value, _ = max(evaluations, key=lambda e: e[1])
    return theta, value


def nelder_mead(objective, theta0, bounds, max_evals: int = 200, tol: float = 1e-6) -> TuneResult:
    """Bounded simplex maximization with the standard (1, 2, 0.5, 0.5)
    coefficients; candidate points are projected into the bounds. Stops on
    simplex diameter < tol, or flags truncation at the eval budget."""
    bounds = _check_bounds(bounds)
    theta0 = _check_theta(theta0, bounds, "theta0")
    dim = len(theta0)
    evaluations = []

    def f(theta):
        return _record(objective, theta, evaluations)

    simplex = [np.asarray(theta0)]
    for i in range(dim):
        lo, hi = bounds[i]
        span = (hi - lo) or 1.0
        vertex = np.asarray(theta0, dtype=float)
        vertex[i] = np.clip(vertex[i] + 0.1 * span, lo, hi)
        if vertex[i] == theta0[i]:
            vertex[i] = np.clip(theta0[i] - 0.1 * span, lo, hi)
        simplex.append(vertex)
    values = [f(tuple(v)) for v in simplex]

    while len(evaluations) < max_evals:
        order = np.argsort(values)[::-1]  # maximizing: best first
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(
            np.max(np.abs(simplex[0] - v)) for v in simplex[1:]
        )
        if diameter < tol:
            theta, value = _best(evaluations)
            return TuneResult(theta, value, evaluations)

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflect = _clip(centroid + NM_REFLECT * (centroid - worst), bounds)
        r_val = f(reflect)
        if r_val > values[0]:
            expand = _clip(centroid + NM_EXPAND * (centroid - worst), bounds)
            e_val = f(expand)
            if e_val > r_val:
                simplex[-1], values[-1] = np.asarray(expand), e_val
            else:
                simplex[-1], values[-1] = np.asarray(reflect), r_val
        elif r_val > values[-2]:
            simplex[-1], values[-1] = np.asarray(reflect), r_val
        else:
            contract = _clip(centroid + NM_CONTRACT * (worst - centroid), bounds)
            c_val = f(contract)
            if c_val > values[-1]:
                simplex[-1], values[-1] = np.asarray(contract), c_val
            else:
                best_vertex = simplex[0]
                for i in range(1, len(simplex)):
                    simplex[i] = np.asarray(
                        _clip(best_vertex + NM_SHRINK * (simplex[i] - best_vertex), bounds)
                    )
                    values[i] = f(tuple(simplex[i]))
                    if len(evaluations) >= max_evals:
                        break

    theta, value = _best(evaluations)
    return TuneResult(theta, value, evaluations, truncated=True)


def bo_tune(
    objective,
    bounds,
    budget: int,
    kernel_cfg: dict | None = None,
    kappa: float = 2.0,
    seed: int = 0,
) -> TuneResult:
    """Scrambled-Sobol design over 25% of the budget (at least two points),
    then UCB acquisition over a fixed candidate lattice. Deterministic given
    the seed.

    The design uses Joe & Kuo's (2008) direction numbers under Owen's
    linear matrix scramble and digital shift (`sobol.scrambled_sobol`), so
    it supports at most 16 dimensions; more raise ConfigError before any
    evaluation. Beyond 2 dimensions the candidates are 512 Sobol' points."""
    budget = as_count(budget, "budget", 2)
    kappa = as_real(kappa, "kappa", ge=0)
    bounds = _check_bounds(bounds)
    dim = len(bounds)
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    kernel_cfg = kernel_cfg or {}
    check_keys(kernel_cfg, ("length_scales", "signal_var"), (), "kernel")
    length_scales = as_reals(
        np.atleast_1d(kernel_cfg.get("length_scales", 0.15 * np.maximum(highs - lows, 1e-12))),
        "length_scales", (dim,), gt=0)
    signal_var = as_real(kernel_cfg.get("signal_var", 1.0), "signal_var", gt=0)

    n_init = min(budget, max(2, round(0.25 * budget)))
    # draw a power-of-two block (Sobol balance), keep the first n_init
    block = scrambled_sobol(dim, 2 ** int(np.ceil(np.log2(n_init))), seed)
    design = lows + block[:n_init] * (highs - lows)

    evaluations = []
    for point in design:
        _record(objective, tuple(point), evaluations)

    if dim <= 2:
        n_grid = 201 if dim == 1 else 41
        mesh = np.meshgrid(*(np.linspace(lo, hi, n_grid) for lo, hi in bounds), indexing="ij")
        candidates = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        candidates = lows + scrambled_sobol(dim, 512, seed + 1) * (highs - lows)

    surrogate = GpSurrogate(
        length_scales=length_scales,
        signal_var=signal_var,
        prior_mean=float(np.mean([v for _, v, _ in evaluations])),
    )
    for theta, value, _ in evaluations:
        surrogate.add(np.asarray(theta), value, 1e-6)

    while len(evaluations) < budget:
        best_point = candidates[int(np.argmax(ucb_scores(surrogate, candidates, kappa)))]
        value = _record(objective, tuple(best_point), evaluations)
        surrogate.add(np.asarray(best_point), value, 1e-6)

    theta, value = _best(evaluations)
    return TuneResult(theta, value, evaluations)
