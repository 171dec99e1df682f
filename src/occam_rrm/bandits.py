"""Bandit-style optimizers for settings where the reward model is unknown:
Beta-Bernoulli Thompson sampling, inner/outer-loop link adaptation, Gaussian
process surrogates with UCB acquisition, and a spatio-temporal GP beam
tracker agent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .core import EpisodeLog, run_episode
from .errors import ConfigError, GpNumericalError
from .envs.beamforming import BeamAction

GP_JITTER = 1e-8
TRACKER_WINDOW = 64


# ---------------------------------------------------------------- Beta-Bernoulli

@dataclass(frozen=True)
class BetaPosterior:
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("Beta parameters must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def beta_update(p: BetaPosterior, success: bool) -> BetaPosterior:
    if success:
        return BetaPosterior(p.alpha + 1.0, p.beta)
    return BetaPosterior(p.alpha, p.beta + 1.0)


def thompson_select(posteriors, values, rng) -> int:
    """Sample a success probability per arm and pick the arm maximizing
    sampled probability times its value. Ties break to the lowest index."""
    if len(posteriors) == 0:
        raise ConfigError("need at least one arm")
    values = np.asarray(values, dtype=float)
    if values.shape != (len(posteriors),):
        raise ConfigError("one value per arm required")
    if np.any(values < 0):
        raise ConfigError("arm values must be nonnegative")
    theta = np.array([rng.beta(p.alpha, p.beta) for p in posteriors])
    return int(np.argmax(values * theta))


# ---------------------------------------------------------------- ILLA / OLLA

@dataclass(frozen=True)
class OllaState:
    """Outer-loop offset state.

    The step sizes satisfy the zero-drift balance at the target BLER: ACKs
    arrive with probability 1 - target and push the offset up, so
    step_down = step_up * (1 - target) / target makes the expected drift
    vanish exactly at the target.
    """

    offset: float
    step_up: float
    step_down: float
    target_bler: float

    def __post_init__(self):
        if not (0.0 < self.target_bler < 1.0):
            raise ConfigError("target_bler must lie in (0, 1)")
        if self.step_up <= 0 or self.step_down <= 0:
            raise ConfigError("step sizes must be positive")
        want = self.step_up * (1.0 - self.target_bler) / self.target_bler
        if abs(self.step_down - want) > 1e-9 * max(1.0, want):
            raise ConfigError(
                "step_down/step_up must equal (1-target_bler)/target_bler"
            )


def olla_state(step_up: float, target_bler: float, offset: float = 0.0) -> OllaState:
    """Build an OllaState with the balancing step_down derived from step_up."""
    down = step_up * (1.0 - target_bler) / target_bler
    return OllaState(offset=offset, step_up=step_up, step_down=down, target_bler=target_bler)


def olla_step(s: OllaState, ack: bool) -> OllaState:
    delta = s.step_up if ack else -s.step_down
    return replace(s, offset=s.offset + delta)


def illa_select(sinr_report: float, offset: float, lookup) -> int:
    """Highest MCS whose threshold is <= the offset-corrected report; the
    boundary is inclusive, and reports below every threshold map to MCS 0."""
    lookup = np.asarray(lookup, dtype=float)
    if lookup.ndim != 1 or len(lookup) == 0:
        raise ConfigError("lookup must be a nonempty 1-D threshold table")
    if np.any(np.diff(lookup) <= 0):
        raise ConfigError("lookup thresholds must be strictly increasing")
    effective = sinr_report + offset
    idx = int(np.searchsorted(lookup, effective, side="right")) - 1
    return max(idx, 0)


# ---------------------------------------------------------------- GP surrogate

@dataclass
class GpSurrogate:
    """Squared-exponential GP with per-dimension length scales and optional
    sliding observation window. Exact dense solves; instances stay small."""

    length_scales: np.ndarray
    signal_var: float = 1.0
    prior_mean: float = 0.0
    max_points: int | None = None
    points: list = field(default_factory=list)

    def __post_init__(self):
        self.length_scales = np.atleast_1d(np.asarray(self.length_scales, dtype=float))
        if np.any(self.length_scales <= 0):
            raise ConfigError("length scales must be positive")
        if self.signal_var <= 0:
            raise ConfigError("signal_var must be positive")
        if self.max_points is not None and self.max_points < 1:
            raise ConfigError("max_points must be >= 1 when set")
        self._factor = None

    @property
    def n_dims(self) -> int:
        return len(self.length_scales)

    def _check_query(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.n_dims,):
            raise ConfigError(f"query dimension {x.shape} != ({self.n_dims},)")
        return x

    def kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = (a[:, None, :] - b[None, :, :]) / self.length_scales
        return self.signal_var * np.exp(-0.5 * np.sum(d * d, axis=2))

    def add(self, x, y: float, noise_std: float = 0.0) -> None:
        x = self._check_query(x)
        self.points.append((x, float(y), float(noise_std)))
        if self.max_points is not None and len(self.points) > self.max_points:
            del self.points[0]
        self._factor = None

    def _factorize(self):
        if self._factor is None:
            xs = np.array([p[0] for p in self.points])
            ys = np.array([p[1] for p in self.points])
            noise = np.array([p[2] for p in self.points])
            gram = self.kernel(xs, xs) + np.diag(noise**2) + GP_JITTER * np.eye(len(xs))
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise GpNumericalError(
                    f"Gram matrix singular after jitter {GP_JITTER}"
                ) from exc
            alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, ys - self.prior_mean))
            self._factor = (xs, chol, alpha)
        return self._factor

    def posterior(self, query) -> tuple[float, float]:
        query = self._check_query(query)
        if not self.points:
            return self.prior_mean, self.signal_var
        xs, chol, alpha = self._factorize()
        k_star = self.kernel(xs, query[None, :])[:, 0]
        mean = self.prior_mean + float(k_star @ alpha)
        v = np.linalg.solve(chol, k_star)
        var = self.signal_var - float(v @ v)
        return mean, max(var, 0.0)


def ucb_scores(s: GpSurrogate, candidates, kappa: float) -> np.ndarray:
    """mean + kappa * posterior std of each candidate."""
    scores = np.empty(len(candidates))
    for i, cand in enumerate(candidates):
        mean, var = s.posterior(cand)
        scores[i] = mean + kappa * np.sqrt(var)
    return scores


def ucb_acquire(s: GpSurrogate, candidates, kappa: float):
    """Argmax of mean + kappa * posterior std over candidates; ties keep the
    first candidate."""
    if len(candidates) == 0:
        raise ConfigError("candidates must be nonempty")
    if kappa < 0:
        raise ConfigError("kappa must be nonnegative")
    return candidates[int(np.argmax(ucb_scores(s, candidates, kappa)))]


# ---------------------------------------------------------------- beam tracking

class BoTrackerAgent:
    """Track the best beam with a GP over (beam, time).

    Each step: score every beam at the current time with UCB, measure the
    top `budget_per_step` beams, fold the measurements into the sliding-window
    surrogate, then serve the posterior-mean argmax beam.
    """

    obs_noise = 1e-3  # measurement noise std the surrogate assumes

    def __init__(self, env, budget_per_step: int, kernel: dict | None = None,
                 kappa: float = 2.0, window: int = TRACKER_WINDOW):
        self.budget = operator.index(budget_per_step)
        if self.budget < 1:
            raise ConfigError("budget_per_step must be >= 1")
        if kappa < 0:
            raise ConfigError("kappa must be nonnegative")
        kernel = dict(kernel or {})
        self.gp = dict(
            length_scales=np.asarray(kernel.pop("length_scales", (2.0, 10.0)), dtype=float),
            signal_var=kernel.pop("signal_var", float(getattr(env, "rsrp_std", 10.0)) ** 2),
            prior_mean=kernel.pop("prior_mean", float(getattr(env, "mean_rsrp", 0.0))),
            max_points=window,
        )
        if kernel:
            raise ConfigError(f"unknown kernel keys: {sorted(kernel)}")
        self.env = env
        self.kappa = kappa
        self.reset(0)  # a bad kernel or window fails here, not at the first step

    def reset(self, seed):
        self.surrogate = GpSurrogate(**self.gp)
        self.t = 0

    def act(self, obs):
        beams = [(float(b), float(self.t)) for b in range(self.env.n_beams)]
        self.t += 1
        order = np.argsort(-ucb_scores(self.surrogate, beams, self.kappa), kind="stable")
        chosen = tuple(int(b) for b in order[:self.budget])
        for b, rsrp in self.env.measure(chosen).items():
            self.surrogate.add(beams[b], rsrp, self.obs_noise)
        means = [self.surrogate.posterior(q)[0] for q in beams]
        return BeamAction(measure=chosen, serve=int(np.argmax(means)))


def bo_beam_tracker(env, budget_per_step: int, kernel: dict | None = None, kappa: float = 2.0,
                    horizon: int = 100, seed: int = 0, window: int = TRACKER_WINDOW,
                    obs_noise: float = 1e-3) -> EpisodeLog:
    """One episode of BoTrackerAgent."""
    agent = BoTrackerAgent(env, budget_per_step, kernel=kernel, kappa=kappa, window=window)
    agent.obs_noise = obs_noise
    return run_episode(env, agent, horizon=horizon, seed=seed)
