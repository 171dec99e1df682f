"""Bandit-style optimizers for settings where the reward model is unknown:
Beta-Bernoulli Thompson sampling, inner/outer-loop link adaptation, Gaussian
process surrogates with UCB acquisition, and a spatio-temporal GP beam
tracker agent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import as_count, as_real, as_reals, check_keys
from .core import EpisodeLog, run_episode
from .errors import ConfigError, GpNumericalError
from .envs.beamforming import BeamAction

GP_JITTER = 1e-8
TRACKER_WINDOW = 64


# ---------------------------------------------------------------- Thompson sampling

def thompson_select(alpha, beta, values, rng) -> int:
    """Sample each arm's success probability from its Beta(alpha, beta)
    posterior, in arm order, and pick the arm maximizing sampled probability
    times its value. Ties break to the lowest index."""
    values = as_reals(values, "values", ge=0)
    alpha = as_reals(alpha, "alpha", values.shape, gt=0)
    beta = as_reals(beta, "beta", values.shape, gt=0)
    return _thompson_pick(alpha.tolist(), beta.tolist(), values.tolist(), rng)


def _thompson_pick(alpha, beta, values, rng) -> int:
    """thompson_select on checked arms: values nonnegative, alpha and beta positive."""
    scores = [v * rng.beta(a, b) for v, a, b in zip(values, alpha, beta)]
    return scores.index(max(scores))


# ---------------------------------------------------------------- ILLA lookup

def _illa_pick(sinr_report: float, offset: float, lookup: list) -> int:
    """Highest MCS whose threshold in `lookup` (strictly increasing) is
    <= the offset-corrected report; the boundary is inclusive, and reports
    below every threshold map to MCS 0."""
    return max(bisect_right(lookup, sinr_report + offset) - 1, 0)


# ---------------------------------------------------------------- GP surrogate

@dataclass
class GpSurrogate:
    """Squared-exponential GP with per-dimension length scales and optional
    sliding observation window. Exact dense solves; instances stay small.
    Only `add` changes the window, and it copies each point. `posterior`
    takes an (m, n_dims) batch, which costs one kernel matrix and one solve
    whatever its size. A factorization computes kernel entries only for
    points added since the last one, and a batch byte-equal to the last
    batch only their rows; the rest are kept, with a rebuild's bits."""

    length_scales: np.ndarray
    signal_var: float = 1.0
    prior_mean: float = 0.0
    max_points: int | None = None

    def __post_init__(self):
        self.length_scales = as_reals(np.atleast_1d(self.length_scales), "length scales", gt=0)
        self.signal_var = as_real(self.signal_var, "signal_var", gt=0)
        self.prior_mean = as_real(self.prior_mean, "prior_mean")
        if self.max_points is not None:
            self.max_points = as_count(self.max_points, "max_points", 1)
        self._points = ()  # (x, y, noise_std), oldest first
        self._adds = 0  # points ever added; the window starts at add _adds - len(_points)
        self._factor = None
        self._window = (0, np.empty((0, self.n_dims)), np.empty((0, 0)))  # start, xs, kernel
        self._rows = (0, None, None)  # window start, query shape and bytes, kernel rows

    @property
    def points(self) -> tuple:
        """The window's (x, y, noise_std) triples, oldest first; only `add` changes it."""
        return self._points

    @property
    def n_dims(self) -> int:
        return len(self.length_scales)

    def kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # coordinates first, so each step works on whole (len(a), len(b))
        # planes rather than on rows of n_dims entries
        a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        d = (a[:, :, None] - b[:, None, :]) / self.length_scales[:, None, None]
        return self.signal_var * np.exp(-0.5 * np.sum(d * d, axis=0))

    def add(self, x, y: float, noise_std: float = 0.0) -> None:
        x = np.array(x, dtype=float, ndmin=1)  # a copy the caller cannot change
        if x.shape != (self.n_dims,):
            raise ConfigError(f"query dimension {x.shape} != ({self.n_dims},)")
        points = (*self._points, (x, float(y), float(noise_std)))
        if self.max_points is not None and len(points) > self.max_points:
            points = points[1:]
        self._points = points
        self._adds += 1
        self._factor = None

    def _factorize(self):
        if self._factor is None:
            points = self._points
            start = self._adds - len(points)
            old_start, old_xs, old_gram = self._window
            drop = min(start - old_start, len(old_xs))
            kept = len(old_xs) - drop
            added = [p[0] for p in points[kept:]]
            xs = np.concatenate((old_xs[drop:], added)) if added else old_xs[drop:]
            gram = np.empty((len(xs), len(xs)))
            gram[:kept, :kept] = old_gram[drop:, drop:]
            gram[kept:] = self.kernel(xs[kept:], xs)
            gram[:kept, kept:] = gram[kept:, :kept].T
            self._window = (start, xs, gram.copy())
            gram.flat[::len(xs) + 1] += np.array([p[2] for p in points]) ** 2
            gram.flat[::len(xs) + 1] += GP_JITTER
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise GpNumericalError(
                    f"Gram matrix singular after jitter {GP_JITTER}"
                ) from exc
            ys = np.array([p[1] for p in points])
            alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, ys - self.prior_mean))
            self._factor = (xs, chol, alpha)
        return self._factor

    def posterior(self, query):
        """Posterior means and variances of an (m, n_dims) array of points,
        as two length-m arrays, from one kernel matrix and one solve against
        the cached Cholesky factor."""
        points = np.asarray(query, dtype=float)
        if points.shape[1:] != (self.n_dims,):
            raise ConfigError(f"query points {points.shape} != (m, {self.n_dims})")
        means, k_star = self._means(points)
        if k_star is None:
            return means, np.full(len(points), float(self.signal_var))
        v = np.linalg.solve(self._factorize()[1], k_star)
        return means, np.maximum(self.signal_var - np.einsum("ij,ij->j", v, v), 0.0)

    def _means(self, points: np.ndarray):
        """Posterior means of an (m, n_dims) array, and the kernel matrix
        against the observed points (None before the first add)."""
        if not self._points:
            return np.full(len(points), float(self.prior_mean)), None
        xs, _, alpha = self._factorize()
        start = self._window[0]
        # a 1 x 1 kernel may sum its coordinates in another order than a
        # larger one, so a one-row batch is never pieced together
        key = (points.shape, points.tobytes()) if len(points) > 1 else None
        old_start, old_key, old_rows = self._rows
        kept = 0
        if key is not None and key == old_key:
            old_rows = old_rows[start - old_start:]  # the rows of points still in the window
            kept = len(old_rows)
        k_star = self.kernel(xs[kept:], points)
        if kept:
            k_star = np.concatenate((old_rows, k_star))
        self._rows = (start, key, k_star)
        return self.prior_mean + alpha @ k_star, k_star


def ucb_scores(s: GpSurrogate, candidates, kappa: float) -> np.ndarray:
    """mean + kappa * posterior std of each row of `candidates`."""
    means, var = s.posterior(np.asarray(candidates, dtype=float))
    return means + kappa * np.sqrt(var)


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
        self.budget = as_count(budget_per_step, "budget_per_step", 1)
        self.kappa = as_real(kappa, "kappa", ge=0)
        kernel = kernel or {}
        check_keys(kernel, ("length_scales", "signal_var", "prior_mean"), (), "kernel")
        self.gp = dict(
            length_scales=np.asarray(kernel.get("length_scales", (2.0, 10.0)), dtype=float),
            signal_var=kernel.get("signal_var", getattr(env, "rsrp_std", 10.0) ** 2),
            prior_mean=kernel.get("prior_mean", getattr(env, "mean_rsrp", 0.0)),
            max_points=as_count(window, "window", 1),
        )
        self.env = env
        self.reset(0)  # a bad kernel or window fails here, not at the first step

    def reset(self, seed):
        self.surrogate = GpSurrogate(**self.gp)
        self.t = 0

    def act(self, obs):
        n = self.env.n_beams
        beams = np.column_stack((np.arange(n, dtype=float), np.full(n, float(self.t))))
        self.t += 1
        order = np.argsort(-ucb_scores(self.surrogate, beams, self.kappa), kind="stable")
        chosen = tuple(int(b) for b in order[:self.budget])
        for b, rsrp in self.env.measure(chosen).items():
            self.surrogate.add(beams[b], rsrp, self.obs_noise)
        means, _ = self.surrogate._means(beams)  # the variance would cost a solve
        return BeamAction(measure=chosen, serve=int(np.argmax(means)))


def bo_beam_tracker(env, budget_per_step: int, kernel: dict | None = None, kappa: float = 2.0,
                    horizon: int = 100, seed: int = 0, window: int = TRACKER_WINDOW) -> EpisodeLog:
    """One episode of BoTrackerAgent."""
    agent = BoTrackerAgent(env, budget_per_step, kernel=kernel, kappa=kappa, window=window)
    return run_episode(env, agent, horizon=horizon, seed=seed)
