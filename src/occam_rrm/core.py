"""Sequential-decision core: tabular MDPs, the episode engine and its logs,
discounted returns, and metric summaries shared by every solver."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, NamedTuple, Sequence

import numpy as np

from .config import as_count, as_real, as_reals
from .errors import ConfigError, InvalidActionError, MissingDiagnosticError, NumericalError
from .rng import STREAM_POLICY, derive_seed

DEFAULT_DISCOUNT = 0.99

_ROW_SUM_TOL = 1e-9


@dataclass
class TabularMdp:
    """Finite MDP given by explicit transition and reward tables.

    Parameters
    ----------
    n_states, n_actions : int
        Sizes of the (enumerated) state and action spaces.
    transition : ndarray, shape (n_states, n_actions, n_states)
        transition[s, a, s'] = P(s' | s, a). Rows must sum to one.
    reward : ndarray, shape (n_states, n_actions)
        Expected immediate reward r(s, a).
    discount : float
        Discount factor, strictly below one.
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    discount: float = DEFAULT_DISCOUNT

    def __post_init__(self):
        self.n_states = as_count(self.n_states, "n_states", 1)
        self.n_actions = as_count(self.n_actions, "n_actions", 1)
        self.discount = as_real(self.discount, "discount", ge=0, lt=1)
        shape = (self.n_states, self.n_actions)
        self.transition = as_reals(self.transition, "transition", (*shape, self.n_states),
                                   ge=-_ROW_SUM_TOL)
        self.reward = as_reals(self.reward, "reward", shape)
        row_sums = self.transition.sum(axis=2)
        bad = np.abs(row_sums - 1.0) > _ROW_SUM_TOL
        if np.any(bad):
            s, a = np.argwhere(bad)[0]
            raise ConfigError(
                f"transition row (state={s}, action={a}) sums to {row_sums[s, a]!r}"
            )


class StepOutcome(NamedTuple):
    """One environment transition: the next observation, the reward and
    named per-step diagnostics (throughputs, optimal beam, ...), a fresh
    dict on every step: the episode log keeps it as returned."""

    observation: Any
    reward: float
    diagnostics: dict[str, float]


@dataclass
class EpisodeLog:
    """One episode as columns: the action taken at each step, the rewards,
    and one array per diagnostic key."""

    actions: list
    rewards: np.ndarray
    diagnostics: dict[str, np.ndarray]

    def to_csv(self, path) -> None:
        """Write one row per step with columns t, action, reward and the
        diagnostic keys in sorted order, as csv.writer's excel dialect
        writes them."""
        keys = sorted(self.diagnostics)
        columns = [map(repr, self.rewards.tolist())]
        columns += [map(repr, self.diagnostics[k].tolist()) for k in keys]
        # Agents often repeat one action object (a fixed rule, an allocation
        # kept for a coherence interval), so each distinct object is
        # formatted once. Keyed by id(): the log holds every action for the
        # whole call, so no id is reused.
        cells = {}
        action_cells = []
        for action in self.actions:
            cell = cells.get(id(action))
            if cell is None:
                cell = cells[id(action)] = _csv_cell(_format_action(action))
            action_cells.append(cell)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", "action", "reward"] + keys)  # keys are any strings
            # Step indices and float reprs never need quoting, and action
            # cells are quoted above, so the rows are joined as they stand.
            rows = zip(map(str, range(len(action_cells))), action_cells, *columns)
            fh.writelines(map("{}\r\n".format, map(",".join, rows)))


def _csv_cell(text: str) -> str:
    # The excel dialect's QUOTE_MINIMAL: quote a cell holding the delimiter,
    # the quote character or a line break, and double each quote.
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_action(action) -> str:
    # Vector actions (power levels, beam subsets) become ";"-joined scalars so
    # the CSV stays one cell per column.
    if type(action) is int:
        return str(action)
    if isinstance(action, str):
        return action
    if isinstance(action, (list, tuple)):
        return ";".join(_format_action(a) for a in action)
    if isinstance(action, np.ndarray):
        return ";".join(_format_action(a) for a in action.ravel())
    if isinstance(action, (bool, np.bool_)):
        return str(int(action))
    if isinstance(action, (int, np.integer)):
        return str(int(action))
    return repr(float(action))


def run_episode(env, policy, horizon: int, seed: int) -> EpisodeLog:
    """Run one seeded episode and return its log.

    `env` is a seeded simulator: reset(seed) returns the first observation
    and step(action) a StepOutcome(observation, reward, diagnostics).
    `policy` has act(observation) or is a callable; a policy with act may
    have a reset(seed) hook, called once with a policy-stream seed derived
    from the episode seed, and learning policies read outcomes from the next
    observation. Every episode runs `horizon` steps. The first step's
    diagnostic keys are the log's columns; a later step with other keys
    raises MissingDiagnosticError. Once the episode ends, a NaN or infinite
    reward raises NumericalError naming its first such step, and then a NaN
    or infinite value in a diagnostic column does.
    """
    horizon = as_count(horizon, "horizon", 1)
    act = getattr(policy, "act", policy)
    if not callable(act):
        raise ConfigError(f"not a policy: {policy!r}")
    obs = env.reset(seed)
    if act is not policy and hasattr(policy, "reset"):
        policy.reset(derive_seed(seed, STREAM_POLICY))
    actions, rewards, diagnostics = [], [], []
    for t in range(horizon):
        action = act(obs)
        try:
            obs, reward, step_diagnostics = env.step(action)
        except InvalidActionError as exc:
            raise InvalidActionError(f"step {t}: {exc}") from exc
        if t == 0:
            keys = frozenset(step_diagnostics)
        elif step_diagnostics.keys() != keys:
            raise MissingDiagnosticError(
                f"step {t}: diagnostic keys {sorted(step_diagnostics)} != {sorted(keys)}")
        actions.append(action)
        rewards.append(reward)
        diagnostics.append(step_diagnostics)
    rewards = np.array(rewards, dtype=float)
    finite = np.isfinite(rewards)
    if not finite.all():
        t = int(finite.argmin())
        raise NumericalError(f"step {t}: non-finite reward {rewards[t]}")
    columns = {k: np.fromiter(map(itemgetter(k), diagnostics), float, len(diagnostics))
               for k in sorted(keys)}
    first_bad = []  # (step, key) of each column's first non-finite value
    for k, column in columns.items():
        finite = np.isfinite(column)
        if not finite.all():
            first_bad.append((int(finite.argmin()), k))
    if first_bad:
        t, k = min(first_bad)
        raise NumericalError(f"step {t}: non-finite diagnostic {k} = {columns[k][t]}")
    return EpisodeLog(actions, rewards, columns)


def discounted_return(rewards: Sequence[float], discount: float) -> float:
    """Sum of discount**t * rewards[t]; the finite-horizon objective."""
    discount = as_real(discount, "discount", ge=0, lt=1)
    r = np.asarray(rewards, dtype=float)
    if r.size == 0:
        return 0.0
    return float(r @ np.power(discount, np.arange(r.size)))


@dataclass
class MetricsRecord:
    mean_reward: float
    discounted_return: float
    sum_log_throughput: float | None = None
    accuracy: float | None = None
    mean_abs_beam_error: float | None = None

    def to_dict(self) -> dict[str, float]:
        out = {
            "mean_reward": self.mean_reward,
            "discounted_return": self.discounted_return,
        }
        for k in ("sum_log_throughput", "accuracy", "mean_abs_beam_error"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


METRIC_PROFILES = ("basic", "scheduling", "beam")

# Diagnostic keys the non-basic profiles consume.
THROUGHPUT_PREFIX = "thr_"
SERVED_BEAM_KEY = "served_beam"
OPTIMAL_BEAM_KEY = "optimal_beam"


def _reads(kind: str, key: str) -> bool:
    """Whether metric profile `kind` reads diagnostic `key`."""
    if kind == "scheduling":
        return key.startswith(THROUGHPUT_PREFIX)
    return kind == "beam" and key in (SERVED_BEAM_KEY, OPTIMAL_BEAM_KEY)


def _gather(logs: list[EpisodeLog], key: str) -> np.ndarray:
    try:
        return np.concatenate([log.diagnostics[key] for log in logs])
    except KeyError:
        raise MissingDiagnosticError(f"profile requires diagnostic '{key}'") from None


def metrics_summary(
    logs: list[EpisodeLog], kind: str = "basic", discount: float = DEFAULT_DISCOUNT
) -> MetricsRecord:
    """Aggregate episode logs under a metric profile.

    Profiles: "basic" (mean reward, mean discounted return), "scheduling"
    (adds sum over users of log mean throughput, from thr_<u> diagnostics),
    "beam" (adds accuracy and mean absolute beam error, from served_beam and
    optimal_beam diagnostics). A profile that needs diagnostics the logs do
    not carry raises MissingDiagnosticError naming the key; a user whose mean
    throughput is not positive (never served) raises NumericalError.
    """
    if not logs:
        raise ConfigError("metrics_summary needs at least one episode log")
    if kind not in METRIC_PROFILES:
        raise ConfigError(f"unknown metrics profile {kind!r}; known: {METRIC_PROFILES}")
    all_rewards = np.concatenate([log.rewards for log in logs])
    if all_rewards.size == 0:
        raise ConfigError("episode logs contain no steps")
    mean_reward = float(all_rewards.mean())
    ret = float(np.mean([discounted_return(log.rewards, discount) for log in logs]))
    if not (math.isfinite(mean_reward) and math.isfinite(ret)):
        raise NumericalError(f"finite rewards overflow to a mean {mean_reward}, return {ret}")
    rec = MetricsRecord(mean_reward=mean_reward, discounted_return=ret)

    if kind == "scheduling":
        users = sorted(k for k in logs[0].diagnostics if _reads(kind, k))
        if not users:
            raise MissingDiagnosticError(
                f"profile 'scheduling' requires '{THROUGHPUT_PREFIX}<user>' diagnostics"
            )
        means = [_gather(logs, k).mean() for k in users]
        for k, mean in zip(users, means):
            if not mean > 0:
                raise NumericalError(f"{k} has mean throughput {mean}, so sum_log_throughput "
                                     "is not finite; use metrics: basic")
        rec.sum_log_throughput = float(sum(np.log(mean) for mean in means))
    elif kind == "beam":
        served = _gather(logs, SERVED_BEAM_KEY)
        optimal = _gather(logs, OPTIMAL_BEAM_KEY)
        rec.accuracy = float(np.mean(served == optimal))
        rec.mean_abs_beam_error = float(np.mean(np.abs(served - optimal)))
    return rec


def metric_columns(log: EpisodeLog, kind: str) -> EpisodeLog:
    """`log` cut down to what metrics_summary(kind) reads: its rewards and
    the profile's diagnostic columns, without the actions."""
    kept = {k: v for k, v in log.diagnostics.items() if _reads(kind, k)}
    return replace(log, actions=[], diagnostics=kept)
