"""Admission control as a finite birth-death MDP. The action is a per-class
rule vector (reject / accept / delay) applied to whatever arrives during the
step, so the utilization counts alone remain Markov and the exact MDP stays
enumerable. The chain is uniformized: at most one event (an arrival of some
class, a departure, or nothing) occurs per step, so class arrival and
departure rates are per-step probabilities and must sum below one."""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from ..config import as_real, check_keys
from ..core import DEFAULT_DISCOUNT, StepOutcome, TabularMdp
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS, scalars
from .base import RrmEnv, _action_index

REJECT, ACCEPT, DELAY = 0, 1, 2


_DEFAULT_CLASSES = [
    {"arrival_rate": 0.25, "departure_rate": 0.02, "demand": 1, "reward": 2.0, "reject_penalty": 1.0},
    {"arrival_rate": 0.25, "departure_rate": 0.02, "demand": 1, "reward": 1.0, "reject_penalty": 0.2},
]

# Each class key, with the bounds of its value.
_CLASS_KEYS = {
    "arrival_rate": {"ge": 0},
    "departure_rate": {"gt": 0},
    "demand": {"gt": 0},
    "reward": {},
    "reject_penalty": {},
    "delay_penalty": {},
    "blocked_penalty": {},
}


class AdmissionEnv(RrmEnv):
    name = "admission_control"

    def __init__(
        self,
        capacity=10,
        classes=None,
        strict_feasibility=False,
        safety_margin=1.0,
        qos_penalty=0.0,
        discount=DEFAULT_DISCOUNT,
    ):
        super().__init__()
        self.capacity = as_real(capacity, "capacity", gt=0)
        raw = classes if classes is not None else _DEFAULT_CLASSES
        if not raw:
            raise ConfigError("at least one priority class required")
        self.classes = []
        for i, c in enumerate(raw):
            check_keys(c, _CLASS_KEYS, ("arrival_rate", "departure_rate", "reward"), f"class {i}")
            cc = {"demand": 1, "reject_penalty": 0.0, "delay_penalty": 0.1, **c}
            cc = {k: as_real(v, f"class {i} {k}", **_CLASS_KEYS[k]) for k, v in cc.items()}
            cc.setdefault("blocked_penalty", cc["reject_penalty"] + 0.05)
            self.classes.append(cc)
        self.n_classes = len(self.classes)
        self.strict_feasibility = bool(strict_feasibility)
        self.safety_margin = as_real(safety_margin, "safety_margin")
        self.qos_penalty = as_real(qos_penalty, "qos_penalty")
        self.discount = as_real(discount, "discount", ge=0, lt=1)
        # The most of each class that fits, with the 1e-9 slack of an accept.
        self._most = [int((self.capacity + 1e-9) // c["demand"]) for c in self.classes]
        # Uniformized chain: total event probability must stay below one even
        # at the fullest states (conservative per-class bound).
        worst = sum(c["arrival_rate"] for c in self.classes) + sum(
            n * c["departure_rate"] for n, c in zip(self._most, self.classes)
        )
        if worst > 1.0 + 1e-12:
            raise ConfigError(
                f"event rates too high for one-event-per-step dynamics "
                f"(worst-case total {worst!r} > 1); scale arrival/departure rates down"
            )
        self._action_in = self._rule = None

    # -------------------------------------------------- state bookkeeping

    def used_of(self, counts) -> float:
        return float(sum(n * c["demand"] for n, c in zip(counts, self.classes)))

    def _obs_from(self, counts: tuple, used: float) -> dict:
        return {"counts": counts, "used": used, "capacity": self.capacity}

    def enumerate_states(self) -> list[tuple]:
        sizes = [n + 1 for n in self._most]
        n = math.prod(sizes)
        self._budget(n, f"capacity {self.capacity:g} spans {n} class count vectors", "capacity")
        feasible = [
            counts
            for counts in itertools.product(*map(range, sizes))
            if self.used_of(counts) <= self.capacity + 1e-9
        ]
        return sorted(feasible)

    @property
    def n_states(self) -> int:
        return len(self._state_lookup)

    def state_index(self, obs) -> int:
        return self._state_lookup[tuple(obs["counts"])]

    def action_list(self) -> list[tuple]:
        self._budget(3**self.n_classes, f"{self.n_classes} classes give {3**self.n_classes} "
                     "rule vectors", "classes")
        return list(itertools.product((REJECT, ACCEPT, DELAY), repeat=self.n_classes))

    @cached_property
    def _state_lookup(self):
        return {s: i for i, s in enumerate(self.enumerate_states())}

    # -------------------------------------------------- dynamics

    def _check_action(self, action) -> tuple:
        # Table policies pass the same action_list tuples again and again, so
        # the last one checked is kept, as BeamformingEnv._check_beams does.
        if action is self._action_in and type(action) is tuple:
            return self._rule
        try:
            rule = tuple([a if type(a) is int else _action_index(a, "rule entry") for a in action])
        except TypeError as exc:
            raise InvalidActionError(f"malformed rule vector {action!r}") from exc
        if len(rule) != self.n_classes:
            raise InvalidActionError(
                f"rule vector length {len(rule)} != n_classes {self.n_classes}"
            )
        for a in rule:
            if a not in (REJECT, ACCEPT, DELAY):
                raise InvalidActionError(f"rule entry {a} not in {{0, 1, 2}}")
        self._action_in, self._rule = action, rule
        return rule

    def _rule_outcome(self, counts, used, cls_idx, decision):
        """Apply a rule entry to an arrival of class cls_idx at `counts`,
        whose bandwidth in use is `used`. Returns (next_counts, reward_delta)."""
        c = self.classes[cls_idx]
        counts = list(counts)
        if decision == ACCEPT:
            if used + c["demand"] <= self.capacity + 1e-9:
                counts[cls_idx] += 1
                return tuple(counts), c["reward"]
            if self.strict_feasibility:
                raise InvalidActionError(
                    f"infeasible accept: class {cls_idx} demand {c['demand']} "
                    f"exceeds free capacity"
                )
            return tuple(counts), -c["blocked_penalty"]
        if decision == REJECT:
            return tuple(counts), -c["reject_penalty"]
        return tuple(counts), -c["delay_penalty"]

    def _qos(self, used: float) -> float:
        if used > self.safety_margin * self.capacity + 1e-9:
            return -self.qos_penalty
        return 0.0

    def _start(self, seed):
        self._event_stream = self.stream(STREAM_EXOGENOUS, kind="uniform", table=scalars)
        self._counts = tuple([0] * self.n_classes)
        self._used = self.used_of(self._counts)
        return self._obs_from(self._counts, self._used)

    def _step(self, action):
        rule = self._check_action(action)
        u = self._event_stream.at(self.t)
        counts, reward, arrival, departure = self._counts, 0.0, 0.0, 0.0
        edge = 0.0
        for i, c in enumerate(self.classes):
            edge += c["arrival_rate"]
            if u < edge:
                counts, reward = self._rule_outcome(counts, self._used, i, rule[i])
                arrival = 1.0
                break
        else:
            for i, c in enumerate(self.classes):
                edge += self._counts[i] * c["departure_rate"]
                if u < edge:
                    counts = tuple(
                        n - 1 if j == i else n for j, n in enumerate(self._counts)
                    )
                    departure = 1.0
                    break
        # `used` is summed once per step, and only when the counts changed
        used = self._used if counts == self._counts else self.used_of(counts)
        reward += self._qos(used)
        self._counts, self._used = counts, used
        diagnostics = {
            "used": used,
            "arrival": arrival,
            "departure": departure,
        }
        return StepOutcome(self._obs_from(counts, used), reward, diagnostics)

    # -------------------------------------------------- exact extraction

    def true_mdp(self) -> TabularMdp:
        """Exact transition tensor and expected-reward table of the
        uniformized chain, marginalizing arrivals into the kernel. A row is
        summed on Python floats (per class the arrival, then the departure;
        then the stay mass), and a state's rows are stored at once."""
        if self.strict_feasibility:
            raise ConfigError(
                "true_mdp undefined under strict_feasibility: accept rules "
                "would error on full states instead of transitioning"
            )
        actions = self.action_list()
        A = len(actions)
        # The empty state and each one-class state are feasible, so S >= least;
        # that refuses a large table before its states are listed.
        least = 1 + sum(self._most)
        self._budget(least * A * least, f"the exact MDP of at least {least} states and {A} "
                     f"rules needs at least {least * A * least} transition entries", "capacity")
        index = self._state_lookup
        used = [self.used_of(s) for s in index]
        qos = [self._qos(u) for u in used]
        S = len(index)
        self._budget(S * A * S, f"the exact MDP of {S} states and {A} rules needs {S * A * S} "
                     "transition entries", "capacity")
        P = np.zeros((S, A, S))
        R = np.zeros((S, A))
        for si, s in enumerate(index):
            # (rate, target) of a departure per class; no target at count 0
            departs = [
                (s[ci] * c["departure_rate"], index.get(s[:ci] + (s[ci] - 1,) + s[ci + 1:]))
                for ci, c in enumerate(self.classes)
            ]
            rows, rewards = [], []
            for rule in actions:
                row, r, stay = [0.0] * S, 0.0, 1.0
                for ci, c in enumerate(self.classes):
                    lam = c["arrival_rate"]
                    if lam > 0:
                        nxt, rew = self._rule_outcome(s, used[si], ci, rule[ci])
                        j = index[nxt]
                        row[j] += lam
                        r += lam * (rew + qos[j])
                        stay -= lam
                    mu, j = departs[ci]
                    if mu > 0:
                        row[j] += mu
                        r += mu * qos[j]
                        stay -= mu
                row[si] += stay
                rows.append(row)
                rewards.append(r + stay * qos[si])
            P[si], R[si] = rows, rewards
        return TabularMdp(
            n_states=S, n_actions=A, transition=P, reward=R, discount=self.discount
        )
