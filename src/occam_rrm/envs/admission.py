"""Admission control as a finite birth-death MDP. The action is a per-class
rule vector (reject / accept / delay) applied to whatever arrives during the
step, so the utilization counts alone remain Markov and the exact MDP stays
enumerable. The chain is uniformized: at most one event (an arrival of some
class, a departure, or nothing) occurs per step, so class arrival and
departure rates are per-step probabilities and must sum below one."""

from __future__ import annotations

import itertools

import numpy as np

from ..core import DEFAULT_DISCOUNT, StepOutcome, TabularMdp
from ..errors import ConfigError, InvalidActionError
from ..rng import STREAM_EXOGENOUS
from .base import RrmEnv

REJECT, ACCEPT, DELAY = 0, 1, 2


_DEFAULT_CLASSES = [
    {"arrival_rate": 0.25, "departure_rate": 0.02, "demand": 1, "reward": 2.0, "reject_penalty": 1.0},
    {"arrival_rate": 0.25, "departure_rate": 0.02, "demand": 1, "reward": 1.0, "reject_penalty": 0.2},
]

_CLASS_KEYS = {
    "arrival_rate",
    "departure_rate",
    "demand",
    "reward",
    "reject_penalty",
    "delay_penalty",
    "blocked_penalty",
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
        self.capacity = float(capacity)
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        raw = classes if classes is not None else _DEFAULT_CLASSES
        if not raw:
            raise ConfigError("at least one priority class required")
        self.classes = []
        for i, c in enumerate(raw):
            unknown = set(c) - _CLASS_KEYS
            if unknown:
                raise ConfigError(f"class {i}: unknown keys {sorted(unknown)}")
            cc = dict(c)
            cc.setdefault("demand", 1)
            cc.setdefault("reject_penalty", 0.0)
            cc.setdefault("delay_penalty", 0.1)
            cc.setdefault("blocked_penalty", cc["reject_penalty"] + 0.05)
            if cc["demand"] <= 0:
                raise ConfigError(f"class {i}: demand must be positive")
            if cc["arrival_rate"] < 0 or cc["departure_rate"] <= 0:
                raise ConfigError(f"class {i}: need arrival_rate >= 0, departure_rate > 0")
            self.classes.append(cc)
        self.n_classes = len(self.classes)
        self.strict_feasibility = bool(strict_feasibility)
        self.safety_margin = float(safety_margin)
        self.qos_penalty = float(qos_penalty)
        self.discount = float(discount)
        # Uniformized chain: total event probability must stay below one even
        # at the fullest states (conservative per-class bound).
        worst = sum(c["arrival_rate"] for c in self.classes) + sum(
            int(self.capacity // c["demand"]) * c["departure_rate"] for c in self.classes
        )
        if worst > 1.0 + 1e-12:
            raise ConfigError(
                f"event rates too high for one-event-per-step dynamics "
                f"(worst-case total {worst!r} > 1); scale arrival/departure rates down"
            )

    # -------------------------------------------------- state bookkeeping

    def used_of(self, counts) -> float:
        return float(sum(n * c["demand"] for n, c in zip(counts, self.classes)))

    def _obs_from(self, counts) -> dict:
        return {
            "counts": tuple(counts),
            "used": self.used_of(counts),
            "capacity": self.capacity,
        }

    def enumerate_states(self) -> list[tuple]:
        ranges = [range(int(self.capacity // c["demand"]) + 1) for c in self.classes]
        feasible = [
            counts
            for counts in itertools.product(*ranges)
            if self.used_of(counts) <= self.capacity + 1e-9
        ]
        return sorted(feasible)

    @property
    def n_states(self) -> int:
        return len(self._state_lookup)

    def state_index(self, obs) -> int:
        counts = tuple(obs["counts"]) if isinstance(obs, dict) else tuple(obs)
        return self._state_lookup[counts]

    def action_list(self) -> list[tuple]:
        return list(itertools.product((REJECT, ACCEPT, DELAY), repeat=self.n_classes))

    @property
    def _state_lookup(self):
        if not hasattr(self, "_lookup_cache"):
            self._lookup_cache = {s: i for i, s in enumerate(self.enumerate_states())}
        return self._lookup_cache

    # -------------------------------------------------- dynamics

    def _check_action(self, action) -> tuple:
        if isinstance(action, (int, np.integer)) and self.n_classes == 1:
            action = (int(action),)
        rule = tuple(int(a) for a in action)
        if len(rule) != self.n_classes:
            raise InvalidActionError(
                f"rule vector length {len(rule)} != n_classes {self.n_classes}"
            )
        for a in rule:
            if a not in (REJECT, ACCEPT, DELAY):
                raise InvalidActionError(f"rule entry {a} not in {{0, 1, 2}}")
        return rule

    def _rule_outcome(self, counts, cls_idx, decision):
        """Apply a rule entry to an arrival of class cls_idx.
        Returns (next_counts, reward_delta)."""
        c = self.classes[cls_idx]
        counts = list(counts)
        if decision == ACCEPT:
            if self.used_of(counts) + c["demand"] <= self.capacity + 1e-9:
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

    def _qos(self, counts) -> float:
        if self.used_of(counts) > self.safety_margin * self.capacity + 1e-9:
            return -self.qos_penalty
        return 0.0

    def _start(self, seed):
        self._event_stream = self.stream(STREAM_EXOGENOUS, kind="uniform")
        self._counts = tuple([0] * self.n_classes)
        return self._obs_from(self._counts)

    def _step(self, action):
        rule = self._check_action(action)
        u = self._event_stream.value(self.t)
        counts, reward, event = self._counts, 0.0, "none"
        edge = 0.0
        for i, c in enumerate(self.classes):
            edge += c["arrival_rate"]
            if u < edge:
                counts, reward = self._rule_outcome(counts, i, rule[i])
                event = f"arrival_{i}"
                break
        else:
            for i, c in enumerate(self.classes):
                edge += self._counts[i] * c["departure_rate"]
                if u < edge:
                    counts = tuple(
                        n - 1 if j == i else n for j, n in enumerate(self._counts)
                    )
                    event = f"departure_{i}"
                    break
        reward += self._qos(counts)
        self._counts = counts
        diagnostics = {
            "used": self.used_of(counts),
            "arrival": float(event.startswith("arrival")),
            "departure": float(event.startswith("departure")),
        }
        return StepOutcome(observation=self._obs_from(counts), reward=reward, diagnostics=diagnostics)

    # -------------------------------------------------- exact extraction

    def true_mdp(self) -> TabularMdp:
        """Exact transition tensor and expected-reward table of the
        uniformized chain, marginalizing arrivals into the kernel."""
        if self.strict_feasibility:
            raise ConfigError(
                "true_mdp undefined under strict_feasibility: accept rules "
                "would error on full states instead of transitioning"
            )
        states = self.enumerate_states()
        actions = self.action_list()
        index = {s: i for i, s in enumerate(states)}
        S, A = len(states), len(actions)
        P = np.zeros((S, A, S))
        R = np.zeros((S, A))
        for si, s in enumerate(states):
            for ai, rule in enumerate(actions):
                stay = 1.0
                for ci, c in enumerate(self.classes):
                    lam = c["arrival_rate"]
                    if lam > 0:
                        nxt, rew = self._rule_outcome(s, ci, rule[ci])
                        P[si, ai, index[nxt]] += lam
                        R[si, ai] += lam * (rew + self._qos(nxt))
                        stay -= lam
                    mu = s[ci] * c["departure_rate"]
                    if mu > 0:
                        nxt = tuple(n - 1 if j == ci else n for j, n in enumerate(s))
                        P[si, ai, index[nxt]] += mu
                        R[si, ai] += mu * self._qos(nxt)
                        stay -= mu
                P[si, ai, si] += stay
                R[si, ai] += stay * self._qos(s)
        return TabularMdp(
            n_states=S, n_actions=A, transition=P, reward=R, discount=self.discount
        )
