"""The known-model kernels against their plain forms: water_fill's bisection
on Python floats against the numpy one, value_iteration's warm start
against the plain Bellman loop, AdmissionEnv.true_mdp, q_learning and the
WMMSE refinement against their numpy-scalar loops, the per-block
exogenous tables of the handover, scheduling and power envs against the
per-step formulas, handover episodes and their MRO and greedy decisions
against the numpy observations and rules, scheduling episodes and their
PF and max-rate decisions against the whole-array numpy step and argmax,
the GP surrogate's kept kernel entries against a rebuild from its points,
and the MPC lookahead against its merge-twice, keep-every-edge form. Each
reference below is the earlier kernel, kept verbatim; the fast kernels must
give the same bits or the same policy."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import QL_ADMISSION, TRUNK_AC
from test_experiments import FRACTIONAL_CLASSES, GOLDEN_TABULAR

from occam_rrm import planning
from occam_rrm.agents import (
    GreedyHoAgent,
    MaxRateAgent,
    MpcEnergyAgent,
    MroAgent,
    PfAgent,
    RoundRobinAgent,
)
from occam_rrm.bandits import GP_JITTER, GpSurrogate
from occam_rrm.core import DEFAULT_DISCOUNT, StepOutcome, TabularMdp
from occam_rrm.envs import HandoverEnv, MroObservation, PowerEnv, SchedulingEnv, make_env
from occam_rrm.envs.scheduling import EWMA_FLOOR
from occam_rrm.errors import ConfigError, GpNumericalError, InvalidActionError
from occam_rrm.planning import (
    DeterministicModel,
    QTable,
    ValueTable,
    _per_state_expansion,
    _q_from_values,
    mpc_plan,
    q_learning,
    value_iteration,
)
from occam_rrm.rng import STREAM_EXOGENOUS, StepStream, derive_seed
from occam_rrm.rules import STAY, mro_policy
from occam_rrm.static_opt import (
    WATER_FILL_TOL,
    PowerAllocation,
    _sum_rate_raw,
    _wmmse_refine,
    water_fill,
)


def reference_water_fill(gains, noise: float, total_power: float) -> PowerAllocation:
    gains = np.asarray(gains, dtype=float)
    if total_power <= 0:
        raise ConfigError(f"total_power must be > 0, got {total_power}")
    if noise <= 0:
        raise ConfigError(f"noise must be > 0, got {noise}")
    if np.any(gains < 0):
        raise ConfigError("gains must be nonnegative")
    active = gains > 0
    if not np.any(active):
        raise ConfigError("all channel gains are zero; nothing to allocate")
    floors = noise / gains[active]

    def allocated(level: float) -> np.ndarray:
        return np.maximum(0.0, level - floors)

    lo = float(floors.min())
    hi = float(floors.max() + total_power)
    # allocated() sums to 0 at lo and >= total_power at hi; bisect the level.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        excess = allocated(mid).sum() - total_power
        if abs(excess) <= WATER_FILL_TOL:
            lo = hi = mid
            break
        if excess > 0:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    powers = np.zeros_like(gains)
    powers[active] = allocated(level)
    return PowerAllocation(powers=powers, water_level=level)


def reference_value_iteration(mdp: TabularMdp, tol: float = 1e-8) -> ValueTable:
    if tol <= 0:
        raise ConfigError("tol must be positive")
    beta = mdp.discount
    stop = tol if beta == 0 else tol * (1.0 - beta) / (2.0 * beta)
    v = np.zeros(mdp.n_states)
    while True:
        q = _q_from_values(mdp, v)
        v_next = q.max(axis=1)
        if np.max(np.abs(v_next - v)) < stop:
            return ValueTable(values=v_next, policy=q.argmax(axis=1))
        v = v_next


def reference_true_mdp(self) -> TabularMdp:
    """AdmissionEnv.true_mdp, called with the env as self."""
    if self.strict_feasibility:
        raise ConfigError(
            "true_mdp undefined under strict_feasibility: accept rules "
            "would error on full states instead of transitioning"
        )
    states = self.enumerate_states()
    actions = self.action_list()
    index = {s: i for i, s in enumerate(states)}
    used = [self.used_of(s) for s in states]
    S, A = len(states), len(actions)
    P = np.zeros((S, A, S))
    R = np.zeros((S, A))
    for si, s in enumerate(states):
        for ai, rule in enumerate(actions):
            stay = 1.0
            for ci, c in enumerate(self.classes):
                lam = c["arrival_rate"]
                if lam > 0:
                    nxt, rew = self._rule_outcome(s, used[si], ci, rule[ci])
                    P[si, ai, index[nxt]] += lam
                    R[si, ai] += lam * (rew + self._qos(used[index[nxt]]))
                    stay -= lam
                mu = s[ci] * c["departure_rate"]
                if mu > 0:
                    nxt = tuple(n - 1 if j == ci else n for j, n in enumerate(s))
                    P[si, ai, index[nxt]] += mu
                    R[si, ai] += mu * self._qos(used[index[nxt]])
                    stay -= mu
            P[si, ai, si] += stay
            R[si, ai] += stay * self._qos(used[si])
    return TabularMdp(
        n_states=S, n_actions=A, transition=P, reward=R, discount=self.discount
    )


def reference_q_learning(env, episodes, horizon=1000, alpha=None, epsilon=None, seed=0) -> QTable:
    alpha = alpha if alpha is not None else planning.hyperbolic_schedule(planning.ALPHA0_DEFAULT)
    epsilon = (epsilon if epsilon is not None
               else planning.hyperbolic_schedule(planning.EPSILON0_DEFAULT))
    actions = env.action_list()
    n_s, n_a = env.n_states, len(actions)
    discount = float(getattr(env, "discount", DEFAULT_DISCOUNT))
    q = np.zeros((n_s, n_a))
    visits = np.zeros((n_s, n_a), dtype=int)
    rng = np.random.default_rng(derive_seed(seed, 1))

    t_global = 0
    for ep in range(episodes):
        obs = env.reset(derive_seed(seed, 2 + ep))
        s = env.state_index(obs)
        for _ in range(horizon):
            eps = epsilon(t_global) if callable(epsilon) else epsilon
            if rng.random() < eps:
                a = int(rng.integers(n_a))
            else:
                a = int(q[s].argmax())
            out = env.step(actions[a])
            s_next = env.state_index(out.observation)
            lr = alpha(t_global) if callable(alpha) else alpha
            target = out.reward + discount * q[s_next].max()
            q[s, a] += lr * (target - q[s, a])
            visits[s, a] += 1
            s = s_next
            t_global += 1
    return QTable(q=q, visits=visits)


def reference_wmmse_refine(E, noise, budget, W, iters, tol):
    Hc = E.conj().T  # columns are the user channels h_u
    prev = -np.inf
    for _ in range(iters):
        G = E @ W
        denom = np.sum(np.abs(G) ** 2, axis=1) + noise
        g = np.diag(G)
        u = g / denom
        mse = 1.0 - np.abs(g) ** 2 / denom
        m = 1.0 / np.maximum(mse, 1e-15)
        d = m * np.abs(u) ** 2
        A = E.conj().T @ (d[:, None] * E)
        lam, Q = np.linalg.eigh(A)
        lam = np.maximum(lam, 0.0)
        B = Q.conj().T @ Hc
        coef = (m * np.abs(u)) ** 2
        c = coef[None, :] * np.abs(B) ** 2
        csum = float(c.sum())
        if csum == 0:
            break

        def power(mu):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = c / (lam[:, None] + mu) ** 2
            return float(np.where(c > 0, terms, 0.0).sum())

        if lam.min() > 0 and power(0.0) <= budget:
            mu = 0.0
        else:
            hi = max(np.sqrt(csum / budget), 1e-12)
            while power(hi) > budget:
                hi *= 2.0
            target = budget**-0.5
            a, fa = 0.0, power(0.0) ** -0.5 - target  # fa <= 0
            b, fb = hi, power(hi) ** -0.5 - target  # fb >= 0
            mu = b
            for _ in range(60):
                mid = b - fb * (b - a) / (fb - fa) if fb != fa else 0.5 * (a + b)
                if not (a < mid < b):
                    mid = 0.5 * (a + b)
                pm = power(mid)
                if abs(pm - budget) <= 1e-11 * budget:
                    mu = mid
                    break
                if pm > budget:
                    a, fa = mid, pm**-0.5 - target
                else:
                    b, fb = mid, pm**-0.5 - target
                    mu = mid
                if b - a <= 1e-15 * (1.0 + b):
                    break
        W = (Q @ (B / (lam[:, None] + mu))) * (m * np.conj(u))[None, :]
        rate = _sum_rate_raw(E, W, noise)
        if rate - prev < tol:
            break
        prev = rate
    norm = np.linalg.norm(W)
    if norm > 0:
        W = W * (np.sqrt(budget) / norm)
    return W, _sum_rate_raw(E, W, noise)


# The per-step exogenous formulas of the envs, called with the env as self;
# measured RSRP calls the reference true RSRP where it called its own, and
# each draws from a fresh raw stream where it read the env's.
def reference_true_rsrp_at(self, t: int) -> np.ndarray:
    if self._trace is not None:
        return self._trace[t % self._trace.shape[0]].copy()
    m = self._model
    spread = m["near_rsrp"] - m["far_rsrp"]
    # x in [0, 1]: distance proxy; cell 0 starts closest.
    x = 0.5 * (1.0 + np.sin(2 * np.pi * t / m["period"] - np.pi / 2 + self._phases))
    return m["near_rsrp"] - spread * x


def reference_measured_rsrp_at(self, t: int) -> np.ndarray:
    noise = StepStream(self.seed, STREAM_EXOGENOUS, self.n_cells, "normal").at(t)
    return reference_true_rsrp_at(self, t) + self.noise_std * noise


def reference_efficiency_at(self, t: int) -> np.ndarray:
    if self.fading == "none":
        return self.mean_efficiency.copy()
    u = StepStream(self.seed, STREAM_EXOGENOUS, self.n_users, "uniform").at(t)
    return self.mean_efficiency * -np.log1p(-u)


def reference_gains_at(self, t: int) -> np.ndarray:
    if self.fixed_gains is not None:
        return self.fixed_gains.copy()
    block = t // self.coherence
    u = StepStream(self.seed, STREAM_EXOGENOUS, self.n_channels, "uniform").at(block)
    return self.mean_gain * -np.log1p(-u)


# ---------------------------------------------------------------- water-fill

@pytest.mark.parametrize("noise", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("total_power", [0.1, 4.0, 100.0])
def test_water_fill_matches_numpy_bisection_bits(noise, total_power):
    # n from 1 to 9 with about a quarter of the gains zero, so the active
    # channel count falls on both sides of the 8 where the numpy sum starts
    rng = np.random.default_rng(int(1000 * noise + total_power))
    cases = 0
    for n in range(1, 10):
        for _ in range(300):
            gains = rng.exponential(size=n) * (rng.random(n) > 0.25)
            if not gains.any():
                with pytest.raises(ConfigError, match="all channel gains are zero"):
                    water_fill(gains, noise, total_power)
                continue
            want = reference_water_fill(gains, noise, total_power)
            got = water_fill(gains, noise, total_power)
            assert got.powers.tobytes() == want.powers.tobytes()
            assert got.water_level == want.water_level
            cases += 1
    assert cases >= 2250  # 9 settings of this test: over 20k cases in all


def test_numpy_sums_fewer_than_8_entries_left_to_right():
    # the premise of water_fill's loop on Python floats
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        for _ in range(2000):
            a = rng.exponential(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
            total = 0.0
            for x in a.tolist():
                total += x
            assert a.sum() == total


# ---------------------------------------------------------------- value iteration

CAPACITY_3 = {"env": "admission_control", "capacity": 3,
              "classes": [{"arrival_rate": 0.3, "departure_rate": 0.2, "demand": 1, "reward": 1.0}]}
VI_CONFIGS = {
    "admission-default": {"env": "admission_control"},
    "trunk": TRUNK_AC,
    "q-learning-admission": QL_ADMISSION,
    "admission-capacity-3": CAPACITY_3,
    "golden-tabular": GOLDEN_TABULAR,
}


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("name", sorted(VI_CONFIGS))
def test_value_iteration_policy_matches_plain_loop(name, tol):
    mdp = make_env(VI_CONFIGS[name]).true_mdp()
    want = reference_value_iteration(mdp, tol)
    got = value_iteration(mdp, tol)
    assert np.array_equal(got.policy, want.policy)
    assert np.max(np.abs(got.values - want.values)) < tol


def test_value_iteration_policy_matches_plain_loop_on_random_mdps():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_s, n_a = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        transition = rng.dirichlet(np.full(n_s, rng.choice([0.1, 1.0])), size=(n_s, n_a))
        reward = np.round(rng.normal(size=(n_s, n_a)) * rng.choice([1, 10]), 1)
        mdp = TabularMdp(n_s, n_a, transition, reward, float(rng.choice([0.0, 0.5, 0.9, 0.99])))
        assert np.array_equal(value_iteration(mdp).policy, reference_value_iteration(mdp).policy)


def test_value_iteration_stops_at_the_float_floor(monkeypatch):
    # Values near 1e7 are spaced about 2e-9 apart, far above the stopping
    # threshold 5e-12 at this discount, so sweeps stall above it. The plain
    # loop stops only by landing on an exact fixed point, after 30k sweeps;
    # here, sweeping on from the exact policy values never does.
    rng = np.random.default_rng(1)
    n_s, n_a = 10, 3
    mdp = TabularMdp(n_s, n_a, rng.dirichlet(np.ones(n_s), size=(n_s, n_a)),
                     rng.uniform(0.0, 1e4, size=(n_s, n_a)), 0.999)
    want = reference_value_iteration(mdp)
    sweeps = []

    def counted_sweep(mdp, v):
        sweeps.append(1)
        assert len(sweeps) < 100, "value iteration did not stop at the float floor"
        return _q_from_values(mdp, v)

    monkeypatch.setattr(planning, "_q_from_values", counted_sweep)
    t0 = time.perf_counter()
    got = value_iteration(mdp)
    elapsed = time.perf_counter() - t0
    stop = 1e-8 * (1 - mdp.discount) / (2 * mdp.discount)
    assert np.spacing(np.max(np.abs(got.values))) > stop
    assert elapsed < 0.5
    assert np.array_equal(got.policy, want.policy)


# ---------------------------------------------------------------- admission and Q-learning

# Three classes, one without arrivals, and a safety margin under which the
# QoS penalty fires.
THREE_CLASSES = {
    "env": "admission_control", "capacity": 6, "safety_margin": 0.7, "qos_penalty": 0.3,
    "classes": [
        {"arrival_rate": 0.1, "departure_rate": 0.02, "demand": 1, "reward": 1.0,
         "reject_penalty": 0.1},
        {"arrival_rate": 0.08, "departure_rate": 0.015, "demand": 2, "reward": 2.5,
         "reject_penalty": 0.4},
        {"arrival_rate": 0.0, "departure_rate": 0.03, "demand": 3, "reward": 4.0,
         "delay_penalty": 0.3},
    ],
}
TRUE_MDP_CONFIGS = {
    "default": {"env": "admission_control"},
    "fractional": {"env": "admission_control", "classes": FRACTIONAL_CLASSES,
                   "safety_margin": 0.8, "qos_penalty": 0.5},
    "three-classes": THREE_CLASSES,
}


@pytest.mark.parametrize("name", sorted(TRUE_MDP_CONFIGS))
def test_admission_true_mdp_matches_scalar_loop_bits(name):
    env = make_env(TRUE_MDP_CONFIGS[name])
    want = reference_true_mdp(env)
    got = env.true_mdp()
    assert (got.n_states, got.n_actions, got.discount) == (
        want.n_states, want.n_actions, want.discount)
    assert got.transition.shape == want.transition.shape
    assert got.transition.tobytes() == want.transition.tobytes()
    assert got.reward.shape == want.reward.shape
    assert got.reward.tobytes() == want.reward.tobytes()


# Q starts at all zeros, so greedy choices meet ties, most of all with
# epsilon 0; constant alpha and epsilon take the non-callable branch.
QL_CASES = {
    "admission-default": ({"env": "admission_control"}, {"episodes": 5, "horizon": 200}),
    "admission-greedy": (QL_ADMISSION, {"episodes": 3, "horizon": 300, "epsilon": 0.0,
                                        "alpha": 0.1}),
    "admission-three-classes": (THREE_CLASSES, {"episodes": 2, "horizon": 400}),
    "tabular": (GOLDEN_TABULAR, {"episodes": 4, "horizon": 150}),
    "tabular-greedy": (GOLDEN_TABULAR, {"episodes": 2, "horizon": 100, "epsilon": 0.0,
                                        "alpha": 0.5}),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(QL_CASES))
def test_q_learning_matches_numpy_loop_bits(name, seed):
    env_cfg, kwargs = QL_CASES[name]
    want = reference_q_learning(make_env(env_cfg), seed=seed, **kwargs)
    got = q_learning(make_env(env_cfg), seed=seed, **kwargs)
    assert got.q.dtype == want.q.dtype and got.q.shape == want.q.shape
    assert got.q.tobytes() == want.q.tobytes()
    assert got.visits.dtype == want.visits.dtype
    assert got.visits.tobytes() == want.visits.tobytes()


# ---------------------------------------------------------------- WMMSE

@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 3), (5, 1), (1, 5), (7, 1),
                                   (1, 7), (2, 4), (4, 2)])
def test_wmmse_refine_matches_reference_bits(shape):
    # mmse_precoder's starts: matched filter, each single-user beam (which
    # leaves eigenvalues at 0, so the power search divides by zero) and a
    # random draw. For three shapes a seventh channel has a zero first row,
    # so that user's c is 0; like mmse_precoder, it gets no single-user start.
    rng = np.random.default_rng(sum(shape))
    n_users, n_tx = shape
    for k in range(7 if shape in [(2, 2), (3, 2), (2, 3)] else 6):
        E = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        if k == 6:
            E[0] = 0.0
        budget = float(10.0 ** rng.uniform(-0.5, 1.5))
        noise = float(10.0 ** rng.uniform(-2.0, 1.0))
        starts = [E.conj().T.copy()]
        for u in range(n_users):
            if not np.any(E[u]):
                continue
            W = np.zeros((n_tx, n_users), dtype=complex)
            W[:, u] = E[u].conj()
            starts.append(W)
        starts.append(rng.standard_normal((n_tx, n_users))
                      + 1j * rng.standard_normal((n_tx, n_users)))
        for W0 in starts:
            W0 = W0 * (np.sqrt(budget) / np.linalg.norm(W0))
            want_W, want_rate = reference_wmmse_refine(E, noise, budget, W0, 200, 1e-10)
            got_W, got_rate = _wmmse_refine(E, noise, budget, W0, 200, 1e-10)
            assert got_W.tobytes() == want_W.tobytes()
            assert got_rate == want_rate


# ---------------------------------------------------------------- exogenous tables

# Steps 0..2100 cross two boundaries of the 1024-step stream blocks.
TABLE_STEPS = 2101


def trace_model(n_cells):
    # 300 rows: the trace wraps at steps that are not block boundaries
    rows = np.random.default_rng(n_cells).uniform(-110.0, -50.0, size=(300, n_cells))
    return {"kind": "trace", "values": rows.tolist()}


HO_MODELS = {
    "period-40": lambda n: {"kind": "crossing", "period": 40},
    "period-37.5": lambda n: {"kind": "crossing", "period": 37.5},
    "trace-300": trace_model,
}


@pytest.mark.parametrize("model", sorted(HO_MODELS))
@pytest.mark.parametrize("n_cells", [2, 3, 5, 8])
def test_handover_rsrp_tables_match_per_step_bits(n_cells, model):
    env = HandoverEnv(n_cells=n_cells, model=HO_MODELS[model](n_cells))
    obs = env.reset(3)
    policy = GreedyHoAgent()  # hands over often, so the serving cell changes
    for t in range(TABLE_STEPS):
        want_true = reference_true_rsrp_at(env, t)
        want_meas = reference_measured_rsrp_at(env, t)
        assert obs.rsrp_serving == want_meas[obs.serving_cell]
        want_neighbors = want_meas[list(obs.neighbor_cells)]
        assert np.array(obs.rsrp_neighbors).tobytes() == want_neighbors.tobytes()
        true_row, meas_row = np.split(env._rsrp.at(t), 2)
        assert true_row.tobytes() == want_true.tobytes()
        assert meas_row.tobytes() == want_meas.tobytes()
        out = env.step(policy.act(obs))
        # the true RSRP of step t at the serving cell after the action
        assert out.diagnostics["rsrp_serving_true"] == want_true[out.observation.serving_cell]
        obs = out.observation


# ---------------------------------------------------------------- handover decisions

def reference_mro_policy(obs, time_to_trigger) -> int:
    counts = np.asarray(obs.exceed_count)
    # the usual step: no neighbor qualifies, decided on Python ints
    if not any(count > time_to_trigger for count in counts.ravel().tolist()):
        return STAY
    qualifying = np.flatnonzero(counts > time_to_trigger)
    rsrp = np.asarray(obs.rsrp_neighbors, dtype=float)
    slot = qualifying[np.argmax(rsrp[qualifying])]
    return int(obs.neighbor_cells[slot]) + 1


def reference_greedy_ho_act(obs) -> int:
    best = int(np.argmax(obs.rsrp_neighbors))
    if obs.rsrp_neighbors[best] > obs.rsrp_serving:
        return int(obs.neighbor_cells[best]) + 1
    return 0


class ReferenceHandoverEnv(HandoverEnv):
    """The env with numpy observations and a second stream read per step;
    only the neighbor arrays are built here instead of in the constructor."""

    def _obs(self, t: int) -> MroObservation:
        meas = self._rsrp.at(t)[self.n_cells:]
        levels = meas.tolist()
        serving = self._serving
        serving_level = levels[serving]
        # Consecutive-exceed bookkeeping against the serving cell, hysteresis
        # applied to the noisy measurements; reset on non-exceed.
        counts = self._counts
        for c, level in enumerate(levels):
            if c != serving and level - self.hysteresis > serving_level:
                counts[c] += 1
            else:
                counts[c] = 0
        nb = np.delete(np.arange(self.n_cells), serving)
        return MroObservation(serving_level, meas[nb], np.array(counts)[nb], serving, nb)

    def _step(self, action):
        action = int(action)
        if not (0 <= action <= self.n_cells):
            raise InvalidActionError(f"action {action} outside [0, {self.n_cells}]")
        true_now = self._rsrp.at(self.t)[: self.n_cells].tolist()
        pingpong = too_early = too_late = 0
        if action == 0:
            if true_now[self._serving] < self.rlf_threshold and any(
                level >= self.rlf_threshold
                for c, level in enumerate(true_now) if c != self._serving
            ):
                too_late = 1
        else:
            target = action - 1
            if target == self._serving:
                raise InvalidActionError(f"handover to current serving cell {target}")
            if true_now[target] < self.rlf_threshold:
                too_early = 1
            if self._pp_armed and self._last_ho_t is not None and (
                self.t - self._last_ho_t <= self.pingpong_window
            ):
                pingpong = 1
                self._pp_armed = False
            else:
                self._pp_armed = True
            self._last_ho_t = self.t
            self._serving = target
            self._counts = [0] * self.n_cells
        reward = -float(pingpong + too_early + too_late)
        diagnostics = {
            "pingpong": float(pingpong),
            "too_early": float(too_early),
            "too_late": float(too_late),
            "serving": float(self._serving),
            "rsrp_serving_true": float(true_now[self._serving]),
        }
        return StepOutcome(self._obs(self.t + 1), reward, diagnostics)


HO_POLICIES = {
    "mro-ttt1": (MroAgent(time_to_trigger=1).act, lambda obs: reference_mro_policy(obs, 1)),
    "mro-ttt3": (MroAgent(time_to_trigger=3).act, lambda obs: reference_mro_policy(obs, 3)),
    "greedy-ho": (GreedyHoAgent().act, reference_greedy_ho_act),
}
# past the first 1024-step stream block
HO_STEPS = 1100


@pytest.mark.parametrize("policy", sorted(HO_POLICIES))
@pytest.mark.parametrize("hysteresis", [0.0, 3.0])
@pytest.mark.parametrize("model", ["period-40", "trace-300"])
@pytest.mark.parametrize("n_cells", [2, 3, 5, 8])
def test_handover_episode_matches_numpy_reference_bits(n_cells, model, hysteresis, policy):
    act, reference_act = HO_POLICIES[policy]
    kwargs = dict(n_cells=n_cells, model=HO_MODELS[model](n_cells), hysteresis=hysteresis)
    env, ref = HandoverEnv(**kwargs), ReferenceHandoverEnv(**kwargs)
    obs, want = env.reset(5), ref.reset(5)
    handovers = 0
    for _ in range(HO_STEPS):
        assert (obs.rsrp_serving, obs.serving_cell) == (want.rsrp_serving, want.serving_cell)
        assert np.array(obs.rsrp_neighbors, dtype=float).tobytes() == want.rsrp_neighbors.tobytes()
        assert list(obs.exceed_count) == want.exceed_count.tolist()
        assert list(obs.neighbor_cells) == want.neighbor_cells.tolist()
        action = act(obs)
        assert action == reference_act(want)
        out, want_out = env.step(action), ref.step(action)
        assert list(out.diagnostics) == list(want_out.diagnostics)
        got_bits = np.array([out.reward, *out.diagnostics.values()]).tobytes()
        assert got_bits == np.array([want_out.reward, *want_out.diagnostics.values()]).tobytes()
        handovers += action != STAY
        obs, want = out.observation, want_out.observation
    assert handovers > 0


# RSRP values drawn from a short list, so that qualifying neighbors tie often
HO_RSRP = st.one_of(st.sampled_from([-80.0, -70.0, -60.0]), st.floats(-120.0, -40.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ttt=st.integers(1, 4), serving=HO_RSRP, order=st.permutations(range(8)),
       rows=st.lists(st.tuples(st.integers(0, 5), HO_RSRP), max_size=7))
@example(ttt=3, serving=-80.0, order=list(range(8)), rows=[])  # no neighbors
@example(ttt=3, serving=-80.0, order=list(range(8)),
         rows=[(3, -60.0), (0, -50.0), (2, -70.0)])  # every count at or below the TTT
@example(ttt=1, serving=-80.0, order=[3, 0, 1, 2, 4, 5, 6, 7],
         rows=[(2, -70.0), (5, -60.0), (4, -60.0)])  # qualifying neighbors tie
def test_mro_policy_matches_numpy_reference_on_tuples_and_arrays(ttt, serving, order, rows):
    counts = [count for count, _ in rows]
    rsrp = [level for _, level in rows]
    cells = order[: len(rows)]
    as_tuples = MroObservation(serving, tuple(rsrp), tuple(counts), 0, tuple(cells))
    as_arrays = MroObservation(serving, np.array(rsrp, dtype=float), np.array(counts, dtype=int),
                               0, np.array(cells, dtype=int))
    want = reference_mro_policy(as_arrays, ttt)
    assert mro_policy(as_tuples, ttt) == mro_policy(as_arrays, ttt) == want
    if all(count <= ttt for count in counts):
        assert want == STAY
    # the numpy greedy raised on no neighbors; it now stays, as MRO does
    want = reference_greedy_ho_act(as_arrays) if rows else STAY
    assert GreedyHoAgent().act(as_tuples) == GreedyHoAgent().act(as_arrays) == want


@pytest.mark.parametrize("arrival_rates", [None, [0.2, 0.3, 0.25, 0.4]],
                         ids=["full-buffer", "finite-buffer"])
@pytest.mark.parametrize("fading", ["exponential", "none"])
def test_scheduling_efficiency_table_matches_per_step_bits(fading, arrival_rates):
    env = SchedulingEnv(n_users=4, mean_efficiency=[0.5, 1.0, 1.5, 2.0], fading=fading,
                        arrival_rates=arrival_rates)
    obs = env.reset(3)
    backlogs = np.zeros(4)
    for t in range(TABLE_STEPS):
        want = reference_efficiency_at(env, t)
        assert obs["spectral_eff"].tobytes() == want.tobytes()
        assert env._efficiency_row(t).tobytes() == want.tobytes()
        user = t % 4
        out = env.step(user)
        if arrival_rates is None:
            assert out.diagnostics["achieved"] == want[user]
        else:
            backlogs += arrival_rates
            assert out.diagnostics["achieved"] == min(backlogs[user], want[user])
            backlogs[user] -= out.diagnostics["achieved"]
        obs = out.observation


# ---------------------------------------------------------------- scheduling episodes

def reference_pf_select(spectral_eff, avg_throughput) -> int:
    eff = np.asarray(spectral_eff, dtype=float)
    avg = np.asarray(avg_throughput, dtype=float)
    if eff.shape != avg.shape or eff.size == 0:
        raise ConfigError("need one spectral efficiency per user")
    return int(np.argmax(eff / avg))


def reference_max_rate_act(obs) -> int:
    return int(np.argmax(obs["spectral_eff"]))


class ReferenceSchedulingEnv(SchedulingEnv):
    """The env with the whole-array numpy utility, EWMA and diagnostics."""

    def _utility(self) -> float:
        return float((self.weights * np.log(self._avg + EWMA_FLOOR)).sum())

    def _obs(self, t: int) -> dict:
        # the next _step serves the row it observed, so it is looked up once
        self._eff = self._efficiency_row(t)
        return {
            "spectral_eff": self._eff,
            "avg_throughput": self._avg.copy(),
            "backlogs": None if self.full_buffer else self._backlogs.copy(),
        }

    def _step(self, action):
        user = int(action)
        if not (0 <= user < self.n_users):
            raise InvalidActionError(f"user {user} outside [0, {self.n_users})")
        eff = self._eff
        if self.full_buffer:
            achieved = float(eff[user])
        else:
            self._backlogs += self.arrival_rates
            achieved = float(min(self._backlogs[user], eff[user]))
            self._backlogs[user] -= achieved
        before = self._utility_now
        # the unserved users' EWMA terms add alpha * 0.0, which changes no bit
        avg = (1 - self.ewma_alpha) * self._avg
        avg[user] += self.ewma_alpha * achieved
        self._avg = np.maximum(avg, EWMA_FLOOR)
        self._utility_now = self._utility()
        reward = self._utility_now - before
        diagnostics = {"served_user": float(user), "achieved": achieved}
        diagnostics.update(dict.fromkeys(self._thr_keys, 0.0))
        diagnostics[self._thr_keys[user]] = achieved
        return StepOutcome(self._obs(self.t + 1), reward, diagnostics)


SC_AGENTS = {
    "pf": (PfAgent, lambda obs: reference_pf_select(obs["spectral_eff"], obs["avg_throughput"])),
    "round-robin": (RoundRobinAgent, None),
    "max-rate": (MaxRateAgent, reference_max_rate_act),
}
SC_SETTINGS = {
    "full-buffer": {},
    "arrivals": {"arrival_rates": "arrivals"},
    "weights": {"weights": "weights"},
    "no-fading": {"fading": "none", "mean_efficiency": "means"},
    "alpha-1": {"ewma_alpha": 1.0, "arrival_rates": "arrivals"},
}


def scheduling_kwargs(setting: str, n_users: int) -> dict:
    rng = np.random.default_rng(n_users)
    arrays = {"arrivals": rng.uniform(0.05, 0.6, n_users).tolist(),
              "weights": rng.uniform(0.2, 3.0, n_users).tolist(),
              "means": rng.uniform(0.3, 2.5, n_users).tolist()}
    return {key: arrays.get(value, value) for key, value in SC_SETTINGS[setting].items()}


# 1,100 steps cross the first 1024-step stream block; 2, 3 and 7 users sum
# below numpy's 8-entry pairwise switch, 8, 9 and 16 at or above it
@pytest.mark.parametrize("agent", sorted(SC_AGENTS))
@pytest.mark.parametrize("setting", sorted(SC_SETTINGS))
@pytest.mark.parametrize("n_users", [2, 3, 7, 8, 9, 16])
def test_scheduling_episode_matches_numpy_reference_bits(n_users, setting, agent):
    make_agent, reference_act = SC_AGENTS[agent]
    kwargs = dict(n_users=n_users, **scheduling_kwargs(setting, n_users))
    env, ref = SchedulingEnv(**kwargs), ReferenceSchedulingEnv(**kwargs)
    policy, ref_policy = make_agent(), make_agent()
    for p in (policy, ref_policy):
        if hasattr(p, "reset"):
            p.reset(5)
    obs, want = env.reset(5), ref.reset(5)
    served = set()
    for _ in range(HO_STEPS):
        assert list(obs) == list(want)
        for key in ("spectral_eff", "avg_throughput"):
            assert obs[key].tobytes() == want[key].tobytes()
        if want["backlogs"] is None:
            assert obs["backlogs"] is None
        else:
            assert obs["backlogs"].tobytes() == want["backlogs"].tobytes()
        action = policy.act(obs)
        want_action = ref_policy.act(want) if reference_act is None else reference_act(want)
        assert type(action) is int and action == want_action
        out, want_out = env.step(action), ref.step(action)
        assert list(out.diagnostics) == list(want_out.diagnostics)
        got_bits = np.array([out.reward, *out.diagnostics.values()]).tobytes()
        assert got_bits == np.array([want_out.reward, *want_out.diagnostics.values()]).tobytes()
        served.add(action)
        obs, want = out.observation, want_out.observation
    assert env._utility_now == ref._utility_now
    # max-rate on unfaded rows serves the best-mean user every step
    assert len(served) > 1 or (agent, setting) == ("max-rate", "no-fading")


@pytest.mark.parametrize("coherence", [1, 7, 50, 1500])
def test_power_gain_cache_matches_per_step_bits(coherence):
    env = PowerEnv(n_channels=4, coherence=coherence, mean_gain=1.3)
    obs = env.reset(3)
    for t in range(TABLE_STEPS):
        want = reference_gains_at(env, t)
        assert obs["gains"].tobytes() == want.tobytes()
        out = env.step(np.full(4, 1.0))
        assert out.reward == float(np.sum(np.log2(1.0 + 1.0 * want / env.noise)))
        obs = out.observation


def test_power_fixed_gains_match_per_step_bits():
    env = PowerEnv(n_channels=3, fixed_gains=[0.5, 0.0, 2.0])
    obs = env.reset(3)
    for t in range(50):
        want = reference_gains_at(env, t)
        assert obs["gains"].tobytes() == want.tobytes()
        obs = env.step(np.full(3, 1.0)).observation


# ---------------------------------------------------------------- GP surrogate

# GpSurrogate's kernel, factorization and posterior, called with the
# surrogate as self: each call rebuilds the window's arrays, its Gram
# matrix and the cross-kernel from self.points.
def reference_kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    d = (a[:, :, None] - b[:, None, :]) / self.length_scales[:, None, None]
    return self.signal_var * np.exp(-0.5 * np.sum(d * d, axis=0))


def reference_factorize(self):
    xs = np.array([p[0] for p in self.points])
    ys = np.array([p[1] for p in self.points])
    noise = np.array([p[2] for p in self.points])
    gram = reference_kernel(self, xs, xs) + np.diag(noise**2) + GP_JITTER * np.eye(len(xs))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise GpNumericalError(
            f"Gram matrix singular after jitter {GP_JITTER}"
        ) from exc
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, ys - self.prior_mean))
    return xs, chol, alpha


def reference_means(self, points: np.ndarray):
    if not self.points:
        return np.full(len(points), float(self.prior_mean)), None
    xs, _, alpha = reference_factorize(self)
    k_star = reference_kernel(self, xs, points)
    return self.prior_mean + alpha @ k_star, k_star


def reference_posterior(self, query):
    points = np.asarray(query, dtype=float)
    if points.shape[1:] != (self.n_dims,):
        raise ConfigError(f"query points {points.shape} != (m, {self.n_dims})")
    means, k_star = reference_means(self, points)
    if k_star is None:
        return means, np.full(len(points), float(self.signal_var))
    v = np.linalg.solve(reference_factorize(self)[1], k_star)
    return means, np.maximum(self.signal_var - np.einsum("ij,ij->j", v, v), 0.0)


def assert_gp_matches_reference(gp, queries):
    if gp.points:
        got, want = gp._factorize(), reference_factorize(gp)  # (xs, chol, alpha)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for query in queries:
        got, want = gp.posterior(query), reference_posterior(gp, query)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        got_means = gp._means(np.asarray(query))[0]
        assert got_means.tobytes() == reference_means(gp, np.asarray(query))[0].tobytes()


# More dimensions than 7 make a 1 x 1 kernel sum its coordinates in another
# order than a larger kernel does, so 9 checks one-row batches there.
@pytest.mark.parametrize("n_dims", [1, 2, 3, 9])
@pytest.mark.parametrize("window", [1, 2, 5, 64, None], ids=str)
def test_gp_kept_kernel_entries_match_rebuild_bits(window, n_dims):
    rng = np.random.default_rng(100 * n_dims + (window or 0))
    gp = GpSurrogate(length_scales=rng.uniform(0.5, 2.0, n_dims), signal_var=1.7,
                     prior_mean=-0.4, max_points=window)
    lattice = rng.uniform(0.0, 4.0, size=(30, n_dims))  # queried at every step, as bo_tune's
    assert_gp_matches_reference(gp, [lattice, lattice[:1]])
    for step in range(45):
        # as the beam tracker's, queried before and after the step's adds
        beams = rng.uniform(0.0, 4.0, size=(6, n_dims))
        queries = [lattice, beams, beams[step % 6:][:1], lattice.copy(), beams[:1]]
        assert_gp_matches_reference(gp, queries)
        adds = 1 + step % 4  # budgets 1 to 4
        if step == 20:  # more adds than the window holds between two factorizations
            adds += (window or 10) + 3
        for _ in range(adds):
            gp.add(rng.uniform(0.0, 4.0, n_dims), rng.normal(), (1e-3, 0.05)[step % 2])
        assert_gp_matches_reference(gp, queries)


def test_gp_keeps_its_own_copy_of_each_point():
    gp = GpSurrogate(length_scales=[1.0, 2.0], max_points=3)
    x = np.array([0.5, 1.0])
    gp.add(x, 1.0, 0.1)
    x[:] = 3.0  # the caller reuses its array
    gp.add(x, 2.0, 0.1)
    assert [p[0].tolist() for p in gp.points] == [[0.5, 1.0], [3.0, 3.0]]
    assert gp._factorize()[1].tobytes() == reference_factorize(gp)[1].tobytes()


# ---------------------------------------------------------------- MPC

def reference_merge_rows(rows: np.ndarray):
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def reference_expand_level(expand, rows, exo, block: int, merge: bool):
    parents, rewards, children, distinct, n_distinct = [], [], [], [], 0
    for i in range(0, max(len(rows), 1), block):
        parent, reward, child_rows = expand(rows[i:i + block], exo)
        parents.append(parent + i)
        rewards.append(reward)
        if merge:
            unique, index = reference_merge_rows(child_rows)
            children.append(index + n_distinct)
            distinct.append(unique)
            n_distinct += len(unique)
    parent, reward = np.concatenate(parents), np.concatenate(rewards)
    if not merge:
        return parent, reward, None, None
    next_rows, index = reference_merge_rows(np.concatenate(distinct))
    return parent, reward, index[np.concatenate(children)], next_rows


def reference_mpc_deterministic(model, state, exo_trajectory, discount: float, node_budget: int):
    """The planner with every level merged twice and every edge kept until
    the backward pass; returns the first action and the root's edge values."""
    if model.expand is None:
        expand, rows = _per_state_expansion(model, state)
    else:
        expand, rows = model.expand, np.asarray(state, dtype=float)[None, :]
    block = max(1, planning.MPC_BLOCK_EDGES // max(1, len(model.actions(state))))
    levels, counted = [], 0
    for k, exo in enumerate(exo_trajectory):
        if k:
            counted += len(rows)
            if counted > node_budget:
                raise ConfigError(
                    f"lookahead exceeded the node budget {node_budget}; "
                    "reduce the horizon"
                )
        merge = k + 1 < len(exo_trajectory)
        parent, rewards, child, next_rows = reference_expand_level(expand, rows, exo, block, merge)
        levels.append((len(rows), parent, rewards, child))
        rows = next_rows

    value = 0.0
    for n_states, parent, rewards, child in reversed(levels):
        q = rewards + discount * (value if child is None else value[child])
        value = np.full(n_states, -np.inf)
        np.fmax.at(value, parent, q)
    best_a, best_v = None, -np.inf
    for a, v in zip(model.actions(state), q.tolist()):
        if v > best_v:
            best_a, best_v = a, v
    return best_a, q


class RootValues:
    """Stands in for np.fmax and keeps the values of its last `at` call:
    in the planner's backward pass, the root's edge values."""

    def __init__(self, fmax):
        self.fmax, self.q = fmax, None

    def at(self, value, index, q):
        self.q = np.array(q)
        self.fmax.at(value, index, q)


def step_model(seed: int) -> DeterministicModel:
    """A `step`-only model on six integer states with one to three actions
    each, tied and signed-zero rewards, a NaN one, and moves that depend on
    the forecast."""
    rng = np.random.default_rng(seed)
    moves = rng.integers(6, size=(6, 3, 3))
    rewards = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan], size=(6, 3),
                         p=[0.25, 0.15, 0.15, 0.2, 0.2, 0.05])
    return DeterministicModel(actions=lambda s: range(1 + s % 3),
                              step=lambda s, a, exo: (int(moves[s, a, exo]), float(rewards[s, a])))


ES_CAPACITY, ES_POWER = [0.3, 0.9, 1.7, 0.55], [0.1, 0.35, 0.9, 0.2]
ES_STATES = [(-1, -1, -1, -1, 0.0), (0, 2, -1, 1, 1.25), (0, 0, 0, 0, 4.0), (-1, 1, 0, -1, 1.5)]


@pytest.mark.parametrize("discount", [1.0, 0.9, float("nan")])
@pytest.mark.parametrize("block_edges", [planning.MPC_BLOCK_EDGES, 40, 1])
def test_mpc_plan_matches_reference_bits(monkeypatch, block_edges, discount):
    # 40 edges: the energy plans expand two states at a time; 1: every
    # plan expands one state at a time
    monkeypatch.setattr(planning, "MPC_BLOCK_EDGES", block_edges)
    root = RootValues(np.fmax)
    monkeypatch.setattr(np, "fmax", root)
    env = make_env({"env": "energy_saving", "capacity": ES_CAPACITY, "power_draw": ES_POWER,
                    "qos_threshold": 1.5})
    energy = MpcEnergyAgent(env, None, horizon=1).model
    traj = [1.5, 2.5, 0.5, 3.0]
    cases = [(energy, state, traj) for state in ES_STATES]
    cases += [(step_model(seed), state, [seed % 3, 2, 0, 1]) for seed in range(8)
              for state in range(6)]
    for h in range(1, 5):
        for model, state, exo in cases:
            want_a, want_q = reference_mpc_deterministic(model, state, exo[:h], discount,
                                                         planning.MPC_NODE_BUDGET)
            root.q = None
            assert mpc_plan(model, state, h, exo_trajectory=exo[:h], discount=discount) == want_a
            assert root.q.tobytes() == want_q.tobytes()
