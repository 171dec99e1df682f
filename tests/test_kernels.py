"""The known-model kernels against their plain forms: water_fill's bisection
on Python floats against the numpy one, and value_iteration's warm start
against the plain Bellman loop. Each reference below is the earlier kernel,
kept verbatim; the fast kernels must give the same bits or the same policy."""

import time

import numpy as np
import pytest
from test_acceptance import QL_ADMISSION, TRUNK_AC
from test_experiments import GOLDEN_TABULAR

from occam_rrm import planning
from occam_rrm.core import TabularMdp
from occam_rrm.envs import make_env
from occam_rrm.errors import ConfigError
from occam_rrm.planning import ValueTable, _q_from_values, value_iteration
from occam_rrm.static_opt import WATER_FILL_TOL, PowerAllocation, water_fill


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
