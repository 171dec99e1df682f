import math

import numpy as np
import pytest

from occam_rrm.envs import ChannelMatrix
from occam_rrm.errors import ConfigError
from occam_rrm.static_opt import (
    Precoder,
    mmse_precoder,
    rzf_precoder,
    sum_rate,
    water_fill,
)


def wf_objective(powers, gains, noise):
    return float(np.sum(np.log2(1 + np.asarray(powers) * np.asarray(gains) / noise)))


# ---------------------------------------------------------------- water_fill


def test_single_channel_gets_everything():
    alloc = water_fill([0.3], noise=1.0, total_power=2.0)
    assert alloc.powers[0] == pytest.approx(2.0, abs=1e-9)


def test_equal_gains_split_evenly():
    alloc = water_fill([0.7] * 4, noise=1.0, total_power=2.0)
    assert np.allclose(alloc.powers, 0.5, atol=1e-9)


def test_two_channel_grid_search_oracle():
    # Oracle: 10^4 + 1 point sweep of the budget split between the channels.
    gains, noise, total = np.array([1.0, 0.1]), 1.0, 1.0
    p0 = np.linspace(0.0, total, 10001)
    objs = np.log2(1 + p0 * gains[0] / noise) + np.log2(1 + (total - p0) * gains[1] / noise)
    best = float(objs.max())
    alloc = water_fill(gains, noise, total)
    assert wf_objective(alloc.powers, gains, noise) >= best - 1e-3
    assert alloc.powers.sum() == pytest.approx(total, abs=1e-9)


def test_kkt_invariants_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(1, 9)
        gains = rng.uniform(0.01, 5.0, n)
        noise = rng.uniform(0.1, 2.0)
        total = rng.uniform(0.1, 10.0)
        alloc = water_fill(gains, noise, total)
        assert alloc.powers.sum() == pytest.approx(total, abs=1e-9)
        assert np.all(alloc.powers >= 0)
        on = alloc.powers > 0
        # Active channels sit at the water level, inactive ones above it.
        assert np.allclose(
            alloc.powers[on] + noise / gains[on], alloc.water_level, atol=1e-9
        )
        assert np.all(noise / gains[~on] >= alloc.water_level - 1e-9)


def test_monotone_in_budget():
    rng = np.random.default_rng(7)
    gains = rng.uniform(0.05, 3.0, 6)
    prev = np.zeros(6)
    for total in [0.5, 1.0, 2.0, 4.0, 8.0]:
        powers = water_fill(gains, 1.0, total).powers
        assert np.all(powers >= prev - 1e-9)
        prev = powers


def test_zero_gain_channels_dropped():
    alloc = water_fill([1.0, 0.0, 2.0], noise=1.0, total_power=3.0)
    assert alloc.powers[1] == 0.0
    assert alloc.powers.sum() == pytest.approx(3.0, abs=1e-9)


def test_water_fill_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        water_fill([1.0], 1.0, 0.0)
    with pytest.raises(ConfigError):
        water_fill([0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ConfigError):
        water_fill([-1.0, 1.0], 1.0, 1.0)
    nan, inf = float("nan"), float("inf")
    for gains, noise, total_power in [
        ([1.0, 2.0], nan, 1.0),
        ([1.0, 2.0], 1.0, nan),
        ([1.0, 2.0], inf, 1.0),
        ([1.0, 2.0], 1.0, inf),
        ([1.0, nan], 1.0, 1.0),
        ([1.0, inf], 1.0, 1.0),
        ([1.0, -inf], 1.0, 1.0),
        ([0.5] * 9 + [nan], 1.0, 1.0),
    ]:
        with pytest.raises(ConfigError):
            water_fill(gains, noise, total_power)


# ---------------------------------------------------------------- sum_rate


def sum_rate_scalar_oracle(H: ChannelMatrix, W: Precoder) -> float:
    # Independent per-term recomputation with explicit scalar loops.
    total = 0.0
    for u in range(H.n_users):
        h_row = H.entries[u]
        own = abs(np.dot(h_row, W.matrix[:, u])) ** 2
        interf = 0.0
        for v in range(H.n_users):
            if v != u:
                interf += abs(np.dot(h_row, W.matrix[:, v])) ** 2
        total += math.log2(1 + own / (interf + H.noise_power))
    return total


def _random_channel(rng, n_users=2, n_tx=2, noise=1.0):
    E = (rng.standard_normal((n_users, n_tx)) + 1j * rng.standard_normal((n_users, n_tx))) / np.sqrt(2)
    return ChannelMatrix(entries=E, noise_power=noise)


def test_zero_precoder_zero_rate():
    H = _random_channel(np.random.default_rng(0))
    W = Precoder(matrix=np.zeros((2, 2), complex), power_budget=1.0)
    assert sum_rate(H, W) == 0.0


def test_orthogonal_users_unit_snr():
    H = ChannelMatrix(entries=np.eye(3), noise_power=1.0)
    W = Precoder(matrix=np.eye(3), power_budget=3.0)
    assert sum_rate(H, W) == pytest.approx(3.0, abs=1e-12)


def test_sum_rate_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        H = _random_channel(rng, n_users=3, n_tx=4, noise=float(rng.uniform(0.1, 2)))
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        W = Precoder(matrix=M, power_budget=float(np.sum(np.abs(M) ** 2)) + 1e-6)
        assert sum_rate(H, W) == pytest.approx(sum_rate_scalar_oracle(H, W), abs=1e-12)


def test_sum_rate_dimension_mismatch():
    H = _random_channel(np.random.default_rng(1))
    W = Precoder(matrix=np.zeros((3, 2), complex), power_budget=1.0)
    with pytest.raises(ConfigError):
        sum_rate(H, W)


# ---------------------------------------------------------------- precoders


def test_precoder_budget_enforced():
    with pytest.raises(ConfigError):
        Precoder(matrix=np.ones((2, 2), complex), power_budget=1.0)


def test_matched_filter_limit():
    H = ChannelMatrix(entries=np.array([[1.0 + 0j]]), noise_power=1.0)
    W = mmse_precoder(H, power_budget=4.0)
    assert abs(W.matrix[0, 0]) == pytest.approx(2.0, abs=1e-9)


def test_identity_channel_low_noise_is_scaled_identity():
    H = ChannelMatrix(entries=np.eye(2), noise_power=1e-6)
    W = mmse_precoder(H, power_budget=2.0)
    off = np.abs(W.matrix[0, 1]) + np.abs(W.matrix[1, 0])
    assert off < 1e-3
    assert np.abs(W.matrix[0, 0]) == pytest.approx(1.0, abs=1e-3)


def test_mmse_improves_on_closed_form_rzf():
    rng = np.random.default_rng(3)
    for _ in range(10):
        H = _random_channel(rng)
        budget = 10.0
        r_rzf = sum_rate(H, rzf_precoder(H, budget))
        r_mmse = sum_rate(H, mmse_precoder(H, budget))
        assert r_mmse >= r_rzf - 1e-9


def test_mmse_budget_met_with_equality():
    H = _random_channel(np.random.default_rng(9))
    W = mmse_precoder(H, power_budget=5.0)
    assert float(np.sum(np.abs(W.matrix) ** 2)) == pytest.approx(5.0, rel=1e-9)


def test_mmse_dominates_random_precoders_sample():
    # Smaller copy of the acceptance check: 10 instances, 10^4 probes each.
    rng = np.random.default_rng(2024)
    budget = 10.0
    for _ in range(10):
        H = _random_channel(rng)
        base = sum_rate(H, mmse_precoder(H, budget))
        probes = rng.standard_normal((10000, 2, 2)) + 1j * rng.standard_normal((10000, 2, 2))
        probes *= (np.sqrt(budget) / np.linalg.norm(probes, axis=(1, 2)))[:, None, None]
        G = np.einsum("ij,njk->nik", H.entries, probes)
        sig = np.abs(np.einsum("nii->ni", G)) ** 2
        tot = np.sum(np.abs(G) ** 2, axis=2)
        rates = np.sum(np.log2(1 + sig / (tot - sig + H.noise_power)), axis=1)
        assert base >= float(rates.max())


def test_phase_rotation_leaves_rate_unchanged():
    rng = np.random.default_rng(11)
    H = _random_channel(rng)
    budget = 4.0
    r1 = sum_rate(H, mmse_precoder(H, budget))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    H2 = ChannelMatrix(entries=phases[:, None] * H.entries, noise_power=H.noise_power)
    r2 = sum_rate(H2, mmse_precoder(H2, budget))
    assert r2 == pytest.approx(r1, abs=1e-6)
