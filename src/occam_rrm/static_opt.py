"""Closed-form and convex short-term optimizers for the model-known branch:
water-filling power allocation and MMSE downlink precoding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import as_real
from .envs.types import ChannelMatrix
from .errors import ConfigError, NumericalError

WATER_FILL_TOL = 1e-10
_POWER_TOL = 1e-9


@dataclass
class PowerAllocation:
    """Per-channel transmit powers plus the water level that produced them.
    Active channels satisfy powers[i] + noise/gains[i] == water_level."""

    powers: np.ndarray
    water_level: float

    def __post_init__(self):
        self.powers = np.asarray(self.powers, dtype=float)
        self.water_level = float(self.water_level)


@dataclass
class Precoder:
    """Downlink precoding matrix, one column per user."""

    matrix: np.ndarray
    power_budget: float

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.power_budget = float(self.power_budget)
        used = float(np.sum(np.abs(self.matrix) ** 2))
        if used > self.power_budget * (1 + _POWER_TOL):
            raise ConfigError(
                f"precoder uses power {used!r} above budget {self.power_budget!r}"
            )


def water_fill(gains, noise: float, total_power: float) -> PowerAllocation:
    """Allocate total_power across parallel channels maximizing
    sum log2(1 + p_i g_i / noise).

    The water level is found by bisection until the power budget is met
    within 1e-10. Zero-gain channels receive zero power; channels whose
    inverse effective gain sits above the water level stay off (KKT).
    """
    gains = np.asarray(gains, dtype=float)
    total_power = as_real(total_power, "total_power", gt=0)
    noise = as_real(noise, "noise", gt=0)
    # written so that NaN fails the test
    if not ((gains >= 0) & (gains < math.inf)).all():
        raise ConfigError("gains must be finite and nonnegative")
    active = gains > 0
    if not active.any():
        raise ConfigError("all channel gains are zero; nothing to allocate")
    floors = noise / gains[active]

    def allocated(level: float) -> np.ndarray:
        return np.maximum(0.0, level - floors)

    if len(floors) < 8:
        # numpy sums fewer than 8 entries left to right, so this loop on
        # Python floats gives the same bits, faster. Not sum(): from Python
        # 3.12 it compensates, which rounds differently.
        floor_list = floors.tolist()

        def allocated_sum(level: float) -> float:
            total = 0.0
            for f in floor_list:
                d = level - f
                total += 0.0 if d < 0.0 else d  # keeps NaN, as np.maximum does
            return total
    else:
        def allocated_sum(level: float) -> float:
            return allocated(level).sum()

    lo = float(floors.min())
    hi = float(floors.max() + total_power)
    # allocated() sums to 0 at lo and >= total_power at hi; bisect the level.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        excess = allocated_sum(mid) - total_power
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


def rzf_precoder(H: ChannelMatrix, power_budget: float, loading: float | None = None) -> Precoder:
    """Regularized zero-forcing: W proportional to H^H (H H^H + loading I)^-1,
    scaled so the budget is met with equality. Default loading is
    n_users * noise / power_budget."""
    power_budget = as_real(power_budget, "power_budget", gt=0)
    E = H.entries
    if not np.any(E):
        raise ConfigError("channel matrix is zero")
    if loading is None:
        loading = H.n_users * H.noise_power / power_budget
    gram = E @ E.conj().T + loading * np.eye(H.n_users)
    try:
        W = E.conj().T @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:  # cannot occur for loading > 0
        raise NumericalError(f"singular regularized Gram matrix: {exc}") from exc
    norm = np.linalg.norm(W)
    if norm == 0:
        raise NumericalError("regularized inverse produced a zero precoder")
    return Precoder(matrix=W * (np.sqrt(power_budget) / norm), power_budget=power_budget)


def sum_rate(H: ChannelMatrix, W: Precoder) -> float:
    """Downlink sum rate sum_u log2(1 + SINR_u) with
    SINR_u = |h_u^H w_u|^2 / (sum_{v != u} |h_u^H w_v|^2 + noise)."""
    M = W.matrix
    if M.shape != (H.n_tx, H.n_users):
        raise ConfigError(
            f"precoder shape {M.shape} does not match channel "
            f"(n_tx={H.n_tx}, n_users={H.n_users})"
        )
    return _sum_rate_raw(H.entries, M, H.noise_power)


def _sum_rate_raw(E: np.ndarray, M: np.ndarray, noise: float) -> float:
    G = E @ M
    signal = np.abs(np.diag(G)) ** 2
    total = np.sum(np.abs(G) ** 2, axis=1)
    return float(np.sum(np.log2(1.0 + signal / (total - signal + noise))))


def _wmmse_refine(E, noise, budget, W, iters, tol):
    """One WMMSE descent: alternate MMSE receivers, MSE weights and the
    regularized transmit update, with the power multiplier found by Newton.
    Monotone in sum rate; returns the refined precoder and its rate."""
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

        if c.size < 8:
            # As in water_fill: numpy sums fewer than 8 entries left to right,
            # so this loop on Python floats, in C order, gives the same bits.
            rows = list(zip(lam.tolist(), c.tolist()))

            def power(mu):
                mu = float(mu)
                total = 0.0
                for lam_i, row in rows:
                    d = lam_i + mu
                    sq = d * d
                    for c_ij in row:
                        if c_ij > 0.0:  # numpy's where adds 0.0 for the rest
                            total += c_ij / sq if sq else math.inf  # numpy's c / 0
                return total
        else:
            def power(mu):  # called under the errstate below: lam + mu may be 0
                terms = c / (lam[:, None] + mu) ** 2
                return float(np.where(c > 0, terms, 0.0).sum())

        with np.errstate(divide="ignore", invalid="ignore"):
            if lam.min() > 0 and power(0.0) <= budget:
                mu = 0.0
            else:
                # power(mu) decreases in mu and power(mu)**-0.5 is near-linear,
                # so a bracketed secant on that transform converges in a few steps.
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


def mmse_precoder(
    H: ChannelMatrix,
    power_budget: float,
    iters: int = 200,
    tol: float = 1e-10,
    n_random_starts: int = 2,
    seed: int = 0,
) -> Precoder:
    """Sum-rate-maximizing linear precoder under a total power budget.

    Computed through the MMSE fixed point: alternating MMSE receive scalars,
    MSE weights and a regularized MMSE transmit update, which monotonically
    increases the sum rate. A single closed-form RZF step is not the argmax
    (common scaling cannot shift power between users), so the iteration is
    run from several starts (RZF, matched filter, each single-user beam,
    and seeded random draws) and the best fixed point is kept. Deterministic
    given the seed.
    """
    power_budget = as_real(power_budget, "power_budget", gt=0)
    E = H.entries
    if not np.any(E):
        raise ConfigError("channel matrix is zero")
    noise = H.noise_power
    n_users, n_tx = H.n_users, H.n_tx
    root = np.sqrt(power_budget)

    starts = [rzf_precoder(H, power_budget).matrix]
    mf = E.conj().T.copy()
    starts.append(mf * (root / np.linalg.norm(mf)))
    for uix in range(n_users):
        W = np.zeros((n_tx, n_users), dtype=complex)
        h = E[uix].conj()
        hn = np.linalg.norm(h)
        if hn > 0:
            W[:, uix] = h / hn * root
            starts.append(W)
    rng = np.random.default_rng(seed)
    for _ in range(n_random_starts):
        W = rng.standard_normal((n_tx, n_users)) + 1j * rng.standard_normal((n_tx, n_users))
        starts.append(W * (root / np.linalg.norm(W)))

    best_rate, best_W = -np.inf, None
    for W0 in starts:
        W, rate = _wmmse_refine(E, noise, power_budget, W0, iters, tol)
        if rate > best_rate:
            best_rate, best_W = rate, W
    if best_W is None:
        raise NumericalError("MMSE refinement produced no candidate")
    return Precoder(matrix=best_W, power_budget=power_budget)
