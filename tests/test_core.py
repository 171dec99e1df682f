import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occam_rrm
from occam_rrm import (
    ConfigError,
    EpisodeLog,
    InvalidActionError,
    MissingDiagnosticError,
    StepOutcome,
    TabularMdp,
    discounted_return,
    metrics_summary,
    run_episode,
)
from occam_rrm import bandits, core, envs, planning
from occam_rrm.core import metric_columns
from occam_rrm.envs import ENVS
from occam_rrm.envs.beamforming import SERVE_BEST, BeamAction
from occam_rrm.errors import NumericalError


PACKAGE_ALL = [
    "DEFAULT_DISCOUNT", "ConfigError", "EpisodeLog", "GpNumericalError", "InvalidActionError",
    "MetricsRecord", "MissingDiagnosticError", "NotTractableError", "OccamRrmError",
    "PlotDataError", "StepOutcome", "TabularMdp", "discounted_return", "metrics_summary",
    "run_episode", "__version__",
]


def test_package_surface_is_pinned():
    assert occam_rrm.__all__ == PACKAGE_ALL
    for name in PACKAGE_ALL:
        assert hasattr(occam_rrm, name), name
    # a replay is run_episode with a callable over the logged actions
    for module, name in [(occam_rrm, "ScriptedPolicy"), (occam_rrm, "replay_episode"),
                         (core, "ScriptedPolicy"), (core, "replay_episode"),
                         (planning, "bellman_residual"), (bandits, "illa_select"),
                         # one way in: TabularEnv takes the tables, envs give
                         # true_mdp() themselves, bo_tune scores candidates
                         (envs, "tabular_env"), (envs, "env_true_mdp"),
                         (bandits, "ucb_acquire")]:
        assert not hasattr(module, name), (module.__name__, name)
    # only add writes a GP window
    assert "points" not in {f.name for f in dataclasses.fields(bandits.GpSurrogate)}
    with pytest.raises(AttributeError):
        bandits.GpSurrogate([1.0]).points = []
    # the envs' tables are read through their observations
    for cls in ENVS.values():
        for name in ("gains_at", "efficiency_at", "true_rsrp_at", "measured_rsrp_at",
                     "rsrp_trace"):
            assert not hasattr(cls, name), (cls.__name__, name)


class ConstantRewardEnv:
    """Single-state deterministic env paying reward 1 for any of 2 actions."""

    name = "constant"
    n_actions = 2

    def reset(self, seed):
        return 0

    def step(self, action):
        if action not in (0, 1):
            raise InvalidActionError(f"action {action} outside {{0, 1}}")
        return StepOutcome(observation=0, reward=1.0, diagnostics={"thr_0": 1.0})


# ---------------------------------------------------------------- discounted_return


def test_return_discount_zero_keeps_first_term():
    assert discounted_return([1, 1, 1], 0.0) == 1.0


def test_return_empty_is_zero():
    assert discounted_return([], 0.99) == 0.0


def test_return_geometric_closed_form():
    # Oracle: plain loop, compared against the closed form (1 - b^n) / (1 - b).
    n, b = 400, 0.99
    loop = 0.0
    for t in range(n):
        loop += b**t * 1.0
    closed = (1 - b**n) / (1 - b)
    got = discounted_return([1.0] * n, b)
    assert math.isclose(got, loop, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(got, closed, rel_tol=0, abs_tol=1e-9)


def test_return_rejects_discount_one():
    with pytest.raises(ConfigError):
        discounted_return([1.0], 1.0)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    st.integers(0, 29),
    st.floats(0, 0.999),
    st.floats(1e-6, 50),
)
def test_return_monotone_in_each_reward(rewards, idx, discount, bump):
    idx = idx % len(rewards)
    bumped = list(rewards)
    bumped[idx] += bump
    assert discounted_return(bumped, discount) >= discounted_return(rewards, discount)


@given(st.lists(st.floats(0, 1000), min_size=1, max_size=50), st.floats(0, 0.999))
def test_return_bounded_for_nonnegative_rewards(rewards, discount):
    bound = max(rewards) / (1 - discount)
    assert discounted_return(rewards, discount) <= bound + 1e-9 * max(1.0, bound)


# ---------------------------------------------------------------- TabularMdp


def test_mdp_row_sum_validation():
    P = np.zeros((2, 1, 2))
    P[:, 0, 0] = 1.0
    TabularMdp(2, 1, P, np.zeros((2, 1)), 0.9)
    P[0, 0, 0] = 0.5
    with pytest.raises(ConfigError, match="sums to"):
        TabularMdp(2, 1, P, np.zeros((2, 1)), 0.9)


def test_mdp_discount_strictly_below_one():
    P = np.ones((1, 1, 1))
    with pytest.raises(ConfigError):
        TabularMdp(1, 1, P, np.zeros((1, 1)), 1.0)


def test_mdp_negative_probability_rejected():
    P = np.zeros((1, 2, 1))
    P[0, 0, 0] = 1.0
    P[0, 1, 0] = 1.0
    mdp = TabularMdp(1, 2, P, np.zeros((1, 2)), 0.5)
    assert mdp.n_actions == 2
    P2 = P.copy()
    P2[0, 1, 0] = -1.0
    with pytest.raises(ConfigError):
        TabularMdp(1, 2, P2, np.zeros((1, 2)), 0.5)


# ---------------------------------------------------------------- run_episode


def test_horizon_zero_rejected():
    with pytest.raises(ConfigError):
        run_episode(ConstantRewardEnv(), lambda obs: 0, horizon=0, seed=1)


def test_constant_env_all_rewards_one():
    log = run_episode(ConstantRewardEnv(), lambda obs: 0, horizon=25, seed=1)
    assert len(log.rewards) == 25
    assert np.all(log.rewards == 1.0)


def test_invalid_action_names_step_index():
    class BadAfter3:
        def __init__(self):
            self.t = 0

        def act(self, obs):
            self.t += 1
            return 7 if self.t > 3 else 0

    with pytest.raises(InvalidActionError, match="step 3"):
        run_episode(ConstantRewardEnv(), BadAfter3(), horizon=10, seed=1)


def test_policy_hooks_called():
    seen = []

    class Hooked:
        def reset(self, seed):
            seen.append(("reset", seed))

        def act(self, obs):
            return 0

    run_episode(ConstantRewardEnv(), Hooked(), horizon=2, seed=9)
    kinds = [k for k, _ in seen]
    assert kinds == ["reset"]


def test_a_plain_callable_gets_no_reset_and_a_non_callable_is_refused():
    def policy(obs):
        return 0

    policy.reset = lambda seed: pytest.fail("reset called on a plain callable")
    assert len(run_episode(ConstantRewardEnv(), policy, horizon=2, seed=0).rewards) == 2
    with pytest.raises(ConfigError, match="not a policy"):
        run_episode(ConstantRewardEnv(), 5, horizon=2, seed=0)


def test_log_holds_one_column_per_diagnostic():
    log = run_episode(ConstantRewardEnv(), lambda obs: 1, horizon=4, seed=0)
    assert log.actions == [1, 1, 1, 1]
    assert log.rewards.dtype == float and log.rewards.tolist() == [1.0] * 4
    assert list(log.diagnostics) == ["thr_0"]
    assert log.diagnostics["thr_0"].tolist() == [1.0] * 4


def test_changed_diagnostic_keys_name_the_step():
    class DropsKeyAt2(ConstantRewardEnv):
        def reset(self, seed):
            self.t = 0
            return 0

        def step(self, action):
            diagnostics = {"a": 1.0} if self.t == 2 else {"a": 1.0, "b": 2.0}
            self.t += 1
            return StepOutcome(observation=0, reward=0.0, diagnostics=diagnostics)

    with pytest.raises(MissingDiagnosticError, match=r"step 2: diagnostic keys \['a'\]"):
        run_episode(DropsKeyAt2(), lambda obs: 0, horizon=5, seed=0)


class NonFiniteAt(ConstantRewardEnv):
    """Steps whose reward is NaN from step `reward_t` on and whose diagnostic
    "d" is infinite from step `diagnostic_t` on."""

    def __init__(self, reward_t, diagnostic_t=10**9):
        self.reward_t, self.diagnostic_t = reward_t, diagnostic_t

    def reset(self, seed):
        self.t = 0
        return 0

    def step(self, action):
        t, self.t = self.t, self.t + 1
        reward = float("nan") if t >= self.reward_t else 1.0
        d = float("inf") if t >= self.diagnostic_t else 0.0
        return StepOutcome(observation=0, reward=reward, diagnostics={"d": d})


def test_nan_reward_names_its_step():
    with pytest.raises(NumericalError, match=r"^step 2: non-finite reward nan$"):
        run_episode(NonFiniteAt(2), lambda obs: 0, horizon=5, seed=0)


def test_a_bad_reward_is_reported_before_an_earlier_bad_diagnostic():
    with pytest.raises(NumericalError, match="non-finite reward"):
        run_episode(NonFiniteAt(3, diagnostic_t=1), lambda obs: 0, horizon=5, seed=0)


# ---------------------------------------------------------------- EpisodeLog CSV


def test_episode_csv_layout(tmp_path):
    log = EpisodeLog(
        actions=[1, np.array([0.25, 0.75])],
        rewards=np.array([0.5, -1.0]),
        diagnostics={"b": np.array([2.0, 0.1]), "a": np.array([1.0, 3.0])},
    )
    out = tmp_path / "ep.csv"
    log.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines == ["t,action,reward,a,b", "0,1,0.5,1.0,2.0", "1,0.25;0.75,-1.0,3.0,0.1"]


def _reference_format_action(action) -> str:
    # Verbatim copy of core._format_action before to_csv formatted each
    # distinct action object once.
    if isinstance(action, str):
        return action
    if isinstance(action, (list, tuple)):
        return ";".join(_reference_format_action(a) for a in action)
    if isinstance(action, np.ndarray):
        return ";".join(_reference_format_action(a) for a in action.ravel())
    if isinstance(action, (bool, np.bool_)):
        return str(int(action))
    if isinstance(action, (int, np.integer)):
        return str(int(action))
    return repr(float(action))


def _reference_to_csv(log, path) -> None:
    keys = sorted(log.diagnostics)
    columns = [log.rewards.tolist()] + [log.diagnostics[k].tolist() for k in keys]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "action", "reward"] + keys)
        writer.writerows(
            [t, _reference_format_action(action), *map(repr, values)]
            for t, (action, *values) in enumerate(zip(log.actions, *columns))
        )


POWERS = np.array([0.5, 1e-17, 2.0])
SUBSET = (0, 2)
CSV_ACTIONS = {
    "mixed": [1, True, 1.0, POWERS, BeamAction(measure=(1, 3), serve=SERVE_BEST), (), POWERS,
              np.int64(7), np.bool_(False), SUBSET, -0.0, [2, (3, 4.5)], SUBSET, 300, 1],
    # strings pass through _format_action, so these cells need csv quoting
    "quoted": ["a,b", 'say "hi"', "x\ny", "x\r", " lead", "", ("p,q", 1), "a,b", 'say "hi"',
               SUBSET],
    "one-step": [POWERS],
}


@pytest.mark.parametrize("kind", sorted(CSV_ACTIONS))
def test_episode_csv_matches_the_reference_writer(tmp_path, kind):
    actions = CSV_ACTIONS[kind]
    n = len(actions)
    log = EpisodeLog(actions, np.linspace(-1.0, 1.0, n),
                     {"y": np.arange(n) / 3.0, "x": np.full(n, 0.1)})
    log.to_csv(tmp_path / "ep.csv")
    _reference_to_csv(log, tmp_path / "reference.csv")
    assert (tmp_path / "ep.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# ---------------------------------------------------------------- metrics_summary


def _log(rewards, diags=None):
    columns = {k: np.array([d[k] for d in diags]) for k in diags[0]} if diags else {}
    return EpisodeLog([0] * len(rewards), np.array(rewards), columns)


def test_metrics_mean_reward():
    rec = metrics_summary([_log([2.0, 2.0])], kind="basic")
    assert rec.mean_reward == 2.0
    assert rec.discounted_return == pytest.approx(2.0 + 0.99 * 2.0)


def test_metrics_sum_log_throughput_two_users():
    e = math.e
    diags = [{"thr_0": e, "thr_1": e}] * 4
    rec = metrics_summary([_log([0.0] * 4, diags)], kind="scheduling")
    assert rec.sum_log_throughput == pytest.approx(2.0, abs=1e-12)


def test_metrics_never_served_user_is_named_not_minus_infinity():
    diags = [{"thr_0": 1.0, "thr_1": 0.0, "thr_2": 0.0}] * 3
    with pytest.raises(NumericalError, match=r"^thr_1 has mean throughput 0\.0, .*metrics: basic$"):
        metrics_summary([_log([0.0] * 3, diags)], kind="scheduling")


def test_metrics_beam_accuracy():
    diags = [
        {"served_beam": float(i % 3), "optimal_beam": 0.0} for i in range(10)
    ]
    # served == optimal on steps where i % 3 == 0: i in {0,3,6,9} -> 4 of 10.
    rec = metrics_summary([_log([0.0] * 10, diags)], kind="beam")
    assert rec.accuracy == pytest.approx(0.4)
    # |served - optimal| over the 10 steps: pattern 0,1,2 repeating.
    assert rec.mean_abs_beam_error == pytest.approx((0 + 1 + 2) * 3 / 10 + 0.0)


def test_metrics_beam_seven_of_ten():
    diags = [
        {"served_beam": 1.0, "optimal_beam": 1.0 if i < 7 else 2.0}
        for i in range(10)
    ]
    rec = metrics_summary([_log([0.0] * 10, diags)], kind="beam")
    assert rec.accuracy == pytest.approx(0.7)


def test_metrics_missing_diagnostic_named():
    with pytest.raises(MissingDiagnosticError, match="thr_"):
        metrics_summary([_log([1.0])], kind="scheduling")
    with pytest.raises(MissingDiagnosticError, match="served_beam"):
        metrics_summary([_log([1.0])], kind="beam")


@pytest.mark.parametrize("kind,kept", [
    ("basic", []), ("scheduling", ["thr_0", "thr_1"]), ("beam", ["optimal_beam", "served_beam"]),
])
def test_metric_columns_keep_what_the_profile_reads(kind, kept):
    diags = [{"thr_0": 1.0 + i, "thr_1": 2.0, "served_beam": float(i % 2), "optimal_beam": 0.0,
              "other": 5.0} for i in range(6)]
    log = _log([0.5, 1.0, 0.0, 2.0, 1.5, 3.0], diags)
    cut = metric_columns(log, kind)
    assert sorted(cut.diagnostics) == kept and cut.actions == []
    assert metrics_summary([cut], kind) == metrics_summary([log], kind)


def test_metrics_unknown_profile():
    with pytest.raises(ConfigError):
        metrics_summary([_log([1.0])], kind="nope")


def test_metrics_empty_logs_rejected():
    with pytest.raises(ConfigError):
        metrics_summary([], kind="basic")
