"""Decision-tree advisor: totality, path bookkeeping, and the golden
use-case table."""

import importlib
import itertools

import pytest

from occam_rrm.advisor import (
    SOLVER_HINTS,
    USE_CASE_TABLE,
    ProblemTraits,
    advise,
    usecase_traits,
)
from occam_rrm.errors import ConfigError

TECHNIQUES = set(SOLVER_HINTS)


def test_advise_total_over_all_trait_combinations():
    fields = (
        "endogenous_state",
        "model_known",
        "analytically_solvable",
        "tractable_mdp",
        "historical_data",
        "expert_policy_available",
        "state_predictable",
    )
    seen = set()
    for bits in itertools.product((False, True), repeat=7):
        rec = advise(ProblemTraits(**dict(zip(fields, bits))))
        assert rec.technique in TECHNIQUES
        assert rec.solver_hint == SOLVER_HINTS[rec.technique]
        seen.add(rec.technique)
    assert seen == TECHNIQUES  # every leaf is reachable


def test_short_term_branches():
    assert advise(ProblemTraits(model_known=True, analytically_solvable=True)).technique == (
        "static-optimization"
    )
    assert advise(ProblemTraits(historical_data=True)).technique == "supervised-learning"
    assert advise(ProblemTraits()).technique == "bandits"
    # a known but unsolvable model still falls through to bandits
    assert advise(ProblemTraits(model_known=True)).technique == "bandits"


def test_long_term_priority_order():
    # Structured options win over less structured ones when several apply.
    everything = ProblemTraits(
        endogenous_state=True,
        model_known=True,
        analytically_solvable=True,
        tractable_mdp=True,
        historical_data=True,
        expert_policy_available=True,
        state_predictable=True,
    )
    assert advise(everything).technique == "exact-dp"
    no_dp = ProblemTraits(
        endogenous_state=True,
        analytically_solvable=True,
        historical_data=True,
        expert_policy_available=True,
        state_predictable=True,
    )
    assert advise(no_dp).technique == "stochastic-rule"
    assert advise(ProblemTraits(endogenous_state=True)).technique == "rl"


def test_path_records_traversed_questions_in_order():
    rec = advise(ProblemTraits(endogenous_state=True, expert_policy_available=True))
    questions = [q for q, _ in rec.path]
    answers = [a for _, a in rec.path]
    assert questions == [
        "long-term planning problem (endogenous state)?",
        "underlying model known?",
        "analytically solvable structure?",
        "historical data available?",
        "expert policy available?",
    ]
    assert answers == ["yes", "no", "no", "no", "yes"]
    assert "policy-tuning" in rec.render()


def test_tractability_question_skipped_when_model_unknown():
    rec = advise(ProblemTraits(endogenous_state=True, historical_data=True))
    questions = [q for q, _ in rec.path]
    assert "MDP small enough for exact methods?" not in questions
    assert rec.technique == "offline-rl"


# Golden rows: (use case, variant, expected technique, prose backed). Rows
# marked interpolated fill tree leaves the source text only sketches.
GOLDEN = [
    ("PC", "known-channel", "static-optimization", True),
    ("PC", "incremental-power", "rl", True),
    ("BF", "known-channel", "static-optimization", True),
    ("BF", "analog-hidden-channel", "bandits", True),
    ("BF", "analog-logged-data", "supervised-learning", True),
    ("LA", "adaptive-mcs", "bandits", True),
    ("SC", "proportional-fair", "stochastic-rule", True),
    ("SC", "logged-data", "offline-rl", True),
    ("SC", "complex-utility", "rl", False),
    ("ES", "thresholds", "policy-tuning", True),
    ("ES", "complex", "rl", True),
    ("ES", "queue-energy-tradeoff", "stochastic-rule", True),
    ("ES", "task-assignment", "bandits", True),
    ("ES", "predictable-traffic", "mpc", False),
    ("HO", "mobility-robustness", "policy-tuning", True),
    ("AC", "small-instance", "exact-dp", True),
    ("AC", "trunk-reservation", "stochastic-rule", True),
    ("AC", "large-complex", "rl", False),
    ("AC", "logged-data", "offline-rl", True),
]


@pytest.mark.parametrize("case,variant,expected,prose", GOLDEN, ids=[
    f"{c}-{v}" for c, v, _, _ in GOLDEN
])
def test_golden_use_case_rows(case, variant, expected, prose):
    rec = advise(usecase_traits(case, variant))
    assert rec.technique == expected


def test_golden_table_covers_every_defined_variant():
    assert {(c, v) for c, v, _, _ in GOLDEN} == set(USE_CASE_TABLE)


def test_endogeneity_assignments():
    assert usecase_traits("SC").endogenous_state
    assert usecase_traits("AC").endogenous_state
    assert usecase_traits("ES").endogenous_state  # inertia makes it long-term
    assert usecase_traits("HO").endogenous_state
    assert not usecase_traits("PC").endogenous_state
    assert not usecase_traits("BF").endogenous_state
    assert not usecase_traits("LA").endogenous_state
    assert usecase_traits("PC", "incremental-power").endogenous_state


def test_unknown_use_case_and_variant_errors():
    with pytest.raises(ConfigError, match="known"):
        usecase_traits("XX")
    with pytest.raises(ConfigError, match="analog-hidden-channel"):
        usecase_traits("BF", "nope")
    assert usecase_traits("bf", "default") == usecase_traits("BF", "known-channel")


def test_every_solver_hint_resolves():
    # a rename must not leave a hint naming a function that is gone
    missing = []
    for hint in SOLVER_HINTS.values():
        module, attr = hint.split(".")
        if not hasattr(importlib.import_module(f"occam_rrm.{module}"), attr):
            missing.append(hint)
    assert missing == []
