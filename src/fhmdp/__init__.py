"""Exact finite-horizon Markov decision process solving.

Build or load a validated model, solve it stage by stage from the terminal
epoch, evaluate or simulate fixed policies, and cross-check results against
exhaustive enumeration. Solver and evaluators are pure functions over
immutable models and are safe to call concurrently.
"""

from .datasets import (
    available_datasets,
    dataset_text,
    load_drilling_expected_results,
    load_drilling_model,
)
from .errors import (
    FhmdpError,
    InstanceTooLargeError,
    ModelFormatError,
    ModelValidationError,
)
from .formats import (
    ExpectedResults,
    compare_results,
    emit_estimates,
    emit_model,
    emit_report,
    load_expected_results,
    load_model,
    load_policy,
    load_terminal_values,
)
from .model import PROBABILITY_TOLERANCE, Action, FiniteHorizonMdp, uniform_actions
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    EpisodeStep,
    EpisodeTrace,
    MonteCarloEstimate,
    count_markov_policies,
    enumerate_optimal,
    sample_episode,
    simulate_policy,
)
from .solve import (
    DecisionTable,
    Policy,
    SolveResult,
    ValueTable,
    evaluate_policy,
    one_step_lookahead,
    solve_backward_induction,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "DEFAULT_ENUMERATION_CAP",
    "DecisionTable",
    "EpisodeStep",
    "EpisodeTrace",
    "ExpectedResults",
    "FhmdpError",
    "FiniteHorizonMdp",
    "InstanceTooLargeError",
    "ModelFormatError",
    "ModelValidationError",
    "MonteCarloEstimate",
    "PROBABILITY_TOLERANCE",
    "Policy",
    "SolveResult",
    "ValueTable",
    "available_datasets",
    "compare_results",
    "count_markov_policies",
    "dataset_text",
    "emit_estimates",
    "emit_model",
    "emit_report",
    "enumerate_optimal",
    "evaluate_policy",
    "load_drilling_expected_results",
    "load_drilling_model",
    "load_expected_results",
    "load_model",
    "load_policy",
    "load_terminal_values",
    "one_step_lookahead",
    "sample_episode",
    "simulate_policy",
    "solve_backward_induction",
    "uniform_actions",
]
