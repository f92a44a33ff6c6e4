"""Command-line interface.

Subcommands: ``solve`` prints value/decision tables, ``check`` compares a
solve against reference tables, ``simulate`` estimates a policy's value by
sampling, and ``verify`` cross-checks the solver against exhaustive policy
enumeration. Reports go to stdout, diagnostics to stderr. Exit codes:
0 success, 1 comparison failure, 2 usage/IO/validation error.

``--model`` (and ``--expected``) accept either a file path or the name of a
bundled dataset such as ``drilling``; an existing file wins over a dataset
name.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import datasets
from .errors import FhmdpError
from .formats import (
    REPORT_FORMATS,
    VALIDATION_MODES,
    compare_results,
    emit_estimates,
    emit_report,
    load_expected_results,
    load_model,
    load_policy,
    load_terminal_values,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    count_markov_policies,
    enumerate_optimal,
    simulate_policy,
)
from .solve import solve_backward_induction

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2

VERIFY_TOLERANCE = 1e-9


def _read_source(arg: str, kind: str) -> str:
    path = Path(arg)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    if arg in datasets.available_datasets():
        return datasets.dataset_text(arg, kind)
    raise FileNotFoundError(
        f"{arg!r} is neither a file nor a bundled dataset "
        f"(available: {', '.join(datasets.available_datasets())})"
    )


def _load_model_arg(args: argparse.Namespace):
    return load_model(_read_source(args.model, "model"), mode=args.validation)


def cmd_solve(args: argparse.Namespace) -> int:
    mdp = _load_model_arg(args)
    terminal = None
    if args.terminal_values:
        terminal = load_terminal_values(Path(args.terminal_values).read_text("utf-8"))
    result = solve_backward_induction(mdp, args.horizon, terminal)
    sys.stdout.write(emit_report(result, args.format, reward_unit=mdp.reward_unit))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    mdp = _load_model_arg(args)
    expected_arg = args.expected
    if expected_arg is None:
        if args.model in datasets.available_datasets():
            expected_arg = args.model
        else:
            raise ValueError(
                "--expected is required unless --model names a bundled dataset"
            )
    expected = load_expected_results(_read_source(expected_arg, "expected"))
    if args.horizon is not None and args.horizon != expected.horizon:
        raise ValueError(
            f"--horizon {args.horizon} does not match the expected results "
            f"(horizon {expected.horizon})"
        )
    result = solve_backward_induction(mdp, expected.horizon)
    mismatches = compare_results(result, expected)
    if mismatches:
        for line in mismatches:
            print(line)
        print(f"{len(mismatches)} mismatched cell(s)")
        return EXIT_MISMATCH
    total_cells = (expected.horizon + 1 + expected.horizon) * expected.state_count
    print(f"all {total_cells} value and decision cells match")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    mdp = _load_model_arg(args)
    if args.policy:
        policy = load_policy(Path(args.policy).read_text("utf-8"))
    else:
        policy = solve_backward_induction(mdp, args.horizon).decisions
    if args.start_state:
        for s in args.start_state:
            if not 1 <= s <= mdp.state_count:
                raise ValueError(
                    f"--start-state {s} out of range 1..{mdp.state_count}"
                )
        starts = [s - 1 for s in args.start_state]
    else:
        starts = list(range(mdp.state_count))
    estimates = [
        simulate_policy(mdp, policy, start, args.episodes, args.seed)
        for start in starts
    ]
    sys.stdout.write(emit_estimates(estimates, args.format))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    mdp = _load_model_arg(args)
    # Enumeration first: it rejects an instance over the cap before any work.
    benchmark = enumerate_optimal(mdp, args.horizon, cap=args.cap)
    result = solve_backward_induction(mdp, args.horizon)
    diffs = [
        abs(a - b) for a, b in zip(result.values[0], benchmark.values[0])
    ]
    count = count_markov_policies(mdp, args.horizon)
    worst = max(diffs) if diffs else 0.0
    if worst <= VERIFY_TOLERANCE:
        print(
            f"backward induction matches exhaustive enumeration of {count} "
            f"policies (max |diff| = {worst:.3g})"
        )
        return EXIT_OK
    for i, diff in enumerate(diffs):
        if diff > VERIFY_TOLERANCE:
            print(
                f"state {i + 1}: solver {result.values[0][i]!r} vs "
                f"enumeration {benchmark.values[0][i]!r} (|diff| = {diff:.3g})"
            )
    return EXIT_MISMATCH


def _add_common_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        help="model file path or bundled dataset name (e.g. 'drilling')",
    )
    parser.add_argument(
        "--validation",
        choices=VALIDATION_MODES,
        default="tolerant",
        help="transition row-sum handling on load (default: tolerant)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhmdp",
        description="Exact finite-horizon Markov decision process solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model and print its tables")
    _add_common_model_args(p)
    p.add_argument("--horizon", type=int, default=10, help="decision stages (default 10)")
    p.add_argument(
        "--terminal-values",
        help="JSON file with one terminal value per state (default: all zeros)",
    )
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("check", help="solve and compare against expected results")
    _add_common_model_args(p)
    p.add_argument(
        "--expected",
        help="expected-results file or dataset name (default: the model's bundled fixtures)",
    )
    p.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="must match the expected results when given",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of a policy's value")
    _add_common_model_args(p)
    p.add_argument("--horizon", type=int, default=10, help="decision stages (default 10)")
    p.add_argument(
        "--policy",
        help="JSON policy file (1-based decision_table); default: solve the model",
    )
    p.add_argument(
        "--start-state",
        type=int,
        action="append",
        help="1-based start state; repeatable (default: every state)",
    )
    p.add_argument("--episodes", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "verify", help="cross-check the solver against exhaustive enumeration"
    )
    _add_common_model_args(p)
    p.add_argument("--horizon", type=int, default=10, help="decision stages (default 10)")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="refuse instances with more Markov policies than this (default 1e6)",
    )
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FhmdpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
