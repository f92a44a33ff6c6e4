"""Serialized model format, fixture loading, and report emitters.

The on-disk format is JSON (format_version "1") with sparse transition
lists; ``docs/model_format.md`` documents every field. State and action
indices are 1-based in files and reports and 0-based in memory; loaders
convert on the way in, emitters on the way out.

Parsing problems raise :class:`~fhmdp.errors.ModelFormatError` with the
offending location; violated model invariants raise
:class:`~fhmdp.errors.ModelValidationError` naming the state and action.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ModelFormatError, ModelValidationError
from .model import PROBABILITY_TOLERANCE, FiniteHorizonMdp, row_sums
from .oracle import MonteCarloEstimate
from .solve import DecisionTable, SolveResult, ValueTable

MODEL_FORMAT_VERSION = "1"
RESULTS_FORMAT_VERSION = "1"

REPORT_FORMATS = ("table", "csv", "json")

#: Row handling on load: "tolerant" accepts sums within PROBABILITY_TOLERANCE,
#: "strict" additionally requires exactly rounded sums of 1.0, "renormalize"
#: rescales rows that pass the tolerance so they sum to 1.
VALIDATION_MODES = ("tolerant", "strict", "renormalize")


@dataclass(frozen=True)
class ExpectedResults:
    """Reference tables a solved model is compared against.

    ``value_table`` rows cover epochs ``0..N``; ``decision_table`` rows cover
    epochs ``0..N-1`` with 0-based action indices (files store them 1-based).
    A value cell matches when ``|computed - expected|`` is at most
    ``max(value_tolerance_abs, value_tolerance_rel * |expected|)``; decision
    cells must match exactly.
    """

    value_table: ValueTable
    decision_table: DecisionTable
    value_tolerance_abs: float = 0.0
    value_tolerance_rel: float = 0.0

    @property
    def horizon(self) -> int:
        return len(self.decision_table)

    @property
    def state_count(self) -> int:
        return len(self.value_table[0])


def _as_text(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"input is not valid UTF-8: {exc}") from exc
    return data


def _parse_json(data: str | bytes) -> Any:
    try:
        return json.loads(_as_text(data))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _require(obj: Any, key: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: expected an object")
    if key not in obj:
        raise ModelFormatError(f"{path}: missing required field {key!r}")
    return obj[key]


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ModelFormatError(f"{path}: integer too large for a float") from None


def _as_finite(value: Any, path: str) -> float:
    number = _as_number(value, path)
    if not math.isfinite(number):
        raise ModelValidationError(f"{path}: expected a finite number, got {number!r}")
    return number


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ModelFormatError(f"{path}: expected a string, got {value!r}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(f"{path}: expected a list")
    return value


def _optional_metadata(obj: dict, path: str) -> dict:
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"{path}.metadata: expected an object")
    return metadata


def _check_version(obj: Any, expected: str, path: str) -> None:
    version = _require(obj, "format_version", path)
    if version != expected:
        raise ModelFormatError(
            f"{path}.format_version: expected {expected!r}, got {version!r}"
        )


def _transition(entry: Any, path: str) -> tuple[int, float]:
    target = _as_int(_require(entry, "to_state", path), f"{path}.to_state")
    probability = _as_number(
        _require(entry, "probability", path), f"{path}.probability"
    )
    return target, probability


def load_model(data: str | bytes, mode: str = "tolerant") -> FiniteHorizonMdp:
    """Parse and validate a serialized model.

    ``mode`` selects row-sum handling (see ``VALIDATION_MODES``). All model
    invariants are enforced before the model is returned. The transitions go
    straight into the model's CSR arrays (sorted by target, zero
    probabilities dropped); no dense row is built.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"mode must be one of {VALIDATION_MODES}, got {mode!r}")
    doc = _parse_json(data)
    _check_version(doc, MODEL_FORMAT_VERSION, "model")
    reward_unit = _as_string(doc.get("reward_unit", ""), "model.reward_unit")
    states = _as_list(_require(doc, "states", "model"), "model.states")
    if not states:
        raise ModelFormatError("model.states: must contain at least one state")
    state_count = len(states)

    labels: list[str] = []
    seen_labels: set[str] = set()
    state_metadata: list[dict] = []
    rewards: list[float] = []
    action_offsets = [0]
    row_offsets = [0]
    targets: list[int] = []
    probs: list[float] = []
    action_labels: list[str] = []
    action_metadata: list[dict] = []
    for s_idx, state in enumerate(states):
        s_path = f"model.states[{s_idx}]"
        label = _as_string(_require(state, "label", s_path), f"{s_path}.label")
        if label in seen_labels:
            raise ModelValidationError(
                f"state {s_idx + 1}: duplicate state label {label!r}"
            )
        labels.append(label)
        seen_labels.add(label)
        state_metadata.append(_optional_metadata(state, s_path))

        raw_actions = _as_list(_require(state, "actions", s_path), f"{s_path}.actions")
        if not raw_actions:
            raise ModelValidationError(f"state {s_idx + 1} has no actions")
        for a_idx, action in enumerate(raw_actions):
            a_path = f"{s_path}.actions[{a_idx}]"
            rewards.append(
                _as_number(_require(action, "reward", a_path), f"{a_path}.reward")
            )
            transitions = _as_list(
                action.get("transitions", []), f"{a_path}.transitions"
            )
            seen: set[int] = set()
            for t_idx, entry in enumerate(transitions):
                # Well-formed entries skip the checked parse, which builds the
                # path strings its error messages need.
                if not (
                    type(entry) is dict
                    and type(target := entry.get("to_state")) is int
                    and type(probability := entry.get("probability")) is float
                ):
                    target, probability = _transition(
                        entry, f"{a_path}.transitions[{t_idx}]"
                    )
                if not 1 <= target <= state_count:
                    raise ModelValidationError(
                        f"state {s_idx + 1}, action {a_idx + 1}: transition target "
                        f"{target} out of range 1..{state_count}"
                    )
                if target in seen:
                    raise ModelValidationError(
                        f"state {s_idx + 1}, action {a_idx + 1}: duplicate "
                        f"transition target {target}"
                    )
                seen.add(target)
                targets.append(target - 1)
                probs.append(probability)
            row_offsets.append(len(targets))
            action_labels.append(
                _as_string(action.get("label", ""), f"{a_path}.label")
            )
            action_metadata.append(_optional_metadata(action, a_path))
        action_offsets.append(len(rewards))

    # CSR layout: each row sorted by target, zero probabilities dropped after
    # any renormalization.
    row_of = np.repeat(np.arange(len(rewards)), np.diff(row_offsets))
    target_array = np.array(targets, dtype=np.intp)
    order = np.argsort(row_of * state_count + target_array, kind="stable")
    target_array = target_array[order]
    prob_array = np.array(probs, dtype=np.float64)[order]
    if mode == "renormalize":
        totals = np.array(row_sums(prob_array, np.array(row_offsets)))
        rescale = (totals > 0.0) & (np.abs(totals - 1.0) <= PROBABILITY_TOLERANCE)
        prob_array = prob_array / np.where(rescale, totals, 1.0)[row_of]
    stored = prob_array != 0.0
    kept_per_row = np.bincount(row_of[stored], minlength=len(rewards))
    mdp = FiniteHorizonMdp(
        rewards=rewards,
        action_offsets=action_offsets,
        row_offsets=np.concatenate(([0], np.cumsum(kept_per_row))),
        targets=target_array[stored],
        probs=prob_array[stored],
        action_labels=action_labels,
        action_metadata=action_metadata,
        state_labels=labels,
        state_metadata=state_metadata,
        reward_unit=reward_unit,
    )
    if mode == "strict":
        for a, total in enumerate(row_sums(mdp.probs, mdp.row_offsets)):
            if total != 1.0:
                raise ModelValidationError(
                    f"{mdp._where(a)}: strict mode requires an exact probability "
                    f"sum of 1, got {total!r}"
                )
    return mdp


def emit_model(mdp: FiniteHorizonMdp) -> str:
    """Serialize a model; ``load_model`` recovers its numeric content exactly."""
    rewards = mdp.rewards.tolist()
    targets = mdp.targets.tolist()
    probs = mdp.probs.tolist()
    rows = mdp.row_offsets.tolist()
    bounds = mdp.action_offsets.tolist()
    states = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        state: dict[str, Any] = {"label": mdp.state_label(i)}
        if mdp.state_metadata is not None and mdp.state_metadata[i]:
            state["metadata"] = dict(mdp.state_metadata[i])
        state["actions"] = [
            {
                **({"label": mdp.action_labels[a]} if mdp.action_labels[a] else {}),
                **(
                    {"metadata": dict(mdp.action_metadata[a])}
                    if mdp.action_metadata[a]
                    else {}
                ),
                "reward": rewards[a],
                "transitions": [
                    {"to_state": targets[z] + 1, "probability": probs[z]}
                    for z in range(rows[a], rows[a + 1])
                ],
            }
            for a in range(lo, hi)
        ]
        states.append(state)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "reward_unit": mdp.reward_unit,
        "states": states,
    }
    return json.dumps(doc, indent=2) + "\n"


def load_expected_results(data: str | bytes) -> ExpectedResults:
    """Parse a reference-results fixture (see ``docs/model_format.md``)."""
    doc = _parse_json(data)
    _check_version(doc, RESULTS_FORMAT_VERSION, "results")

    raw_values = _as_list(_require(doc, "value_table", "results"), "results.value_table")
    if not raw_values:
        raise ModelValidationError("results.value_table must have at least one row")
    value_rows: list[tuple[float, ...]] = []
    for n, row in enumerate(raw_values):
        path = f"results.value_table[{n}]"
        cells = _as_list(row, path)
        value_rows.append(tuple(_as_finite(v, f"{path}[{i}]") for i, v in enumerate(cells)))
    state_count = len(value_rows[0])
    if state_count == 0:
        raise ModelValidationError("results.value_table rows must not be empty")
    for n, row in enumerate(value_rows):
        if len(row) != state_count:
            raise ModelValidationError(
                f"results.value_table[{n}] has {len(row)} entries, expected {state_count}"
            )

    raw_decisions = _as_list(
        _require(doc, "decision_table", "results"), "results.decision_table"
    )
    if len(raw_decisions) != len(value_rows) - 1:
        raise ModelValidationError(
            f"results.decision_table has {len(raw_decisions)} rows; expected "
            f"{len(value_rows) - 1} (one fewer than value_table)"
        )
    decision_rows: list[tuple[int, ...]] = []
    for n, row in enumerate(raw_decisions):
        path = f"results.decision_table[{n}]"
        cells = _as_list(row, path)
        if len(cells) != state_count:
            raise ModelValidationError(
                f"{path} has {len(cells)} entries, expected {state_count}"
            )
        decisions = []
        for i, value in enumerate(cells):
            k = _as_int(value, f"{path}[{i}]")
            if k < 1:
                raise ModelValidationError(
                    f"{path}[{i}]: action index {k} must be >= 1 (indices are 1-based)"
                )
            decisions.append(k - 1)
        decision_rows.append(tuple(decisions))

    abs_tol = _as_finite(doc.get("value_tolerance_abs", 0.0), "results.value_tolerance_abs")
    rel_tol = _as_finite(doc.get("value_tolerance_rel", 0.0), "results.value_tolerance_rel")
    if abs_tol < 0.0 or rel_tol < 0.0:
        raise ModelValidationError("results tolerances must be >= 0")
    return ExpectedResults(
        value_table=tuple(value_rows),
        decision_table=tuple(decision_rows),
        value_tolerance_abs=abs_tol,
        value_tolerance_rel=rel_tol,
    )


def load_policy(data: str | bytes) -> DecisionTable:
    """Read a policy from a JSON object with a 1-based ``decision_table``.

    Accepts the JSON emitted by ``emit_report(..., "json")``.
    """
    doc = _parse_json(data)
    raw = _as_list(_require(doc, "decision_table", "policy"), "policy.decision_table")
    rows: list[tuple[int, ...]] = []
    width: int | None = None
    for n, row in enumerate(raw):
        path = f"policy.decision_table[{n}]"
        cells = _as_list(row, path)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ModelValidationError(
                f"{path} has {len(cells)} entries, expected {width}"
            )
        converted = []
        for i, value in enumerate(cells):
            k = _as_int(value, f"{path}[{i}]")
            if k < 1:
                raise ModelValidationError(
                    f"{path}[{i}]: action index {k} must be >= 1 (indices are 1-based)"
                )
            converted.append(k - 1)
        rows.append(tuple(converted))
    return tuple(rows)


def compare_results(
    result: SolveResult, expected: ExpectedResults
) -> tuple[str, ...]:
    """Per-cell differences between a solve result and reference tables.

    Returns one human-readable line per mismatching cell (1-based states and
    actions), empty when everything matches. Raises ``ValueError`` when the
    two objects do not describe the same (state count, horizon) pair.
    """
    if result.state_count != expected.state_count:
        raise ValueError(
            f"result has {result.state_count} states, expected results have "
            f"{expected.state_count}"
        )
    if result.horizon != expected.horizon:
        raise ValueError(
            f"result has horizon {result.horizon}, expected results have "
            f"horizon {expected.horizon}"
        )
    mismatches: list[str] = []
    for n, (computed_row, expected_row) in enumerate(
        zip(result.values, expected.value_table)
    ):
        for i, (computed, wanted) in enumerate(zip(computed_row, expected_row)):
            allowed = max(
                expected.value_tolerance_abs,
                expected.value_tolerance_rel * abs(wanted),
            )
            diff = abs(computed - wanted)
            if diff > allowed:
                mismatches.append(
                    f"value[n={n}][state={i + 1}]: expected {wanted!r}, "
                    f"computed {computed!r}, |diff| {diff:.6g} > {allowed:.6g}"
                )
    for n, (computed_row, expected_row) in enumerate(
        zip(result.decisions, expected.decision_table)
    ):
        for i, (computed, wanted) in enumerate(zip(computed_row, expected_row)):
            if computed != wanted:
                mismatches.append(
                    f"decision[n={n}][state={i + 1}]: expected {wanted + 1}, "
                    f"computed {computed + 1}"
                )
    return tuple(mismatches)


def _format_table(result: SolveResult, reward_unit: str) -> str:
    horizon = result.horizon
    lines: list[str] = []

    title = "Expected total rewards"
    if reward_unit:
        title += f" ({reward_unit})"
    lines.append(title)
    headers = ["state"] + [f"n={n}" for n in range(horizon + 1)]
    rows = [
        [f"v_{i + 1}"] + [f"{result.values[n][i]:.6g}" for n in range(horizon + 1)]
        for i in range(result.state_count)
    ]
    lines.extend(_align(headers, rows))

    if horizon > 0:
        lines.append("")
        lines.append("Optimal decisions")
        headers = ["state"] + [f"n={n}" for n in range(horizon)]
        rows = [
            [f"d_{i + 1}"] + [str(result.decisions[n][i] + 1) for n in range(horizon)]
            for i in range(result.state_count)
        ]
        lines.extend(_align(headers, rows))
    return "\n".join(lines) + "\n"


def _align(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max([len(headers[c])] + [len(row[c]) for row in rows])
        for c in range(len(headers))
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return out


def _format_csv(result: SolveResult) -> str:
    lines = ["state,epoch,value,decision"]
    for i in range(result.state_count):
        for n in range(result.horizon + 1):
            decision = (
                str(result.decisions[n][i] + 1) if n < result.horizon else ""
            )
            lines.append(f"{i + 1},{n},{result.values[n][i]!r},{decision}")
    return "\n".join(lines) + "\n"


def _format_json(result: SolveResult) -> str:
    doc = {
        "format_version": RESULTS_FORMAT_VERSION,
        "value_table": [list(row) for row in result.values],
        "decision_table": [[k + 1 for k in row] for row in result.decisions],
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(
    result: SolveResult, report_format: str = "table", reward_unit: str = ""
) -> str:
    """Render a solve result as an aligned table, CSV, or JSON.

    The table shows values to 6 significant digits; CSV and JSON carry full
    precision (JSON round-trips bit-exactly through ``json.loads``). States
    and decisions are numbered from 1.
    """
    if report_format == "table":
        return _format_table(result, reward_unit)
    if report_format == "csv":
        return _format_csv(result)
    if report_format == "json":
        return _format_json(result)
    raise ValueError(
        f"report format must be one of {REPORT_FORMATS}, got {report_format!r}"
    )


def emit_estimates(
    estimates: Sequence[MonteCarloEstimate], report_format: str = "table"
) -> str:
    """Render Monte Carlo estimates as an aligned table, CSV, or JSON.

    One row per estimate: the 1-based start state, episode count, mean,
    standard error and seed. The table shows the mean and standard error to
    6 significant digits; CSV and JSON carry full precision.
    """
    if report_format == "json":
        doc = [
            {
                "start_state": est.start_state + 1,
                "episodes": est.episode_count,
                "mean": est.mean,
                "standard_error": est.standard_error,
                "seed": est.seed,
            }
            for est in estimates
        ]
        return json.dumps(doc, indent=2) + "\n"
    if report_format not in REPORT_FORMATS:
        raise ValueError(
            f"report format must be one of {REPORT_FORMATS}, got {report_format!r}"
        )
    number = repr if report_format == "csv" else "{:.6g}".format
    headers = ["start_state", "episodes", "mean", "standard_error", "seed"]
    rows = [
        [
            str(est.start_state + 1),
            str(est.episode_count),
            number(est.mean),
            number(est.standard_error),
            str(est.seed),
        ]
        for est in estimates
    ]
    if report_format == "csv":
        lines = [",".join(row) for row in [headers, *rows]]
    else:
        lines = _align(headers, rows)
    return "\n".join(lines) + "\n"


def load_terminal_values(data: str | bytes) -> tuple[float, ...]:
    """Parse a terminal-value vector: a JSON array of numbers."""
    doc = _parse_json(data)
    cells = _as_list(doc, "terminal_values")
    return tuple(
        _as_number(v, f"terminal_values[{i}]") for i, v in enumerate(cells)
    )
