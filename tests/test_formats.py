import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fhmdp import (
    Action,
    ExpectedResults,
    FiniteHorizonMdp,
    ModelFormatError,
    ModelValidationError,
    MonteCarloEstimate,
    available_datasets,
    compare_results,
    dataset_text,
    emit_estimates,
    emit_model,
    emit_report,
    load_drilling_expected_results,
    load_drilling_model,
    load_expected_results,
    load_model,
    load_policy,
    load_terminal_values,
    solve_backward_induction,
)
from conftest import make_random_model


def model_doc(**overrides):
    doc = {
        "format_version": "1",
        "reward_unit": "points",
        "states": [
            {
                "label": "a",
                "actions": [
                    {
                        "reward": 1.5,
                        "transitions": [
                            {"to_state": 1, "probability": 0.25},
                            {"to_state": 2, "probability": 0.75},
                        ],
                    }
                ],
            },
            {
                "label": "b",
                "actions": [
                    {"reward": 0.0, "transitions": [{"to_state": 2, "probability": 1.0}]}
                ],
            },
        ],
    }
    doc.update(overrides)
    return doc


def as_json(doc) -> str:
    return json.dumps(doc)


# --- model loading -------------------------------------------------------------


def test_load_drilling_model():
    mdp = load_drilling_model()
    assert mdp.state_count == 10
    assert all(mdp.action_count(i) == 5 for i in range(10))
    assert mdp.actions[0][1].reward == 7430.09
    assert mdp.reward_unit == "1e-2 mm"
    assert mdp.state_labels == tuple(f"F{i}" for i in range(1, 11))
    assert mdp.state_metadata[0]["axial_force_N"] == 50.92
    assert mdp.actions[0][1].metadata["feed_rate_mm_per_rev"] == 0.0582


def test_drilling_rows_sum_exactly_to_one():
    mdp = load_drilling_model()
    rows = [a.probabilities for acts in mdp.actions for a in acts]
    assert len(rows) == 50
    assert all(math.fsum(row) == 1.0 for row in rows)


def test_drilling_loads_in_strict_mode():
    load_model(dataset_text("drilling"), mode="strict")


def test_load_model_accepts_bytes():
    mdp = load_model(as_json(model_doc()).encode("utf-8"))
    assert mdp.state_count == 2


def test_row_sum_validation_error_names_the_row():
    doc = model_doc()
    doc["states"][0]["actions"][0]["transitions"][1]["probability"] = 0.65
    with pytest.raises(ModelValidationError, match=r"state 1, action 1.*sum to 0\.9"):
        load_model(as_json(doc))


def test_missing_transitions_fail_probability_conservation():
    doc = model_doc()
    del doc["states"][1]["actions"][0]["transitions"]
    with pytest.raises(ModelValidationError, match="state 2, action 1"):
        load_model(as_json(doc))


def test_negative_probability_rejected():
    doc = model_doc()
    doc["states"][1]["actions"][0]["transitions"] = [
        {"to_state": 1, "probability": -0.5},
        {"to_state": 2, "probability": 1.5},
    ]
    with pytest.raises(ModelValidationError, match="negative"):
        load_model(as_json(doc))


def test_parse_error_reports_position():
    with pytest.raises(ModelFormatError, match="line 2, column"):
        load_model('{\n  "format_version": }')


def test_missing_format_version():
    doc = model_doc()
    del doc["format_version"]
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(as_json(doc))


def test_unsupported_format_version():
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(as_json(model_doc(format_version="2")))


def test_duplicate_state_labels_rejected():
    doc = model_doc()
    doc["states"][1]["label"] = "a"
    with pytest.raises(ModelValidationError, match="duplicate state label"):
        load_model(as_json(doc))


def test_duplicate_transition_target_rejected():
    doc = model_doc()
    doc["states"][0]["actions"][0]["transitions"] = [
        {"to_state": 1, "probability": 0.5},
        {"to_state": 1, "probability": 0.5},
    ]
    with pytest.raises(ModelValidationError, match="duplicate transition target"):
        load_model(as_json(doc))


def test_transition_target_out_of_range():
    doc = model_doc()
    doc["states"][0]["actions"][0]["transitions"][0]["to_state"] = 3
    with pytest.raises(ModelValidationError, match=r"target 3 out of range 1\.\.2"):
        load_model(as_json(doc))


def test_empty_states_rejected():
    with pytest.raises(ModelFormatError, match="at least one state"):
        load_model(as_json(model_doc(states=[])))


def test_state_without_actions_rejected():
    doc = model_doc()
    doc["states"][0]["actions"] = []
    with pytest.raises(ModelValidationError, match="state 1 has no actions"):
        load_model(as_json(doc))


def test_bad_reward_type():
    doc = model_doc()
    doc["states"][0]["actions"][0]["reward"] = "high"
    with pytest.raises(ModelFormatError, match="reward.*expected a number"):
        load_model(as_json(doc))


def test_strict_mode_rejects_inexact_sum():
    doc = model_doc()
    doc["states"][0]["actions"][0]["transitions"] = [
        {"to_state": 1, "probability": 0.25},
        {"to_state": 2, "probability": 0.7500000000001},
    ]
    load_model(as_json(doc))  # within tolerance
    with pytest.raises(ModelValidationError, match="strict mode"):
        load_model(as_json(doc), mode="strict")


def test_renormalize_mode_rescales_rows_within_tolerance():
    doc = model_doc()
    doc["states"][0]["actions"][0]["transitions"] = [
        {"to_state": 1, "probability": 0.25},
        {"to_state": 2, "probability": 0.7500000000001},
    ]
    mdp = load_model(as_json(doc), mode="renormalize")
    assert math.fsum(mdp.actions[0][0].probabilities) == pytest.approx(1.0, abs=1e-12)
    raw = load_model(as_json(doc))
    assert raw.actions[0][0].probabilities != mdp.actions[0][0].probabilities


def test_renormalize_mode_still_rejects_bad_rows():
    doc = model_doc()
    doc["states"][0]["actions"][0]["transitions"] = [
        {"to_state": 1, "probability": 0.4},
        {"to_state": 2, "probability": 0.5},
    ]
    with pytest.raises(ModelValidationError, match="sum to 0.9"):
        load_model(as_json(doc), mode="renormalize")


@pytest.mark.parametrize(
    "field, path",
    [
        ("reward", r"model\.states\[0\]\.actions\[0\]\.reward"),
        (
            "probability",
            r"model\.states\[0\]\.actions\[0\]\.transitions\[1\]\.probability",
        ),
    ],
    ids=["reward", "probability"],
)
def test_integer_too_large_for_float_rejected(field, path):
    text = as_json(model_doc())
    huge = "1" + "0" * 400
    if field == "reward":
        text = text.replace('"reward": 1.5', f'"reward": {huge}')
    else:
        text = text.replace('"probability": 0.75', f'"probability": {huge}')
    with pytest.raises(ModelFormatError, match=path + ": integer too large"):
        load_model(text)


def test_integer_too_large_in_results_and_vectors():
    huge = "1" + "0" * 400
    with pytest.raises(ModelFormatError, match=r"terminal_values\[1\]"):
        load_terminal_values(f"[0, {huge}]")
    results = (
        f'{{"format_version": "1", "value_table": [[{huge}]], "decision_table": []}}'
    )
    with pytest.raises(ModelFormatError, match=r"results\.value_table\[0\]\[0\]"):
        load_expected_results(results)


def test_chain_model_storage_is_linear_in_nonzeros():
    states = 3000
    doc = {
        "format_version": "1",
        "states": [
            {
                "label": f"s{i}",
                "actions": [
                    {
                        "reward": 1.0,
                        "transitions": [
                            {"to_state": min(i + 2, states), "probability": 1.0}
                        ],
                    }
                ],
            }
            for i in range(states)
        ],
    }
    mdp = load_model(as_json(doc))
    assert mdp.targets.size == states
    assert mdp.probs.size == states
    result = solve_backward_induction(mdp, 5)
    assert result.values[0] == (5.0,) * states
    assert result.decisions == ((0,) * states,) * 5


def test_unknown_validation_mode():
    with pytest.raises(ValueError, match="mode"):
        load_model(as_json(model_doc()), mode="lenient")


# --- model emission ------------------------------------------------------------


def test_emit_load_round_trip_drilling():
    mdp = load_drilling_model()
    back = load_model(emit_model(mdp))
    assert back.reward_unit == mdp.reward_unit
    assert back.state_labels == mdp.state_labels
    assert back.state_metadata == mdp.state_metadata
    for orig_acts, new_acts in zip(mdp.actions, back.actions):
        for orig, new in zip(orig_acts, new_acts):
            assert new.reward == orig.reward
            assert new.probabilities == orig.probabilities
            assert new.label == orig.label
            assert new.metadata == orig.metadata


@pytest.mark.parametrize("seed", range(4))
def test_emit_load_round_trip_random(seed):
    mdp = make_random_model(np.random.default_rng(seed), max_states=4, max_actions=3)
    back = load_model(emit_model(mdp))
    for orig_acts, new_acts in zip(mdp.actions, back.actions):
        for orig, new in zip(orig_acts, new_acts):
            assert new.reward == orig.reward
            assert new.probabilities == orig.probabilities


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=5))
def test_emit_load_round_trip_is_numeric_identity(weights):
    total = math.fsum(weights)
    row = tuple(w / total for w in weights)
    mdp = FiniteHorizonMdp(
        actions=tuple(
            # Reuse the row shifted per state so supports differ.
            (Action(reward=float(i) + 0.125, probabilities=row[i:] + row[:i]),)
            for i in range(len(row))
        )
    )
    back = load_model(emit_model(mdp))
    for orig_acts, new_acts in zip(mdp.actions, back.actions):
        for orig, new in zip(orig_acts, new_acts):
            assert new.reward == orig.reward
            assert new.probabilities == orig.probabilities


# --- expected results ----------------------------------------------------------


def test_load_bundled_expected_results():
    expected = load_drilling_expected_results()
    assert expected.state_count == 10
    assert expected.horizon == 10
    assert expected.value_tolerance_abs == 0.5
    assert expected.value_tolerance_rel == 0.0
    assert expected.value_table[0][0] == 89233.2667
    # Stored 1-based in the file, exposed 0-based in memory.
    assert expected.decision_table[9] == (1, 1, 1, 0, 1, 1, 1, 0, 1, 1)
    assert all(row == (1,) * 10 for row in expected.decision_table[:9])


def test_expected_results_zero_horizon_valid():
    doc = {"format_version": "1", "value_table": [[1.0, 2.0]], "decision_table": []}
    expected = load_expected_results(as_json(doc))
    assert expected.horizon == 0
    assert expected.value_table == ((1.0, 2.0),)


def test_expected_results_dimension_errors():
    base = {
        "format_version": "1",
        "value_table": [[1.0, 2.0], [0.0, 0.0]],
        "decision_table": [[1, 1]],
    }
    wrong_rows = dict(base, decision_table=[])
    with pytest.raises(ModelValidationError, match="decision_table has 0 rows"):
        load_expected_results(as_json(wrong_rows))
    ragged = dict(base, value_table=[[1.0, 2.0], [0.0]])
    with pytest.raises(ModelValidationError, match="expected 2"):
        load_expected_results(as_json(ragged))
    narrow = dict(base, decision_table=[[1]])
    with pytest.raises(ModelValidationError, match="expected 2"):
        load_expected_results(as_json(narrow))
    zero_based = dict(base, decision_table=[[0, 1]])
    with pytest.raises(ModelValidationError, match="1-based"):
        load_expected_results(as_json(zero_based))


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"value_tolerance_abs": float("nan")}, "results.value_tolerance_abs"),
        ({"value_tolerance_abs": float("inf")}, "results.value_tolerance_abs"),
        ({"value_tolerance_rel": float("nan")}, "results.value_tolerance_rel"),
        ({"value_tolerance_rel": float("-inf")}, "results.value_tolerance_rel"),
        ({"value_table": [[1.0, float("nan")], [0.0, 0.0]]}, r"results.value_table\[0\]\[1\]"),
        ({"value_table": [[1.0, 2.0], [float("inf"), 0.0]]}, r"results.value_table\[1\]\[0\]"),
    ],
)
def test_expected_results_reject_nonfinite_numbers(overrides, path):
    doc = {
        "format_version": "1",
        "value_table": [[1.0, 2.0], [0.0, 0.0]],
        "decision_table": [[1, 1]],
    }
    doc.update(overrides)
    with pytest.raises(ModelValidationError, match=f"{path}: expected a finite number"):
        load_expected_results(as_json(doc))


def test_emit_estimates_empty_and_unknown_format():
    estimate = MonteCarloEstimate(
        start_state=0, episode_count=2, mean=1.0, standard_error=0.5, seed=0
    )
    assert emit_estimates([estimate], "csv").splitlines()[1] == "1,2,1.0,0.5,0"
    assert emit_estimates([], "table") == "start_state  episodes  mean  standard_error  seed\n"
    with pytest.raises(ValueError, match="report format"):
        emit_estimates([estimate], "xml")


def test_compare_results_pass_and_diffs(drilling):
    result = solve_backward_induction(drilling, 10)
    expected = load_drilling_expected_results()
    assert compare_results(result, expected) == ()

    values = [list(row) for row in expected.value_table]
    values[0][4] += 10 * expected.value_tolerance_abs
    shifted = ExpectedResults(
        value_table=tuple(tuple(r) for r in values),
        decision_table=expected.decision_table,
        value_tolerance_abs=expected.value_tolerance_abs,
    )
    diffs = compare_results(result, shifted)
    assert len(diffs) == 1
    assert "value[n=0][state=5]" in diffs[0]

    decisions = [list(row) for row in expected.decision_table]
    decisions[9][3] = 4
    flipped = ExpectedResults(
        value_table=expected.value_table,
        decision_table=tuple(tuple(r) for r in decisions),
        value_tolerance_abs=expected.value_tolerance_abs,
    )
    diffs = compare_results(result, flipped)
    assert len(diffs) == 1
    assert "decision[n=9][state=4]: expected 5, computed 1" in diffs[0]


def test_compare_results_relative_tolerance(drilling):
    result = solve_backward_induction(drilling, 10)
    expected = load_drilling_expected_results()
    loose = ExpectedResults(
        value_table=tuple(
            tuple(v * 1.001 for v in row) for row in expected.value_table
        ),
        decision_table=expected.decision_table,
        value_tolerance_abs=0.0,
        value_tolerance_rel=0.01,
    )
    values_only = [d for d in compare_results(result, loose) if d.startswith("value")]
    assert values_only == []


def test_compare_results_dimension_mismatch(drilling, toy_model):
    result = solve_backward_induction(toy_model, 2)
    expected = load_drilling_expected_results()
    with pytest.raises(ValueError, match="states"):
        compare_results(result, expected)


# --- reports -------------------------------------------------------------------


def test_table_report_layout(drilling):
    result = solve_backward_induction(drilling, 10)
    report = emit_report(result, "table", reward_unit=drilling.reward_unit)
    lines = report.splitlines()
    assert lines[0] == "Expected total rewards (1e-2 mm)"
    assert lines[1].split() == ["state"] + [f"n={n}" for n in range(11)]
    v1 = lines[2].split()
    assert v1[0] == "v_1"
    assert v1[1] == "89233.3"
    assert v1[-2] == "7430.09"
    assert v1[-1] == "0"
    assert "Optimal decisions" in report
    d4 = next(line for line in lines if "d_4" in line)
    assert d4.split() == ["d_4"] + ["2"] * 9 + ["1"]
    assert emit_report(result, "table", reward_unit=drilling.reward_unit) == report


def test_table_report_zero_horizon(toy_model):
    result = solve_backward_induction(toy_model, 0)
    report = emit_report(result, "table")
    assert "Optimal decisions" not in report
    assert report.splitlines()[1].split() == ["state", "n=0"]
    assert report.splitlines()[2].split() == ["v_1", "0"]


def test_csv_report(drilling):
    result = solve_backward_induction(drilling, 10)
    report = emit_report(result, "csv")
    lines = report.splitlines()
    assert lines[0] == "state,epoch,value,decision"
    assert len(lines) == 1 + 10 * 11
    assert lines[1] == f"1,0,{result.values[0][0]!r},2"
    assert lines[11] == "1,10,0.0,"


def test_json_report_round_trip(drilling):
    result = solve_backward_induction(drilling, 10)
    doc = json.loads(emit_report(result, "json"))
    assert doc["value_table"] == [list(row) for row in result.values]
    assert doc["decision_table"] == [
        [k + 1 for k in row] for row in result.decisions
    ]


def test_unknown_report_format(toy_model):
    result = solve_backward_induction(toy_model, 1)
    with pytest.raises(ValueError, match="report format"):
        emit_report(result, "yaml")


# --- policies and vectors -------------------------------------------------------


def test_load_policy_from_json_report(drilling):
    result = solve_backward_induction(drilling, 10)
    assert load_policy(emit_report(result, "json")) == result.decisions


def test_load_policy_validation():
    with pytest.raises(ModelFormatError, match="decision_table"):
        load_policy("{}")
    with pytest.raises(ModelValidationError, match="1-based"):
        load_policy('{"decision_table": [[0]]}')
    with pytest.raises(ModelValidationError, match="entries"):
        load_policy('{"decision_table": [[1, 1], [1]]}')


def test_load_terminal_values():
    assert load_terminal_values("[1, 2.5, 0]") == (1.0, 2.5, 0.0)
    with pytest.raises(ModelFormatError, match="expected a number"):
        load_terminal_values('["x"]')
    with pytest.raises(ModelFormatError, match="expected a list"):
        load_terminal_values('{"a": 1}')


# --- datasets ------------------------------------------------------------------


def test_dataset_registry():
    assert available_datasets() == ("drilling",)
    assert "format_version" in dataset_text("drilling")
    with pytest.raises(KeyError, match="unknown dataset"):
        dataset_text("milling")
    with pytest.raises(KeyError, match="no 'other' file"):
        dataset_text("drilling", "other")
