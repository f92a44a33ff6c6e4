import json
import subprocess
import sys
import time

import pytest

from fhmdp import dataset_text, emit_model, solve_backward_induction
from fhmdp.cli import main
from conftest import make_toy_model


@pytest.fixture
def toy_model_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(emit_model(make_toy_model()), "utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_table(capsys):
    code, out, err = run(capsys, "solve", "--model", "drilling", "--format", "table")
    assert code == 0
    assert err == ""
    assert out.startswith("Expected total rewards (1e-2 mm)")
    assert "Optimal decisions" in out
    assert "89233.3" in out


def test_solve_json_matches_library(capsys, drilling):
    code, out, _ = run(capsys, "solve", "--model", "drilling", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    result = solve_backward_induction(drilling, 10)
    assert doc["value_table"] == [list(row) for row in result.values]
    assert doc["value_table"][9][0] == 7430.09
    assert doc["decision_table"][9] == [2, 2, 2, 1, 2, 2, 2, 1, 2, 2]


def test_solve_zero_horizon(capsys):
    code, out, _ = run(capsys, "solve", "--model", "drilling", "--horizon", "0")
    assert code == 0
    assert "Optimal decisions" not in out
    assert "n=0" in out


def test_solve_with_terminal_values(capsys, tmp_path, toy_model_file):
    terminal = tmp_path / "terminal.json"
    terminal.write_text("[10.0, 20.0]", "utf-8")
    code, out, _ = run(
        capsys,
        "solve",
        "--model",
        toy_model_file,
        "--horizon",
        "1",
        "--terminal-values",
        str(terminal),
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["value_table"][1] == [10.0, 20.0]


def test_solve_rejects_nonfinite_terminal_values(capsys, tmp_path, toy_model_file):
    terminal = tmp_path / "terminal.json"
    terminal.write_text("[NaN, 0.0]", "utf-8")
    code, out, err = run(
        capsys, "solve", "--model", toy_model_file, "--terminal-values", str(terminal)
    )
    assert code == 2
    assert out == ""
    assert "state 1 is not finite" in err


def test_solve_rejects_integer_too_large_for_float(capsys, tmp_path, toy_model_file):
    bad = tmp_path / "huge.json"
    text = open(toy_model_file, encoding="utf-8").read()
    bad.write_text(text.replace('"reward": 1.0', '"reward": 1' + "0" * 400, 1), "utf-8")
    code, out, err = run(capsys, "solve", "--model", str(bad))
    assert code == 2
    assert out == ""
    assert "reward: integer too large for a float" in err


def test_solve_missing_model(capsys):
    code, out, err = run(capsys, "solve", "--model", "nope.json")
    assert code == 2
    assert out == ""
    assert "neither a file nor a bundled dataset" in err


def test_solve_invalid_model_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "format_version": "1",
                "states": [
                    {
                        "label": "a",
                        "actions": [
                            {
                                "reward": 1.0,
                                "transitions": [{"to_state": 1, "probability": 0.9}],
                            }
                        ],
                    }
                ],
            }
        ),
        "utf-8",
    )
    code, out, err = run(capsys, "solve", "--model", str(bad))
    assert code == 2
    assert "sum to 0.9" in err


def test_check_bundled_fixtures(capsys):
    code, out, err = run(capsys, "check", "--model", "drilling")
    assert code == 0
    assert "all 210 value and decision cells match" in out
    assert err == ""


def test_check_mutated_value(capsys, tmp_path):
    doc = json.loads(dataset_text("drilling", "expected"))
    doc["value_table"][0][9] += 5.0
    fixture = tmp_path / "expected.json"
    fixture.write_text(json.dumps(doc), "utf-8")
    code, out, _ = run(
        capsys, "check", "--model", "drilling", "--expected", str(fixture)
    )
    assert code == 1
    assert "value[n=0][state=10]" in out
    assert "1 mismatched cell(s)" in out


def test_check_mutated_decision(capsys, tmp_path):
    doc = json.loads(dataset_text("drilling", "expected"))
    doc["decision_table"][9][3] = 2
    fixture = tmp_path / "expected.json"
    fixture.write_text(json.dumps(doc), "utf-8")
    code, out, _ = run(
        capsys, "check", "--model", "drilling", "--expected", str(fixture)
    )
    assert code == 1
    assert "decision[n=9][state=4]: expected 2, computed 1" in out


@pytest.mark.parametrize(
    "field, value",
    [
        ("value_tolerance_abs", float("nan")),
        ("value_tolerance_rel", float("inf")),
    ],
)
def test_check_rejects_nonfinite_tolerance(capsys, tmp_path, field, value):
    # A NaN tolerance used to make every cell pass, even one off by 10^6.
    doc = json.loads(dataset_text("drilling", "expected"))
    doc["value_table"][0][0] += 1e6
    doc[field] = value
    fixture = tmp_path / "expected.json"
    fixture.write_text(json.dumps(doc), "utf-8")
    code, out, err = run(
        capsys, "check", "--model", "drilling", "--expected", str(fixture)
    )
    assert code == 2
    assert out == ""
    assert f"results.{field}" in err


def test_check_rejects_nan_expected_value(capsys, tmp_path):
    doc = json.loads(dataset_text("drilling", "expected"))
    doc["value_table"][3][7] = float("nan")
    fixture = tmp_path / "expected.json"
    fixture.write_text(json.dumps(doc), "utf-8")
    code, out, err = run(
        capsys, "check", "--model", "drilling", "--expected", str(fixture)
    )
    assert code == 2
    assert out == ""
    assert "results.value_table[3][7]" in err


def test_check_horizon_must_match(capsys):
    code, _, err = run(capsys, "check", "--model", "drilling", "--horizon", "9")
    assert code == 2
    assert "does not match" in err


def test_check_requires_expected_for_plain_files(capsys, toy_model_file):
    code, _, err = run(capsys, "check", "--model", toy_model_file)
    assert code == 2
    assert "--expected is required" in err


def test_simulate_deterministic_and_reproducible(capsys, tmp_path):
    doc = {
        "format_version": "1",
        "states": [
            {
                "label": "only",
                "actions": [
                    {"reward": 2.5, "transitions": [{"to_state": 1, "probability": 1.0}]}
                ],
            }
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), "utf-8")
    args = (
        "simulate",
        "--model",
        str(path),
        "--horizon",
        "4",
        "--episodes",
        "8",
        "--seed",
        "3",
        "--format",
        "json",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    (estimate,) = json.loads(out)
    assert estimate == {
        "start_state": 1,
        "episodes": 8,
        "mean": 10.0,
        "standard_error": 0.0,
        "seed": 3,
    }
    code, out2, _ = run(capsys, *args)
    assert out2 == out


def test_simulate_with_policy_file(capsys, tmp_path, toy_model_file):
    code, out, _ = run(
        capsys, "solve", "--model", toy_model_file, "--horizon", "3", "--format", "json"
    )
    assert code == 0
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(out, "utf-8")
    code, out, _ = run(
        capsys,
        "simulate",
        "--model",
        toy_model_file,
        "--policy",
        str(policy_file),
        "--start-state",
        "1",
        "--episodes",
        "50",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "start_state,episodes,mean,standard_error,seed"
    assert len(lines) == 2
    assert lines[1].startswith("1,50,")


def test_simulate_table_lists_every_state_by_default(capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", "drilling", "--episodes", "20", "--seed", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["start_state", "episodes", "mean", "standard_error", "seed"]
    assert len(lines) == 11


SIMULATE_REPORTS = {
    "table": (
        "start_state  episodes     mean  standard_error  seed\n"
        "          1       200  89784.6         418.998     3\n"
        "          4       200   100639         222.794     3\n"
        "         10       200   108628         13.1073     3\n"
    ),
    "csv": (
        "start_state,episodes,mean,standard_error,seed\n"
        "1,200,89784.5564,418.9976082124263,3\n"
        "4,200,100639.23395,222.79418459697428,3\n"
        "10,200,108627.92629999999,13.107326905574661,3\n"
    ),
    "json": json.dumps(
        [
            {
                "start_state": 1,
                "episodes": 200,
                "mean": 89784.5564,
                "standard_error": 418.9976082124263,
                "seed": 3,
            },
            {
                "start_state": 4,
                "episodes": 200,
                "mean": 100639.23395,
                "standard_error": 222.79418459697428,
                "seed": 3,
            },
            {
                "start_state": 10,
                "episodes": 200,
                "mean": 108627.92629999999,
                "standard_error": 13.107326905574661,
                "seed": 3,
            },
        ],
        indent=2,
    )
    + "\n",
}


@pytest.mark.parametrize("report_format", sorted(SIMULATE_REPORTS))
def test_simulate_report_is_pinned(capsys, report_format):
    # Byte-for-byte stdout of every report format: pins the episode streams,
    # the sampling walk and the estimate renderer together.
    code, out, err = run(
        capsys, "simulate", "--model", "drilling", "--episodes", "200",
        "--seed", "3", "--start-state", "1", "--start-state", "4",
        "--start-state", "10", "--format", report_format,
    )
    assert (code, err) == (0, "")
    assert out == SIMULATE_REPORTS[report_format]


def test_simulate_invalid_start_state(capsys):
    code, _, err = run(
        capsys, "simulate", "--model", "drilling", "--start-state", "11",
        "--episodes", "2",
    )
    assert code == 2
    assert "out of range 1..10" in err


def test_verify_toy_instances(capsys, toy_model_file):
    code, out, _ = run(
        capsys, "verify", "--model", toy_model_file, "--horizon", "3"
    )
    assert code == 0
    assert "matches exhaustive enumeration of 64 policies" in out


def test_verify_forced_single_action_chain(capsys, tmp_path):
    doc = {
        "format_version": "1",
        "states": [
            {
                "label": "only",
                "actions": [
                    {"reward": 5.0, "transitions": [{"to_state": 1, "probability": 1.0}]}
                ],
            }
        ],
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc), "utf-8")
    code, out, _ = run(capsys, "verify", "--model", str(path), "--horizon", "2")
    assert code == 0
    code, out, _ = run(
        capsys, "solve", "--model", str(path), "--horizon", "2", "--format", "json"
    )
    assert json.loads(out)["value_table"][0] == [10.0]


def test_verify_rejects_oversized_instances(capsys):
    code, out, err = run(capsys, "verify", "--model", "drilling")
    assert code == 2
    assert out == ""
    assert "exceeding the cap" in err


@pytest.mark.parametrize("horizon", ["10000", "1000000"])
def test_verify_rejects_huge_horizon_before_solving(capsys, horizon):
    # The policy count has millions of digits: the cap is checked in log
    # space, before the solve, and the message names the cap.
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--model", "drilling", "--horizon", horizon)
    assert time.perf_counter() - started < 5.0
    assert code == 2
    assert out == ""
    assert "exceeding the cap of 1000000" in err
    assert "digits" not in err


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fhmdp", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
