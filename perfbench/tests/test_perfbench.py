"""Tests of the benchmark itself: generator, reference solver and runner.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import fhmdp  # noqa: E402
import reference  # noqa: E402
from synthetic import synthetic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_synthetic_is_deterministic_and_loadable():
    text = synthetic(50, 3, 4, seed=7)
    assert synthetic(50, 3, 4, seed=7) == text
    assert synthetic(50, 3, 4, seed=8) != text
    mdp = fhmdp.load_model(text, mode="tolerant")
    assert mdp.state_count == 50
    assert all(mdp.action_count(i) == 3 for i in range(50))
    assert all(len(act.support) == 4 for acts in mdp.actions for act in acts)


def _hex(values):
    return [[v.hex() for v in row] for row in values]


@pytest.mark.parametrize(
    "text",
    [fhmdp.dataset_text("drilling"), synthetic(40, 4, 5, seed=3)],
    ids=["drilling", "synthetic"],
)
def test_reference_matches_solver_bitwise(text):
    values, decisions = reference.backward_induction(text, 10)
    result = fhmdp.solve_backward_induction(fhmdp.load_model(text), 10)
    assert _hex(values) == _hex(result.values)
    assert [tuple(row) for row in decisions] == list(result.decisions)


def test_reference_matches_drilling_fixture():
    # The fixture's values are rounded and carry their own tolerance, so the
    # decisions are compared exactly and the values within that tolerance.
    expected = fhmdp.load_drilling_expected_results()
    values, decisions = reference.backward_induction(
        fhmdp.dataset_text("drilling"), expected.horizon
    )
    assert [tuple(row) for row in decisions] == list(expected.decision_table)
    for row, wanted_row in zip(values, expected.value_table):
        for value, wanted in zip(row, wanted_row):
            assert abs(value - wanted) <= expected.value_tolerance_abs


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run(tmp_path, "--workload", "tiny-verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
