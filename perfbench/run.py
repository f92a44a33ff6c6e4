"""End-to-end and per-layer benchmark of the fhmdp CLI.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload drives ``fhmdp.cli.main(argv)`` in-process with stdout
captured, one job at a time (closed loop, one client), for ``--seconds``
seconds of job time. Every job's output is checked after the job, outside
its timed region. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same jobs untraced and then traced, wrapping the public call of
each layer in a span, and reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of stdout is one
JSON object. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import reference
from synthetic import synthetic
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 7
# Seconds ``calibration`` takes on an unloaded machine (Python 3.11, the
# 2-vCPU host the baseline in README.md was measured on); reported times are
# scaled to this speed.
CALIBRATION_REFERENCE_S = 0.032
CALIBRATION_DOC = json.dumps([{"a": i * 0.1, "b": [i, i + 1]} for i in range(300)])
PROBE_EPISODES = 2000
PROBE_POLICY_CAP = 10**4
PROBE = "probe"


class Workload:
    """One benchmark input set: a job command line and its output check."""

    name = ""
    why = ""
    horizon = 0

    def __init__(self, fhmdp, seed: int) -> None:
        self.seed = seed
        self.model_text = ""
        self.paths: list[Path] = []

    def write_input(self, text: str) -> Path:
        path = WORK / f"{self.name}-seed{self.seed}-pid{os.getpid()}.json"
        path.write_text(text, encoding="utf-8")
        self.paths.append(path)
        return path

    def cleanup(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)

    def argv(self, job: int) -> list[str]:
        raise NotImplementedError

    def check(self, job: int, stdout: str) -> str | None:
        """A description of what is wrong with a job's output, or None."""
        raise NotImplementedError


class SparseCli(Workload):
    name = "sparse-cli"
    why = (
        "solve on a 1000-state sparse model: load (formats + model) and the "
        "solver kernel each take a third or more of a job"
    )
    horizon = 50
    shape = (1000, 4, 8)

    def __init__(self, fhmdp, seed: int) -> None:
        super().__init__(fhmdp, seed)
        self.model_text = synthetic(*self.shape, seed)
        self.path = self.write_input(self.model_text)
        values, decisions = reference.backward_induction(self.model_text, self.horizon)
        self.expected_values = [[v.hex() for v in row] for row in values]
        self.expected_decisions = [[k + 1 for k in row] for row in decisions]

    def argv(self, job: int) -> list[str]:
        return [
            "solve", "--model", str(self.path),
            "--horizon", str(self.horizon), "--format", "json",
        ]

    def check(self, job: int, stdout: str) -> str | None:
        doc = json.loads(stdout)
        if [[v.hex() for v in row] for row in doc["value_table"]] != self.expected_values:
            return "value table differs bitwise from the reference solver"
        if doc["decision_table"] != self.expected_decisions:
            return "decision table differs from the reference solver"
        return None


class DrillingMc(Workload):
    name = "drilling-mc"
    why = (
        "simulate 20000 episodes on the 10-state drilling model: episode RNG "
        "streams and the sampling walk; load and solve cost almost nothing"
    )
    horizon = 10  # the CLI default, which the job command relies on
    episodes = 20000

    def __init__(self, fhmdp, seed: int) -> None:
        super().__init__(fhmdp, seed)
        self.model_text = fhmdp.dataset_text("drilling", "model")
        mdp = fhmdp.load_model(self.model_text)
        policy = fhmdp.solve_backward_induction(mdp, self.horizon).decisions
        self.exact = fhmdp.evaluate_policy(mdp, policy, self.horizon)[0]

    def start_state(self, job: int) -> int:
        return 1 + job % 10

    def job_seed(self, job: int) -> int:
        return self.seed * 1_000_000 + job

    def argv(self, job: int) -> list[str]:
        return [
            "simulate", "--model", "drilling", "--episodes", str(self.episodes),
            "--start-state", str(self.start_state(job)),
            "--seed", str(self.job_seed(job)),
        ]

    def check(self, job: int, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != 2:
            return f"expected a header and one row, got {len(lines)} lines"
        start, episodes, mean, stderr, seed = lines[1].split()
        if (int(start), int(episodes), int(seed)) != (
            self.start_state(job), self.episodes, self.job_seed(job)
        ):
            return f"row {lines[1]!r} does not echo the job's arguments"
        exact = self.exact[int(start) - 1]
        # The table prints 6 significant digits; allow for that rounding.
        allowed = 5 * float(stderr) + 5e-6 * abs(exact)
        if abs(float(mean) - exact) > allowed:
            return f"mean {mean} is more than 5 standard errors from {exact!r}"
        return None


class TinyVerify(Workload):
    name = "tiny-verify"
    why = (
        "verify on a 3-state, 3-action model at horizon 3: 19683 tiny policy "
        "evaluations, where per-call overhead dominates"
    )
    horizon = 3
    shape = (3, 3, 3)

    def __init__(self, fhmdp, seed: int) -> None:
        super().__init__(fhmdp, seed)
        self.model_text = synthetic(*self.shape, seed)
        self.path = self.write_input(self.model_text)
        self.policies = self.shape[1] ** (self.shape[0] * self.horizon)

    def argv(self, job: int) -> list[str]:
        return ["verify", "--model", str(self.path), "--horizon", str(self.horizon)]

    def check(self, job: int, stdout: str) -> str | None:
        wanted = (
            "backward induction matches exhaustive enumeration of "
            f"{self.policies} policies"
        )
        if not stdout.startswith(wanted):
            return f"missing the matches line, got {stdout[:120]!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (SparseCli, DrillingMc, TinyVerify)}


def calibration() -> float:
    """Seconds a fixed mix of pure-Python work takes right now.

    The machine's speed drifts by up to 2x within a minute when neighbours
    load it, and this loop slows with it. Dividing a job's time by the loop
    times just before and after it removes most of that drift. The mix
    (dict stores and float arithmetic, JSON parsing into small tuples, a walk
    over a list of tuples) resembles what the jobs do; each part alone
    tracked the jobs less well.
    """
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(100_000):
        acc += i * 0.5
        table[i & 1023] = acc
    for _ in range(20):
        rows = [tuple(x["a"] * j for j in range(8)) for x in json.loads(CALIBRATION_DOC)]
        for row in rows:
            for v in row:
                acc += v
    data = [float(i) for i in range(30_000)]
    for row in [tuple(data[i:i + 10]) for i in range(0, 30_000, 10)]:
        for v in row:
            acc += v * 0.5
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2)


@dataclasses.dataclass
class Runs:
    """Jobs of one measured loop: ids, wall times, speed scales, failures."""

    jobs: list[int] = dataclasses.field(default_factory=list)
    times: list[float] = dataclasses.field(default_factory=list)
    scales: list[float] = dataclasses.field(default_factory=list)
    failures: list[str] = dataclasses.field(default_factory=list)

    def normalized(self) -> list[float]:
        return [t * s for t, s in zip(self.times, self.scales)]


def run_job(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """``(seconds, exit code or None if it raised, stdout, error text)``."""
    out = io.StringIO()
    err = io.StringIO()
    code: int | None = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def job_problem(workload: Workload, job: int, code, stdout: str, stderr: str) -> str | None:
    if code is None:
        return f"raised: {stderr.strip().splitlines()[-1] if stderr.strip() else '?'}"
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    try:
        return workload.check(job, stdout)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def measure(
    workload: Workload, main, seconds: float, first_job: int, runs: Runs,
    tracer: Tracer | None = None,
) -> None:
    """Run jobs back to back, at least one, until ``seconds`` of job time.

    Each job is bracketed by calibration loops and checked after it ends;
    neither is part of its time.
    """
    job = first_job
    busy = 0.0
    before = calibration()
    while not runs.times or busy < seconds:
        gc.collect()
        if tracer is not None:
            tracer.job = job
        elapsed, code, stdout, stderr = run_job(main, workload.argv(job))
        if tracer is not None:
            tracer.job = None
        after = calibration()
        busy += elapsed
        runs.jobs.append(job)
        runs.times.append(elapsed)
        runs.scales.append(scale(before, after))
        problem = job_problem(workload, job, code, stdout, stderr)
        if problem:
            runs.failures.append(f"job {job}: {problem}")
        before = after
        job += 1


def tail(times: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` at the highest nearest-rank percentile that has
    at least ten jobs beyond it, but never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def setup_seconds(failures: list[str]) -> tuple[list[float], list[float]]:
    """Raw and normalised times of fresh interpreters importing ``fhmdp.cli``.

    The first import is a warm-up that is not counted: it also writes the
    bytecode cache, which every later invocation finds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import fhmdp.cli"]
    raw, normalized = [], []
    before = calibration()
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = calibration()
        if done.returncode != 0:
            failures.append(f"import fhmdp.cli failed: {done.stderr.decode()[-200:]}")
        elif attempt:
            raw.append(elapsed)
            normalized.append(elapsed * scale(before, after))
        before = after
    return raw, normalized


def precheck(cli, failures: list[str]) -> None:
    _, code, stdout, stderr = run_job(cli.main, ["check", "--model", "drilling"])
    if code != 0 or "match" not in stdout:
        failures.append(f"check --model drilling: exit {code}: {stdout}{stderr}"[:300])


def model_counts(text: str) -> dict[str, int]:
    doc = json.loads(text)
    acts = [len(state["actions"]) for state in doc["states"]]
    nnz = sum(
        1
        for state in doc["states"]
        for action in state["actions"]
        for t in action.get("transitions", [])
        if t["probability"] != 0
    )
    return {
        "states": len(acts),
        "actions": sum(acts),
        "max_actions": max(acts),
        "action_product": math.prod(acts),
        "nnz": nnz,
    }


def trace_targets(fhmdp) -> list[tuple[object, str, str]]:
    """Calls wrapped during a traced run: ``(module, attribute, span name)``.

    The span name's prefix is the layer (module) that the call belongs to.
    """
    cli = fhmdp.cli
    return [
        (cli, "load_model", "formats.load_model"),
        (cli, "emit_report", "formats.emit_report"),
        (cli, "solve_backward_induction", "solve.solve_backward_induction"),
        (cli, "simulate_policy", "oracle.simulate_policy"),
        (cli, "enumerate_optimal", "oracle.enumerate_optimal"),
        (cli, "count_markov_policies", "oracle.count_markov_policies"),
        (fhmdp.datasets, "dataset_text", "datasets.dataset_text"),
    ]


def probe(tracer: Tracer, name: str, fn, *args) -> float:
    """Call ``fn`` at least 3 times and for at least 0.2 s (at most 1000
    calls) under span ``name``; return the speed scale of those calls."""
    traced = tracer.wrap(name, fn)
    spent = 0.0
    calls = 0
    before = calibration()
    while calls < 3 or (spent < 0.2 and calls < 1000):
        start = time.perf_counter()
        traced(*args)
        spent += time.perf_counter() - start
        calls += 1
    return scale(before, calibration())


def run_probes(fhmdp, tracer: Tracer, workload: Workload, counts: dict, job_names: set):
    """Direct calls on the workload's own model, outside any job.

    Always probed: the model rebuild, a warm solve, per-call policy
    evaluation, model emission and the per-episode scalar walk. A layer call
    that the workload's jobs never make is probed here too, so every
    per-layer time is measured on every workload; the report marks it.
    Returns the speed scale per span name and the probe input sizes.
    """
    tracer.job = PROBE
    h = workload.horizon
    mdp = fhmdp.load_model(workload.model_text)
    result = fhmdp.solve_backward_induction(mdp, h)
    policy = result.decisions
    sizes = {"report_bytes": len(fhmdp.emit_report(result, "json").encode())}
    scales = {
        "model.rebuild": probe(tracer, "model.rebuild", dataclasses.replace, mdp),
        "solve.warm": probe(tracer, "solve.warm", fhmdp.solve_backward_induction, mdp, h),
        "solve.evaluate_policy": probe(
            tracer, "solve.evaluate_policy", fhmdp.evaluate_policy, mdp, policy, h
        ),
        "formats.emit_model": probe(tracer, "formats.emit_model", fhmdp.emit_model, mdp),
        "oracle.sample_episode": probe(
            tracer, "oracle.sample_episode", fhmdp.sample_episode, mdp, policy, 0, workload.seed
        ),
    }
    if "formats.emit_report" not in job_names:
        scales["formats.emit_report"] = probe(
            tracer, "formats.emit_report", fhmdp.emit_report, result, "json"
        )
    if "oracle.simulate_policy" not in job_names:
        sizes["episodes"] = PROBE_EPISODES
        scales["oracle.simulate_policy"] = probe(
            tracer, "oracle.simulate_policy", fhmdp.simulate_policy,
            mdp, policy, 0, PROBE_EPISODES, workload.seed,
        )
    if "oracle.enumerate_optimal" not in job_names:
        ph = 0
        while ph < h and counts["action_product"] ** (ph + 1) <= PROBE_POLICY_CAP:
            ph += 1
        sizes["policies"] = counts["action_product"] ** ph
        scales["oracle.enumerate_optimal"] = probe(
            tracer, "oracle.enumerate_optimal", fhmdp.enumerate_optimal, mdp, ph
        )
    if "datasets.dataset_text" not in job_names:
        scales["datasets.dataset_text"] = probe(
            tracer, "datasets.dataset_text", fhmdp.dataset_text, "drilling", "model"
        )
    tracer.job = None
    return scales, sizes


def layer_metrics(fhmdp, workload: Workload, tracer: Tracer, untraced: Runs, traced: Runs):
    """Per-layer metrics from the traced jobs' spans and from probes."""
    counts = model_counts(workload.model_text)
    job_scale = dict(zip(traced.jobs, traced.scales))
    per_job: dict = defaultdict(lambda: defaultdict(float))
    self_per_job: dict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, tracer.self_times()):
        factor = job_scale[span.job]
        per_job[span.job][span.name] += span.duration * factor
        self_per_job[span.job][span.name.split(".")[0]] += own * factor
    jobs = list(per_job)
    job_names = {name for job in jobs for name in per_job[job]}

    probe_scales, sizes = run_probes(fhmdp, tracer, workload, counts, job_names)
    probe_calls: dict = defaultdict(list)
    for span in tracer.spans:
        if span.job == PROBE:
            probe_calls[span.name].append(span.duration * probe_scales[span.name])

    notes = []

    def seconds(name: str) -> float:
        """Median per job of a span's total time, else median per probe call."""
        values = [per_job[job][name] for job in jobs if name in per_job[job]]
        if values:
            return statistics.median(values)
        calls = probe_calls[name]
        notes.append(f"{name}: median of {len(calls)} probe calls (no job calls it)")
        return statistics.median(calls)

    h = workload.horizon
    states, actions, nnz = counts["states"], counts["actions"], counts["nnz"]
    dense_cells = states * actions
    model_bytes = len(workload.model_text.encode())
    load_s = seconds("formats.load_model")
    solve_s = seconds("solve.solve_backward_induction")
    simulate_s = seconds("oracle.simulate_policy")
    enumerate_s = seconds("oracle.enumerate_optimal")
    episodes = sizes.get("episodes", getattr(workload, "episodes", 0))
    policies = sizes.get("policies", counts["action_product"] ** h)
    terms = h * nnz
    traced_p50 = statistics.median(traced.normalized())
    untraced_p50 = statistics.median(untraced.normalized())

    values = {
        "formats.load_model_s": (load_s, "s"),
        "formats.load_mb_per_s": (model_bytes / 1e6 / load_s, "MB/s"),
        "formats.model_bytes": (model_bytes, "B"),
        "formats.emit_report_s": (seconds("formats.emit_report"), "s"),
        "formats.report_bytes": (sizes["report_bytes"], "B"),
        "formats.emit_model_s": (seconds("formats.emit_model"), "s"),
        "model.validate_s": (seconds("model.rebuild"), "s"),
        "model.states": (states, "count"),
        "model.actions": (actions, "count"),
        "model.nnz": (nnz, "count"),
        "model.dense_cells": (dense_cells, "count"),
        "model.nnz_ratio": (nnz / dense_cells, "ratio"),
        "solve.solve_s": (solve_s, "s"),
        "solve.solve_warm_s": (seconds("solve.warm"), "s"),
        "solve.epoch_s": (solve_s / h, "s"),
        "solve.evaluate_s": (seconds("solve.evaluate_policy"), "s"),
        "solve.lookaheads": (h * actions, "count"),
        "solve.terms": (terms, "count"),
        "solve.terms_per_s": (terms / solve_s, "1/s"),
        "solve.bytes_computed": (terms * 24, "B"),
        "oracle.simulate_s": (simulate_s, "s"),
        "oracle.episodes": (episodes, "count"),
        "oracle.episodes_per_s": (episodes / simulate_s, "1/s"),
        "oracle.walk_table_bytes": (states * counts["max_actions"] * states * 8, "B"),
        "oracle.sample_episode_s": (seconds("oracle.sample_episode"), "s"),
        "oracle.enumerate_s": (enumerate_s, "s"),
        "oracle.policies": (policies, "count"),
        "oracle.policies_per_s": (policies / enumerate_s, "1/s"),
        "datasets.load_drilling_s": (seconds("datasets.dataset_text"), "s"),
        "cli.self_s": (statistics.median(self_per_job[job]["cli"] for job in jobs), "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    }

    layers = sorted({layer for job in jobs for layer in self_per_job[job]})
    lines = [f"  self time per traced job (median of {len(jobs)} jobs, job p50 {traced_p50:.4f} s):"]
    for layer in layers:
        own = statistics.median(self_per_job[job][layer] for job in jobs)
        lines.append(f"    {layer:<10} {own:.6f} s  {100 * own / traced_p50:5.1f}%")
    lines += [f"  {name:<26} {value:.6g} {unit}" for name, (value, unit) in values.items()]
    lines += [
        f"  H = {h}; episodes and policies are per job, or per probe call where no job "
        "makes that call",
        "  bases: lookaheads = H x sum of actions; terms = H x nnz; dense_cells = states x "
        "sum of actions; bytes_computed = terms x 24 B and walk_table_bytes = states x "
        "max actions x states x 8 B are computed, not measured",
    ]
    lines += [f"  {note}" for note in notes]
    lines.append(
        f"  tracing overhead: traced job p50 {traced_p50:.6f} s - untraced "
        f"{untraced_p50:.6f} s = {traced_p50 - untraced_p50:+.6f} s "
        f"(n={len(traced.times)} traced, {len(untraced.times)} untraced)"
    )
    return values, lines


def end_to_end(runs: Runs, attempted: int, failed: int, setup: tuple[list[float], list[float]]):
    """End-to-end metrics from the untraced loop, in normalised seconds."""
    times = runs.normalized()
    n = len(times)
    busy = sum(times)
    tail_value, tail_pct = tail(times)
    raw_setup, setup_s = setup
    values = {
        "jobs_per_s": ((n - len(runs.failures)) / busy, "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    raw_tail, _ = tail(runs.times)
    notes = {
        "jobs_per_s": f"completed jobs / summed job time (n={n} jobs, "
        f"{busy:.2f} s; raw wall {len(runs.times) / sum(runs.times):.4f} 1/s)",
        "job_p50_s": f"median (n={n}; raw wall {statistics.median(runs.times):.4f} s)",
        "job_tail_s": f"p{tail_pct:.1f}: highest nearest-rank percentile with >= 10 jobs "
        f"beyond it, not below the median (n={n}; raw wall {raw_tail:.4f} s)",
        "setup_s": f"median of {len(setup_s)} fresh interpreters running 'import fhmdp.cli' "
        f"(raw wall {statistics.median(raw_setup):.4f} s)",
        "peak_rss_mb": "ru_maxrss of the process that ran the workload",
        "ok_ratio": f"1 - failed_ratio (n={attempted} jobs)",
    }
    lines = [
        f"  {name:<13} {value:.6g} {unit:<5} {notes[name]}"
        for name, (value, unit) in values.items()
    ]
    lines.append(f"  failed_ratio  {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    lines.append(
        f"  times are normalised to a calibration loop of {CALIBRATION_REFERENCE_S} s "
        f"(this run: median {CALIBRATION_REFERENCE_S / statistics.median(runs.scales):.5f} s)"
    )
    return values, lines


def run_workload(fhmdp, name: str, seed: int, seconds: float, trace: bool) -> int:
    failures: list[str] = []
    # Set-up is timed first, before this process has built any inputs.
    setup = ([], []) if trace else setup_seconds(failures)
    precheck(fhmdp.cli, failures)
    workload = WORKLOADS[name](fhmdp, seed)
    try:
        print(
            f"fhmdp benchmark: workload {name}, seed {seed}, {seconds:g} s of jobs, "
            f"closed loop, one client, trace {int(trace)}"
        )
        print(f"  job: fhmdp {' '.join(workload.argv(0))}")
        # One unmeasured job first, so measured jobs do not pay first-call
        # costs that every later invocation in this process skips.
        warmup = Runs()
        measure(workload, fhmdp.cli.main, 0.0, 0, warmup)
        untraced = Runs()
        measure(workload, fhmdp.cli.main, seconds / 2 if trace else seconds, 1, untraced)
        runs = [warmup, untraced]
        if trace:
            tracer = Tracer()
            traced = Runs()
            with tracer.patch(trace_targets(fhmdp)):
                main = tracer.wrap("cli.main", fhmdp.cli.main)
                measure(workload, main, seconds / 2, 1 + len(untraced.jobs), traced, tracer)
            runs.append(traced)
    finally:
        workload.cleanup()

    attempted = sum(len(r.jobs) for r in runs)
    failed = sum(len(r.failures) for r in runs)
    failures += [f for r in runs for f in r.failures]
    if trace:
        values, lines = layer_metrics(fhmdp, workload, tracer, untraced, traced)
        tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    else:
        values, lines = end_to_end(untraced, attempted, failed, setup)
    for line in lines:
        print(line)
    for failure in failures:
        print(f"  FAILED {failure}")
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            cmd = [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            sys.stdout.flush()
            codes.append(subprocess.run(cmd, check=False).returncode)
        return max(codes)

    if not (SRC / "fhmdp" / "__init__.py").is_file():
        print(f"error: no fhmdp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fhmdp
    import fhmdp.cli

    if SRC not in Path(fhmdp.__file__).resolve().parents:
        print(f"error: imported fhmdp from {fhmdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the interpreters it starts, so the
        # calibration loop measures the CPU that the timed work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_workload(fhmdp, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
