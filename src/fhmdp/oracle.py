"""Independent correctness checks for the solver.

Two complementary oracles:

* :func:`enumerate_optimal` brute-forces every Markov policy of a small
  instance and reports the componentwise-best epoch-0 values, defining
  optimality without any dynamic programming.
* :func:`simulate_policy` estimates a policy's expected total reward by
  sampling trajectories, tying the exact recursion to the stochastic
  process it models.

Sampling is reproducible: episode ``e`` draws from a PCG64 generator seeded
by ``SeedSequence(entropy=seed, spawn_key=(e,))``, so growing the episode
count never reshuffles earlier episodes, and episodes are independent
streams safe to evaluate in any order. Successor states are drawn by
inverse CDF over the transition row in ascending state order, with any
residual mass from rounding assigned to the last positive-probability
state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError
from .model import FiniteHorizonMdp
from .solve import (
    DecisionTable,
    SolveResult,
    ValueTable,
    _check_horizon,
    _check_policy,
)

#: Refuse to enumerate instances with more Markov policies than this.
DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class EpisodeStep:
    """One transition of a sampled trajectory (0-based indices)."""

    epoch: int
    state: int
    action: int
    reward: float
    next_state: int


@dataclass(frozen=True)
class EpisodeTrace:
    """A full sampled trajectory; ``total_reward`` sums the step rewards."""

    steps: tuple[EpisodeStep, ...]
    total_reward: float


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean of a policy's total reward from one start state.

    ``standard_error`` is the sample standard deviation (ddof=1) divided by
    ``sqrt(episode_count)``; it is 0 when every episode yields the same total.
    """

    start_state: int
    episode_count: int
    mean: float
    standard_error: float
    seed: int


def count_markov_policies(mdp: FiniteHorizonMdp, horizon: int) -> int:
    """Exact number of Markov policies: prod_i |A(i)| raised to the horizon."""
    per_stage = 1
    for i in range(mdp.state_count):
        per_stage *= mdp.action_count(i)
    return per_stage ** _check_horizon(horizon)


#: Per state, per action: ``(reward, [(target, probability), ...])``.
_ScalarRows = list[list[tuple[float, list[tuple[int, float]]]]]


def _scalar_rows(mdp: FiniteHorizonMdp) -> _ScalarRows:
    rewards = mdp.rewards.tolist()
    targets = mdp.targets.tolist()
    probs = mdp.probs.tolist()
    rows = mdp.row_offsets.tolist()
    bounds = mdp.action_offsets.tolist()
    successors = [
        list(zip(targets[lo:hi], probs[lo:hi])) for lo, hi in zip(rows, rows[1:])
    ]
    return [
        [(rewards[a], successors[a]) for a in range(lo, hi)]
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _evaluate(
    rows: _ScalarRows, policy: DecisionTable, terminal: tuple[float, ...]
) -> ValueTable:
    # Plain-Python policy evaluation, kept apart from the solver's numpy
    # kernel so that enumeration checks it independently; it follows the same
    # summation contract (reward first, then ascending targets).
    value_rows: list[tuple[float, ...]] = [terminal]
    current = terminal
    for decisions in reversed(policy):
        row = []
        for actions, k in zip(rows, decisions):
            total, successors = actions[k]
            for j, p in successors:
                total += p * current[j]
            row.append(total)
        current = tuple(row)
        value_rows.append(current)
    value_rows.reverse()
    return tuple(value_rows)


def enumerate_optimal(
    mdp: FiniteHorizonMdp,
    horizon: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolveResult:
    """Brute-force optimum: evaluate every Markov policy of the instance.

    Returns the componentwise-maximum epoch-0 values together with the
    lexicographically lowest policy achieving them (policies are ordered by
    their action indices flattened epoch-major). Raises
    :class:`InstanceTooLargeError` when the instance has more than ``cap``
    policies.
    """
    horizon = _check_horizon(horizon)
    count = count_markov_policies(mdp, horizon)
    if count > cap:
        raise InstanceTooLargeError(
            f"instance has {count} Markov policies, exceeding the cap of {cap}"
        )

    terminal = (0.0,) * mdp.state_count
    if horizon == 0:
        return SolveResult(values=(terminal,), decisions=())

    state_count = mdp.state_count
    rows = _scalar_rows(mdp)
    choice_ranges = [
        range(mdp.action_count(i)) for _ in range(horizon) for i in range(state_count)
    ]
    best_policy: DecisionTable | None = None
    best_vec: tuple[float, ...] | None = None
    for flat in product(*choice_ranges):
        policy = tuple(
            flat[n * state_count : (n + 1) * state_count] for n in range(horizon)
        )
        vec = _evaluate(rows, policy, terminal)[0]
        if best_vec is None:
            best_policy, best_vec = policy, vec
        elif vec != best_vec and all(a >= b for a, b in zip(vec, best_vec)):
            # Strict improvement somewhere, no regression anywhere: the new
            # policy dominates the incumbent. A simultaneously optimal Markov
            # policy always exists, so the final incumbent attains the
            # componentwise maximum and earlier ties are kept (lowest lex).
            best_policy, best_vec = policy, vec

    assert best_policy is not None
    return SolveResult(values=_evaluate(rows, best_policy, terminal), decisions=best_policy)


def _episode_rng(seed: int, episode: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(episode,))
    return np.random.Generator(np.random.PCG64(ss))


def _check_seed(seed: int) -> int:
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def sample_episode(
    mdp: FiniteHorizonMdp,
    policy: Sequence[Sequence[int]],
    start_state: int,
    seed: int,
    episode: int = 0,
) -> EpisodeTrace:
    """Sample one trajectory under ``policy`` from ``start_state``.

    Episode ``episode`` of :func:`simulate_policy` with the same arguments
    follows exactly this trajectory.
    """
    seed = _check_seed(seed)
    horizon = len(policy)
    checked = _check_policy(mdp, policy, horizon)
    if not 0 <= start_state < mdp.state_count:
        raise ValueError(
            f"start_state {start_state} out of range 0..{mdp.state_count - 1}"
        )
    uniforms = _episode_rng(seed, episode).random(horizon)

    steps: list[EpisodeStep] = []
    state = start_state
    total = 0.0
    for n in range(horizon):
        action = int(checked[n, state])
        a = int(mdp.action_offsets[state]) + action
        lo, hi = mdp.row_offsets[a : a + 2].tolist()
        targets = mdp.targets[lo:hi].tolist()
        reward = float(mdp.rewards[a])
        cumulative = 0.0
        next_state = targets[-1]
        for j, p in zip(targets, mdp.probs[lo:hi].tolist()):
            cumulative += p
            if uniforms[n] < cumulative:
                next_state = j
                break
        total += reward
        steps.append(
            EpisodeStep(
                epoch=n,
                state=state,
                action=action,
                reward=reward,
                next_state=next_state,
            )
        )
        state = next_state
    return EpisodeTrace(steps=tuple(steps), total_reward=total)


def _walk_tables(
    mdp: FiniteHorizonMdp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense reward/cumulative-probability tables for the vectorized walk."""
    n = mdp.state_count
    counts = np.diff(mdp.action_offsets)
    state_of = np.repeat(np.arange(n), counts)
    slot_of = np.arange(len(mdp.rewards)) - mdp.action_offsets[state_of]
    rewards = np.zeros((n, int(counts.max())))
    rewards[state_of, slot_of] = mdp.rewards
    last_support = np.zeros(rewards.shape, dtype=np.intp)
    last_support[state_of, slot_of] = mdp.targets[mdp.row_offsets[1:] - 1]
    cumulative = np.zeros((*rewards.shape, n))
    probs = mdp.probs.tolist()
    rows = mdp.row_offsets.tolist()
    for a, (i, k) in enumerate(zip(state_of.tolist(), slot_of.tolist())):
        lo, hi = rows[a], rows[a + 1]
        # Sequential running sums, as in sample_episode's scalar walk.
        cumulative[i, k, mdp.targets[lo:hi]] = list(accumulate(probs[lo:hi]))
    # Forward-fill so "first state whose cumulative exceeds u" can be found
    # with a single vectorized comparison; stored sums are positive and
    # nondecreasing along a row, so a running maximum fills the gaps.
    np.maximum.accumulate(cumulative, axis=2, out=cumulative)
    return rewards, cumulative, last_support


def simulate_policy(
    mdp: FiniteHorizonMdp,
    policy: Sequence[Sequence[int]],
    start_state: int,
    episodes: int,
    seed: int,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of a policy's expected total reward.

    Runs ``episodes`` independent trajectories from ``start_state`` and
    returns their mean and standard error. Fully deterministic for a given
    ``(seed, episodes, model, policy, start_state)``; the mean converges to
    ``evaluate_policy(...)[0][start_state]`` as ``episodes`` grows.
    """
    seed = _check_seed(seed)
    episodes = operator.index(episodes)
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    horizon = len(policy)
    checked = _check_policy(mdp, policy, horizon)
    if not 0 <= start_state < mdp.state_count:
        raise ValueError(
            f"start_state {start_state} out of range 0..{mdp.state_count - 1}"
        )

    uniforms = np.empty((episodes, horizon))
    for e in range(episodes):
        uniforms[e] = _episode_rng(seed, e).random(horizon)

    rewards, cumulative, last_support = _walk_tables(mdp)
    states = np.full(episodes, start_state, dtype=np.intp)
    totals = np.zeros(episodes)
    for n in range(horizon):
        actions = checked[n][states]
        totals += rewards[states, actions]
        rows = cumulative[states, actions]
        hit = uniforms[:, n][:, None] < rows
        next_states = hit.argmax(axis=1)
        missed = ~hit.any(axis=1)
        if missed.any():
            next_states[missed] = last_support[states[missed], actions[missed]]
        states = next_states

    if bool(np.all(totals == totals[0])):
        # Degenerate sample: the mean is exactly the common total.
        return MonteCarloEstimate(
            start_state=start_state,
            episode_count=episodes,
            mean=float(totals[0]),
            standard_error=0.0,
            seed=seed,
        )
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(episodes))
    return MonteCarloEstimate(
        start_state=start_state,
        episode_count=episodes,
        mean=mean,
        standard_error=stderr,
        seed=seed,
    )
