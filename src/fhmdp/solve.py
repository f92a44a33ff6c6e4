"""Backward-induction solver and fixed-policy evaluation.

Values are indexed ``values[n][i]`` for epochs ``n = 0..N`` (row ``N`` is the
terminal vector); decisions are indexed ``decisions[n][i]`` for ``n = 0..N-1``
with 0-based action indices. The recursion fills the table from the terminal
row toward epoch 0, choosing at each epoch and state the action maximizing
the immediate reward plus the probability-weighted next-epoch values.

Summation contract: every lookahead starts from the action's reward and adds
``p * v[j]`` over the action's stored (nonzero) transitions in ascending
target order ``j``, in double precision; zero-probability terms are never
added. Between actions of a state, a strict ``>`` scan in action order picks
the maximum, so ties (and NaN values) go to the lowest action index. The
solver, :func:`one_step_lookahead`, and :func:`evaluate_policy` follow this
contract and therefore agree bit for bit on the same model, and identical
inputs always produce bitwise-identical outputs.

The solver and :func:`evaluate_policy` share one numpy kernel over the
model's CSR arrays (see ``fhmdp.model``). It lays the transitions out column
by column: column ``c`` holds the ``c``-th stored transition of every action
that has one, and each epoch adds the columns in order. Each action's sum is
therefore accumulated in ascending target order with exactly the scalar
operations above, without padding lanes that would add ``0.0 * v`` terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import FiniteHorizonMdp, validate_terminal_values

#: values[epoch][state], epochs 0..N; row N holds the terminal values.
ValueTable = tuple[tuple[float, ...], ...]

#: decisions[epoch][state], epochs 0..N-1; entries are 0-based action indices.
DecisionTable = tuple[tuple[int, ...], ...]

#: A decision rule per epoch and state; same layout as DecisionTable.
Policy = DecisionTable


@dataclass(frozen=True)
class SolveResult:
    """Optimal value table and the decisions achieving it."""

    values: ValueTable
    decisions: DecisionTable

    @property
    def horizon(self) -> int:
        return len(self.decisions)

    @property
    def state_count(self) -> int:
        return len(self.values[0])


def one_step_lookahead(
    mdp: FiniteHorizonMdp,
    state: int,
    action: int,
    next_values: Sequence[float],
) -> float:
    """Immediate reward of ``action`` in ``state`` plus expected next value.

    ``next_values`` must hold one value per state. Raises ``ValueError`` for
    an out-of-range state or action or a next-value length mismatch.
    """
    if not 0 <= state < mdp.state_count:
        raise ValueError(f"state index {state} out of range 0..{mdp.state_count - 1}")
    if not 0 <= action < mdp.action_count(state):
        raise ValueError(
            f"action index {action} out of range 0..{mdp.action_count(state) - 1} "
            f"for state {state}"
        )
    if len(next_values) != mdp.state_count:
        raise ValueError(
            f"next_values has {len(next_values)} entries for {mdp.state_count} states"
        )
    a = int(mdp.action_offsets[state]) + action
    lo, hi = mdp.row_offsets[a : a + 2].tolist()
    total = float(mdp.rewards[a])
    for j, p in zip(mdp.targets[lo:hi].tolist(), mdp.probs[lo:hi].tolist()):
        total += p * next_values[j]
    return total


def _check_horizon(horizon: int) -> int:
    horizon = operator.index(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return horizon


def _lookahead_kernel(mdp: FiniteHorizonMdp) -> Callable[[np.ndarray], np.ndarray]:
    """Return ``table(v)``: every action's lookahead against next values ``v``.

    ``table(v)[i, k]`` is action ``k`` of state ``i``; cells past a state's
    last action hold -inf, which never wins a strict ``>`` comparison. The
    returned array is reused by the next call.
    """
    lengths = np.diff(mdp.row_offsets)
    # Actions with more stored transitions first, so that the actions owning
    # a c-th transition are a prefix and each column updates a slice.
    order = np.argsort(-lengths, kind="stable")
    starts = mdp.row_offsets[:-1][order]
    remaining = lengths[order]
    columns = []
    for c in range(int(remaining[0])):
        width = int(np.count_nonzero(remaining > c))
        picks = starts[:width] + c
        columns.append((width, mdp.probs[picks], mdp.targets[picks]))
    counts = np.diff(mdp.action_offsets)
    state_of = np.repeat(np.arange(mdp.state_count), counts)
    max_actions = int(counts.max())
    slots = (
        state_of * max_actions + np.arange(len(mdp.rewards)) - mdp.action_offsets[state_of]
    )[order]
    rewards = mdp.rewards[order]
    table = np.full((mdp.state_count, max_actions), -np.inf)
    cells = table.reshape(-1)

    def lookahead(next_values: np.ndarray) -> np.ndarray:
        q = rewards.copy()
        # Overflow to +-inf and inf - inf = NaN are results, as with floats.
        with np.errstate(over="ignore", invalid="ignore"):
            for width, probs, targets in columns:
                q[:width] += probs * next_values[targets]
        cells[slots] = q
        return table

    return lookahead


def solve_backward_induction(
    mdp: FiniteHorizonMdp,
    horizon: int,
    terminal_values: Sequence[float] | None = None,
) -> SolveResult:
    """Solve an ``horizon``-stage model exactly.

    Returns the full value table (epochs ``0..horizon``) and the maximizing
    decision per epoch and state. Ties between actions go to the lowest
    action index. ``terminal_values`` defaults to all zeros and must be
    finite.
    """
    horizon = _check_horizon(horizon)
    terminal = validate_terminal_values(terminal_values, mdp.state_count)
    lookahead = _lookahead_kernel(mdp)

    value_rows: list[tuple[float, ...]] = [terminal]
    decision_rows: list[tuple[int, ...]] = []
    current = np.array(terminal)
    for _ in range(horizon):
        table = lookahead(current)
        best = table[:, 0].copy()
        chosen = np.zeros(mdp.state_count, dtype=np.intp)
        for k in range(1, table.shape[1]):
            candidate = table[:, k]
            better = candidate > best
            best[better] = candidate[better]
            chosen[better] = k
        current = best
        value_rows.append(tuple(best.tolist()))
        decision_rows.append(tuple(chosen.tolist()))

    value_rows.reverse()
    decision_rows.reverse()
    return SolveResult(values=tuple(value_rows), decisions=tuple(decision_rows))


def _check_policy(
    mdp: FiniteHorizonMdp, policy: Sequence[Sequence[int]], horizon: int
) -> np.ndarray:
    """The policy as an ``(horizon, state_count)`` array of action indices."""
    if len(policy) != horizon:
        raise ValueError(f"policy has {len(policy)} epochs, expected {horizon}")
    counts = np.diff(mdp.action_offsets).tolist()
    checked = np.empty((horizon, mdp.state_count), dtype=np.intp)
    for n, row in enumerate(policy):
        if len(row) != mdp.state_count:
            raise ValueError(
                f"policy row {n} has {len(row)} entries for {mdp.state_count} states"
            )
        converted = []
        for i, (k, count) in enumerate(zip(row, counts)):
            try:
                k = operator.index(k)
            except TypeError:
                raise ValueError(
                    f"policy row {n}, state {i}: action index {k!r} is not an integer"
                ) from None
            if not 0 <= k < count:
                raise ValueError(
                    f"policy row {n}, state {i}: action index {k} out of range "
                    f"0..{count - 1}"
                )
            converted.append(k)
        checked[n] = converted
    return checked


def evaluate_policy(
    mdp: FiniteHorizonMdp,
    policy: Sequence[Sequence[int]],
    horizon: int,
    terminal_values: Sequence[float] | None = None,
) -> ValueTable:
    """Value table of a fixed policy (0-based action index per epoch/state).

    For the policy extracted by :func:`solve_backward_induction` this
    reproduces the solver's value table exactly. Raises ``ValueError`` on
    any dimension mismatch or a non-integer or out-of-range action index.
    """
    horizon = _check_horizon(horizon)
    checked = _check_policy(mdp, policy, horizon)
    terminal = validate_terminal_values(terminal_values, mdp.state_count)
    lookahead = _lookahead_kernel(mdp)
    states = np.arange(mdp.state_count)

    value_rows: list[tuple[float, ...]] = [terminal]
    current = np.array(terminal)
    for n in range(horizon - 1, -1, -1):
        current = lookahead(current)[states, checked[n]]
        value_rows.append(tuple(current.tolist()))
    value_rows.reverse()
    return tuple(value_rows)
