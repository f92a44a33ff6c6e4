"""Finite-horizon Markov decision process model.

A model is a set of states, a nonempty set of actions per state, and for each
action an immediate reward plus a probability distribution over successor
states. Instances are immutable and validated on construction, so any model
you can hold is safe to solve, evaluate, or share across threads.

Storage is compressed sparse rows (CSR), one row per action, held in
read-only numpy arrays:

* ``rewards[a]`` is the reward of flat action ``a``; the actions of state
  ``i`` are ``a = action_offsets[i] .. action_offsets[i + 1] - 1`` in their
  per-state order,
* ``targets[z]`` and ``probs[z]`` for ``z = row_offsets[a] ..
  row_offsets[a + 1] - 1`` are action ``a``'s nonzero transitions, with
  strictly ascending targets and strictly positive probabilities.

Memory is O(states + actions + nonzeros); no dense transition row is stored.
Action labels and metadata are flat side tuples indexed like ``rewards``.
``FiniteHorizonMdp.actions`` rebuilds the dense per-action :class:`Action`
view on first access, for callers that want it.

Indices are 0-based throughout the in-memory API. Serialized files and
printed reports use 1-based state/action numbering (see ``fhmdp.formats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ModelValidationError

#: Allowed deviation of a transition row's probability sum from 1.
PROBABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Action:
    """One admissible decision in a state.

    ``reward`` is the expected immediate payoff for taking the action;
    ``probabilities`` is the dense distribution over successor states and
    must have one entry per model state. ``label`` and ``metadata`` carry
    descriptive information only (e.g. a feed rate in mm/rev); nothing in
    the solver reads them.
    """

    reward: float
    probabilities: tuple[float, ...]
    label: str = ""
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reward", float(self.reward))
        object.__setattr__(
            self, "probabilities", tuple(float(p) for p in self.probabilities)
        )

    @cached_property
    def support(self) -> tuple[tuple[int, float], ...]:
        """Nonzero ``(state, probability)`` pairs in ascending state order."""
        return tuple((j, p) for j, p in enumerate(self.probabilities) if p != 0.0)


def _fsum(row: Sequence[float]) -> float:
    # Exactly rounded sum; an overflowing sum is +inf, and inf + -inf is NaN.
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def row_sums(probs: np.ndarray, row_offsets: np.ndarray) -> list[float]:
    """Exactly rounded (``math.fsum``) probability sum of every CSR row."""
    values = probs.tolist()
    bounds = row_offsets.tolist()
    return [_fsum(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _frozen(name: str, values: object, dtype: type) -> np.ndarray:
    """A read-only one-dimensional copy of ``values``."""
    array = np.array(values)
    if array.ndim != 1:
        raise ModelValidationError(f"{name} must be one-dimensional")
    if dtype is np.intp and array.size and array.dtype.kind not in "iu":
        raise ModelValidationError(f"{name} must hold integers")
    array = array.astype(dtype, copy=False)
    array.setflags(write=False)
    return array


def _is_partition(offsets: np.ndarray, total: int) -> bool:
    return (
        len(offsets) > 0
        and offsets[0] == 0
        and offsets[-1] == total
        and bool(np.all(offsets[1:] >= offsets[:-1]))
    )


@dataclass(frozen=True, init=False, eq=False)
class FiniteHorizonMdp:
    """Validated decision model: per-state actions with rewards and transitions.

    Build one from a nested table of :class:`Action` objects,
    ``FiniteHorizonMdp(actions=..., state_labels=..., ...)``, or from the
    CSR arrays described in the module docstring, passed as keywords
    (``rewards=``, ``action_offsets=``, ``row_offsets=``, ``targets=``,
    ``probs=`` and optionally ``action_labels=`` / ``action_metadata=``).
    Arrays are copied and stored read-only. Construction checks every
    invariant and raises :class:`ModelValidationError` with a 1-based
    state/action reference on the first violation:

    * at least one state, and at least one action per state,
    * every dense transition row has exactly ``state_count`` entries,
    * probabilities are finite, nonnegative, and sum to 1 within
      ``PROBABILITY_TOLERANCE`` (exactly rounded sum via ``math.fsum``),
    * rewards are finite.

    ``reward_unit`` is a free-text tag carried through to reports; the solver
    never converts units.
    """

    rewards: np.ndarray
    action_offsets: np.ndarray
    row_offsets: np.ndarray
    targets: np.ndarray
    probs: np.ndarray
    action_labels: tuple[str, ...]
    action_metadata: tuple[Mapping[str, object], ...]
    state_labels: tuple[str, ...] | None = None
    state_metadata: tuple[Mapping[str, object], ...] | None = None
    reward_unit: str = ""

    def __init__(
        self,
        actions: Iterable[Iterable[Action]] | None = None,
        state_labels: Iterable[str] | None = None,
        state_metadata: Iterable[Mapping[str, object]] | None = None,
        reward_unit: str = "",
        *,
        rewards: Sequence[float] | np.ndarray | None = None,
        action_offsets: Sequence[int] | np.ndarray | None = None,
        row_offsets: Sequence[int] | np.ndarray | None = None,
        targets: Sequence[int] | np.ndarray | None = None,
        probs: Sequence[float] | np.ndarray | None = None,
        action_labels: Iterable[str] | None = None,
        action_metadata: Iterable[Mapping[str, object]] | None = None,
    ) -> None:
        arrays = (rewards, action_offsets, row_offsets, targets, probs)
        if actions is not None:
            if any(a is not None for a in (*arrays, action_labels, action_metadata)):
                raise TypeError("pass either actions or the CSR arrays, not both")
            (arrays, action_labels, action_metadata) = _csr_from_actions(actions)
        elif any(a is None for a in arrays):
            raise TypeError(
                "rewards, action_offsets, row_offsets, targets and probs are "
                "required when actions is not given"
            )
        set_ = object.__setattr__
        for name, values, dtype in zip(
            ("rewards", "action_offsets", "row_offsets", "targets", "probs"),
            arrays,
            (np.float64, np.intp, np.intp, np.intp, np.float64),
        ):
            set_(self, name, _frozen(name, values, dtype))
        count = len(self.rewards)
        if action_labels is None:
            action_labels = ("",) * count
        if action_metadata is None:
            action_metadata = [{} for _ in range(count)]
        for name, values in (
            ("action_labels", action_labels),
            ("action_metadata", action_metadata),
            ("state_labels", state_labels),
            ("state_metadata", state_metadata),
        ):
            set_(self, name, None if values is None else tuple(values))
        set_(self, "reward_unit", reward_unit)
        self._validate()

    def _validate(self) -> None:
        n = len(self.action_offsets) - 1
        if n < 1:
            raise ModelValidationError("model must have at least one state")
        count = len(self.rewards)
        if not _is_partition(self.action_offsets, count):
            raise ModelValidationError(
                f"action_offsets must rise from 0 to the {count} actions"
            )
        empty = np.flatnonzero(self.action_offsets[1:] == self.action_offsets[:-1])
        if empty.size:
            raise ModelValidationError(f"state {empty[0] + 1} has no actions")
        nnz = len(self.targets)
        if (
            len(self.probs) != nnz
            or len(self.row_offsets) != count + 1
            or not _is_partition(self.row_offsets, nnz)
        ):
            raise ModelValidationError(
                f"row_offsets must have {count + 1} entries rising from 0 to "
                f"the {nnz} targets and probabilities"
            )
        row_start = np.zeros(nnz, dtype=bool)
        row_start[self.row_offsets[:-1][self.row_offsets[:-1] < nnz]] = True
        ascending = np.ones(nnz, dtype=bool)
        ascending[1:] = row_start[1:] | (self.targets[1:] > self.targets[:-1])
        if nnz and (
            self.targets.min() < 0 or self.targets.max() >= n or not ascending.all()
        ):
            raise ModelValidationError(
                f"targets must lie in 0..{n - 1} and ascend strictly within each row"
            )

        bad_reward = ~np.isfinite(self.rewards)
        bad_entry = ~(np.isfinite(self.probs) & (self.probs > 0.0))
        first = int(np.argmax(bad_reward)) if bad_reward.any() else count
        first_entry = int(np.argmax(bad_entry)) if bad_entry.any() else nnz
        if first_entry < nnz:
            row = int(np.searchsorted(self.row_offsets, first_entry, side="right")) - 1
            first = min(first, row)
        # Rows before the first bad reward or entry are the only candidates
        # for an earlier row-sum error.
        sums = row_sums(
            self.probs[: self.row_offsets[first]], self.row_offsets[: first + 1]
        )
        for a, total in enumerate(sums):
            if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                raise ModelValidationError(
                    f"{self._where(a)}: transition probabilities sum to {total!r}, "
                    f"expected 1 within {PROBABILITY_TOLERANCE}"
                )
        if first < count:
            if bad_reward[first]:
                raise ModelValidationError(
                    f"{self._where(first)}: reward {float(self.rewards[first])!r} "
                    "is not finite"
                )
            j = int(self.targets[first_entry]) + 1
            p = float(self.probs[first_entry])
            if not math.isfinite(p):
                problem = f"probability to state {j} is not finite"
            elif p < 0.0:
                problem = f"negative probability {p!r} to state {j}"
            else:
                problem = f"stored zero probability to state {j}"
            raise ModelValidationError(f"{self._where(first)}: {problem}")

        for name, extra, size, unit in (
            ("state_labels", self.state_labels, n, "states"),
            ("state_metadata", self.state_metadata, n, "states"),
            ("action_labels", self.action_labels, count, "actions"),
            ("action_metadata", self.action_metadata, count, "actions"),
        ):
            if extra is not None and len(extra) != size:
                raise ModelValidationError(
                    f"{name} has {len(extra)} entries for {size} {unit}"
                )

    def _where(self, action: int) -> str:
        """1-based "state i, action k" of flat action index ``action``."""
        state = int(np.searchsorted(self.action_offsets, action, side="right")) - 1
        k = action - int(self.action_offsets[state])
        return f"state {state + 1}, action {k + 1}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteHorizonMdp):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            if isinstance(mine, np.ndarray)
            else mine == theirs
            for mine, theirs in (
                (getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
            )
        )

    @property
    def state_count(self) -> int:
        return len(self.action_offsets) - 1

    def action_count(self, state: int) -> int:
        state = range(self.state_count)[state]
        return int(self.action_offsets[state + 1] - self.action_offsets[state])

    def state_label(self, state: int) -> str:
        if self.state_labels is None:
            return str(state + 1)
        return self.state_labels[state]

    @cached_property
    def actions(self) -> tuple[tuple[Action, ...], ...]:
        """Dense per-state :class:`Action` view, built on first access."""
        n = self.state_count
        rewards = self.rewards.tolist()
        targets = self.targets.tolist()
        probs = self.probs.tolist()
        rows = self.row_offsets.tolist()
        bounds = self.action_offsets.tolist()
        view = []
        for lo, hi in zip(bounds, bounds[1:]):
            acts = []
            for a in range(lo, hi):
                row = [0.0] * n
                for z in range(rows[a], rows[a + 1]):
                    row[targets[z]] = probs[z]
                acts.append(
                    Action(
                        reward=rewards[a],
                        probabilities=tuple(row),
                        label=self.action_labels[a],
                        metadata=self.action_metadata[a],
                    )
                )
            view.append(tuple(acts))
        return tuple(view)


def _csr_from_actions(actions: Iterable[Iterable[Action]]) -> tuple[
    tuple[list[float], list[int], list[int], list[int], list[float]],
    list[str],
    list[Mapping[str, object]],
]:
    """CSR arrays, labels and metadata of a nested :class:`Action` table."""
    table = [tuple(acts) for acts in actions]
    n = len(table)
    rewards: list[float] = []
    action_offsets = [0]
    row_offsets = [0]
    targets: list[int] = []
    probs: list[float] = []
    labels: list[str] = []
    metadata: list[Mapping[str, object]] = []
    for i, acts in enumerate(table):
        for k, act in enumerate(acts):
            where = f"state {i + 1}, action {k + 1}"
            if not isinstance(act, Action):
                raise ModelValidationError(f"{where}: expected an Action")
            if len(act.probabilities) != n:
                raise ModelValidationError(
                    f"{where}: transition row has {len(act.probabilities)} entries, "
                    f"expected {n}"
                )
            rewards.append(act.reward)
            for j, p in act.support:
                targets.append(j)
                probs.append(p)
            row_offsets.append(len(targets))
            labels.append(act.label)
            metadata.append(act.metadata)
        action_offsets.append(len(rewards))
    return (rewards, action_offsets, row_offsets, targets, probs), labels, metadata


def uniform_actions(
    rewards: Sequence[Sequence[float]],
    rows: Sequence[Sequence[Sequence[float]]],
) -> tuple[tuple[Action, ...], ...]:
    """Build the ``actions`` table from parallel reward/transition nestings.

    Convenience for tests and programmatic model construction:
    ``rewards[i][k]`` and ``rows[i][k]`` describe action ``k`` of state ``i``.
    """
    out: list[tuple[Action, ...]] = []
    for state_rewards, state_rows in zip(rewards, rows, strict=True):
        out.append(
            tuple(
                Action(reward=q, probabilities=tuple(row))
                for q, row in zip(state_rewards, state_rows, strict=True)
            )
        )
    return tuple(out)


def validate_terminal_values(
    terminal_values: Iterable[float] | None, state_count: int
) -> tuple[float, ...]:
    """Return the terminal value vector, defaulting to all zeros.

    Raises ``ValueError`` on a length mismatch or a NaN or infinite entry.
    """
    if terminal_values is None:
        return (0.0,) * state_count
    values = tuple(float(v) for v in terminal_values)
    if len(values) != state_count:
        raise ValueError(
            f"terminal_values has {len(values)} entries for {state_count} states"
        )
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"terminal value {v!r} for state {i + 1} is not finite")
    return values
