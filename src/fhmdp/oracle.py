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
streams safe to evaluate in any order. The streams of all episodes are
computed at once in numpy (the SeedSequence hash mixing as uint32
arithmetic, the PCG64 128-bit LCG on pairs of uint64 limbs) and are bit for
bit the ``Generator.random`` draws of those generators. Successor states are
drawn by inverse CDF over the transition row in ascending state order: the
first stored target whose sequential running sum exceeds the draw, with any
residual mass from rounding assigned to the last positive-probability
state. One sparse walk over the model's CSR arrays does this for every
episode at once; :func:`sample_episode` runs it for a single episode and
records the trace, :func:`simulate_policy` for many.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product
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
    # Compare in log space first, so that a huge count is never built (nor
    # formatted); only counts within a factor of e of the cap are exact.
    log_count = horizon * float(np.log(np.diff(mdp.action_offsets)).sum())
    if log_count > math.log(max(cap, 1)) + 1.0 or count_markov_policies(
        mdp, horizon
    ) > cap:
        raise InstanceTooLargeError(
            f"instance has about 10^{log_count / math.log(10):.1f} Markov "
            f"policies, exceeding the cap of {cap}"
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
    # The stream contract in its reference form; tests check the vectorized
    # streams below against it.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(episode,))
    return np.random.Generator(np.random.PCG64(ss))


def _check_nonnegative(value: int, name: str) -> int:
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence constants; the pool holds four uint32 words.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier as high and low 64-bit limbs.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``, as SeedSequence splits ints."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(...).generate_state(4, np.uint64)`` for entropy words.

    Each word is a uint32 array and all arithmetic wraps modulo 2**32. The
    arrays broadcast, so a word that every stream shares can have length 1.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Pairs of uint32 words, read little-endian, are the four uint64 words.
    return [out[2 * k] | (out[2 * k + 1] << _SHIFT32) for k in range(4)]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    # Neither partial sum can exceed 2**64 - 1, so none of them wraps.
    t = a1 * b0 + ((a0 * b0) >> _SHIFT32)
    w = a0 * b1 + (t & _LOW32)
    return a1 * b1 + (t >> _SHIFT32) + (w >> _SHIFT32)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, ``state * MULT + inc`` modulo 2**128, on (hi, lo) limbs."""
    product_hi = (
        _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    )
    product_lo = lo * _PCG_MULT_LO
    lo = product_lo + inc_lo
    return product_hi + inc_hi + (lo < product_lo), lo


def _stream_uniforms(seed: int, keys: np.ndarray, horizon: int) -> np.ndarray:
    """The first ``horizon`` ``random()`` draws of every stream, shape (E, horizon).

    Row ``e`` equals ``Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(k,)))).random(horizon)`` bit for bit, where ``k`` is the
    integer whose little-endian 32-bit words are ``keys[e]`` (a uint32 array
    of shape (E, words)).
    """
    seed_words = _words(seed)
    # A spawn key pads the seed's words with zeros up to the pool size.
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    entropy = [np.array([w], dtype=np.uint32) for w in seed_words]
    entropy += [np.ascontiguousarray(keys[:, c]) for c in range(keys.shape[1])]
    state_hi, state_lo, seq_hi, seq_lo = _seed_state(entropy)

    # PCG64 seeding: inc = (initseq << 1) | 1; step from state 0 (which
    # gives inc); add initstate; step again.
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((len(keys), horizon), order="F")
    for n in range(horizon):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: hi ^ lo rotated right by the top six state bits;
        # random() keeps its top 53 bits.
        xored = hi ^ lo
        rot = hi >> np.uint64(58)
        raw = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, n] = (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out


def _episode_uniforms(seed: int, episodes: np.ndarray, horizon: int) -> np.ndarray:
    """Draws of the episodes with uint64 indices ``episodes``, one row each."""
    low = (episodes & _LOW32).astype(np.uint32)[:, None]
    wide = episodes > _LOW32
    if not wide.any():
        return _stream_uniforms(seed, low, horizon)
    # Indices of 2**32 and above carry a two-word spawn key.
    keys = np.hstack([low, (episodes >> _SHIFT32).astype(np.uint32)[:, None]])
    out = np.empty((len(episodes), horizon), order="F")
    out[~wide] = _stream_uniforms(seed, low[~wide], horizon)
    out[wide] = _stream_uniforms(seed, keys[wide], horizon)
    return out


def _running_sums(mdp: FiniteHorizonMdp) -> np.ndarray:
    """Per CSR row, the sequential running sums of its probabilities.

    Entry ``z`` is ``((p[lo] + p[lo + 1]) + ...) + p[z]`` added left to right
    within the row, exactly as a scalar loop would; rows are processed
    column by column so each addition is one vectorized step.
    """
    cumulative = mdp.probs.copy()
    lengths = np.diff(mdp.row_offsets)
    starts = mdp.row_offsets[:-1][np.argsort(-lengths, kind="stable")]
    ascending = np.sort(lengths)
    for c in range(1, int(ascending[-1])):
        # Rows with more than c entries are a prefix of ``starts``.
        width = len(ascending) - int(np.searchsorted(ascending, c, side="right"))
        z = starts[:width] + c
        cumulative[z] += cumulative[z - 1]
    return cumulative


def _walk(
    mdp: FiniteHorizonMdp, policy: np.ndarray, start_state: int, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run one episode per row of ``uniforms`` (E, H) from ``start_state``.

    Returns each episode's total reward, summed in epoch order from 0.0, and
    the visited states, shape (H + 1, E). At epoch ``n`` the successor is the
    first stored target whose running sum exceeds ``uniforms[:, n]``, or the
    row's last target when none does. The search is a bisection within each
    row that only compares the running sums with ``u``, so it is exact.
    """
    episodes, horizon = uniforms.shape
    cumulative = _running_sums(mdp)
    rounds = int(np.diff(mdp.row_offsets).max() - 1).bit_length()
    path = np.empty((horizon + 1, episodes), dtype=np.intp)
    path[0] = start_state
    totals = np.zeros(episodes)
    for n in range(horizon):
        states = path[n]
        a = mdp.action_offsets[states] + policy[n, states]
        totals += mdp.rewards[a]
        # The answer lies in [left, right]; right always qualifies (the
        # last target is the fallback), so it only moves down onto a running
        # sum above u. Once left passes right, mid stays at right.
        left = mdp.row_offsets[a]
        right = mdp.row_offsets[a + 1] - 1
        u = uniforms[:, n]
        for _ in range(rounds):
            mid = (left + right) >> 1
            above = cumulative[mid] > u
            right = np.where(above, mid, right)
            left = np.where(above, left, mid + 1)
        path[n + 1] = mdp.targets[right]
    return totals, path


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
    seed = _check_nonnegative(seed, "seed")
    episode = _check_nonnegative(episode, "episode")
    horizon = len(policy)
    checked = _check_policy(mdp, policy, horizon)
    if not 0 <= start_state < mdp.state_count:
        raise ValueError(
            f"start_state {start_state} out of range 0..{mdp.state_count - 1}"
        )
    keys = np.array([_words(episode)], dtype=np.uint32)
    uniforms = _stream_uniforms(seed, keys, horizon)
    totals, path = _walk(mdp, checked, start_state, uniforms)

    visited = path[:, 0]
    chosen = checked[np.arange(horizon), visited[:-1]]
    rewards = mdp.rewards[mdp.action_offsets[visited[:-1]] + chosen].tolist()
    states, actions = visited.tolist(), chosen.tolist()
    steps = tuple(
        EpisodeStep(
            epoch=n,
            state=states[n],
            action=actions[n],
            reward=rewards[n],
            next_state=states[n + 1],
        )
        for n in range(horizon)
    )
    return EpisodeTrace(steps=steps, total_reward=float(totals[0]))


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
    seed = _check_nonnegative(seed, "seed")
    episodes = operator.index(episodes)
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    horizon = len(policy)
    checked = _check_policy(mdp, policy, horizon)
    if not 0 <= start_state < mdp.state_count:
        raise ValueError(
            f"start_state {start_state} out of range 0..{mdp.state_count - 1}"
        )

    uniforms = _episode_uniforms(seed, np.arange(episodes, dtype=np.uint64), horizon)
    totals, _ = _walk(mdp, checked, start_state, uniforms)

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
