import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhmdp import (
    EpisodeStep,
    EpisodeTrace,
    FiniteHorizonMdp,
    InstanceTooLargeError,
    count_markov_policies,
    enumerate_optimal,
    evaluate_policy,
    sample_episode,
    simulate_policy,
    solve_backward_induction,
    uniform_actions,
)
from fhmdp.oracle import (
    _episode_rng,
    _episode_uniforms,
    _running_sums,
    _walk,
)
from conftest import make_random_model


def deterministic_chain() -> FiniteHorizonMdp:
    """Two states, unit transition rows: no randomness anywhere."""
    return FiniteHorizonMdp(
        actions=uniform_actions(
            rewards=[[1.0, 4.0], [2.0, 0.0]],
            rows=[
                [[0.0, 1.0], [1.0, 0.0]],
                [[1.0, 0.0], [0.0, 1.0]],
            ],
        )
    )


def test_policy_count(toy_model, drilling):
    assert count_markov_policies(toy_model, 2) == (2 * 2) ** 2
    assert count_markov_policies(drilling, 10) == (5**10) ** 10


def test_single_stage_enumeration_is_per_state_max(toy_model):
    result = enumerate_optimal(toy_model, 1)
    assert result.values[0] == (1.0, 3.0)
    assert result.decisions == ((0, 1),)
    assert result == solve_backward_induction(toy_model, 1)


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_matches_solver_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    mdp = make_random_model(rng)
    horizon = int(rng.integers(1, 4))
    solved = solve_backward_induction(mdp, horizon)
    enumerated = enumerate_optimal(mdp, horizon)
    assert enumerated.values[0] == pytest.approx(solved.values[0], abs=1e-9)


def test_enumeration_matches_solver_on_toy(toy_model):
    solved = solve_backward_induction(toy_model, 2)
    enumerated = enumerate_optimal(toy_model, 2)
    assert enumerated.values[0] == pytest.approx(solved.values[0], abs=1e-9)


def test_enumeration_soundness(toy_model):
    horizon = 2
    solved = solve_backward_induction(toy_model, horizon)
    state_count = toy_model.state_count
    choices = [
        range(toy_model.action_count(i))
        for _ in range(horizon)
        for i in range(state_count)
    ]
    for flat in itertools.product(*choices):
        policy = tuple(
            flat[n * state_count : (n + 1) * state_count] for n in range(horizon)
        )
        values = evaluate_policy(toy_model, policy, horizon)
        for i in range(state_count):
            assert values[0][i] <= solved.values[0][i]


def test_enumeration_tie_chooses_lexicographically_lowest():
    same = uniform_actions(
        rewards=[[1.0, 1.0], [2.0, 2.0]],
        rows=[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
    )
    result = enumerate_optimal(FiniteHorizonMdp(actions=same), 2)
    assert result.decisions == ((0, 0), (0, 0))


def test_enumeration_zero_horizon(toy_model):
    result = enumerate_optimal(toy_model, 0)
    assert result.values == ((0.0, 0.0),)
    assert result.decisions == ()


def test_enumeration_cap_enforced(toy_model, drilling):
    count = count_markov_policies(toy_model, 2)
    assert enumerate_optimal(toy_model, 2, cap=count) is not None
    with pytest.raises(InstanceTooLargeError, match="exceeding the cap"):
        enumerate_optimal(toy_model, 2, cap=count - 1)
    with pytest.raises(InstanceTooLargeError):
        enumerate_optimal(drilling, 10)


def test_simulation_of_deterministic_model_has_zero_error():
    mdp = deterministic_chain()
    policy = solve_backward_induction(mdp, 3).decisions
    exact = evaluate_policy(mdp, policy, 3)[0]
    for start in range(2):
        estimate = simulate_policy(mdp, policy, start, episodes=25, seed=11)
        assert estimate.standard_error == 0.0
        assert estimate.mean == exact[start]


def test_simulation_is_deterministic(drilling):
    policy = solve_backward_induction(drilling, 10).decisions
    first = simulate_policy(drilling, policy, 0, episodes=300, seed=42)
    second = simulate_policy(drilling, policy, 0, episodes=300, seed=42)
    assert first == second
    other_seed = simulate_policy(drilling, policy, 0, episodes=300, seed=43)
    assert other_seed.mean != first.mean


def test_simulation_matches_sampled_traces(drilling):
    policy = solve_backward_induction(drilling, 10).decisions
    for episodes in (1, 2, 7):
        estimate = simulate_policy(drilling, policy, 2, episodes=episodes, seed=5)
        totals = np.array(
            [
                sample_episode(drilling, policy, 2, seed=5, episode=e).total_reward
                for e in range(episodes)
            ]
        )
        assert estimate.mean == float(totals.mean())
        if episodes > 1 and not np.all(totals == totals[0]):
            expected_se = float(totals.std(ddof=1) / math.sqrt(episodes))
            assert estimate.standard_error == expected_se


def test_episode_prefix_is_stable_under_episode_count(drilling):
    # Episode e depends only on (seed, e), so traces never reshuffle.
    policy = solve_backward_induction(drilling, 10).decisions
    small = simulate_policy(drilling, policy, 0, episodes=2, seed=9)
    traces = [
        sample_episode(drilling, policy, 0, seed=9, episode=e) for e in range(5)
    ]
    assert small.mean == float(
        np.array([t.total_reward for t in traces[:2]]).mean()
    )
    large = simulate_policy(drilling, policy, 0, episodes=5, seed=9)
    assert large.mean == float(np.array([t.total_reward for t in traces]).mean())


def test_trace_structure_and_support(drilling):
    policy = solve_backward_induction(drilling, 10).decisions
    rng = np.random.default_rng(0)
    for episode in range(40):
        start = int(rng.integers(0, drilling.state_count))
        trace = sample_episode(drilling, policy, start, seed=21, episode=episode)
        assert len(trace.steps) == 10
        assert trace.steps[0].state == start
        assert trace.total_reward == pytest.approx(
            math.fsum(s.reward for s in trace.steps)
        )
        for n, step in enumerate(trace.steps):
            assert step.epoch == n
            assert step.action == policy[n][step.state]
            assert drilling.actions[step.state][step.action].probabilities[
                step.next_state
            ] > 0.0
            if n + 1 < len(trace.steps):
                assert step.next_state == trace.steps[n + 1].state


def test_simulation_converges_toward_policy_value(drilling):
    policy = solve_backward_induction(drilling, 10).decisions
    exact = evaluate_policy(drilling, policy, 10)[0][0]
    estimate = simulate_policy(drilling, policy, 0, episodes=3000, seed=7)
    assert abs(estimate.mean - exact) < 5 * estimate.standard_error


def test_zero_horizon_simulation(drilling):
    estimate = simulate_policy(drilling, (), 3, episodes=4, seed=0)
    assert estimate.mean == 0.0
    assert estimate.standard_error == 0.0


def test_simulation_argument_validation(drilling):
    policy = solve_backward_induction(drilling, 10).decisions
    with pytest.raises(ValueError, match="start_state"):
        simulate_policy(drilling, policy, 10, episodes=1, seed=0)
    with pytest.raises(ValueError, match="episodes"):
        simulate_policy(drilling, policy, 0, episodes=0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        simulate_policy(drilling, policy, 0, episodes=1, seed=-1)
    with pytest.raises(ValueError, match="start_state"):
        sample_episode(drilling, policy, -1, seed=0)


def test_enumeration_cap_is_checked_in_log_space(drilling):
    # The exact count for this horizon has ~70 million digits; building it
    # would take minutes and could not be formatted into the message.
    started = time.perf_counter()
    with pytest.raises(InstanceTooLargeError, match="exceeding the cap of 1000000"):
        enumerate_optimal(drilling, 10**7)
    assert time.perf_counter() - started < 5.0


def test_enumeration_cap_below_one(toy_model):
    # Every instance has at least one policy (the empty one at horizon 0).
    with pytest.raises(InstanceTooLargeError):
        enumerate_optimal(toy_model, 1, cap=0)
    assert enumerate_optimal(toy_model, 0, cap=1).decisions == ()


# --- episode streams and the sampling walk ---------------------------------


def reference_episode(mdp, policy, start_state, seed, episode) -> EpisodeTrace:
    """The sampling contract in plain Python: numpy's own generator for the
    draws, and a scalar inverse-CDF walk over each stored row."""
    uniforms = _episode_rng(seed, episode).random(len(policy)).tolist()
    steps = []
    state = start_state
    total = 0.0
    for n, u in enumerate(uniforms):
        action = int(policy[n][state])
        a = int(mdp.action_offsets[state]) + action
        lo, hi = mdp.row_offsets[a : a + 2].tolist()
        targets = mdp.targets[lo:hi].tolist()
        next_state = targets[-1]
        cumulative = 0.0
        for j, p in zip(targets, mdp.probs[lo:hi].tolist()):
            cumulative += p
            if u < cumulative:
                next_state = j
                break
        reward = float(mdp.rewards[a])
        total += reward
        steps.append(EpisodeStep(n, state, action, reward, next_state))
        state = next_state
    return EpisodeTrace(steps=tuple(steps), total_reward=total)


SPAWN_KEY_EDGES = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**32), st.integers(0, 2**64), st.integers(0, 2**160)
    ),
    episodes=st.lists(
        st.one_of(st.sampled_from(SPAWN_KEY_EDGES), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=6,
    ),
    horizon=st.integers(0, 12),
)
def test_vectorized_streams_match_seed_sequence(seed, episodes, horizon):
    got = _episode_uniforms(seed, np.array(episodes, dtype=np.uint64), horizon)
    assert got.shape == (len(episodes), horizon)
    for row, e in zip(got, episodes):
        want = _episode_rng(seed, e).random(horizon)
        assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(
    model_seed=st.integers(0, 2**16),
    seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**140)),
    episode=st.one_of(
        st.sampled_from(SPAWN_KEY_EDGES + [2**64, 2**100 + 3]),
        st.integers(0, 2**70),
    ),
)
def test_sample_episode_matches_reference(model_seed, seed, episode):
    rng = np.random.default_rng(model_seed)
    mdp = make_random_model(rng, max_states=5)
    horizon = int(rng.integers(0, 8))
    policy = solve_backward_induction(mdp, horizon).decisions
    start = int(rng.integers(0, mdp.state_count))
    trace = sample_episode(mdp, policy, start, seed, episode=episode)
    assert trace == reference_episode(mdp, policy, start, seed, episode)


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
def test_drilling_traces_match_reference(drilling, seed):
    policy = solve_backward_induction(drilling, 10).decisions
    for start in range(drilling.state_count):
        for episode in (0, 3, 2**32, 2**40 + 7):
            trace = sample_episode(drilling, policy, start, seed, episode=episode)
            assert trace == reference_episode(drilling, policy, start, seed, episode)


#: Every stored row sums to 1 - 9e-7 (inside the load tolerance), so a draw
#: at or above that takes the last-target fallback, whatever row it meets.
DEFICIT = 9e-7


def deficient_sparse_model() -> FiniteHorizonMdp:
    """Four states; rows of 1 to 4 stored targets, each short of 1."""
    rows = [
        ([0, 1, 2, 3], [0.1, 0.2, 0.3, 0.4 - DEFICIT]),
        ([1], [1.0 - DEFICIT]),
        ([0, 2], [0.5, 0.5 - DEFICIT]),
        ([1, 2, 3], [0.25, 0.25, 0.5 - DEFICIT]),
        ([0, 3], [0.6, 0.4 - DEFICIT]),
        ([0, 1, 2, 3], [0.25, 0.25, 0.25, 0.25 - DEFICIT]),
    ]
    return FiniteHorizonMdp(
        rewards=[1.5, -2.25, 3.1, 0.7, 7.0, 0.3],
        action_offsets=[0, 2, 3, 5, 6],
        row_offsets=np.cumsum([0] + [len(t) for t, _ in rows]),
        targets=[j for t, _ in rows for j in t],
        probs=[p for _, ps in rows for p in ps],
    )


def scalar_running_sums(mdp: FiniteHorizonMdp) -> list[float]:
    sums = []
    for lo, hi in itertools.pairwise(mdp.row_offsets.tolist()):
        running = 0.0
        for p in mdp.probs[lo:hi].tolist():
            running += p
            sums.append(running)
    return sums


def test_running_sums_are_sequential():
    rng = np.random.default_rng(5)
    for mdp in [deficient_sparse_model()] + [make_random_model(rng, 6, 3) for _ in range(20)]:
        assert _running_sums(mdp).tolist() == scalar_running_sums(mdp)


def test_walk_is_exact_at_running_sum_boundaries():
    # Draws at, just below and just above every running sum, plus the
    # extremes, through every row: the vectorized walk picks exactly the
    # target the scalar walk picks.
    mdp = deficient_sparse_model()
    cumulative = np.array(scalar_running_sums(mdp))
    probe = np.concatenate(
        [
            cumulative,
            np.nextafter(cumulative, 0.0),
            np.nextafter(cumulative, 1.0),
            [0.0, 0.5, 1.0 - DEFICIT / 2, np.nextafter(1.0, 0.0)],
        ]
    )
    for state in range(mdp.state_count):
        for action in range(mdp.action_count(state)):
            policy = np.full((1, mdp.state_count), 0, dtype=np.intp)
            policy[0, state] = action
            totals, path = _walk(mdp, policy, state, probe[:, None])
            a = int(mdp.action_offsets[state]) + action
            lo, hi = mdp.row_offsets[a : a + 2].tolist()
            for u, got in zip(probe.tolist(), path[1].tolist()):
                running = 0.0
                want = int(mdp.targets[hi - 1])
                for z in range(lo, hi):
                    running += float(mdp.probs[z])
                    if u < running:
                        want = int(mdp.targets[z])
                        break
                assert got == want, (state, action, u)
            assert (totals == mdp.rewards[a]).all()


def test_simulation_totals_match_traces_with_fallback():
    mdp = deficient_sparse_model()
    horizon, episodes, seed = 25, 8, 12628
    policy = tuple(
        tuple(n % mdp.action_count(i) for i in range(mdp.state_count))
        for n in range(horizon)
    )
    # This seed has a draw above every row's running total, so at least one
    # episode below takes the fallback.
    running = scalar_running_sums(mdp)
    largest = max(running[hi - 1] for hi in mdp.row_offsets[1:].tolist())
    assert max(
        _episode_rng(seed, e).random(horizon).max() for e in range(episodes)
    ) >= largest
    for start in range(mdp.state_count):
        traces = [
            sample_episode(mdp, policy, start, seed, episode=e) for e in range(episodes)
        ]
        assert traces == [
            reference_episode(mdp, policy, start, seed, e) for e in range(episodes)
        ]
        totals = np.array([t.total_reward for t in traces])
        estimate = simulate_policy(mdp, policy, start, episodes, seed)
        assert estimate.mean == float(totals.mean())
        assert estimate.standard_error == float(
            totals.std(ddof=1) / math.sqrt(episodes)
        )


def test_episode_index_must_be_nonnegative(drilling):
    policy = solve_backward_induction(drilling, 2).decisions
    with pytest.raises(ValueError, match="episode"):
        sample_episode(drilling, policy, 0, seed=0, episode=-1)
