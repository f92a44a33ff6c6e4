import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhmdp import (
    Action,
    FiniteHorizonMdp,
    evaluate_policy,
    load_drilling_expected_results,
    one_step_lookahead,
    solve_backward_induction,
    uniform_actions,
)
from conftest import make_random_model

DRILLING_TERMINAL_STAGE = (
    7430.09,
    8500.39,
    9450.55,
    9228.49,
    10198.16,
    10270.01,
    10449.93,
    10206.75,
    10927.64,
    10842.65,
)


def brute_force_optimal_values(rewards, rows, horizon):
    """Reference optimum: direct expectation recursion over every Markov policy.

    Independent of the library's lookahead/evaluation code on purpose.
    """
    state_count = len(rewards)
    choices = [
        range(len(rewards[i])) for _ in range(horizon) for i in range(state_count)
    ]
    best = [-math.inf] * state_count
    for flat in itertools.product(*choices):
        values = [0.0] * state_count
        for stage in range(horizon - 1, -1, -1):
            picked = flat[stage * state_count : (stage + 1) * state_count]
            values = [
                rewards[i][picked[i]]
                + sum(p * v for p, v in zip(rows[i][picked[i]], values))
                for i in range(state_count)
            ]
        best = [max(b, v) for b, v in zip(best, values)]
    return best


def test_drilling_terminal_rows(drilling):
    result = solve_backward_induction(drilling, 10)
    assert result.values[10] == (0.0,) * 10
    assert result.values[9] == DRILLING_TERMINAL_STAGE
    assert tuple(k + 1 for k in result.decisions[9]) == (2, 2, 2, 1, 2, 2, 2, 1, 2, 2)


def test_drilling_all_earlier_decisions_prefer_second_action(drilling):
    result = solve_backward_induction(drilling, 10)
    for n in range(9):
        assert result.decisions[n] == (1,) * 10


def test_lookahead_reference_points(drilling):
    stage9 = solve_backward_induction(drilling, 10).values[9]
    head = one_step_lookahead(drilling, 0, 1, stage9)
    assert head == pytest.approx(15377.309, abs=1e-9)
    assert head == pytest.approx(15377.3, abs=0.05)
    tail = one_step_lookahead(drilling, 9, 4, stage9)
    assert tail == pytest.approx(11087.08, abs=1e-6)


def test_lookahead_with_zero_next_values_is_reward(drilling):
    zeros = (0.0,) * drilling.state_count
    for i in range(drilling.state_count):
        for k in range(drilling.action_count(i)):
            assert one_step_lookahead(drilling, i, k, zeros) == drilling.actions[i][k].reward


def test_lookahead_argument_validation(drilling):
    good = (0.0,) * 10
    with pytest.raises(ValueError, match="state index"):
        one_step_lookahead(drilling, 10, 0, good)
    with pytest.raises(ValueError, match="state index"):
        one_step_lookahead(drilling, -1, 0, good)
    with pytest.raises(ValueError, match="action index"):
        one_step_lookahead(drilling, 0, 5, good)
    with pytest.raises(ValueError, match="next_values"):
        one_step_lookahead(drilling, 0, 0, (0.0,) * 9)


def test_zero_horizon(drilling):
    result = solve_backward_induction(drilling, 0)
    assert result.values == ((0.0,) * 10,)
    assert result.decisions == ()


def test_custom_terminal_values(toy_model):
    result = solve_backward_induction(toy_model, 1, terminal_values=[10.0, 0.0])
    assert result.values[1] == (10.0, 0.0)
    # state 0: action 0 gives 1 + 0.5*10 = 6, action 1 gives 0.5 + 10 = 10.5
    assert result.values[0][0] == pytest.approx(10.5)
    assert result.decisions[0][0] == 1


def test_terminal_values_length_mismatch(toy_model):
    with pytest.raises(ValueError, match="terminal_values"):
        solve_backward_induction(toy_model, 2, terminal_values=[1.0])


def test_negative_horizon_rejected(toy_model):
    with pytest.raises(ValueError, match="horizon"):
        solve_backward_induction(toy_model, -1)


def test_toy_matches_brute_force(toy_model):
    rewards = [[1.0, 0.5], [2.0, 3.0]]
    rows = [[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.25, 0.75]]]
    expected = brute_force_optimal_values(rewards, rows, 2)
    result = solve_backward_induction(toy_model, 2)
    assert result.values[0] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_random_models_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    mdp = make_random_model(rng)
    horizon = int(rng.integers(0, 4))
    rewards = [[a.reward for a in acts] for acts in mdp.actions]
    rows = [[list(a.probabilities) for a in acts] for acts in mdp.actions]
    result = solve_backward_induction(mdp, horizon)
    if horizon == 0:
        assert result.values[0] == (0.0,) * mdp.state_count
        return
    expected = brute_force_optimal_values(rewards, rows, horizon)
    assert result.values[0] == pytest.approx(expected, abs=1e-9)


def test_optimality_dominance(drilling):
    result = solve_backward_induction(drilling, 10)
    for n in range(10):
        for i in range(drilling.state_count):
            best = result.values[n][i]
            for k in range(drilling.action_count(i)):
                candidate = one_step_lookahead(drilling, i, k, result.values[n + 1])
                assert best >= candidate
                if k == result.decisions[n][i]:
                    assert best == candidate


def test_monotone_accumulation(drilling):
    result = solve_backward_induction(drilling, 10)
    for n in range(10):
        for i in range(drilling.state_count):
            assert result.values[n][i] >= result.values[n + 1][i]


def scale_rewards(mdp: FiniteHorizonMdp, factor: float) -> FiniteHorizonMdp:
    return FiniteHorizonMdp(
        actions=tuple(
            tuple(
                Action(reward=factor * a.reward, probabilities=a.probabilities)
                for a in acts
            )
            for acts in mdp.actions
        )
    )


@pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
def test_reward_scaling_invariance(drilling, factor):
    base = solve_backward_induction(drilling, 10)
    scaled = solve_backward_induction(scale_rewards(drilling, factor), 10)
    assert scaled.decisions == base.decisions
    for scaled_row, base_row in zip(scaled.values, base.values):
        assert scaled_row == pytest.approx(
            [factor * v for v in base_row], rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_reward_scaling_exact_for_binary_factors(toy_model, factor):
    base = solve_backward_induction(toy_model, 3)
    scaled = solve_backward_induction(scale_rewards(toy_model, factor), 3)
    assert scaled.decisions == base.decisions
    assert scaled.values == tuple(
        tuple(factor * v for v in row) for row in base.values
    )


def test_policy_evaluation_reproduces_solver(drilling):
    result = solve_backward_induction(drilling, 10)
    assert evaluate_policy(drilling, result.decisions, 10) == result.values


def test_evaluating_reference_policy_reproduces_reference_values(drilling):
    expected = load_drilling_expected_results()
    table = evaluate_policy(drilling, expected.decision_table, expected.horizon)
    for computed_row, expected_row in zip(table, expected.value_table):
        for computed, wanted in zip(computed_row, expected_row):
            assert abs(computed - wanted) <= expected.value_tolerance_abs


@pytest.mark.parametrize("seed", range(4))
def test_policy_evaluation_consistency_random(seed):
    rng = np.random.default_rng(1000 + seed)
    mdp = make_random_model(rng, max_states=4, max_actions=3)
    horizon = int(rng.integers(1, 5))
    result = solve_backward_induction(mdp, horizon)
    assert evaluate_policy(mdp, result.decisions, horizon) == result.values


def test_suboptimal_policy_is_dominated(toy_model):
    optimal = solve_backward_induction(toy_model, 3)
    fixed = tuple((0, 0) for _ in range(3))
    evaluated = evaluate_policy(toy_model, fixed, 3)
    for value_row, optimal_row in zip(evaluated, optimal.values):
        for value, best in zip(value_row, optimal_row):
            assert value <= best


def test_evaluate_policy_zero_horizon(toy_model):
    table = evaluate_policy(toy_model, (), 0, terminal_values=[3.0, 4.0])
    assert table == ((3.0, 4.0),)


def test_evaluate_policy_dimension_errors(toy_model):
    with pytest.raises(ValueError, match="epochs"):
        evaluate_policy(toy_model, ((0, 0),), 2)
    with pytest.raises(ValueError, match="entries"):
        evaluate_policy(toy_model, ((0,),), 1)
    with pytest.raises(ValueError, match="action index"):
        evaluate_policy(toy_model, ((0, 2),), 1)


def test_solver_is_deterministic(drilling):
    first = solve_backward_induction(drilling, 10)
    second = solve_backward_induction(drilling, 10)
    assert first == second


def test_ties_break_to_lowest_action_index():
    same = uniform_actions(
        rewards=[[1.0, 1.0, 1.0]],
        rows=[[[1.0], [1.0], [1.0]]],
    )
    result = solve_backward_induction(FiniteHorizonMdp(actions=same), 4)
    assert all(row == (0,) for row in result.decisions)


def test_forced_single_action_state():
    mdp = FiniteHorizonMdp(
        actions=uniform_actions(rewards=[[5.0]], rows=[[[1.0]]])
    )
    result = solve_backward_induction(mdp, 2)
    assert result.values[0] == (10.0,)
    assert result.decisions == ((0,), (0,))


# --- kernel bit-identity -------------------------------------------------------


def scalar_backward_induction(mdp, horizon, terminal):
    """Plain-Python solver over the dense ``Action`` view.

    Each lookahead starts from the reward and adds ``p * v[j]`` for the
    nonzero ``p`` in ascending ``j``; a strict ``>`` keeps the lowest index.
    """
    current = tuple(terminal)
    values = [current]
    decisions = []
    for _ in range(horizon):
        row, chosen = [], []
        for acts in mdp.actions:
            best_value, best_action = None, 0
            for k, act in enumerate(acts):
                total = act.reward
                for j, p in enumerate(act.probabilities):
                    if p != 0.0:
                        total += p * current[j]
                if k == 0 or total > best_value:
                    best_value, best_action = total, k
            row.append(best_value)
            chosen.append(best_action)
        current = tuple(row)
        values.append(current)
        decisions.append(tuple(chosen))
    values.reverse()
    decisions.reverse()
    return tuple(values), tuple(decisions)


def hex_table(values):
    return [[v.hex() for v in row] for row in values]


def assert_kernel_matches_reference(mdp, horizon, terminal):
    result = solve_backward_induction(mdp, horizon, terminal)
    values, decisions = scalar_backward_induction(mdp, horizon, terminal)
    assert hex_table(result.values) == hex_table(values)
    assert result.decisions == decisions
    evaluated = evaluate_policy(mdp, result.decisions, horizon, terminal)
    assert hex_table(evaluated) == hex_table(result.values)
    return result


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_kernel_matches_scalar_reference_bitwise(seed, horizon):
    # Mixed action counts per state and rows with different nonzero counts.
    rng = np.random.default_rng(seed)
    mdp = make_random_model(
        rng, max_states=6, max_actions=4, nonnegative_rewards=False
    )
    terminal = tuple(rng.uniform(-50.0, 50.0, mdp.state_count).tolist())
    assert_kernel_matches_reference(mdp, horizon, terminal)


def test_kernel_keeps_negative_zero_on_single_transition_row():
    # -0.0 + 1.0 * -0.0 is -0.0; adding a padded 0.0 * 5.0 would give +0.0.
    mdp = FiniteHorizonMdp(
        actions=uniform_actions(
            rewards=[[-0.0], [0.0]],
            rows=[[[1.0, 0.0]], [[0.5, 0.5]]],
        )
    )
    result = assert_kernel_matches_reference(mdp, 3, (-0.0, 5.0))
    assert [row[0].hex() for row in result.values] == ["-0x0.0p+0"] * 4


def test_kernel_exact_tie_goes_to_lowest_index():
    # Actions 2 and 3 tie exactly through different rows; action 1 is worse.
    mdp = FiniteHorizonMdp(
        actions=uniform_actions(
            rewards=[[-1.0, 2.0, 1.0], [1.0, 1.0]],
            rows=[
                [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                [[0.0, 1.0], [0.0, 1.0]],
            ],
        )
    )
    result = assert_kernel_matches_reference(mdp, 1, (2.0, 0.0))
    assert result.values[0] == (2.0, 1.0)
    assert result.decisions == ((1, 0),)


def test_kernel_overflow_to_infinities_and_nan():
    big = 1.7e308
    mdp = FiniteHorizonMdp(
        actions=uniform_actions(
            rewards=[
                [big],
                [-big],
                [0.0, 1.0, big],
                [2.0, 0.0, big],
            ],
            rows=[
                [[1.0, 0.0, 0.0, 0.0]],
                [[0.0, 1.0, 0.0, 0.0]],
                [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                [[0.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
            ],
        )
    )
    with warnings.catch_warnings():
        # Python floats overflow silently; so must the kernel.
        warnings.simplefilter("error")
        result = assert_kernel_matches_reference(mdp, 4, (0.0,) * 4)
    first = result.values[0]
    assert first[0] == math.inf and first[1] == -math.inf
    # A NaN first action is kept (nothing compares greater than NaN); a NaN
    # later action never displaces the incumbent.
    assert math.isnan(first[2]) and result.decisions[0][2] == 0
    assert first[3] == math.inf and result.decisions[0][3] == 2


def test_policy_entries_must_be_integers(toy_model):
    with pytest.raises(ValueError, match="state 0: action index 1.0 is not an integer"):
        evaluate_policy(toy_model, ((1.0, 0),), 1)


def test_nonfinite_terminal_values_rejected(toy_model):
    with pytest.raises(ValueError, match="state 2 is not finite"):
        solve_backward_induction(toy_model, 1, terminal_values=[0.0, math.nan])
    with pytest.raises(ValueError, match="state 1 is not finite"):
        evaluate_policy(toy_model, ((0, 0),), 1, terminal_values=[-math.inf, 0.0])
