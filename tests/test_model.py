import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fhmdp import (
    PROBABILITY_TOLERANCE,
    Action,
    FiniteHorizonMdp,
    ModelValidationError,
)
from fhmdp.model import validate_terminal_values


def one_state(row, reward=1.0):
    return FiniteHorizonMdp(actions=((Action(reward=reward, probabilities=row),),))


def two_state(row, reward=1.0):
    actions = (
        (Action(reward=reward, probabilities=row),),
        (Action(reward=0.0, probabilities=(0.5, 0.5)),),
    )
    return FiniteHorizonMdp(actions=actions)


def test_valid_construction():
    mdp = FiniteHorizonMdp(
        actions=(
            (Action(reward=1.0, probabilities=(0.25, 0.75)),),
            (
                Action(reward=2.0, probabilities=(0.0, 1.0)),
                Action(reward=-1.0, probabilities=(1.0, 0.0)),
            ),
        ),
        state_labels=("a", "b"),
        reward_unit="u",
    )
    assert mdp.state_count == 2
    assert mdp.action_count(0) == 1
    assert mdp.action_count(1) == 2
    assert mdp.state_label(1) == "b"


def test_action_support_is_sparse_and_ascending():
    act = Action(reward=0.0, probabilities=(0.0, 0.3, 0.0, 0.7))
    assert act.support == ((1, 0.3), (3, 0.7))


def test_values_coerced_to_float():
    act = Action(reward=1, probabilities=(1,))
    assert isinstance(act.reward, float)
    assert all(isinstance(p, float) for p in act.probabilities)


def test_negative_probability_rejected():
    with pytest.raises(ModelValidationError, match="state 1, action 1.*negative"):
        two_state((-0.1, 1.1))


def test_row_sum_outside_tolerance_rejected():
    with pytest.raises(ModelValidationError, match=r"sum to 0\.9"):
        two_state((0.4, 0.5))


def test_row_sum_error_names_state_and_action():
    mdp_actions = (
        (Action(reward=0.0, probabilities=(1.0, 0.0)),),
        (
            Action(reward=0.0, probabilities=(0.5, 0.5)),
            Action(reward=0.0, probabilities=(0.5, 0.1)),
        ),
    )
    with pytest.raises(ModelValidationError, match="state 2, action 2"):
        FiniteHorizonMdp(actions=mdp_actions)


def test_row_length_mismatch_rejected():
    with pytest.raises(ModelValidationError, match="1 entries, expected 2"):
        FiniteHorizonMdp(
            actions=(
                (Action(reward=0.0, probabilities=(1.0,)),),
                (Action(reward=0.0, probabilities=(0.0, 1.0)),),
            )
        )


def test_state_without_actions_rejected():
    with pytest.raises(ModelValidationError, match="state 1 has no actions"):
        FiniteHorizonMdp(actions=((),))


def test_empty_model_rejected():
    with pytest.raises(ModelValidationError, match="at least one state"):
        FiniteHorizonMdp(actions=())


def test_nonfinite_reward_rejected():
    with pytest.raises(ModelValidationError, match="reward.*not finite"):
        one_state((1.0,), reward=math.inf)


def test_nonfinite_probability_rejected():
    with pytest.raises(ModelValidationError, match="not finite"):
        one_state((math.nan,))


def test_label_length_mismatch_rejected():
    with pytest.raises(ModelValidationError, match="state_labels"):
        FiniteHorizonMdp(
            actions=((Action(reward=0.0, probabilities=(1.0,)),),),
            state_labels=("a", "b"),
        )


def test_row_sum_tolerance_boundary():
    assert one_state((1.0 + 5e-7,)).state_count == 1
    with pytest.raises(ModelValidationError):
        one_state((1.0 + 2e-6,))


def test_absorbing_state_allowed():
    mdp = one_state((1.0,))
    assert mdp.actions[0][0].support == ((0, 1.0),)


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=6))
def test_normalized_rows_always_accepted(weights):
    total = math.fsum(weights)
    row = tuple(w / total for w in weights)
    mdp = FiniteHorizonMdp(
        actions=tuple(
            (Action(reward=0.0, probabilities=row),) for _ in range(len(row))
        )
    )
    for acts in mdp.actions:
        for act in acts:
            assert all(p >= 0.0 for p in act.probabilities)
            assert abs(math.fsum(act.probabilities) - 1.0) <= PROBABILITY_TOLERANCE


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=6),
    st.floats(min_value=1e-5, max_value=0.5),
)
def test_unbalanced_rows_always_rejected(weights, excess):
    total = math.fsum(weights)
    row = tuple(w / total * (1.0 + excess) for w in weights)
    with pytest.raises(ModelValidationError):
        FiniteHorizonMdp(
            actions=tuple(
                (Action(reward=0.0, probabilities=row),) for _ in range(len(row))
            )
        )


def test_terminal_values_default_zeros():
    assert validate_terminal_values(None, 3) == (0.0, 0.0, 0.0)


def test_terminal_values_length_checked():
    with pytest.raises(ValueError, match="2 entries for 3 states"):
        validate_terminal_values([1.0, 2.0], 3)


def test_overflowing_row_sum_rejected():
    with pytest.raises(ModelValidationError, match="state 1, action 1: .*sum to inf"):
        two_state((1e308, 1e308))


def test_csr_arrays_are_read_only_and_rebuilt_by_replace():
    mdp = two_state((0.25, 0.75))
    assert mdp.targets.tolist() == [0, 1, 0, 1]
    assert mdp.row_offsets.tolist() == [0, 2, 4]
    with pytest.raises(ValueError, match="read-only"):
        mdp.probs[0] = 1.0
    assert dataclasses.replace(mdp) == mdp
    with pytest.raises(ModelValidationError, match="state 1, action 1: .*sum to 1.5"):
        dataclasses.replace(mdp, probs=[0.75, 0.75, 0.5, 0.5])


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"targets": [1, 0, 0, 1]}, "ascend strictly"),
        ({"targets": [0, 2, 0, 1]}, "ascend strictly"),
        ({"probs": [0.0, 1.0, 0.5, 0.5]}, "stored zero probability to state 1"),
        ({"row_offsets": [0, 2, 3]}, "row_offsets"),
        ({"action_offsets": [0, 1, 3]}, "action_offsets"),
        ({"targets": [0.0, 1.0, 0.0, 1.0]}, "targets must hold integers"),
    ],
)
def test_csr_structure_validated(changes, message):
    with pytest.raises(ModelValidationError, match=message):
        dataclasses.replace(two_state((0.25, 0.75)), **changes)
