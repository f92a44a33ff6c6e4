"""Deterministic synthetic model generator for the benchmark.

Writes model JSON in the ``docs/model_format.md`` schema directly, without
importing ``fhmdp``, so the program under test only ever receives generated
input text.
"""

from __future__ import annotations

import json
import random


def synthetic(states: int, actions: int, nnz_per_row: int, seed: int) -> str:
    """Model JSON text with ``actions`` actions per state and sparse rows.

    Every transition row has ``min(nnz_per_row, states)`` distinct targets,
    written in ascending order with strictly positive probabilities that sum
    to 1 within a few ulps, so the rows pass ``load_model`` in tolerant mode.
    Rewards are uniform on [0, 100). The same arguments always give
    byte-identical text.
    """
    if states < 1 or actions < 1 or nnz_per_row < 1:
        raise ValueError("states, actions and nnz_per_row must all be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    nnz = min(nnz_per_row, states)
    doc_states = []
    for i in range(states):
        doc_actions = []
        for _ in range(actions):
            targets = sorted(rng.sample(range(states), nnz))
            weights = [rng.random() + 1e-3 for _ in targets]
            total = sum(weights)
            doc_actions.append(
                {
                    "reward": rng.uniform(0.0, 100.0),
                    "transitions": [
                        {"to_state": j + 1, "probability": w / total}
                        for j, w in zip(targets, weights)
                    ],
                }
            )
        doc_states.append({"label": f"s{i + 1}", "actions": doc_actions})
    doc = {
        "format_version": "1",
        "description": (
            f"synthetic(states={states}, actions={actions}, "
            f"nnz_per_row={nnz_per_row}, seed={seed})"
        ),
        "states": doc_states,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
