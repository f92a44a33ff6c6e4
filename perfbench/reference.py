"""Plain-Python backward induction used to check solver reports.

Reads model JSON itself and shares no code with ``fhmdp``. It follows the
solver's determinism contract: each lookahead starts from the reward and
adds ``p * v[j]`` over nonzero transitions in ascending target order, and
ties go to the lowest action index. On the same model its tables therefore
equal the solver's bit for bit.
"""

from __future__ import annotations

import json


def parse_rows(model_text: str) -> list[list[tuple[float, list[tuple[int, float]]]]]:
    """Per state, per action: ``(reward, [(0-based target, probability)])``."""
    doc = json.loads(model_text)
    rows = []
    for state in doc["states"]:
        acts = []
        for action in state["actions"]:
            succ = sorted(
                (t["to_state"] - 1, float(t["probability"]))
                for t in action.get("transitions", [])
                if t["probability"] != 0
            )
            acts.append((float(action["reward"]), succ))
        rows.append(acts)
    return rows


def backward_induction(
    model_text: str, horizon: int
) -> tuple[list[list[float]], list[list[int]]]:
    """``(values, decisions)``: values for epochs 0..horizon, 0-based decisions."""
    rows = parse_rows(model_text)
    current = [0.0] * len(rows)
    values = [current]
    decisions = []
    for _ in range(horizon):
        new_values = []
        chosen = []
        for acts in rows:
            best_value = 0.0
            best_action = -1
            for k, (reward, succ) in enumerate(acts):
                total = reward
                for j, p in succ:
                    total += p * current[j]
                if best_action < 0 or total > best_value:
                    best_value = total
                    best_action = k
            new_values.append(best_value)
            chosen.append(best_action)
        current = new_values
        values.append(current)
        decisions.append(chosen)
    values.reverse()
    decisions.reverse()
    return values, decisions
