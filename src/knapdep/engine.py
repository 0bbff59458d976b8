"""Online admission control and multi-knapsack assignment.

Items are processed strictly in input order with irrevocable decisions.
Per knapsack, an item is charged the summed marginal cost of its window
at current utilization and admitted only if its value covers the charge
and capacity holds in every requested slot.  Across knapsacks, the item
goes to the admissible knapsack of maximum value.  ``step`` is the one
admission path; ``run`` calls it once per item, with the cyclic collector
paused, as decisions and audits are acyclic records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    Decision,
    Instance,
    Item,
    KnapsackSpec,
    UtilizationState,
    _CollectorPaused,
    json_block,
    json_block_parts,
    json_scalar,
)
from .threshold import ThresholdFn


class KnapsackAudit(NamedTuple):
    """Outcome of one per-knapsack admission check.

    A named tuple because the engine builds one per check, and a frozen
    dataclass costs about twice as much to construct.
    """

    knapsack: int
    phi: float
    fits: bool        # capacity clause alone
    admissible: bool  # value clause AND capacity clause


class ItemAudit(NamedTuple):
    """Every per-knapsack check of one item, in knapsack order."""

    item_id: int
    entries: tuple[KnapsackAudit, ...]


def step(
    item: Item,
    state: UtilizationState,
    thresholds: Sequence[ThresholdFn],
    specs: Sequence[KnapsackSpec],
) -> tuple[Decision, ItemAudit]:
    """Process one item against the current state; mutates ``state`` on admit.

    Every eligible knapsack is queried; ineligible ones never are, and
    each query is one ``ThresholdFn.charge`` call.  The charge is
    sum(size * phi(z_t)) over the option's window; the option is
    admissible iff value >= charge (ties admit) and z_t + size <= capacity
    in every slot, both exact comparisons on the computed floats.  Among
    admissible knapsacks the item goes to the one of maximum value, ties
    to the lowest index.
    """
    new = tuple.__new__  # the records' own __new__ is an extra Python call
    entries: list[KnapsackAudit] = []
    best: Optional[int] = None
    best_value = 0.0
    for k, (eligible, size, value, start, duration) in enumerate(item.options):
        if not eligible:
            continue
        window = state.window(k, start, duration)
        phi = thresholds[k].charge(size, window)
        # Tested on the fullest slot only, exact as z + size is monotone in z.
        fits = max(window) + size <= specs[k].capacity
        admissible = value >= phi and fits
        entries.append(new(KnapsackAudit, (k, phi, fits, admissible)))
        if admissible and (best is None or value > best_value):
            best = k
            best_value = value
    if best is not None:
        chosen = item.options[best]
        state.add(best, chosen.start, chosen.duration, chosen.size)
    return new(Decision, (item.id, best)), new(ItemAudit, (item.id, tuple(entries)))


@dataclass
class RunResult:
    """Full outcome of one online run: decisions, profit, state, audit.

    ``json_parts`` is the one definition of the run document's text;
    ``to_json`` joins it and ``to_dict`` parses that back.  A writer that
    takes the parts one by one never holds the document whole.
    """

    decisions: list[Decision]
    profit: float
    state: UtilizationState
    audits: list[ItemAudit]

    def assignment(self) -> list[Optional[int]]:
        return [d.knapsack for d in self.decisions]

    def json_parts(self) -> Iterator[str]:
        """The run document in parts, byte for byte as ``json.dumps(doc, indent=2)``.

        ``{"profit", "decisions": [{"id", "admitted", "knapsack", "phi",
        "audit"}], "utilization": {knapsack: {slot: z}}}``, where ``phi`` is
        the charge of the chosen knapsack (null when declined) and the
        utilization lists the covered slots.  Written straight from the
        decisions, audits and state: the head, then the decision records
        and each knapsack's slots in batches of ``JSON_BATCH`` elements
        (``json_block_parts``), so no part holds more than one batch.
        """
        yield f'{{\n  "profit": {json_scalar(self.profit)},\n  "decisions": '
        yield from json_block_parts(self._decision_texts(), "  ")
        yield ',\n  "utilization": '
        if not self.state.num_knapsacks:
            yield "{}"
        else:
            head = "{\n"
            for k in range(self.state.num_knapsacks):
                yield f'{head}    "{k}": '
                head = ",\n"
                yield from json_block_parts(self._slot_texts(k), "    ", "{}")
            yield "\n  }"
        yield "\n}"

    def to_json(self) -> str:
        """The whole run document as one string: ``json_parts`` joined."""
        return "".join(self.json_parts())

    def _decision_texts(self) -> Iterator[str]:
        # Each audit entry's text is formed once, from its knapsack's head,
        # its phi and one of four (fits, admissible) tails; the decision's
        # "phi" is the chosen entry's text.  The fixed texts around them are
        # formed once per document.
        s = json_scalar
        knapsacks = range(self.state.num_knapsacks)
        heads = [f'        {{\n          "knapsack": {k},\n          "phi": ' for k in knapsacks]
        tails = [
            [
                f',\n          "fits": {s(fits)},\n'
                f'          "admissible": {s(admissible)}\n        }}'
                for admissible in (False, True)
            ]
            for fits in (False, True)
        ]
        outcomes = {
            k: f',\n      "admitted": {s(k is not None)},\n      "knapsack": {s(k)},\n'
            for k in (None, *knapsacks)
        }
        for (item_id, chosen), (_, entries) in zip(self.decisions, self.audits):
            phi = "null"
            texts = []
            for k, charge, fits, admissible in entries:
                text = s(charge)
                if k == chosen:
                    phi = text
                texts.append(f"{heads[k]}{text}{tails[fits][admissible]}")
            yield (
                f'    {{\n      "id": {s(item_id)}{outcomes[chosen]}'
                f'      "phi": {phi},\n'
                f'      "audit": {json_block(texts, "      ")}\n    }}'
            )

    def _slot_texts(self, k: int) -> Iterator[str]:
        # Neighbouring slots are often covered by the same windows and hold
        # the same sum, so a value's text is formed once per run of equal
        # slots.  Covered slots hold positive sums, never -0.0, so equal
        # values always have equal text.
        last = text = None
        for t, z in self.state.covered(k):
            if z != last:
                last, text = z, json_scalar(z)
            yield f'      "{t}": {text}'

    def to_dict(self) -> dict:
        return json.loads(self.to_json())


def run(inst: Instance, thresholds: Sequence[ThresholdFn]) -> RunResult:
    """Run the online algorithm over all items from all-zero utilization.

    ``inst`` may be a ``stream.StreamedInstance``, whose items are
    stepped as they are drawn.  Deterministic: identical inputs produce
    identical outputs.
    """
    K = len(inst.knapsacks)
    if len(thresholds) != K:
        raise ValueError(f"expected {K} thresholds, got {len(thresholds)}")
    for k, (fn, spec) in enumerate(zip(thresholds, inst.knapsacks)):
        if fn.capacity != spec.capacity:
            raise ValueError(
                f"knapsack {k}: threshold capacity {fn.capacity} does not "
                f"match spec capacity {spec.capacity}"
            )
        zero = fn.eval(0.0)
        if zero != 0.0:  # charge skips empty slots, which relies on it
            raise ValueError(f"knapsack {k}: threshold phi(0) must be 0.0, got {zero}")
    state = UtilizationState(K, inst.horizon)
    decisions: list[Decision] = []
    audits: list[ItemAudit] = []
    profit = 0.0
    with _CollectorPaused():
        for item in inst.items:
            decision, audit = step(item, state, thresholds, inst.knapsacks)
            decisions.append(decision)
            audits.append(audit)
            if decision.admitted:
                profit += item.options[decision.knapsack].value
        return RunResult(decisions=decisions, profit=profit, state=state, audits=audits)
