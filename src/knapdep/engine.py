"""Online admission control and multi-knapsack assignment.

Items are processed strictly in input order with irrevocable decisions.
Per knapsack, an item is charged the summed marginal cost of its window
at current utilization and admitted only if its value covers the charge
and capacity holds in every requested slot.  Across knapsacks, the item
goes to the admissible knapsack of maximum value.  ``_admit`` is the one
admission path: it writes the chosen window back from the list its check
read, and each check and the choice into flat columns, once per item for
``run`` and once per call for ``step``.  The columns hold no Python
records, which are built from them on each read.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .core import Instance, Item, UtilizationState
from .jsontext import json_block, json_block_parts, json_scalar
from .threshold import ThresholdFn

_FLAGS = ((False, False), (True, False), (False, True), (True, True))  # by fits | admissible << 1


class KnapsackAudit(NamedTuple):
    """Outcome of one per-knapsack admission check; built on each read of its decision."""

    knapsack: int
    phi: float
    fits: bool        # capacity clause alone
    admissible: bool  # value clause AND capacity clause


class Decision(NamedTuple):
    """Irrevocable outcome for one item, with the checks that led to it.

    ``knapsack`` is the assigned knapsack, or None when declined.
    ``entries`` holds one check per eligible knapsack, in knapsack order.
    Built from the run's columns on each read: reads are equal, not identical.
    """

    item_id: int
    knapsack: Optional[int]
    entries: tuple[KnapsackAudit, ...]

    @property
    def admitted(self) -> bool:
        return self.knapsack is not None


class _Decisions(Sequence):
    """A run's decisions as columns, read as a sequence of ``Decision``.

    Per item: the id, the chosen knapsack (-1 if declined) and the running
    end offset of its checks, after a leading 0.  Per check: the knapsack,
    ``phi`` as a C double and ``fits | admissible << 1`` as a byte.  The
    ids are ``range(first, stop)`` until one does not run on, then a list.
    """

    def __init__(self) -> None:
        self.first = self.stop = self.listed = None
        self.chosen, self.ends = array("i"), array("q", [0])
        self.knapsacks, self.phis, self.flags = array("i"), array("d"), bytearray()

    @property
    def ids(self) -> Sequence:
        if self.listed is not None:
            return self.listed
        return range(0) if self.first is None else range(self.first, self.stop)

    def __len__(self) -> int:
        return len(self.chosen)

    def __getitem__(self, index):
        i = range(len(self))[index]  # IndexError past either end
        if isinstance(i, range):
            return [self[j] for j in i]
        lo, hi = self.ends[i], self.ends[i + 1]
        checks = zip(self.knapsacks[lo:hi], self.phis[lo:hi], self.flags[lo:hi])
        entries = tuple(KnapsackAudit(c, phi, *_FLAGS[f]) for c, phi, f in checks)
        k = self.chosen[i]
        return Decision(self.ids[i], None if k < 0 else k, entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _admit(item: Item, state: UtilizationState, thresholds: Sequence[ThresholdFn],
           out: _Decisions) -> int:
    """Admit one item into ``out``; mutates ``state`` on admit, returns its knapsack or -1.

    Each eligible knapsack, and no other, is checked by one
    ``ThresholdFn.charge`` call on its curve, whose ``capacity`` is the
    knapsack's.  The option is admissible iff value >= charge (ties admit)
    and z_t + size <= capacity in every slot, both exact comparisons on the
    computed floats; the item goes to the admissible knapsack of maximum
    value, ties to the lowest index, and its window is written back from
    the list its check read.  Each check and the choice go to ``out``.
    """
    add_knapsack, add_phi, add_flags = out.knapsacks.append, out.phis.append, out.flags.append
    best = -1
    best_value = 0.0
    for k, (eligible, size, value, start, duration) in enumerate(item.options):
        if not eligible:
            continue
        window = state.window(k, start, duration)
        fn = thresholds[k]
        phi = fn.charge(size, window)
        # Tested on the fullest slot only, exact as z + size is monotone in z.
        fits = max(window) + size <= fn.capacity
        admissible = value >= phi and fits
        add_knapsack(k)
        add_phi(phi)
        add_flags(fits | admissible << 1)
        if admissible and (best < 0 or value > best_value):
            best = k
            best_value = value
            best_window = window
    if best >= 0:
        chosen = item.options[best]
        state.grow(best, chosen.start, best_window, chosen.size)
    item_id = item.id
    if item_id == out.stop:  # the ids run on
        out.stop = item_id + 1
    elif out.listed is not None:
        out.listed.append(item_id)
    elif out.first is None and type(item_id) is int:
        out.first, out.stop = item_id, item_id + 1
    else:
        out.listed, out.stop = [*out.ids, item_id], None
    out.chosen.append(best)
    out.ends.append(len(out.phis))
    return best


def step(item: Item, state: UtilizationState, thresholds: Sequence[ThresholdFn]) -> Decision:
    """Admit one item as ``run`` does; mutates ``state`` on admit, returns its ``Decision``."""
    out = _Decisions()
    _admit(item, state, thresholds, out)
    return out[0]


@dataclass
class RunResult:
    """Full outcome of one online run: one decision per item, profit, state.

    ``json_parts`` is the one definition of the run document's text;
    ``to_json`` joins it and ``to_dict`` parses that back.  A writer that
    takes the parts one by one never holds the document whole.
    """

    decisions: _Decisions
    profit: float
    state: UtilizationState

    @property
    def audits(self) -> _Decisions:
        """The decisions themselves; kept only for a benchmark tracer that reads ``.audits``."""
        return self.decisions

    def assignment(self) -> list[Optional[int]]:
        return [None if k < 0 else k for k in self.decisions.chosen]

    def json_parts(self) -> Iterator[str]:
        """The run document in parts, byte for byte as ``json.dumps(doc, indent=2)``.

        ``{"profit", "decisions": [{"id", "admitted", "knapsack", "phi",
        "audit"}], "utilization": {knapsack: {slot: z}}}``, where ``phi`` is
        the charge of the chosen knapsack (null when declined) and the
        utilization lists the covered slots.  Written straight from the
        decisions and state: the head, then the decision records
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
        # Read from the columns.  Each audit entry's text is formed once, from
        # its knapsack's head, its phi and the tail its flags byte picks; the
        # decision's "phi" is the chosen entry's text.  The fixed texts around
        # them are formed once per document.
        s = json_scalar
        knapsacks = range(self.state.num_knapsacks)
        heads = [f'        {{\n          "knapsack": {k},\n          "phi": ' for k in knapsacks]
        tails = [
            f',\n          "fits": {s(fits)},\n          "admissible": {s(admissible)}\n        }}'
            for fits, admissible in _FLAGS
        ]
        outcomes = {
            k: f',\n      "admitted": {s(k >= 0)},\n      "knapsack": {s(None if k < 0 else k)},\n'
            for k in range(-1, len(knapsacks))
        }
        columns = self.decisions
        checks = zip(columns.knapsacks, columns.phis, columns.flags)
        ends = columns.ends
        for item_id, chosen, lo, hi in zip(columns.ids, columns.chosen, ends, islice(ends, 1, None)):
            phi = "null"
            texts = []
            for k, charge, flags in islice(checks, hi - lo):
                text = s(charge)
                if k == chosen:
                    phi = text
                texts.append(f"{heads[k]}{text}{tails[flags]}")
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
        row = self.state.rows[k]
        last = text = None
        for t in self.state.covered_slots(k):
            z = row[t]
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
    decisions = _Decisions()
    profit = 0.0
    for item in inst.items:
        best = _admit(item, state, thresholds, decisions)
        if best >= 0:
            profit += item.options[best].value
    return RunResult(decisions=decisions, profit=profit, state=state)
