"""JSON text in the layout of ``json.dumps(doc, indent=2)``, formed piece by piece."""

from __future__ import annotations

import json
from itertools import islice
from typing import Iterable, Iterator

_float_repr = float.__repr__
_int_repr = int.__repr__


def json_scalar(v: object) -> str:
    """JSON text of one scalar, as ``json.dumps`` writes it.

    Exact ``float`` (finite) and ``int`` take their repr directly;
    anything else (NaN, infinities, ``bool``, ``None``, subclasses,
    strings) goes through ``json.dumps`` itself.
    """
    if type(v) is float:
        if v - v == 0.0:
            return _float_repr(v)
    elif type(v) is int:
        return _int_repr(v)
    return json.dumps(v)


def json_block(elements: list[str], indent: str, brackets: str = "[]") -> str:
    """An array (or, with ``brackets="{}"``, an object) in ``indent=2`` layout.

    ``elements`` are already rendered, each with its own indentation, and
    the closing bracket goes at ``indent``; empty gives ``[]`` or ``{}``.
    """
    if not elements:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(elements) + f"\n{indent}{brackets[1]}"


# Elements joined into one part by ``json_block_parts``: a streamed block
# then holds one batch of text at a time (about 0.35 MB of a K = 4 run's
# decisions), and a part of slot texts still exceeds the 8 KiB a text
# file gathers before it writes.
JSON_BATCH = 512


def json_block_parts(
    elements: Iterable[str], indent: str, brackets: str = "[]"
) -> Iterator[str]:
    """``json_block`` in parts of at most ``JSON_BATCH`` elements each.

    ``elements`` is drawn lazily, one batch at a time, so a block of any
    length never exists whole; ``"".join`` of the parts is ``json_block``
    of the same elements.
    """
    elements = iter(elements)
    batch = list(islice(elements, JSON_BATCH))
    if not batch:
        yield brackets
        return
    head = f"{brackets[0]}\n"
    while batch:
        # The head joins the first element, not the part, which would copy it.
        batch[0] = head + batch[0]
        head = ",\n"
        yield ",\n".join(batch)
        batch = list(islice(elements, JSON_BATCH))
    yield f"\n{indent}{brackets[1]}"
