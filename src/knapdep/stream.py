"""Read an instance document in one pass, one batch of items at a time.

``run`` and ``validate`` take each item once, in arrival order, so they
need not hold the document, its parse or its records whole.
``streamed_instance`` reads the head (``horizon`` and ``knapsacks``), then
decodes the items in batches from a chunked read.  Each record is built by
the parser's per-item branch (``core.item_records``) and checked by
``Instance``'s per-item rule (``core.checked_items``) as it is drawn, and
none is kept.

Only the text ``gen`` writes is read this way: ``dumps_instance``, which
is ``json.dumps(doc, indent=2)``.  No JSON string holds a raw newline, so
there three fixed texts mark the structure wherever they occur: ``_OPEN``,
``_JOIN`` and ``_CLOSE``.  The head is the text before ``_OPEN``, decoded
with an empty items array; a batch is the text up to a join, decoded as
one array.  A cut anywhere else leaves a bracket open, so whatever
decodes is what the whole parse gives.

Any other layout, any JSON fault, text after the closing brace, any fault
of a record, a file that is not a regular one, and a head that declares
more slots (K x (horizon + 1)) than the document has characters raise
ValueError (or RecursionError) at the point they are met, at the latest
when the last item is drawn.  ``through_items`` then reads the document
whole through ``loads_instance``, which reports what it reports for every
document, so streaming changes no message.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, TypeVar

from .core import (
    _INSTANCE_FIELDS,
    Instance,
    Item,
    KnapsackSpec,
    _checked,
    _CollectorPaused,
    checked_items,
    item_records,
    knapsack_specs,
    loads_instance,
)

# Characters per read, and the most text a batch of items spans (or one
# item, where an item is longer), which bounds what the pass holds of a
# document read from a file or a string.
_CHUNK = 1 << 16

# The items array's opening, the join of two items, and the array's and
# the document's close, as ``dumps_instance`` writes them.  An empty items
# array is ``[]``, which the close directly follows.
_OPEN = '\n  "items": ['
_JOIN = "\n    },\n"
_CLOSE = "]\n}"

T = TypeVar("T")


class StreamedInstance(NamedTuple):
    """An instance's head, and its items as an iterator to be taken once.

    Reads as an ``Instance`` does to ``engine.run``, ``validate_instance``
    and ``threshold.for_instance``.
    """

    horizon: int
    knapsacks: tuple[KnapsackSpec, ...]
    items: Iterator[Item]


def through_items(path: str, use: Callable[[Instance], T]) -> T:
    """``use(inst)`` for the instance at ``path`` (``-``: standard input), streamed if it can be.

    ``use`` must draw every item once, in order, and form no output.  If
    the streamed pass raises, ``use`` runs again on ``loads_instance`` of
    the whole text, so every result and message is the whole reading's.
    Standard input is read whole first, so that it can be read twice.
    """
    text = sys.stdin.read() if path == "-" else None
    try:
        with streamed_instance(path, text) as inst:
            return use(inst)
    except (OSError, ValueError, RecursionError):
        pass
    return use(loads_instance(Path(path).read_text() if text is None else text))


@contextmanager
def streamed_instance(path: str, text: Optional[str] = None) -> Iterator[StreamedInstance]:
    """The instance of the file at ``path``, or of ``text`` when it is given.

    The file stays open, and the cyclic collector paused (the records are
    acyclic), until the block ends, so the block must draw all the items
    inside it.  A file that is not a regular one (a pipe, say) is not read
    at all: ValueError, so that its caller can read it once, whole.
    """
    if text is not None:
        with _CollectorPaused():
            yield _streamed(_Text(None, text), len(text))
        return
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path} is not a regular file")
    with open(path) as f, _CollectorPaused():
        yield _streamed(_Text(f.read, ""), os.fstat(f.fileno()).st_size)


def _streamed(t: _Text, length: int) -> StreamedInstance:
    start = t.find(_OPEN)
    if start < 0:
        raise ValueError("no items array in the layout gen writes")
    # Exactly the keys horizon, knapsacks and items (a repeated one's last
    # value, as the whole parse keeps it), items the last of them.
    head = json.loads(t.buf[:start] + '\n  "items": []\n}')
    top = _checked(head, _INSTANCE_FIELDS, "instance")
    t.pos = start + len(_OPEN)
    horizon, specs = top["horizon"], knapsack_specs(top["knapsacks"])
    items = checked_items(horizon, len(specs), item_records(_item_objs(t)))
    # The engine's state holds a row of horizon + 1 slots per knapsack, a C
    # double (8 bytes) each; a document that is refused must not be able to
    # claim more slots than it has characters before it is.
    if len(specs) * (horizon + 1) > length:
        raise ValueError(f"{len(specs)} x {horizon + 1} slots outweigh the document")
    return StreamedInstance(horizon, specs, items)


class _Text:
    """The unread text of a document: ``buf[pos:]``, refilled by ``read``."""

    def __init__(self, read: Optional[Callable[[int], str]], buf: str) -> None:
        self.read = read
        self.buf = buf
        self.pos = 0

    def find(self, sub: str) -> int:
        """Index in ``buf`` of the first ``sub`` from ``pos`` on, reading on; -1 if none."""
        while True:
            at = self.buf.find(sub, self.pos)
            if at >= 0 or not self.more():
                return at

    def more(self) -> bool:
        """Read at least as much again as is unread (so a long search stays
        linear), dropping what was read; False at the end of the input."""
        chunk = self.read(max(_CHUNK, len(self.buf) - self.pos)) if self.read else ""
        if not chunk:
            self.read = None
            return False
        self.buf = self.buf[self.pos:] + chunk
        self.pos = 0
        return True


def _item_objs(t: _Text) -> Iterator:
    """The values of the items array, whose opening was just taken, then its end.

    A batch runs to the last join within ``_CHUNK`` characters, or to the
    first when one item is longer; the last runs to the close, after which
    only whitespace may follow.  A batch that decodes holds whole values,
    so the batches and the commas between them are the whole array, save
    an empty last batch after a join: a trailing comma.
    """
    joined = False
    while (join := t.find(_JOIN)) >= 0:
        join = max(join, t.buf.rfind(_JOIN, join, t.pos + _CHUNK))
        batch = json.loads("[" + t.buf[t.pos:join + 6] + "]")  # up to the item's '}'
        t.pos = join + len(_JOIN)
        joined = True
        yield from batch
    close = t.find(_CLOSE)
    if close < 0:
        raise ValueError("no close in the layout gen writes")
    batch = json.loads("[" + t.buf[t.pos:close] + "]")
    if joined and not batch:
        raise ValueError("a comma before the close")
    yield from batch
    t.pos = close + len(_CLOSE)
    while not t.buf[t.pos:].strip(" \t\n\r"):  # JSON's whitespace
        t.pos = len(t.buf)
        if not t.more():
            return
    raise ValueError("text after the document")
