"""Read an instance document in one pass, one batch of items at a time.

``run`` and ``validate`` take each item once, in arrival order, so they
need not hold the document, its parse or its records whole.  The input
is one seekable text file: a regular file (or standard input redirected
from one) from where it stands, any other input a copy made once,
undecoded, in the temporary directory.  The pass reads the head
(``horizon`` and ``knapsacks``), then decodes the items in batches from
a chunked read.  Each record is built by the parser's per-item branch
(``core.item_records``) and checked by ``Instance``'s per-item rule
(``core.checked_items``) as it is drawn, and none is kept.

Only the text ``gen`` writes is read this way: ``dumps_instance``, which
is ``json.dumps(doc, indent=2)``.  No JSON string holds a raw newline, so
there three fixed texts mark the structure wherever they occur: ``_OPEN``,
``_JOIN`` and ``_CLOSE``.  The head is the text before ``_OPEN``, decoded
with an empty items array; a batch is the text up to a join, decoded as
one array.  A cut anywhere else leaves a bracket open, so whatever
decodes is what the whole parse gives.

Any other layout, any JSON fault, text after the closing brace, any fault
of a record, and a head that declares more slots (K x (horizon + 1)) than
the document is long raise ValueError (or RecursionError) at the point
they are met, at the latest when the last item is drawn.
``through_items`` then reads the file again whole, from where the pass
began, through ``loads_instance``, which reports what it reports for
every document, so streaming changes no message.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, NamedTuple, TextIO, TypeVar

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
# document; bytes per read when an input is copied to a temporary file.
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
    the whole text, read from where the pass began, so every result and
    message is the whole reading's.
    """
    with _seekable(path) as f:
        start = f.tell()  # before any read, a plain offset
        length = f.seek(0, os.SEEK_END) - f.seek(start)  # of what is left
        try:
            with _CollectorPaused():  # the records are acyclic
                return use(_streamed(f.read, length))
        except (OSError, ValueError, RecursionError):
            f.seek(start)
        return use(loads_instance(f.read()))


@contextmanager
def _seekable(path: str) -> Iterator[TextIO]:
    """The input at ``path`` (``-``: standard input), or if it cannot seek an
    unnamed copy of its bytes, decoded as the input is decoded."""
    with nullcontext(sys.stdin) if path == "-" else open(path) as f:
        if f.seekable():
            yield f
            return
        import shutil
        import tempfile  # only an input that cannot seek loads it
        newline = "\n" if path == "-" else None  # POSIX stdin translates no "\r\n"; open() does
        with io.TextIOWrapper(tempfile.TemporaryFile(), f.encoding, f.errors, newline) as spill:
            shutil.copyfileobj(f.buffer, spill.buffer, _CHUNK)
            spill.seek(0)
            yield spill


def _streamed(read: Callable[[int], str], length: int) -> StreamedInstance:
    """The instance of a text ``length`` long, its items taken from ``read`` as drawn."""
    t = _Text(read)
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
    # claim more slots than it is long before it is.
    if len(specs) * (horizon + 1) > length:
        raise ValueError(f"{len(specs)} x {horizon + 1} slots outweigh the document")
    return StreamedInstance(horizon, specs, items)


class _Text:
    """The unread text of a document: ``buf[pos:]``, refilled by ``read``."""

    def __init__(self, read: Callable[[int], str]) -> None:
        self.read, self.buf, self.pos = read, "", 0

    def find(self, sub: str) -> int:
        """Index in ``buf`` of the first ``sub`` from ``pos`` on, reading on; -1 if none."""
        while True:
            at = self.buf.find(sub, self.pos)
            if at >= 0 or not self.more():
                return at

    def more(self) -> bool:
        """Read at least as much again as is unread (so a long search stays
        linear), dropping what was read; False at the end of the input."""
        chunk = self.read(max(_CHUNK, len(self.buf) - self.pos))
        if not chunk:
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
