"""Read an instance document in one pass, one batch of items at a time.

``run`` and ``validate`` take each item once, in arrival order, so they
need not hold the document, its parse or its records whole.
``streamed_instance`` reads the head (``horizon`` and ``knapsacks``), then
decodes the items in batches from a chunked read.  Each record is built by
the parser's per-item branch (``core.item_records``) and checked by
``Instance``'s per-item rule (``core.checked_items``) as it is drawn, and
none is kept.

Only the canonical layout is read this way: the top-level keys
``horizon``, ``knapsacks`` and ``items`` in that order, as
``dumps_instance`` writes them.  Any other layout, any JSON fault, text
after the closing brace, a repeated top-level key, any fault of a record,
a file that is not a regular one, and a head that declares more slots
(K x (horizon + 1)) than the document has characters raise ValueError (or
RecursionError) at the point they are met, at the latest when the last
item is drawn.  ``through_items`` then reads
the document whole through ``loads_instance``, which reports what it
reports for every document, so streaming changes no message.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from contextlib import contextmanager
from itertools import chain
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
)

# Characters per read, and the most text a batch of items spans, which
# bounds what the pass holds of a document read from a file or a string.
_CHUNK = 1 << 16

_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's, as json.decoder skips it
_raw_decode = json.JSONDecoder().raw_decode

T = TypeVar("T")


class StreamedInstance(NamedTuple):
    """An instance's head, and its items as an iterator to be taken once.

    Reads as an ``Instance`` does to ``engine.run``, ``validate_instance``
    and ``threshold.for_instance``.
    """

    horizon: int
    knapsacks: tuple[KnapsackSpec, ...]
    items: Iterator[Item]


def through_items(path: str, use: Callable[[Instance], T], loads: Callable[[str], Instance]) -> T:
    """``use(inst)`` for the instance at ``path`` (``-``: standard input), streamed if it can be.

    ``use`` must draw every item once, in order, and form no output.  If
    the streamed pass raises, ``use`` runs again on ``loads`` of the whole
    text, so every result and message is the whole reading's.  Standard
    input is read whole first, so that it can be read twice.
    """
    text = sys.stdin.read() if path == "-" else None
    try:
        with streamed_instance(path, text) as inst:
            return use(inst)
    except (OSError, ValueError, RecursionError):
        pass
    return use(loads(Path(path).read_text() if text is None else text))


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
            yield _streamed(_Window(None, text), len(text))
        return
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path} is not a regular file")
    with open(path) as f, _CollectorPaused():
        yield _streamed(_Window(f.read, ""), os.fstat(f.fileno()).st_size)


def _streamed(w: _Window, length: int) -> StreamedInstance:
    for token in ("{", '"horizon"', ":"):
        w.take(token)
    horizon = w.value()
    for token in (",", '"knapsacks"', ":"):
        w.take(token)
    knapsacks = w.value()
    for token in (",", '"items"', ":", "["):
        w.take(token)
    _checked({"horizon": horizon, "knapsacks": knapsacks, "items": []},
             _INSTANCE_FIELDS, "instance")
    specs = knapsack_specs(knapsacks)
    objs = chain.from_iterable(_item_batches(w))
    items = checked_items(horizon, len(specs), item_records(objs))
    # The engine's state holds a row of horizon + 1 slots per knapsack; a
    # document that is refused must not be able to claim more than its own
    # length before it is.
    if len(specs) * (horizon + 1) > length:
        raise ValueError(f"{len(specs)} x {horizon + 1} slots outweigh the document")
    return StreamedInstance(horizon, specs, items)


class _Window:
    """The unread text of a document: ``buf[pos:]``, refilled by ``read``.

    ``failed`` is the index in ``buf`` of the last batch cut that did not
    decode, so that it is never tried twice.
    """

    def __init__(self, read: Optional[Callable[[int], str]], buf: str) -> None:
        self.read = read
        self.buf = buf
        self.pos = 0
        self.failed = -1

    def more(self) -> bool:
        """Read at least as much again as is unread; False at the end of the input.

        Growing the window geometrically keeps the cost of re-decoding a
        long value linear in its length.
        """
        if self.read is None:
            return False
        chunk = self.read(max(_CHUNK, len(self.buf) - self.pos))
        if not chunk:
            self.read = None
            return False
        self.buf = self.buf[self.pos:] + chunk
        self.failed -= self.pos
        self.pos = 0
        return True

    def skip(self) -> None:
        """Take whitespace, reading on while the window ends in it."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return

    def take(self, token: str) -> None:
        """Take whitespace and then ``token``, or raise ValueError."""
        self.skip()
        while len(self.buf) - self.pos < len(token) and self.more():
            pass
        if not self.buf.startswith(token, self.pos):
            raise ValueError(f"expected {token} in the canonical layout")
        self.pos += len(token)

    def at(self, token: str) -> bool:
        """Take whitespace, then ``token`` if it comes next; whether it did."""
        self.skip()
        if self.buf.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def value(self) -> object:
        """Take whitespace and one JSON value, or raise ValueError."""
        self.skip()
        while True:
            try:
                obj, end = _raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.more():  # the value may run past the window
                    continue
                raise
            # A number may go on past the window's end.
            if end < len(self.buf) or not self.more():
                self.pos = end
                return obj

    def cut(self) -> int:
        """Index of the last '}' that closes an item before ',', or -1.

        The cut lies within ``_CHUNK`` characters of ``pos``, so that a
        batch is small even over a string read whole.  A cut's '}' follows
        the options array's ']', whitespace aside, so a cut between two
        options (of K > 1 knapsacks) is passed over.  Cuts up to the last
        one that failed are not considered.
        """
        buf, pos = self.buf, self.pos
        end = min(len(buf), pos + _CHUNK)
        while True:
            c = buf.rfind("},", max(pos, self.failed + 1), end)
            if c < 0:
                return -1
            b = buf.rfind("]", pos, c)
            if b >= 0 and _WHITESPACE.fullmatch(buf, b + 1, c):
                return c
            end = c + 1


def _item_batches(w: _Window) -> Iterator[list]:
    """The values of the items array, whose '[' was just taken, in batches, then its end.

    Items are decoded in batches, ``"[" + buf[pos:cut + 1] + "]"`` with
    ``json.loads``: a cut inside an item would leave a bracket open, so a
    batch that decodes holds exactly the items the whole parse would give.
    Where no batch decodes, or no cut is found in a chunk's worth of text
    (another key order inside the items, say), one value is decoded at a
    time.  After the last item, only ']', '}' and whitespace may follow.
    """
    if not w.at("]"):
        while True:
            cut = w.cut()
            if cut >= 0:
                try:
                    batch = json.loads("[" + w.buf[w.pos:cut + 1] + "]")
                except json.JSONDecodeError:
                    w.failed = cut
                else:
                    w.pos = cut + 2
                    yield batch
                    continue
            elif w.failed < w.pos and len(w.buf) - w.pos < _CHUNK and w.more():
                continue
            yield [w.value()]
            if w.at("]"):
                break
            w.take(",")
    w.take("}")
    w.skip()
    if w.pos < len(w.buf):
        raise ValueError("text after the document")
