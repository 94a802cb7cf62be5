"""Streaming decoder for the TCSBR format + the Skip-index navigator.

The decoder mirrors the paper's SOE-side decoding: it keeps a
*SkipStack* of ``(DescTag list, field widths, content end)`` for the
open elements, and reconstructs tags, descendant-tag sets and subtree
sizes while reading forward.  Because sizes are explicit, it can *skip*
a subtree in O(1) by jumping to its content end — the operation the
whole index exists for.

:class:`SkipIndexNavigator` exposes the decoder through the evaluator's
:class:`~repro.accesscontrol.navigation.Navigator` protocol, including
pending-subtree capture (the fetch callback re-decodes the byte span on
demand — the read-back of Section 5).

The decoder reads from any random-access bytes-like object; the secure
pipeline substitutes a lazily decrypting, integrity-checking view
(:class:`repro.crypto.integrity.SecureBytes`) so that skipped bytes are
never transferred nor decrypted.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.accesscontrol.navigation import FetchCallback, Navigator, SubtreeMeta
from repro.metrics import Meter
from repro.skipindex.bitio import BitReader, bits_for, bits_for_count
from repro.skipindex.encoder import MAGIC, ROOT_SIZE_BITS, VERSION, EncodedDocument
from repro.xmlkit.dictionary import TagDictionary
from repro.xmlkit.dom import Node
from repro.xmlkit.events import CLOSE, OPEN, TEXT, Event


class SkipIndexFormatError(ValueError):
    """Raised on malformed encoded documents."""


class _OpenFrame:
    """SkipStack entry: decoding context of one open element."""

    __slots__ = ("tag", "desc_list", "code_width", "size_width", "end", "leaf_text")

    def __init__(
        self,
        tag: str,
        desc_list: Tuple[str, ...],
        size_width: int,
        end: int,
        leaf_text: Optional[int] = None,
    ):
        self.tag = tag
        self.desc_list = desc_list
        self.code_width = bits_for_count(len(desc_list) + 1)
        self.size_width = size_width
        self.end = end
        self.leaf_text = leaf_text  # pending leaf text length, if any


def read_header(data) -> Tuple[TagDictionary, int]:
    """Parse magic, version and dictionary; return (dictionary, offset)."""
    reader = BitReader(data)
    if bytes(reader.read_bytes(4)) != MAGIC:
        raise SkipIndexFormatError("bad magic")
    version = reader.read_bytes(1)[0]
    if version != VERSION:
        raise SkipIndexFormatError("unsupported version %d" % version)
    count = reader.read_varint()
    dictionary = TagDictionary()
    for _ in range(count):
        length = reader.read_varint()
        dictionary.add(reader.read_bytes(length).decode("utf-8"))
    return dictionary, reader.tell()


class SkipIndexNavigator(Navigator):
    """Navigator over an encoded (possibly lazily decrypted) document.

    ``data`` is any random-access bytes-like object (``bytes`` or a
    decrypting view); ``meter`` accumulates skip statistics.
    ``provide_meta=False`` hides the index metadata from the evaluator
    (for ablations: skipping without token filtering).
    """

    __slots__ = (
        "data",
        "dictionary",
        "meter",
        "provide_meta",
        "_offset",
        "_stack",
        "_root_context",
        "_done",
    )

    def __init__(
        self,
        data,
        dictionary: Optional[TagDictionary] = None,
        start_offset: Optional[int] = None,
        meter: Optional[Meter] = None,
        provide_meta: bool = True,
    ):
        if dictionary is None or start_offset is None:
            dictionary, start_offset = read_header(data)
        self.data = data
        self.dictionary = dictionary
        self.meter = meter
        self.provide_meta = provide_meta
        self._offset = start_offset
        self._stack: List[_OpenFrame] = []
        root_desc = tuple(sorted(dictionary.tags(), key=dictionary.code))
        self._root_context = _OpenFrame("", root_desc, ROOT_SIZE_BITS, -1)
        self._done = False

    # ------------------------------------------------------------------
    def next(self):
        if self._done:
            return None
        if self._stack:
            top = self._stack[-1]
            if top.leaf_text is not None:
                length = top.leaf_text
                top.leaf_text = None
                if length:
                    text = bytes(self.data[self._offset : self._offset + length])
                    self._offset += length
                    return (TEXT, text.decode("utf-8"), None)
            if self._offset >= top.end:
                self._stack.pop()
                if not self._stack:
                    self._done = True
                return (CLOSE, top.tag, None)
        context = self._stack[-1] if self._stack else self._root_context
        reader = BitReader(self.data, self._offset)
        code = reader.read_bits(context.code_width)
        if code == 0:
            length = reader.read_varint()
            text = bytes(reader.read_bytes(length)).decode("utf-8")
            self._offset = reader.tell()
            return (TEXT, text, None)
        try:
            tag = context.desc_list[code - 1]
        except IndexError:
            raise SkipIndexFormatError(
                "tag code %d out of range at offset %d" % (code, self._offset)
            )
        internal = reader.read_bit()
        if internal:
            width = len(context.desc_list)
            bitmap = reader.read_bits(width)
            desc = tuple(
                candidate
                for index, candidate in enumerate(context.desc_list)
                if bitmap & (1 << (width - 1 - index))
            )
            size = reader.read_bits(context.size_width)
            reader.align()
            start = reader.tell()
            self._stack.append(_OpenFrame(tag, desc, bits_for(size), start + size))
            self._offset = start
            meta = SubtreeMeta(frozenset(desc), size) if self.provide_meta else None
            return (OPEN, tag, meta)
        # Leaf: one record yields OPEN, then its text, then CLOSE.
        length = reader.read_varint()
        start = reader.tell()
        self._stack.append(_OpenFrame(tag, (), 0, start + length, leaf_text=length))
        self._offset = start
        meta = SubtreeMeta(frozenset(), length) if self.provide_meta else None
        return (OPEN, tag, meta)

    def supports_skip(self) -> bool:
        return True

    def supports_capture(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def skip_subtree(self) -> None:
        frame = self._current_frame()
        if self.meter is not None:
            self.meter.skipped_bytes += max(0, frame.end - self._offset)
        frame.leaf_text = None
        self._offset = frame.end

    def skip_and_capture(self) -> FetchCallback:
        frame = self._current_frame()
        if frame.leaf_text is not None:
            fetch = self._make_leaf_fetch(frame.tag, self._offset, frame.end)
        else:
            fetch = self._make_fetch(self._offset, frame.end, frame, wrap_tag=frame.tag)
        if self.meter is not None:
            self.meter.skipped_bytes += max(0, frame.end - self._offset)
        frame.leaf_text = None
        self._offset = frame.end
        return fetch

    def skip_rest(self) -> bool:
        frame = self._current_frame()
        if frame.leaf_text is None and self._offset >= frame.end:
            return False
        if self.meter is not None:
            self.meter.skipped_bytes += frame.end - self._offset
        frame.leaf_text = None
        self._offset = frame.end
        return True

    def skip_rest_and_capture(self) -> Optional[FetchCallback]:
        frame = self._current_frame()
        if frame.leaf_text is not None:
            fetch = self._make_leaf_fetch(None, self._offset, frame.end)
        elif self._offset >= frame.end:
            return None
        else:
            fetch = self._make_fetch(self._offset, frame.end, frame, wrap_tag=None)
        if self.meter is not None:
            self.meter.skipped_bytes += frame.end - self._offset
        frame.leaf_text = None
        self._offset = frame.end
        return fetch

    # ------------------------------------------------------------------
    def _current_frame(self) -> _OpenFrame:
        if not self._stack:
            raise RuntimeError("no open element to skip")
        return self._stack[-1]

    def _make_leaf_fetch(
        self, tag: Optional[str], start: int, end: int
    ) -> FetchCallback:
        data = self.data
        meter = self.meter

        def fetch() -> Sequence[Event]:
            if meter is not None:
                meter.readback_events += 1
            events: List[Event] = []
            if tag is not None:
                events.append(Event(OPEN, tag))
            if end > start:
                events.append(
                    Event(TEXT, bytes(data[start:end]).decode("utf-8"))
                )
            if tag is not None:
                events.append(Event(CLOSE, tag))
            return events

        return fetch

    def _make_fetch(
        self,
        start: int,
        end: int,
        context: _OpenFrame,
        wrap_tag: Optional[str],
    ) -> FetchCallback:
        data = self.data
        meter = self.meter
        desc_list = context.desc_list
        size_width = context.size_width
        tag = wrap_tag

        def fetch() -> Sequence[Event]:
            if meter is not None:
                meter.readback_events += 1
            events: List[Event] = []
            if tag is not None:
                events.append(Event(OPEN, tag))
            _decode_span(data, start, end, desc_list, size_width, events)
            if tag is not None:
                events.append(Event(CLOSE, tag))
            return events

        return fetch


def _decode_span(
    data,
    start: int,
    end: int,
    desc_list: Tuple[str, ...],
    size_width: int,
    out: List[Event],
) -> None:
    """Decode all items in ``[start, end)`` under the given context."""
    code_width = bits_for_count(len(desc_list) + 1)
    offset = start
    while offset < end:
        reader = BitReader(data, offset)
        code = reader.read_bits(code_width)
        if code == 0:
            length = reader.read_varint()
            out.append(Event(TEXT, bytes(reader.read_bytes(length)).decode("utf-8")))
            offset = reader.tell()
            continue
        tag = desc_list[code - 1]
        internal = reader.read_bit()
        out.append(Event(OPEN, tag))
        if internal:
            width = len(desc_list)
            bitmap = reader.read_bits(width)
            desc = tuple(
                candidate
                for index, candidate in enumerate(desc_list)
                if bitmap & (1 << (width - 1 - index))
            )
            size = reader.read_bits(size_width)
            reader.align()
            content_start = reader.tell()
            _decode_span(
                data, content_start, content_start + size, desc, bits_for(size), out
            )
            offset = content_start + size
        else:
            length = reader.read_varint()
            if length:
                out.append(
                    Event(TEXT, bytes(reader.read_bytes(length)).decode("utf-8"))
                )
            offset = reader.tell()
        out.append(Event(CLOSE, tag))


def iter_decoded_events(document: EncodedDocument) -> Iterator[Event]:
    """Decode a whole document into its event stream."""
    navigator = SkipIndexNavigator(
        document.data, document.dictionary, document.root_offset
    )
    while True:
        item = navigator.next()
        if item is None:
            return
        kind, value, _meta = item
        yield Event(kind, value)


def decode_document(document: EncodedDocument) -> Node:
    """Decode a whole document back into a DOM tree (round-trip test)."""
    from repro.xmlkit.events import events_to_tree

    return events_to_tree(iter_decoded_events(document))
