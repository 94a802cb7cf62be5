"""Blocking client SDK for the station server.

:class:`RemoteSession` mirrors the in-process evaluation API —
``evaluate(document_id, query)`` like :meth:`SecureStation.evaluate` —
so code written against the local station runs unmodified against a
live server.  The returned :class:`RemoteResult` carries the
reassembled authorized view (bytes, text and, lazily, the event
stream) plus the server's RESULT trailer (simulated seconds, meter
counts).

Plain ``socket`` + the shared :class:`~repro.server.protocol
.FrameDecoder`; no asyncio on this side, by design — the SDK must be
trivially usable from tests, benchmark threads and the CLI.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.station import open_sealed
from repro.obs.trace import new_trace_id
from repro.server import protocol
from repro.server.protocol import (
    BYE,
    CHUNK,
    ERROR,
    HELLO,
    INVALIDATED,
    PING,
    PONG,
    QUERY,
    REBALANCE,
    RESULT,
    STATS,
    STATS_REQUEST,
    TOPOLOGY,
    TOPOLOGY_REQUEST,
    UPDATE,
    WELCOME,
    Frame,
    FrameDecoder,
    ProtocolError,
    json_frame,
)


class RemoteError(RuntimeError):
    """A structured ERROR frame from the server."""

    def __init__(self, code: str, message: str):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message


class RemoteResult:
    """One remote authorized view + the server's cost trailer."""

    def __init__(self, data: bytes, trailer: Dict[str, Any]):
        self.data = data
        self.trailer = trailer

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")

    @property
    def events(self):
        """The view as an event stream (lazily re-parsed from the text).

        Note synthetic ``<@attr>`` elements do not round-trip through
        XML text (see :func:`repro.xmlkit.serializer.serialize_events`);
        compare ``data`` bytes when exactness matters.
        """
        if not self.data:
            return []
        from repro.xmlkit.parser import parse_document

        return list(parse_document(self.text).iter_events())

    @property
    def seconds(self) -> float:
        """Simulated SOE seconds, as accounted by the server."""
        return float(self.trailer.get("seconds", 0.0))

    @property
    def meter(self) -> Dict[str, int]:
        return dict(self.trailer.get("meter", {}))

    @property
    def cached(self) -> bool:
        """Was this view served from the station's view cache?  (The
        simulated :attr:`seconds` are identical either way.)"""
        return bool(self.trailer.get("cached"))

    @property
    def chunks(self) -> int:
        return int(self.trailer.get("chunks", 0))

    @property
    def served(self) -> str:
        """How the station produced the view: ``"indexed"`` when a
        structural chunk-range plan drove the decryption, otherwise
        ``"streamed"`` (older servers omit the field; assume streamed)."""
        return str(self.trailer.get("served", "streamed"))

    @property
    def trace_id(self) -> str:
        """Hex trace id echoed by the server ("" when untraced)."""
        return str(self.trailer.get("trace", ""))

    @property
    def spans(self) -> List[Dict[str, Any]]:
        """The server-side span tree for this request (traced only).

        The trailer carries spans in a compact wire form; this expands
        them to ``{"name", "id", "parent", "start_ms", ...}`` dicts.
        """
        from repro.obs.trace import spans_from_wire

        return spans_from_wire(self.trailer.get("spans"))

    @property
    def result_bytes(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RemoteResult(%d bytes, %d chunks, %.3fs simulated)" % (
            len(self.data),
            self.chunks,
            self.seconds,
        )


class RemoteSession:
    """One authenticated connection to a :class:`StationServer`.

    Parameters
    ----------
    host, port:
        Server address.
    subject:
        The subject to bind (HELLO); grants are looked up server-side.
    timeout:
        Socket timeout for each receive, seconds.
    connect_retry:
        Keep retrying the initial TCP connect for this many seconds —
        lets clients race a server that is still binding (CI).
    cache_views:
        Keep each ``(document, query)`` view client-side and serve
        repeats from the cache.  The server's INVALIDATED push (sent
        after every live document update) drops the affected entries,
        so the next :meth:`evaluate` re-fetches transparently — callers
        never see stale data, they just see a cheaper round-trip while
        the document is unchanged.  Off by default: benchmarks and the
        load generator must measure real server work.
    trace:
        Stamp every request with a freshly minted 64-bit trace id
        (carried in the frame header, echoed in the RESULT trailer
        together with the server-side span tree).  Individual calls
        may also pass an explicit ``trace=`` id — e.g. one minted from
        a seeded RNG by the load generator — which wins over the
        session default.  A transparent reconnect retry reuses the
        *same* id, so one logical request stays one trace even when it
        hops backends mid-flight.
    auto_reconnect:
        Re-dial and re-HELLO transparently when the connection drops,
        then retry the interrupted call once from scratch.  The public
        API is unchanged — callers still see plain ``evaluate`` /
        ``update`` / ``stats`` — which is exactly what a session
        pointed at a cluster gateway wants: a gateway restart (or a
        transient network blip) costs one extra round-trip instead of
        a dead session.  A reconnect opens a *new* server session
        (fresh session id and link key); known document versions and
        the client view cache carry over, so staleness tracking
        survives the hop.  Off by default: tests asserting connection
        errors — and anything counting sessions — must opt in.
    """

    def __init__(
        self,
        host: str,
        port: int,
        subject: str,
        timeout: float = 30.0,
        connect_retry: float = 0.0,
        cache_views: bool = False,
        auto_reconnect: bool = False,
        trace: bool = False,
    ):
        self.host = host
        self.port = port
        self.subject = subject
        self._timeout = timeout
        self._connect_retry = connect_retry
        self._closed = False
        self._cache_views = cache_views
        self._auto_reconnect = auto_reconnect
        self._trace = trace
        self._cache: Dict[Tuple[str, Optional[str]], "RemoteResult"] = {}
        #: Latest known version per document (RESULT trailers and
        #: INVALIDATED pushes both feed it).
        self.document_versions: Dict[str, int] = {}
        #: Count of INVALIDATED pushes processed (observability/tests).
        self.invalidations_seen = 0
        #: Count of transparent reconnects performed (observability).
        self.reconnects = 0
        self._dial(connect_retry)

    def _dial(self, connect_retry: float) -> None:
        """(Re)establish the socket and the HELLO/WELCOME handshake."""
        self._sock = self._connect(
            (self.host, self.port), self._timeout, connect_retry
        )
        self._sock.settimeout(self._timeout)
        self._decoder = FrameDecoder()
        self._pending: List[Frame] = []
        self._send(json_frame(HELLO, 0, {"subject": self.subject}))
        welcome = self._expect(WELCOME).json()
        self.session_id: int = welcome["session"]
        self.session_key: bytes = bytes.fromhex(welcome.get("key", ""))
        self.sealed: bool = bool(welcome.get("seal"))
        self.limits: Dict[str, int] = dict(welcome.get("limits", {}))
        # Adopt the server's negotiated frame limit so a server
        # configured above the protocol default doesn't latch our
        # decoder dead on its first big CHUNK.
        negotiated = self.limits.get("max_payload")
        if negotiated:
            self._decoder.max_payload = int(negotiated)

    def _reconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
        # Always allow a grace window on reconnect: the server may be
        # mid-restart even when the initial connect needed no retry.
        self._dial(max(self._connect_retry, 2.0))
        self.reconnects += 1

    def _with_reconnect(self, call):
        """Run ``call()``; on a dropped connection, reconnect and retry
        once.  Retrying from scratch is safe for every request type:
        queries and stats are idempotent, and an update whose RESULT
        never arrived cannot have been applied (the server writes the
        trailer only after the swap) — except when the drop races the
        trailer itself, which is the usual at-least-once caveat and is
        documented on :meth:`update`."""
        try:
            return call()
        except (ConnectionError, OSError) as exc:
            # A receive *timeout* is not a dropped connection: the
            # server may still be working on the request (a big update
            # mid-apply), and re-sending it would duplicate the work.
            # Only genuinely broken links are retried.
            if isinstance(exc, socket.timeout):
                raise
            if not self._auto_reconnect or self._closed:
                raise
            try:
                self._reconnect()
            except OSError:
                raise exc
            return call()

    @staticmethod
    def _connect(
        address: Tuple[str, int], timeout: float, connect_retry: float
    ) -> socket.socket:
        deadline = time.monotonic() + connect_retry
        while True:
            try:
                return socket.create_connection(address, timeout=timeout)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def _trace_id(self, trace: int) -> int:
        """Resolve a per-call trace id: explicit id wins, else mint one
        when session-level tracing is on, else 0 (untraced)."""
        if trace:
            return int(trace)
        return new_trace_id() if self._trace else 0

    # ------------------------------------------------------------------
    def evaluate(
        self,
        document_id: str,
        query: Optional[str] = None,
        fresh: bool = False,
        trace: int = 0,
    ) -> RemoteResult:
        """The authorized view of ``document_id`` for this subject.

        Mirrors :meth:`SecureStation.evaluate`; raises
        :class:`RemoteError` on a structured server error.  With
        ``cache_views`` enabled an unchanged document is served from
        the client cache (pending INVALIDATED pushes are drained first,
        so a cached entry is only served when no newer version has been
        announced); ``fresh=True`` forces the round-trip.
        """
        key = (document_id, query)
        if self._cache_views and not fresh:
            self.poll_notifications()
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        trace = self._trace_id(trace)
        return self._with_reconnect(
            lambda: self._evaluate_once(document_id, query, key, trace)
        )

    def _evaluate_once(
        self, document_id: str, query: Optional[str], key, trace: int = 0
    ) -> RemoteResult:
        self._send(
            json_frame(
                QUERY,
                self.session_id,
                {"document": document_id, "query": query},
                trace=trace,
            )
        )
        parts: List[bytes] = []
        while True:
            frame = self._recv()
            if frame.type == CHUNK:
                chunk = frame.payload
                if self.sealed:
                    chunk = open_sealed(self.session_key, chunk)
                parts.append(chunk)
            elif frame.type == RESULT:
                result = RemoteResult(b"".join(parts), frame.json())
                version = result.trailer.get("version")
                if version is not None:
                    self._note_version(document_id, int(version))
                if self._cache_views and not self._is_stale(document_id, version):
                    self._cache[key] = result
                return result
            elif frame.type == ERROR:
                raise self._error(frame)
            else:
                raise ProtocolError(
                    "unexpected %s frame during a query" % frame.type_name
                )

    def update(self, document_id: str, op, trace: int = 0) -> Dict[str, Any]:
        """Apply a live edit server-side (an UPDATE round-trip).

        ``op`` is an :class:`~repro.skipindex.updates.UpdateOp` or its
        ``as_dict()`` form.  Returns the server's RESULT trailer
        (new version, chunks re-encrypted, dirtied ratio, ...).

        With ``auto_reconnect`` the retry semantics are at-least-once:
        a connection lost exactly between the server applying the edit
        and the trailer arriving leads to a second application.  Every
        op kind is either idempotent (update-text, rename) or visibly
        duplicated (insert), so callers needing exactly-once should
        verify the version trailer.
        """
        body = op.as_dict() if hasattr(op, "as_dict") else dict(op)
        trace = self._trace_id(trace)
        return self._with_reconnect(
            lambda: self._update_once(document_id, body, trace)
        )

    def _update_once(
        self, document_id: str, body: Dict[str, Any], trace: int = 0
    ) -> Dict[str, Any]:
        self._send(
            json_frame(
                UPDATE,
                self.session_id,
                {"document": document_id, "op": body},
                trace=trace,
            )
        )
        trailer = self._expect(RESULT).json()
        version = trailer.get("version")
        if version is not None:
            self._note_version(document_id, int(version))
        return trailer

    def stats(self) -> Dict[str, Any]:
        """Station + server operational counters (a STATS round-trip).

        Against a cluster gateway this is the *aggregated* report:
        summed station/server counters plus a ``per_backend`` map with
        per-node request counts, latency percentiles and liveness.
        """

        def call() -> Dict[str, Any]:
            self._send(json_frame(STATS_REQUEST, self.session_id, {}))
            return self._expect(STATS).json()

        return self._with_reconnect(call)

    def ping(self) -> Dict[str, Any]:
        """Health probe (PING/PONG): liveness + document versions."""

        def call() -> Dict[str, Any]:
            self._send(json_frame(PING, self.session_id, {}))
            return self._expect(PONG).json()

        return self._with_reconnect(call)

    def topology(self) -> Dict[str, Any]:
        """Cluster topology (gateway only): backends, ring, placement."""

        def call() -> Dict[str, Any]:
            self._send(json_frame(TOPOLOGY_REQUEST, self.session_id, {}))
            return self._expect(TOPOLOGY).json()

        return self._with_reconnect(call)

    def rebalance(
        self, action: str, name: str, address: Optional[Tuple[str, int]] = None
    ) -> Dict[str, Any]:
        """Gateway admin: ``join``/``leave`` a backend on the hash ring.

        Returns the gateway's RESULT trailer (documents re-placed).
        """
        body: Dict[str, Any] = {"action": action, "name": name}
        if address is not None:
            body["host"], body["port"] = address[0], int(address[1])

        def call() -> Dict[str, Any]:
            self._send(json_frame(REBALANCE, self.session_id, body))
            return self._expect(RESULT).json()

        return self._with_reconnect(call)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._send(protocol.encode_frame(BYE, self.session_id))
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def poll_notifications(self) -> int:
        """Drain any already-arrived server pushes without blocking.

        INVALIDATED frames can land on the socket while the client is
        not inside a call; this processes whatever is buffered (kernel
        + decoder) and returns the number of invalidations handled.
        """
        before = self.invalidations_seen
        self._sock.setblocking(False)
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    break  # server closed; surfaced by the next call
                self._pending.extend(self._decoder.feed(data))
        except (BlockingIOError, InterruptedError, socket.timeout):
            pass
        finally:
            self._sock.settimeout(self._timeout)
        self._pending = [
            frame for frame in self._pending if not self._consume_push(frame)
        ]
        return self.invalidations_seen - before

    def _consume_push(self, frame: Frame) -> bool:
        """Handle a server-push frame; True when it was consumed."""
        if frame.type != INVALIDATED:
            return False
        try:
            body = frame.json()
            document_id = body["document"]
            version = int(body["version"])
        except (ProtocolError, KeyError, TypeError, ValueError):
            return True  # malformed push: drop rather than desync a call
        self.invalidations_seen += 1
        self._note_version(document_id, version)
        return True

    def _note_version(self, document_id: str, version: int) -> None:
        known = self.document_versions.get(document_id)
        if known is None or version > known:
            self.document_versions[document_id] = version
            for key in [k for k in self._cache if k[0] == document_id]:
                del self._cache[key]

    def _is_stale(self, document_id: str, version) -> bool:
        """Is a result at ``version`` already superseded?

        An INVALIDATED push consumed *mid-query* can announce a newer
        version than the RESULT being assembled (the server evaluated
        the pre-update snapshot); caching that result would serve stale
        data forever, since no further push for that version will come.
        """
        if version is None:
            return False
        known = self.document_versions.get(document_id)
        return known is not None and int(version) < known

    def _send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def _recv(self) -> Frame:
        while True:
            while not self._pending:
                data = self._sock.recv(65536)
                if not data:
                    raise ConnectionError("server closed the connection")
                self._pending.extend(self._decoder.feed(data))
            frame = self._pending.pop(0)
            # Server pushes are out-of-band: consume them here so every
            # caller (mid-query or not) sees only its own frames.
            if not self._consume_push(frame):
                return frame

    def _expect(self, ftype: int) -> Frame:
        frame = self._recv()
        if frame.type == ERROR:
            raise self._error(frame)
        if frame.type != ftype:
            raise ProtocolError(
                "expected %s, got %s"
                % (protocol.TYPE_NAMES[ftype], frame.type_name)
            )
        return frame

    @staticmethod
    def _error(frame: Frame) -> RemoteError:
        try:
            body = frame.json()
        except ProtocolError:
            body = {}
        return RemoteError(
            body.get("code", "unknown"), body.get("message", "server error")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RemoteSession(%s@%s:%d, #%d)" % (
            self.subject,
            self.host,
            self.port,
            getattr(self, "session_id", 0),
        )
