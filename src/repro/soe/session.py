"""End-to-end secure pipeline (the architecture of Fig. 2).

``prepare_document`` performs the publisher-side work: Skip-index
encode the XML document, then encrypt/digest it for the untrusted
terminal under one of the Fig. 11 schemes.

:class:`SecureSession` performs the SOE-side work: it opens a
decrypting, integrity-checking view on the stored bytes, drives the
Skip-index decoder (or, given a publish-time structural index, the
indexed navigator) and the streaming evaluator over it, and accounts
every primitive cost in a :class:`~repro.metrics.Meter`, converted to
simulated seconds by the :mod:`~repro.soe.costmodel`.  The session
compiles its policy into a :class:`~repro.engine.plans.PolicyPlan` once
at construction, so repeated :meth:`~SecureSession.run` calls reuse it.
It is the paper's cold oracle and also the cache-miss path of the
multi-client :class:`~repro.engine.station.SecureStation`.

The tag dictionary and the document key are SOE-resident secrets
(Section 2: delivered over a secured channel), so reading them is not
charged to the terminal link.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.crypto.integrity import (
    BaseScheme,
    SecureBytes,
    SecureDocument,
    make_scheme,
)
from repro.crypto.chunks import ChunkLayout
from repro.metrics import Meter
from repro.skipindex.decoder import SkipIndexNavigator
from repro.skipindex.encoder import EncodedDocument, encode_document
from repro.skipindex.structural import (
    IndexedNavigator,
    StructuralIndex,
    build_structural_index,
)
from repro.soe.costmodel import CONTEXTS, CostModel, PlatformContext, TimeBreakdown
from repro.xmlkit.dom import Node
from repro.xmlkit.events import OPEN, TEXT, Event, events_to_tree
from repro.xpath.ast import Path


class PreparedDocument:
    """Publisher output: the encoded document + its protected form.

    ``index`` optionally carries the publish-time
    :class:`~repro.skipindex.structural.StructuralIndex`; it travels
    with the document through stores, updates and cluster repair so an
    indexed document stays indexed wherever its chunks go.
    """

    def __init__(
        self,
        encoded: EncodedDocument,
        scheme: BaseScheme,
        secure: SecureDocument,
        index=None,
    ):
        self.encoded = encoded
        self.scheme = scheme
        self.secure = secure
        self.index = index

    @property
    def encoded_size(self) -> int:
        return len(self.encoded.data)

    @property
    def stored_size(self) -> int:
        return self.secure.stored_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PreparedDocument(%s, %d encoded bytes)" % (
            self.scheme.name,
            self.encoded_size,
        )


def prepare_document(
    tree: Node,
    scheme: str = "ECB-MHT",
    key: bytes = b"\x00" * 16,
    layout: Optional[ChunkLayout] = None,
    index: bool = False,
) -> PreparedDocument:
    """Encode ``tree`` with the Skip index and protect it for storage.

    ``index=True`` additionally builds the structural pre/post index
    over the plaintext encoding (see :mod:`repro.skipindex.structural`).
    """
    encoded = encode_document(tree)
    scheme_obj = make_scheme(scheme, key=key, layout=layout)
    secure = scheme_obj.protect(encoded.data)
    structural = build_structural_index(encoded) if index else None
    return PreparedDocument(encoded, scheme_obj, secure, index=structural)


def delivered_bytes(events: List[Event]) -> int:
    """Size estimate of the authorized view leaving the SOE.

    The view leaves in its compact encoded form: tags cost a dictionary
    code (~1 byte in our accounting) and text costs its UTF-8 length —
    comparable to the TC encoding of the result.
    """
    total = 0
    for event in events:
        if event[0] == TEXT:
            total += len(event[1].encode("utf-8"))
        elif event[0] == OPEN:
            total += 2
        else:
            total += 1
    return total


class SessionResult:
    """Authorized view + cost accounting of one SOE run.

    ``document_version`` is stamped by :meth:`SecureStation.evaluate`
    with the update version of the exact snapshot evaluated (read
    atomically with the snapshot itself); ``None`` outside the station
    path.  ``cache_hit`` marks a result served from the station's
    version-keyed view cache — its events/breakdown are then shared
    read-only with the cache entry, and the meter still carries the
    simulated Table-1 costs of the original evaluation (cached and
    uncached responses report identical simulated seconds).
    """

    def __init__(
        self,
        events: List[Event],
        meter: Meter,
        breakdown: TimeBreakdown,
        context: PlatformContext,
    ):
        self.events = events
        self.meter = meter
        self.breakdown = breakdown
        self.context = context
        self.document_version: Optional[int] = None
        self.cache_hit = False
        #: True when the station served this result through the
        #: structural index (indexed navigation or a provably-empty
        #: early exit) instead of full streaming.
        self.indexed = False
        #: Station-internal: the view-cache entry backing this result
        #: (lets :meth:`SecureStation.stream` reuse the serialized
        #: payload).  ``None`` outside the station path.
        self.cache_entry = None

    @property
    def seconds(self) -> float:
        return self.breakdown.total

    @property
    def result_bytes(self) -> int:
        return delivered_bytes(self.events)

    def throughput_bps(self, input_bytes: int) -> float:
        """Input-consumption throughput (the Y-axis of Fig. 12)."""
        if self.seconds == 0:
            return float("inf")
        return input_bytes / self.seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SessionResult(%.3fs, %d events)" % (self.seconds, len(self.events))


class SecureSession:
    """One (document, subject) SOE session.

    Parameters
    ----------
    prepared:
        Publisher output (:func:`prepare_document`).
    policy:
        The subject's access-control policy (``USER`` already bound).
    query:
        Optional XPath query intersected with the authorized view.
    context:
        Table 1 platform context name or a custom
        :class:`PlatformContext`.
    use_skip_index:
        ``False`` reproduces the Brute-Force strategy: the evaluator
        sees every event and no subtree is ever skipped.
    prune:
        Skip-pruned replay (the serving hot path, see
        :class:`~repro.accesscontrol.evaluator.StreamingEvaluator`);
        off by default so the paper-figure benches keep their exact
        cold-path cost accounting.
    index:
        A :class:`~repro.skipindex.structural.StructuralIndex` of the
        document: the navigator then replays structure from the index
        and touches the ciphertext only for text payloads and captures
        — identical events, strictly fewer chunks decrypted.
    """

    def __init__(
        self,
        prepared: PreparedDocument,
        policy: "Union[Policy, PolicyPlan]",
        query: Union[str, Path, None] = None,
        context: Union[str, PlatformContext] = "smartcard",
        use_skip_index: bool = True,
        *,
        prune: bool = False,
        index: Optional[StructuralIndex] = None,
    ):
        # The engine layer sits above the SOE; import lazily (see the
        # layering rule in repro/engine/__init__.py).
        from repro.engine.plans import compile_policy

        self.prepared = prepared
        self.plan = compile_policy(policy)
        self.policy = self.plan.policy
        self.query = self.plan.query_plan(query)
        self.context = (
            CONTEXTS[context] if isinstance(context, str) else context
        )
        self.use_skip_index = use_skip_index
        self.prune = prune
        self.index = index

    def run(self) -> SessionResult:
        """One SOE pass: stream-decrypt, evaluate, price.

        Decryption and integrity checks run lazily inside evaluation,
        as the navigator pulls bytes.  The plan (and any compiled
        query) is reused across calls, so repeated runs of one session
        never re-touch the XPath parser.
        """
        prepared = self.prepared
        meter = Meter()
        data = SecureBytes(prepared.scheme.reader(prepared.secure, meter))
        if self.index is not None:
            navigator = IndexedNavigator(
                data,
                self.index,
                prepared.encoded.dictionary,
                meter=meter,
                provide_meta=self.use_skip_index,
            )
        else:
            navigator = SkipIndexNavigator(
                data,
                dictionary=prepared.encoded.dictionary,
                start_offset=prepared.encoded.root_offset,
                meter=meter,
                provide_meta=self.use_skip_index,
            )
        evaluator = StreamingEvaluator(
            self.plan,
            query=self.query,
            meter=meter,
            enable_skipping=self.use_skip_index,
            enable_pruning=self.prune,
        )
        events = evaluator.run(navigator)
        meter.bytes_delivered += delivered_bytes(events)
        breakdown = CostModel(self.context).breakdown(meter)
        return SessionResult(events, meter, breakdown, self.context)


def lwb_bytes(view_events: List[Event]) -> int:
    """Encoded size of the authorized view — what the LWB oracle reads.

    The oracle knows in advance where the authorized fragments are; it
    reads exactly their encoded bytes.  We measure that as the size of
    the Skip-index encoding of the view itself.
    """
    if not view_events:
        return 0
    tree = events_to_tree(view_events)
    return len(encode_document(tree).data)


def lwb_seconds(
    view_events: List[Event],
    context: Union[str, PlatformContext] = "smartcard",
    with_integrity: bool = False,
) -> float:
    """Simulated time of the theoretical LWB oracle (Section 7)."""
    platform = CONTEXTS[context] if isinstance(context, str) else context
    return CostModel(platform).lower_bound_seconds(
        lwb_bytes(view_events), with_integrity=with_integrity
    )
