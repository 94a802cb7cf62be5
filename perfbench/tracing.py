"""Span recording for the traced benchmark run.

The traced run wraps the public entry points of each layer under
``src/repro`` from here, so the program itself carries no tracing code
for the benchmark.  A wrapper records one span per call: its name, its
start and end (``perf_counter_ns``) and the span that caused it.  Spans
stay in compact in-memory arrays and are written out once the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Every operation of the benchmark loop is a
root span (``bench:read`` / ``bench:update``), so the self times of
all spans under a root add up to the root's duration; the root's own
self time is the *unattributed* remainder.

The untraced run never imports this module: no wrapper is installed.
"""

from __future__ import annotations

import functools
import gzip
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

#: Layer of the benchmark's own root spans.
BENCH = "bench"


class SpanRecorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        #: Spans are recorded only while an operation is in flight, so
        #: setup, warm-up and the oracle checks never show up.
        self.active = False
        self._local = threading.local()
        #: Open span of the client thread that is waiting on another
        #: thread (the remote call): spans opened on a thread with no
        #: open span of its own (the server's executor) hang under it.
        #: Exact for the one client thread the workloads use.
        self._handoff = -1
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._handoff
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.start.append(0)
            self.end.append(0)
        stack.append(index)
        return index

    def _run(self, name_id: int, handoff: bool, fn: Callable, args, kwargs):
        index = self._open(name_id)
        if handoff:
            self._handoff = index
        started = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = perf_counter_ns()
            if handoff:
                self._handoff = -1
            self._stack().pop()
            self.start[index] = started
            self.end[index] = ended

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a root span named ``name``."""
        return self._run(self._name_id(name), False, fn, args, kwargs)

    def wrap(self, owner, attribute: str, name: str, handoff: bool = False) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        recorder = self
        name_id = self._name_id(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            return recorder._run(name_id, handoff, original, args, kwargs)

        self.patch(owner, attribute, wrapper)

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``; :meth:`uninstall` restores it."""
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as ``id parent name start_ns end_ns`` lines."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for index in range(len(self.start)):
                out.write(
                    "%d\t%d\t%s\t%d\t%d\n"
                    % (
                        index,
                        self.parent[index],
                        names[self.name[index]],
                        self.start[index],
                        self.end[index],
                    )
                )

    def ledger(self) -> "Ledger":
        """Self time and call count per span name, per root kind.

        Spans of one thread nest, and a span opened on another thread
        during a hand-off lies inside the waiting span, so the part of a
        span its children cover is the sum of their durations.
        """
        count = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        covered = array("q", [0]) * count
        root = array("q", [0]) * count
        for index in range(count):
            up = parent[index]
            if up < 0:
                root[index] = index
            else:
                root[index] = root[up]
                covered[up] += end[index] - start[index]
        self_ns: Dict[Tuple[str, str], int] = defaultdict(int)
        calls: Dict[Tuple[str, str], int] = defaultdict(int)
        roots: Dict[str, List[int]] = defaultdict(list)
        names = self.names
        for index in range(count):
            duration = end[index] - start[index]
            top = names[name[root[index]]]
            key = (top, names[name[index]])
            self_ns[key] += duration - covered[index]
            calls[key] += 1
            if root[index] == index:
                roots[top].append(duration)
        return Ledger(dict(self_ns), dict(calls), dict(roots))


class Ledger:
    """Per-name self time (ns) and calls, keyed by ``(root, span name)``."""

    def __init__(self, self_ns, calls, roots):
        self.self_ns = self_ns
        self.calls = calls
        self.roots = roots

    def ops(self, root: str) -> int:
        return len(self.roots.get(root, ()))

    def total_ns(self, root: str) -> int:
        return sum(self.roots.get(root, ()))

    def self_ms(self, root: str, *names: str) -> float:
        """Self time of ``names`` under ``root`` spans, ms per root."""
        ops = self.ops(root)
        if not ops:
            return 0.0
        total = sum(self.self_ns.get((root, name), 0) for name in names)
        return total / 1e6 / ops

    def calls_per_op(self, root: str, *names: str) -> float:
        ops = self.ops(root)
        if not ops:
            return 0.0
        return sum(self.calls.get((root, name), 0) for name in names) / ops

    def layer_ms(self, root: str) -> Dict[str, float]:
        """Self time per layer (the name's prefix), ms per root span.

        The root's own self time appears as ``unattributed``; the values
        sum to the mean traced duration of the root spans.
        """
        ops = self.ops(root)
        layers: Dict[str, float] = defaultdict(float)
        for (top, name), value in self.self_ns.items():
            if top != root:
                continue
            layer = name.split(":", 1)[0]
            layers["unattributed" if layer == BENCH else layer] += value
        return {layer: value / 1e6 / ops for layer, value in sorted(layers.items())}


def install(recorder: SpanRecorder, server: bool) -> None:
    """Wrap the public entry point of every layer the workloads cross.

    Span names are ``<layer>:<entry point>``; the layer is the module
    name under ``src/repro``.  Functions that a module imported by name
    are wrapped where the caller looks them up.
    """
    from repro.accesscontrol.evaluator import StreamingEvaluator
    from repro.crypto.integrity import BaseReader, BaseScheme
    from repro.engine import station as station_module
    from repro.engine.station import SecureStation
    from repro.skipindex import decoder
    from repro.skipindex.decoder import SkipIndexNavigator
    from repro.skipindex.structural import IndexedNavigator, StructuralIndex
    from repro.skipindex.updates import UpdateOp
    from repro.store import log as log_module
    from repro.store.log import ChunkPager, LogStore
    from repro.xmlkit import serializer

    wrap = recorder.wrap
    if server:
        from repro.server.client import RemoteSession

        wrap(RemoteSession, "evaluate", "server:RemoteSession.evaluate", handoff=True)
    # engine
    wrap(SecureStation, "evaluate", "engine:SecureStation.evaluate")
    wrap(SecureStation, "stream", "engine:SecureStation.stream")
    wrap(SecureStation, "update", "engine:SecureStation.update")
    # store
    wrap(ChunkPager, "_read", "store:ChunkPager.read")
    wrap(LogStore, "apply_update", "store:LogStore.apply_update")
    # crypto
    wrap(BaseReader, "read", "crypto:BaseReader.read")
    wrap(BaseScheme, "reencrypt", "crypto:BaseScheme.reencrypt")
    wrap(log_module, "_decrypt_all", "crypto:decrypt_all")
    # skipindex: navigation, the structural index, the update path
    for method in ("next", "skip_subtree", "skip_and_capture", "skip_rest",
                   "skip_rest_and_capture"):
        wrap(SkipIndexNavigator, method, "skipindex:navigate")
    wrap(IndexedNavigator, "next", "skipindex:navigate")
    wrap(decoder, "_decode_span", "skipindex:navigate")
    wrap(StructuralIndex, "match", "skipindex:StructuralIndex.match")
    wrap(StructuralIndex, "planned_chunks", "skipindex:StructuralIndex.match")
    wrap(station_module, "decode_document", "skipindex:decode_document")
    wrap(UpdateOp, "apply", "skipindex:UpdateOp.apply")
    for function in ("reencode_after", "impact_between", "refresh_structural_index"):
        wrap(station_module, function, "skipindex:reencode")
    # accesscontrol
    wrap(StreamingEvaluator, "run", "accesscontrol:StreamingEvaluator.run")
    # xmlkit: the station's payload path and the in-process clients
    wrap(station_module, "serialize_events", "xmlkit:serialize_events")
    wrap(serializer, "serialize_events", "xmlkit:serialize_events")
