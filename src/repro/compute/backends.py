"""The pluggable compute backends behind the crypto hot paths.

Three implementations of one small contract (:class:`ComputeBackend`):

* :class:`PureBackend` — the existing pure-Python SWAR fast paths,
  always available, and the oracle every other backend is fuzzed
  against;
* :class:`NativeBackend` — same call graph, but cipher factories are
  swapped for the C-kernel twins of :mod:`repro.compute.native`;
* :class:`PoolBackend` — fans whole-document work (publish
  re-encryption, chunk decryption, the decode feeding
  ``evaluate_many``) across a pre-forked ``ProcessPoolExecutor``.

The fallback ladder is strict and silent in production: a pool crash
or pickling failure makes the hook return ``None`` and the caller
reruns the exact same work on the serial in-process path, so a dying
worker can never fail a request — it only costs the speedup (and
increments ``stats["fallbacks"]`` so tests and benches can see it).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional

from repro.compute.native import native_available, native_factory
from repro.crypto.chunks import partition_chunks


class BackendUnavailable(RuntimeError):
    """An explicitly requested backend cannot run here."""


class ComputeBackend:
    """Contract between the schemes/station and an execution strategy.

    ``cipher_factory`` may substitute an accelerated cipher class;
    ``protect_document`` / ``decrypt_document`` may take over a whole
    document's worth of work and return its result, or return ``None``
    to decline — in which case the caller runs the serial path.  All
    backends are byte-identical by construction; only speed differs.
    """

    name = "base"

    def __init__(self):
        self.stats: Dict[str, int] = {"batches": 0, "fallbacks": 0, "chunks": 0}

    def cipher_factory(self, base):
        return base

    def protect_document(self, scheme, plaintext: bytes, version: int):
        return None

    def decrypt_document(self, scheme, document, meter):
        return None

    def close(self) -> None:
        pass

    def describe(self) -> Dict[str, object]:
        """Wire-safe self-description: backend name, counters, and
        whether the C kernels are actually loadable *here* — surfaced
        through the STATS frame so a gateway (and ``repro top``) can
        show a backend silently degraded to the serial/pure path."""
        info: Dict[str, object] = {"name": self.name}
        info.update(self.stats)
        info["native_kernels"] = bool(native_available())
        return info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "%s(%r)" % (type(self).__name__, self.name)


class PureBackend(ComputeBackend):
    """The in-process pure-Python fast paths — the universal fallback."""

    name = "pure"


class NativeBackend(ComputeBackend):
    """In-process execution on the compiled C kernels."""

    name = "native"

    def __init__(self):
        super().__init__()
        if not native_available():
            raise BackendUnavailable(
                "native kernels unavailable (no C compiler, build failure, "
                "or REPRO_NO_NATIVE set)"
            )

    def cipher_factory(self, base):
        return native_factory(base)


class PoolBackend(ComputeBackend):
    """Pre-forked worker pool for whole-document fan-out.

    Work units are contiguous chunk ranges (chunk records are
    independent for every scheme whose ``spec()`` is picklable), sized
    at a few units per worker so stragglers even out, and reassembled
    in order by plain concatenation.  Ciphers in the parent still use
    the native kernels when available, so small documents that stay
    below the fan-out threshold lose nothing.
    """

    name = "pool"

    #: Documents below this many chunks are not worth a round of IPC.
    min_chunks = 8
    #: Work units submitted per worker (keeps the pool busy to the end).
    units_per_worker = 4

    def __init__(self, workers: Optional[int] = None):
        super().__init__()
        self.workers = workers if workers else (os.cpu_count() or 2)
        self._executor: Optional[ProcessPoolExecutor] = None

    def cipher_factory(self, base):
        return native_factory(base)

    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            from repro.compute.worker import init_worker

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=init_worker
            )
        return self._executor

    def _discard_pool(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self._discard_pool()

    def _ranges(self, chunk_count: int):
        if chunk_count < self.min_chunks:
            return None
        ranges = partition_chunks(chunk_count, self.workers * self.units_per_worker)
        return ranges if len(ranges) > 1 else None

    # ------------------------------------------------------------------
    def protect_document(self, scheme, plaintext: bytes, version: int):
        spec = scheme.spec()
        if spec is None:
            return None
        count = scheme.layout.chunk_count(len(plaintext))
        ranges = self._ranges(count)
        if ranges is None:
            return None
        from repro.compute.worker import Window, protect_range
        from repro.crypto.integrity import SecureDocument

        chunk_size = scheme.layout.chunk_size
        size = len(plaintext)
        try:
            futures = [
                self._pool().submit(
                    protect_range,
                    spec,
                    Window(
                        bytes(plaintext[first * chunk_size : last * chunk_size]),
                        first * chunk_size,
                        size,
                    ),
                    first,
                    last,
                    version,
                )
                for first, last in ranges
            ]
            parts = [future.result() for future in futures]
        except Exception:
            # BrokenProcessPool, pickling trouble, … — the caller
            # reruns serially; the dead pool is replaced lazily.
            self.stats["fallbacks"] += 1
            self._discard_pool()
            return None
        self.stats["batches"] += 1
        self.stats["chunks"] += count
        return SecureDocument(
            scheme, b"".join(parts), len(plaintext), version=version
        )

    def decrypt_document(self, scheme, document, meter):
        spec = scheme.spec()
        if spec is None:
            return None
        count = scheme.layout.chunk_count(document.plaintext_size)
        ranges = self._ranges(count)
        if ranges is None:
            return None
        from repro.compute.worker import Window, decrypt_range

        layout = scheme.layout
        record = layout.chunk_size + (layout.digest_size if scheme.has_digest else 0)
        stored = document.stored
        size = len(stored)
        chunk_versions = list(document.chunk_versions)

        def window(first, last):
            start = first * record
            return Window(bytes(stored[start : last * record]), start, size)

        try:
            futures = [
                self._pool().submit(
                    decrypt_range,
                    spec,
                    window(first, last),
                    document.plaintext_size,
                    document.version,
                    chunk_versions,
                    first,
                    last,
                )
                for first, last in ranges
            ]
            results = [future.result() for future in futures]
        except Exception:
            self.stats["fallbacks"] += 1
            self._discard_pool()
            return None
        out = bytearray()
        for data, counts in results:
            out.extend(data)
            for field, value in counts.items():
                setattr(meter, field, getattr(meter, field) + value)
        self.stats["batches"] += 1
        self.stats["chunks"] += count
        return bytes(out)
