"""Process-pool worker side of the pool compute backend.

Everything here runs inside a forked worker process.  Workers never
receive live scheme or cipher objects (ctypes arrays and backends do
not pickle); they receive the picklable ``scheme.spec()`` tuple and
rebuild the scheme once per (worker, spec) pair, caching the result —
that is the "pre-forked workers holding deserialized key schedules"
piece: the XTEA round schedule / DES subkeys are derived on first use
and then amortized over every subsequent work unit.

``REPRO_POOL_CRASH`` (checked per task, so tests can set it in the
parent before the pool forks) makes every task kill its worker with
``os._exit`` — the hook the degradation tests use to prove a mid-batch
pool crash falls back to the serial path with no failed requests.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.crypto.integrity import scheme_from_spec
from repro.metrics import Meter

#: Env var: when set, worker tasks exit(13) immediately (crash tests).
POOL_CRASH_ENV = "REPRO_POOL_CRASH"

_SCHEME_CACHE: Dict[tuple, object] = {}


def _maybe_crash() -> None:
    if os.environ.get(POOL_CRASH_ENV):
        os._exit(13)


def _scheme_for(spec: tuple):
    scheme = _SCHEME_CACHE.get(spec)
    if scheme is None:
        scheme = scheme_from_spec(spec)
        _SCHEME_CACHE[spec] = scheme
    return scheme


class Window:
    """A slice of a larger buffer, addressed by the buffer's offsets.

    Work units ship only the bytes their chunk range touches, but the
    scheme code indexes plaintext and chunk records by absolute
    position; a window answers ``len`` and contiguous slicing as if it
    were the whole buffer.  A slice outside the shipped bytes raises
    ``IndexError`` rather than reading short.
    """

    __slots__ = ("data", "base", "size")

    def __init__(self, data: bytes, base: int, size: int):
        self.data = data
        self.base = base
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        if not isinstance(index, slice):
            raise TypeError("a window only supports slicing")
        start, stop, step = index.indices(self.size)
        if step != 1:
            raise TypeError("a window only supports contiguous slicing")
        if start < stop and (
            start < self.base or stop > self.base + len(self.data)
        ):
            raise IndexError("slice outside the shipped window")
        return self.data[start - self.base : stop - self.base]


def init_worker() -> None:
    """Pool initializer — a warm-up hook and a fork-sanity marker."""
    _SCHEME_CACHE.clear()


def protect_range(
    spec: tuple, plaintext: Window, first: int, last: int, version: int
) -> bytes:
    """The concatenated stored records of chunks ``[first, last)``.

    ``plaintext`` holds just those chunks' bytes (see :class:`Window`).
    """
    _maybe_crash()
    scheme = _scheme_for(spec)
    return b"".join(scheme._chunk_records(plaintext, range(first, last), version))


def decrypt_range(
    spec: tuple,
    stored: Window,
    plaintext_size: int,
    version: int,
    chunk_versions: Optional[List[int]],
    first: int,
    last: int,
) -> Tuple[bytes, Dict[str, int]]:
    """Decrypt + verify the plaintext covered by chunks ``[first, last)``.

    ``stored`` holds just the range's chunk records, addressed by
    absolute offset (see :class:`Window`); the worker reads — and
    therefore decrypts, verifies and meters — only that range.
    Returns the plaintext slice and the meter counts to fold into the
    caller's meter.
    """
    _maybe_crash()
    scheme = _scheme_for(spec)
    from repro.crypto.integrity import SecureDocument

    document = SecureDocument(
        scheme,
        stored,
        plaintext_size,
        version=version,
        chunk_versions=chunk_versions,
    )
    meter = Meter()
    reader = scheme.reader(document, meter)
    start = first * scheme.layout.chunk_size
    end = min(last * scheme.layout.chunk_size, plaintext_size)
    data = reader.read(start, end - start)
    return data, meter.as_dict()
