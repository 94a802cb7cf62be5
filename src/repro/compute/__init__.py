"""Compute backends: which cipher implementation the crypto paths run on.

Selection: ``SecureStation(backend=...)`` / ``repro serve --backend``
accept ``"pure"``, ``"native"``, ``"auto"`` (or ``None``), or an
already-constructed :class:`ComputeBackend`.  A backend is a
cipher-factory choice: ``native`` swaps each cipher class for its
C-kernel twin, ``pure`` keeps the pure-Python fast paths.  Auto-detection
prefers the native C kernels when a compiler is (or was) available and
falls back to pure Python otherwise.
"""

from __future__ import annotations

from typing import Union

from repro.compute.backends import (
    BackendUnavailable,
    ComputeBackend,
    NativeBackend,
    PureBackend,
)
from repro.compute.native import native_available, reset_native_cache


def auto_backend() -> ComputeBackend:
    """Fastest always-safe backend for this machine."""
    if native_available():
        return NativeBackend()
    return PureBackend()


def resolve_backend(
    spec: Union[None, str, ComputeBackend],
) -> ComputeBackend:
    """Turn a backend selector into a live backend instance.

    ``None`` / ``"auto"`` auto-detect; explicit names are strict —
    asking for ``"native"`` on a machine without the kernels raises
    :class:`BackendUnavailable` instead of silently degrading.
    """
    if isinstance(spec, ComputeBackend):
        return spec
    if spec is None or spec == "auto":
        return auto_backend()
    if spec == "pure":
        return PureBackend()
    if spec == "native":
        return NativeBackend()
    raise ValueError(
        "unknown compute backend %r (expected 'pure', 'native', 'auto', "
        "or a ComputeBackend instance)" % (spec,)
    )


__all__ = [
    "BackendUnavailable",
    "ComputeBackend",
    "NativeBackend",
    "PureBackend",
    "auto_backend",
    "native_available",
    "reset_native_cache",
    "resolve_backend",
]
