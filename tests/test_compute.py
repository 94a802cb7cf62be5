"""Compute-backend tests: kernel parity, selection, degradation, fuzz.

The pure-Python SWAR paths are the oracle; the native C kernels and
the process-pool backend must be byte-identical to them on every
scheme, and every failure mode (no compiler, crashed worker) must
degrade to the pure path without failing a request.
"""

import os
import random

import pytest

from repro import Policy, make_policy
from repro.compute import (
    BackendUnavailable,
    NativeBackend,
    PoolBackend,
    PureBackend,
    auto_backend,
    available_backends,
    native_available,
    reset_native_cache,
    resolve_backend,
)
from repro.compute.backends import ComputeBackend
from repro.compute.native import NO_NATIVE_ENV
from repro.compute.worker import POOL_CRASH_ENV, Window
from repro.crypto import modes
from repro.crypto.des import Des, TripleDes
from repro.crypto.integrity import SCHEMES, make_scheme
from repro.crypto.xtea import Xtea
from repro.metrics import Meter

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernels unavailable"
)


def random_bytes(rng: random.Random, length: int) -> bytes:
    return bytes(rng.randrange(256) for _ in range(length))


# ---------------------------------------------------------------------------
# Native kernels vs the pure oracle
# ---------------------------------------------------------------------------


@needs_native
@pytest.mark.parametrize("kind", ["xtea", "des", "3des"])
def test_native_kernels_match_pure_oracle(kind):
    from repro.compute.native import NativeDes, NativeTripleDes, NativeXtea

    rng = random.Random(1234)
    pure, native = {
        "xtea": lambda: (Xtea(bytes(range(16))), NativeXtea(bytes(range(16)))),
        "des": lambda: (Des(bytes(range(8))), NativeDes(bytes(range(8)))),
        "3des": lambda: (
            TripleDes(bytes(range(24))),
            NativeTripleDes(bytes(range(24))),
        ),
    }[kind]()
    for length in (0, 8, 64, 2048, 4096 + 8):
        data = random_bytes(rng, length)
        sealed = modes.encrypt_ecb(native, data)
        assert sealed == modes.encrypt_ecb_reference(pure, data)
        assert modes.decrypt_ecb(native, sealed) == data
        assert modes.decrypt_ecb(pure, sealed) == data


@needs_native
@pytest.mark.parametrize("kind", ["xtea", "des", "3des"])
def test_native_positioned_matches_reference(kind):
    """The positioned C kernel vs both the SWAR fast path and the
    block-at-a-time reference, including versioned and wrap-adjacent
    start positions."""
    from repro.compute.native import NativeDes, NativeTripleDes, NativeXtea

    rng = random.Random(99)
    pure, native = {
        "xtea": lambda: (Xtea(bytes(range(16))), NativeXtea(bytes(range(16)))),
        "des": lambda: (Des(bytes(range(8))), NativeDes(bytes(range(8)))),
        "3des": lambda: (
            TripleDes(bytes(range(24))),
            NativeTripleDes(bytes(range(24))),
        ),
    }[kind]()
    positions = [0, 8, 2048, (1 << 63) - 8, (123 << 40) | 4096, (1 << 64) - 16]
    for length in (0, 8, 2048):
        data = random_bytes(rng, length)
        for position in positions:
            reference = modes.encrypt_positioned_reference(pure, data, position)
            assert modes.encrypt_positioned(pure, data, position) == reference
            assert modes.encrypt_positioned(native, data, position) == reference
            assert modes.decrypt_positioned(native, reference, position) == data
            assert modes.decrypt_positioned(pure, reference, position) == data


@needs_native
def test_native_cbc_matches_pure_chain():
    from repro.compute.native import NativeXtea

    rng = random.Random(7)
    pure = Xtea(bytes(range(16)))
    native = NativeXtea(bytes(range(16)))
    for length in (8, 2048, 2048 * 3):
        data = random_bytes(rng, length)
        iv = modes.make_iv(rng.randrange(1 << 32))
        sealed = modes.encrypt_cbc(native, data, iv)
        assert sealed == modes.encrypt_cbc_reference(pure, data, iv)
        assert modes.decrypt_cbc(native, sealed, iv) == data
        assert modes.decrypt_cbc(pure, sealed, iv) == data


def test_chunked_cbc_matches_reference():
    """Lockstep chunked CBC (the parallelizable form) is byte-identical
    to encrypting each chunk independently."""
    rng = random.Random(21)
    cipher = Xtea(bytes(range(16)))
    chunks = [random_bytes(rng, 2048) for _ in range(5)]
    ivs = [modes.make_iv(i) for i in range(5)]
    fast = modes.encrypt_cbc_chunked(cipher, chunks, ivs)
    reference = modes.encrypt_cbc_chunked_reference(cipher, chunks, ivs)
    assert fast == reference
    assert fast == [modes.encrypt_cbc(cipher, c, iv) for c, iv in zip(chunks, ivs)]


def test_position_mask_cache_is_bounded():
    info = modes.position_mask_cache_info()
    assert info["size"] <= info["maxsize"]
    baseline_misses = info["misses"]
    # Far more distinct (position, count) keys than the cap can hold.
    for position in range(0, info["maxsize"] * 16 * 8, 8):
        modes.encrypt_positioned(Xtea(bytes(range(16))), b"\x00" * 8, position)
    info = modes.position_mask_cache_info()
    assert info["size"] <= info["maxsize"]
    assert info["misses"] > baseline_misses
    # A repeated key is served from the memo.
    before = modes.position_mask_cache_info()["hits"]
    cipher = Xtea(bytes(range(16)))
    modes.encrypt_positioned(cipher, b"\x00" * 16, 0)
    modes.encrypt_positioned(cipher, b"\x00" * 16, 0)
    assert modes.position_mask_cache_info()["hits"] > before


# ---------------------------------------------------------------------------
# Backend selection and degradation
# ---------------------------------------------------------------------------


def test_resolve_backend_names_and_passthrough():
    assert isinstance(resolve_backend("pure"), PureBackend)
    pool = resolve_backend("pool")
    assert isinstance(pool, PoolBackend)
    pool.close()
    instance = PureBackend()
    assert resolve_backend(instance) is instance
    with pytest.raises(ValueError):
        resolve_backend("simd")


def test_auto_prefers_native_when_available():
    backend = auto_backend()
    if native_available():
        assert isinstance(backend, NativeBackend)
    else:
        assert isinstance(backend, PureBackend)
    assert resolve_backend(None).name == backend.name
    assert resolve_backend("auto").name == backend.name


def test_no_native_env_forces_pure(monkeypatch):
    """With REPRO_NO_NATIVE set (the no-compiler CI leg), auto resolves
    to pure and an explicit native request is a loud error."""
    monkeypatch.setenv(NO_NATIVE_ENV, "1")
    reset_native_cache()
    try:
        assert not native_available()
        assert "native" not in available_backends()
        assert isinstance(auto_backend(), PureBackend)
        assert isinstance(resolve_backend("auto"), PureBackend)
        with pytest.raises(BackendUnavailable):
            NativeBackend()
    finally:
        monkeypatch.delenv(NO_NATIVE_ENV)
        reset_native_cache()


def test_base_backend_declines_document_hooks():
    backend = ComputeBackend()
    scheme = make_scheme("CBC-SHAC")
    assert backend.protect_document(scheme, b"x" * 4096, 0) is None
    assert backend.decrypt_document(scheme, object(), Meter()) is None
    assert backend.describe()["name"] == "base"


# ---------------------------------------------------------------------------
# Pool backend: parity, thresholds, crash fallback
# ---------------------------------------------------------------------------


@pytest.fixture
def pool():
    backend = PoolBackend(workers=2)
    yield backend
    backend.close()


def test_pool_protect_and_decrypt_match_serial(pool):
    rng = random.Random(5)
    plaintext = random_bytes(rng, 50_000)  # ~25 chunks: crosses min_chunks
    scheme = make_scheme("CBC-SHAC", backend=pool)
    serial = make_scheme("CBC-SHAC")

    document = pool.protect_document(scheme, plaintext, 0)
    assert document is not None, "pool declined a fan-out-sized document"
    assert document.stored == serial.protect(plaintext).stored

    meter = Meter()
    plain = pool.decrypt_document(scheme, document, meter)
    assert plain == plaintext
    assert meter.bytes_decrypted > 0  # worker meters folded into ours
    assert pool.stats["batches"] == 2
    assert pool.stats["fallbacks"] == 0


@pytest.mark.parametrize("name", ["ECB", "ECB-MHT", "CBC-SHA", "CBC-SHAC"])
def test_pool_units_ship_only_their_range(pool, monkeypatch, name):
    """Each work unit carries just its chunk range's bytes, and the
    folded meters equal the serial reader's, field by field."""
    rng = random.Random(8)
    plaintext = random_bytes(rng, 50_000)
    scheme = make_scheme(name, backend=pool)
    shipped = []
    executor = pool._pool()
    submit = executor.submit

    def recording_submit(fn, spec, window, *args):
        shipped.append(len(window.data))
        return submit(fn, spec, window, *args)

    monkeypatch.setattr(executor, "submit", recording_submit)
    document = pool.protect_document(scheme, plaintext, 3)
    assert document is not None
    assert document.stored == make_scheme(name).protect(plaintext, 3).stored
    assert sum(shipped) == len(plaintext)

    del shipped[:]
    meter = Meter()
    assert pool.decrypt_document(scheme, document, meter) == plaintext
    assert sum(shipped) == len(document.stored)
    serial = Meter()
    make_scheme(name).reader(document, serial).read(0, len(plaintext))
    assert meter.as_dict() == serial.as_dict()


def test_window_slices_by_absolute_offset():
    window = Window(b"cdef", 2, 10)
    assert len(window) == 10
    assert window[2:4] == b"cd"
    assert window[3:6] == b"def"
    assert window[7:7] == b""
    with pytest.raises(IndexError):
        window[1:3]  # starts before the shipped bytes
    with pytest.raises(IndexError):
        window[4:8]  # runs past them
    with pytest.raises(TypeError):
        window[3]


def test_pool_declines_small_documents(pool):
    scheme = make_scheme("CBC-SHAC", backend=pool)
    assert pool.protect_document(scheme, b"tiny" * 100, 0) is None
    assert pool.stats["batches"] == 0


def test_pool_declines_unpicklable_scheme(pool):
    """CBC-SHA-DOC chains the whole document, so it has no picklable
    spec and must stay on the serial path."""
    scheme = make_scheme("CBC-SHA-DOC", backend=pool)
    assert scheme.spec() is None
    assert pool.protect_document(scheme, b"x" * 50_000, 0) is None


def test_pool_crash_falls_back_and_recovers(pool, monkeypatch):
    rng = random.Random(6)
    plaintext = random_bytes(rng, 50_000)
    scheme = make_scheme("CBC-SHAC", backend=pool)

    monkeypatch.setenv(POOL_CRASH_ENV, "1")
    assert pool.protect_document(scheme, plaintext, 0) is None
    assert pool.stats["fallbacks"] == 1

    # Clearing the crash switch, the (lazily re-forked) pool serves again.
    monkeypatch.delenv(POOL_CRASH_ENV)
    document = pool.protect_document(scheme, plaintext, 0)
    assert document is not None
    assert document.stored == make_scheme("CBC-SHAC").protect(plaintext).stored


def test_station_survives_pool_crash(monkeypatch):
    """A pool crash mid-batch must not fail the request: the station's
    ``evaluate_many`` falls back to the serial reader and serves the
    identical views with zero failed subjects."""
    from repro.engine import SecureStation
    from repro.soe.session import prepare_document
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize_events

    # ~6 encoded bytes per folder: 4000 folders crosses the pool's
    # 8-chunk fan-out threshold with margin.
    document = "<clinic>" + "<folder><id>1</id></folder>" * 4000 + "</clinic>"
    tree = parse_document(document)
    policies = [
        make_policy([("+", "//folder")], subject="alice"),
        make_policy([("+", "//folder"), ("-", "//id")], subject="bob"),
    ]
    prepared = prepare_document(tree, scheme="CBC-SHAC")

    oracle = SecureStation(cache_views=False, backend="pure")
    oracle.publish("doc", prepared)
    expected = oracle.evaluate_many("doc", policies)

    station = SecureStation(cache_views=False, backend=PoolBackend(workers=2))
    station.publish("doc", prepared)
    healthy = station.evaluate_many("doc", policies)
    assert station.backend.stats["batches"] >= 1  # the pool decoded it

    # The crash switch is read per task inside the workers, which
    # inherit the environment at fork time — recycle the pool so the
    # next batch forks workers that see it.
    station.backend.close()
    monkeypatch.setenv(POOL_CRASH_ENV, "1")
    try:
        crashed = station.evaluate_many("doc", policies)
    finally:
        monkeypatch.delenv(POOL_CRASH_ENV)
    assert station.backend.stats["fallbacks"] >= 1

    for batch in (healthy, crashed):
        assert not batch.failures
        for policy in policies:
            assert serialize_events(
                batch[policy.subject].events
            ) == serialize_events(expected[policy.subject].events)
    station.close()


# ---------------------------------------------------------------------------
# Differential fuzz: pure == native == pool, every scheme
# ---------------------------------------------------------------------------


def _backends_under_test():
    backends = [PureBackend()]
    if native_available():
        backends.append(NativeBackend())
    backends.append(PoolBackend(workers=2))
    return backends


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_fuzz_backends_byte_identical(name):
    """Random plaintexts through protect + full read-back on every
    backend: stored bytes and recovered plaintext must match the pure
    oracle exactly (the acceptance bar for the whole backend layer)."""
    rng = random.Random(hash(name) & 0xFFFF)
    backends = _backends_under_test()
    try:
        for _ in range(3):
            plaintext = random_bytes(rng, rng.choice([0, 37, 4096, 30_000]))
            version = rng.randrange(4)
            oracle = make_scheme(name)
            expected = oracle.protect(plaintext, version=version)
            for backend in backends:
                scheme = make_scheme(name, backend=backend)
                document = None
                if isinstance(backend, PoolBackend):
                    document = backend.protect_document(
                        scheme, plaintext, version
                    )
                if document is None:
                    document = scheme.protect(plaintext, version=version)
                assert document.stored == expected.stored, (name, backend.name)
                recovered = None
                if isinstance(backend, PoolBackend):
                    recovered = backend.decrypt_document(
                        scheme, document, Meter()
                    )
                if recovered is None:
                    recovered = scheme.reader(document, Meter()).read(
                        0, len(plaintext)
                    )
                assert recovered == plaintext, (name, backend.name)
    finally:
        for backend in backends:
            backend.close()


@pytest.mark.parametrize("name", ["ECB", "CBC-SHAC"])
def test_fuzz_station_views_identical_across_backends(name):
    from repro.engine import SecureStation
    from repro.soe.session import prepare_document
    from repro.xmlkit.parser import parse_document
    from repro.xmlkit.serializer import serialize, serialize_events

    from test_differential import random_policy, random_tree

    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(3):
        tree = parse_document(serialize(random_tree(rng, max_nodes=25)))
        policy = Policy(random_policy(rng).rules, subject="fuzz")
        prepared = prepare_document(tree, scheme=name)
        views = {}
        for backend in _backends_under_test():
            station = SecureStation(cache_views=False, backend=backend)
            station.publish("doc", prepared)
            views[backend.name] = serialize_events(
                station.evaluate("doc", policy).events
            )
            station.close()
        reference = views.pop("pure")
        for backend_name, view in views.items():
            assert view == reference, backend_name
