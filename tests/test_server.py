"""Tests for the network layer: wire protocol, server, client, loadgen.

Covers the protocol round-trip fuzz (truncated frames, oversized
payloads, unknown types), the asyncio server end to end over localhost
(byte-identical to the in-process path), sealed-link streaming,
structured errors, per-session limits, STATS, the thread-safe meter
and a small loadgen pass.
"""

import random
import threading

import pytest

from repro.datasets.hospital import doctor_policy, secretary_policy
from repro.engine import SecureStation
from repro.metrics import Meter, ThreadSafeMeter
from repro.server import protocol
from repro.server.client import RemoteError, RemoteSession
from repro.server.loadgen import percentile, run_load, write_report
from repro.server.protocol import (
    CHUNK,
    ERROR,
    HELLO,
    QUERY,
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    json_frame,
)
from repro.server.service import ServerThread, StationServer, hospital_station
from repro.soe.session import SecureSession
from repro.xmlkit.serializer import serialize_events


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_single_frame(self):
        data = encode_frame(CHUNK, 7, b"payload")
        frames = FrameDecoder().feed(data)
        assert frames == [Frame(CHUNK, 7, b"payload")]

    def test_round_trip_empty_payload(self):
        frames = FrameDecoder().feed(encode_frame(protocol.BYE, 0))
        assert frames == [Frame(protocol.BYE, 0, b"")]

    def test_json_frame_round_trip(self):
        data = json_frame(HELLO, 0, {"subject": "séc"})
        (frame,) = FrameDecoder().feed(data)
        assert frame.json() == {"subject": "séc"}

    def test_incremental_byte_by_byte(self):
        data = encode_frame(QUERY, 3, b"x" * 100)
        decoder = FrameDecoder()
        collected = []
        for index in range(len(data)):
            collected += decoder.feed(data[index : index + 1])
        assert collected == [Frame(QUERY, 3, b"x" * 100)]

    def test_truncated_frame_stays_pending(self):
        data = encode_frame(CHUNK, 1, b"abcdef")
        decoder = FrameDecoder()
        assert decoder.feed(data[:-2]) == []
        assert decoder.pending_bytes > 0
        assert decoder.feed(data[-2:]) == [Frame(CHUNK, 1, b"abcdef")]
        assert decoder.pending_bytes == 0

    def test_multiple_frames_one_feed(self):
        data = encode_frame(CHUNK, 1, b"a") + encode_frame(CHUNK, 1, b"b")
        assert [f.payload for f in FrameDecoder().feed(data)] == [b"a", b"b"]

    def test_bad_magic_rejected(self):
        data = bytearray(encode_frame(CHUNK, 1, b"a"))
        data[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_frame(CHUNK, 1, b"a"))
        data[1] = 99
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bytes(data))

    def test_unknown_type_rejected_by_decoder(self):
        data = bytearray(encode_frame(CHUNK, 1, b"a"))
        data[2] = 0x7F
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bytes(data))

    def test_unknown_type_rejected_by_encoder(self):
        with pytest.raises(ProtocolError):
            encode_frame(0x7F, 1, b"a")

    def test_oversized_payload_rejected_before_buffering(self):
        decoder = FrameDecoder(max_payload=64)
        header_only = encode_frame(CHUNK, 1, b"x" * 65)[: protocol.HEADER_SIZE]
        with pytest.raises(ProtocolError):
            decoder.feed(header_only)

    def test_encoder_enforces_max_payload(self):
        with pytest.raises(ProtocolError):
            encode_frame(CHUNK, 1, b"x" * 65, max_payload=64)

    def test_decoder_latches_after_error(self):
        decoder = FrameDecoder()
        bad = bytearray(encode_frame(CHUNK, 1, b"a"))
        bad[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            decoder.feed(bytes(bad))
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(CHUNK, 1, b"a"))

    def test_session_id_range_checked(self):
        with pytest.raises(ProtocolError):
            encode_frame(CHUNK, -1)
        with pytest.raises(ProtocolError):
            encode_frame(CHUNK, 1 << 32)

    def test_fuzz_round_trip_random_splits(self):
        # Two streams: all version-1 headers, then one where each frame
        # draws trace 0 (v1 header) or a nonzero 64-bit id (v2 header),
        # so split points land inside both header sizes.
        rng = random.Random(1234)
        types = sorted(protocol.TYPE_NAMES)
        for mixed in (False, True):
            frames = [
                Frame(
                    rng.choice(types),
                    rng.randrange(0, 1 << 32),
                    rng.randbytes(rng.randrange(0, 300)),
                    trace=rng.choice((0, rng.randrange(1, 1 << 64))) if mixed else 0,
                )
                for _ in range(200)
            ]
            if mixed:
                assert {f.trace == 0 for f in frames} == {True, False}
            blob = b"".join(
                encode_frame(f.type, f.session, f.payload, trace=f.trace)
                for f in frames
            )
            decoder = FrameDecoder()
            decoded = []
            position = 0
            while position < len(blob):
                step = rng.randrange(1, 40)
                decoded += decoder.feed(blob[position : position + step])
                position += step
            assert decoded == frames
            assert decoder.pending_bytes == 0

    def test_fuzz_corrupted_headers_never_desync_silently(self):
        # Corrupting magic/version/type must either raise ProtocolError
        # or (type flipped to another *valid* type) still parse into
        # exactly one intact frame — never desynchronize the stream.
        rng = random.Random(99)
        for _ in range(100):
            data = bytearray(encode_frame(CHUNK, 5, b"hello world"))
            index = rng.randrange(0, 3)  # magic / version / type byte
            data[index] = rng.randrange(0, 256)
            decoder = FrameDecoder()
            try:
                frames = decoder.feed(bytes(data))
            except ProtocolError:
                continue
            if index == 1 and data[1] == protocol.TRACE_VERSION:
                # A version byte flipped to 2 legitimately re-frames
                # the stream: the decoder now expects the 19-byte
                # traced header, so the frame is incomplete — input
                # stays buffered, nothing is silently dropped.
                assert frames == []
                assert decoder.pending_bytes == len(data)
                continue
            assert len(frames) == 1
            assert frames[0].type == data[2]
            assert frames[0].type in protocol.TYPE_NAMES
            assert frames[0].payload == b"hello world"
            assert decoder.pending_bytes == 0

    def test_encode_frame_parts_matches_encode_frame(self):
        header, payload = protocol.encode_frame_parts(CHUNK, 9, b"abc")
        assert header + payload == encode_frame(CHUNK, 9, b"abc")
        header, payload = protocol.encode_frame_parts(protocol.BYE, 0)
        assert payload == b""
        assert header == encode_frame(protocol.BYE, 0)

    def test_encode_frame_parts_validates_like_encode_frame(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame_parts(0x7F, 1, b"a")
        with pytest.raises(ProtocolError):
            protocol.encode_frame_parts(CHUNK, 1, b"x" * 65, max_payload=64)
        with pytest.raises(ProtocolError):
            protocol.encode_frame_parts(CHUNK, -1)

    def test_single_chunk_payload_is_zero_copy_view(self):
        # A payload contained in one fed buffer comes back as a
        # memoryview over it — no join, no copy.
        data = encode_frame(CHUNK, 7, b"p" * 1000)
        (frame,) = FrameDecoder().feed(data)
        assert isinstance(frame.payload, memoryview)
        assert bytes(frame.payload) == b"p" * 1000
        assert frame == Frame(CHUNK, 7, b"p" * 1000)  # equality across types

    def test_spanning_payload_reassembles_across_feeds(self):
        payload = bytes(range(256)) * 20
        data = encode_frame(CHUNK, 2, payload)
        decoder = FrameDecoder()
        frames = []
        for cut in range(0, len(data), 333):
            frames += decoder.feed(data[cut : cut + 333])
        (frame,) = frames
        assert bytes(frame.payload) == payload
        assert decoder.pending_bytes == 0

    def test_decoder_accepts_memoryview_input(self):
        data = encode_frame(QUERY, 3, b"q" * 50)
        decoder = FrameDecoder()
        frames = decoder.feed(memoryview(data)[:20])
        frames += decoder.feed(memoryview(data)[20:])
        (frame,) = frames
        assert bytes(frame.payload) == b"q" * 50
        assert decoder.pending_bytes == 0

    def test_pending_bytes_tracks_buffered_prefix(self):
        data = encode_frame(CHUNK, 1, b"x" * 100)
        decoder = FrameDecoder()
        decoder.feed(data[:50])
        assert decoder.pending_bytes == 50
        decoder.feed(data[50:])
        assert decoder.pending_bytes == 0


# ----------------------------------------------------------------------
# End-to-end over localhost
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hospital():
    station, subjects = hospital_station(folders=2, seed=11)
    return station, subjects


@pytest.fixture(scope="module")
def live_server(hospital):
    station, subjects = hospital
    server = StationServer(station, chunk_size=128)
    thread = ServerThread(server)
    host, port = thread.start()
    yield server, host, port, subjects
    thread.stop()


class TestEndToEnd:
    def test_remote_view_byte_identical_to_in_process(self, live_server, hospital):
        server, host, port, subjects = live_server
        station, _ = hospital
        for subject in subjects:
            with RemoteSession(host, port, subject) as session:
                remote = session.evaluate("hospital")
            local = station.evaluate("hospital", subject)
            assert remote.data == serialize_events(local.events).encode("utf-8")
            assert remote.seconds > 0
            assert remote.meter.get("bytes_transferred", 0) > 0

    def test_remote_view_matches_secure_session(self, live_server, hospital):
        """The acceptance path: RemoteSession over TCP == SecureSession."""
        server, host, port, subjects = live_server
        station, _ = hospital
        prepared = station.document("hospital")
        policies = {
            "secretary": secretary_policy(),
            "doctor0": doctor_policy("doctor0"),
        }
        for subject, policy in policies.items():
            expected = SecureSession(prepared, policy).run()
            with RemoteSession(host, port, subject) as session:
                remote = session.evaluate("hospital")
            assert remote.data == serialize_events(expected.events).encode(
                "utf-8"
            ), subject

    def test_remote_query_intersection(self, live_server, hospital):
        server, host, port, _subjects = live_server
        station, _ = hospital
        query = "//Folder/Admin"
        with RemoteSession(host, port, "secretary") as session:
            remote = session.evaluate("hospital", query=query)
        local = station.evaluate("hospital", "secretary", query=query)
        assert remote.data == serialize_events(local.events).encode("utf-8")

    def test_multiple_queries_one_session(self, live_server):
        server, host, port, _subjects = live_server
        with RemoteSession(host, port, "secretary") as session:
            first = session.evaluate("hospital")
            second = session.evaluate("hospital")
            assert first.data == second.data

    def test_chunking_respects_chunk_size(self, live_server):
        server, host, port, _subjects = live_server
        with RemoteSession(host, port, "secretary") as session:
            result = session.evaluate("hospital")
        assert result.chunks >= 2  # 128-byte chunks over a larger view
        assert result.trailer["bytes"] == result.result_bytes

    @pytest.mark.parametrize("chunks", [3, 4, 5, 12])
    def test_views_around_the_backpressure_window(self, hospital, chunks):
        """The first queue_depth chunks are prepared with the view; a
        longer view streams the rest through the producer thread.  Both
        sides of the switch deliver the same bytes."""
        station, _subjects = hospital
        local = serialize_events(
            station.evaluate("hospital", "secretary").events
        ).encode("utf-8")
        chunk_size = -(-len(local) // chunks)
        expected_chunks = -(-len(local) // chunk_size)
        server = StationServer(station, chunk_size=chunk_size, queue_depth=4)
        with ServerThread(server) as (host, port):
            with RemoteSession(host, port, "secretary") as session:
                remote = session.evaluate("hospital")
        assert remote.data == local
        assert remote.chunks == expected_chunks
        assert (expected_chunks > 4) == (chunks > 4)

    def test_unknown_document_is_structured_error(self, live_server):
        server, host, port, _subjects = live_server
        with RemoteSession(host, port, "secretary") as session:
            with pytest.raises(RemoteError) as excinfo:
                session.evaluate("no-such-document")
            assert excinfo.value.code == "unknown-document"
            # The session survives the error.
            assert session.evaluate("hospital").result_bytes > 0

    def test_no_grant_is_structured_error(self, live_server):
        server, host, port, _subjects = live_server
        with RemoteSession(host, port, "stranger") as session:
            with pytest.raises(RemoteError) as excinfo:
                session.evaluate("hospital")
            assert excinfo.value.code == "no-grant"

    def test_stats_round_trip(self, live_server):
        server, host, port, _subjects = live_server
        with RemoteSession(host, port, "secretary") as session:
            session.evaluate("hospital")
            stats = session.stats()
        assert stats["station"]["requests"] >= 1
        assert stats["server"]["connections"] >= 1
        assert stats["server"]["queries"] >= 1
        assert stats["meter"].get("bytes_decrypted", 0) > 0

    def test_concurrent_sessions(self, live_server, hospital):
        server, host, port, subjects = live_server
        station, _ = hospital
        expected = {
            subject: serialize_events(
                station.evaluate("hospital", subject).events
            ).encode("utf-8")
            for subject in subjects
        }
        failures = []

        def worker(subject):
            try:
                with RemoteSession(host, port, subject) as session:
                    for _ in range(3):
                        result = session.evaluate("hospital")
                        assert result.data == expected[subject]
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((subject, exc))

        threads = [
            threading.Thread(target=worker, args=(subject,))
            for subject in subjects * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestSealedLink:
    def test_sealed_chunks_round_trip(self, hospital):
        station, _subjects = hospital
        server = StationServer(station, chunk_size=256, seal=True)
        with ServerThread(server) as (host, port):
            with RemoteSession(host, port, "secretary") as session:
                assert session.sealed
                remote = session.evaluate("hospital")
        local = station.evaluate("hospital", "secretary")
        assert remote.data == serialize_events(local.events).encode("utf-8")

    def test_sealed_payload_differs_on_wire(self, hospital):
        # The raw CHUNK payloads must not contain the plaintext view.

        station, _subjects = hospital
        session = station.connect("secretary")
        stream = station.stream(
            "hospital", session.subject, chunk_size=1 << 20, sealer=session.seal
        )
        chunks = list(stream.chunks())
        assert len(chunks) == 1
        assert stream.payload not in chunks[0]
        from repro.engine.station import open_sealed

        assert open_sealed(session.session_key, chunks[0]) == stream.payload


class TestSessionLimits:
    def test_query_limit_enforced(self, hospital):
        station, _subjects = hospital
        server = StationServer(station, max_queries_per_session=2)
        with ServerThread(server) as (host, port):
            with RemoteSession(host, port, "secretary") as session:
                session.evaluate("hospital")
                session.evaluate("hospital")
                with pytest.raises(RemoteError) as excinfo:
                    session.evaluate("hospital")
                assert excinfo.value.code == "limit"

    def test_query_before_hello_rejected(self, live_server):
        import socket

        server, host, port, _subjects = live_server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(json_frame(QUERY, 0, {"document": "hospital"}))
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
        assert frames and frames[0].type == protocol.ERROR
        assert frames[0].json()["code"] == "protocol"

    def test_chunk_size_must_fit_frame_limit(self, hospital):
        station, _subjects = hospital
        with pytest.raises(ValueError):
            StationServer(station, chunk_size=2_000_000)  # > 1 MiB default
        with pytest.raises(ValueError):
            # Sealing inflates chunks past the limit.
            StationServer(station, chunk_size=1 << 20, seal=True)
        StationServer(station, chunk_size=1 << 20)  # exact fit is fine

    def test_client_disconnect_mid_stream_does_not_hang_shutdown(self, hospital):
        """A client that vanishes mid-stream must not leave the
        producer thread parked on the backpressure gate (shutdown
        would then hang)."""
        import socket
        import time

        station, _subjects = hospital
        server = StationServer(station, chunk_size=4, queue_depth=1)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(json_frame(HELLO, 0, {"subject": "secretary"}))
            sock.recv(4096)  # WELCOME
            sock.sendall(json_frame(QUERY, 1, {"document": "hospital"}))
            sock.recv(64)  # a sliver of the stream, then vanish
            sock.close()
            deadline = time.monotonic() + 5
            while server.server_stats["active"] and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            thread.stop(timeout=5)
        assert server.server_stats["active"] == 0

    def test_garbage_bytes_get_bad_frame_error(self, live_server):
        import socket

        server, host, port, _subjects = live_server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"\x00" * 32)
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
        assert frames and frames[0].json()["code"] == "bad-frame"

    def test_deeply_nested_hello_gets_bad_frame_error(self, live_server):
        import socket

        server, host, port, subjects = live_server
        # Nesting past the recursion limit: json.loads raises
        # RecursionError, which must become a bad-frame reply.
        payload = b'{"subject":' + b"[" * 100_000
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(encode_frame(HELLO, 0, payload))
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
        assert frames and frames[0].json()["code"] == "bad-frame"
        # The server keeps serving other clients.
        with RemoteSession(host, port, subjects[0]) as session:
            assert session.evaluate("hospital").data

    @pytest.mark.parametrize(
        "hello",
        [{"subject": None}, {"subject": [1]}, {"subject": 7}, {}],
        ids=["null", "list", "number", "missing"],
    )
    def test_non_string_hello_subject_gets_bad_frame_error(
        self, live_server, hello
    ):
        import socket

        _server, host, port, _subjects = live_server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(json_frame(HELLO, 0, hello))
            decoder = FrameDecoder()
            frames = []
            while not frames:
                data = sock.recv(65536)
                if not data:
                    break
                frames = decoder.feed(data)
        assert frames and frames[0].type == ERROR
        assert frames[0].json() == {
            "code": "bad-frame",
            "message": "HELLO payload must carry a subject",
        }


# ----------------------------------------------------------------------
# Thread-safe meter
# ----------------------------------------------------------------------
class TestThreadSafeMeter:
    def test_concurrent_merge_is_exact(self):
        total = ThreadSafeMeter()
        per_thread = 200

        def worker():
            for _ in range(per_thread):
                local = Meter()
                local.events = 3
                local.bytes_decrypted = 7
                total.merge(local)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert total.events == 8 * per_thread * 3
        assert total.bytes_decrypted == 8 * per_thread * 7

    def test_snapshot_is_plain_meter(self):
        total = ThreadSafeMeter()
        local = Meter()
        local.token_ops = 5
        total.merge(local)
        snap = total.snapshot()
        assert type(snap) is Meter
        assert snap.token_ops == 5
        snap.token_ops = 99
        assert total.token_ops == 5  # a copy, not a view

    def test_merged_helper(self):
        meters = []
        for value in (1, 2, 3):
            meter = Meter()
            meter.events = value
            meters.append(meter)
        assert Meter.merged(meters).events == 6


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.0  # ceil(0.5 * 4) = rank 2
        assert percentile(values, 51) == 3.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 95) == 7.0

    def test_percentile_small_samples_do_not_understate_tail(self):
        # With n < 100 the old interpolation reported a p99 below the
        # worst observed request; nearest-rank must return the max.
        for n in (1, 2, 3, 5, 10, 50, 99):
            values = [float(i) for i in range(1, n + 1)]
            assert percentile(values, 99) == float(n), n
            assert percentile(values, 95) >= percentile(values, 50)
        # Sanity at n = 100: p99 is the 99th sample, not the 100th.
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 99) == 99.0
        assert percentile(values, 50) == 50.0

    def test_percentile_unsorted_input_and_bounds(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([], 150)  # bounds beat the empty-input shortcut

    def test_two_client_smoke(self, live_server, tmp_path):
        server, host, port, subjects = live_server
        report = run_load(
            host, port, clients=2, queries=2, subjects=subjects
        )
        assert report["requests"] == 4
        assert report["errors"] == 0
        assert report["throughput_rps"] > 0
        assert report["latency_ms"]["p50"] > 0
        assert report["latency_ms"]["p95"] >= report["latency_ms"]["p50"]
        out = tmp_path / "BENCH_server.json"
        write_report(report, str(out))
        import json

        loaded = json.loads(out.read_text())
        assert loaded["bench"] == "server_load"

    def test_parse_mix_spec(self):
        from repro.server.loadgen import parse_mix_spec

        assert parse_mix_spec("secretary") == ("secretary", None, 1.0)
        assert parse_mix_spec("doctor0:3") == ("doctor0", None, 3.0)
        assert parse_mix_spec("researcher:2://Folder[//Age > 60]") == (
            "researcher",
            "//Folder[//Age > 60]",
            2.0,
        )
        # Colons inside the query survive (only the first two split).
        assert parse_mix_spec("s:1:a:b:c") == ("s", "a:b:c", 1.0)
        import argparse

        for bad in ("", ":2", "s:zero", "s:-1"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_mix_spec(bad)

    def test_mixed_workload_reports_per_class(self, live_server):
        server, host, port, subjects = live_server
        mix = [
            (subjects[0], None, 3.0),
            (subjects[1], "//Folder", 1.0),
        ]
        report = run_load(
            host, port, clients=2, queries=6, subjects=subjects, mix=mix, seed=5
        )
        assert report["requests"] == 12
        assert report["errors"] == 0
        classes = report["classes"]
        assert sum(entry["requests"] for entry in classes.values()) == 12
        # Weighted draw with seed 5 over 12 requests must exercise both
        # classes, and repeats within a class hit the view cache.
        assert len(classes) == 2
        assert report["cached_hits"] == sum(
            entry["cached"] for entry in classes.values()
        )
        assert report["cached_hits"] >= 12 - 2 * len(classes)

    def test_mixed_workload_is_seed_reproducible(self, live_server):
        server, host, port, subjects = live_server
        mix = [(subjects[0], None, 1.0), (subjects[2], None, 1.0)]
        first = run_load(
            host, port, clients=2, queries=5, subjects=subjects, mix=mix, seed=9
        )
        second = run_load(
            host, port, clients=2, queries=5, subjects=subjects, mix=mix, seed=9
        )
        assert {k: v["requests"] for k, v in first["classes"].items()} == {
            k: v["requests"] for k, v in second["classes"].items()
        }


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
class TestCli:
    def test_remote_view_command(self, live_server, capsys):
        from repro.cli import main

        server, host, port, _subjects = live_server
        assert (
            main(
                [
                    "remote-view",
                    "%s:%d" % (host, port),
                    "hospital",
                    "--subject",
                    "secretary",
                    "--costs",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "<Hospital>" in captured.out
        assert "simulated" in captured.err

    def test_loadgen_command(self, live_server, tmp_path, capsys):
        import json

        from repro.cli import main

        server, host, port, subjects = live_server
        out = tmp_path / "BENCH_server.json"
        argv = [
            "loadgen",
            "%s:%d" % (host, port),
            "--clients",
            "2",
            "--queries",
            "2",
            "--output",
            str(out),
        ]
        for subject in subjects:
            argv += ["--subject", subject]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["requests"] == 4
        assert report["errors"] == 0
        assert "req/s" in capsys.readouterr().out

    def test_serve_parser_accepts_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--hospital", "2", "--seal"]
        )
        assert args.port == 0
        assert args.hospital == 2
        assert args.seal
        assert args.func.__name__ == "cmd_serve"

    def test_serve_command_over_a_store_file(self, tmp_path):
        """`repro serve --store` end to end: protect a file, serve it
        from a background thread, read it back with remote-view."""
        from repro.cli import main

        xml = tmp_path / "doc.xml"
        xml.write_text(
            "<shop><item><name>x</name></item><secret>k</secret></shop>"
        )
        store = tmp_path / "doc.store"
        key = "00112233445566778899aabbccddeeff"
        assert main(["protect", str(xml), str(store), "--key", key]) == 0

        from repro.cli import _load_store, _parse_key, _parse_rules
        from repro.accesscontrol.model import Policy
        from repro.engine import SecureStation

        station = SecureStation()
        station.publish("store", _load_store(str(store), _parse_key(key)))
        policy = Policy(_parse_rules(["+://shop/item"]), subject="bob")
        station.grant("store", policy, subject="bob")
        server = StationServer(station)
        with ServerThread(server) as (host, port):
            with RemoteSession(host, port, "bob") as session:
                result = session.evaluate("store")
        assert "<name>x</name>" in result.text
        assert "secret" not in result.text
